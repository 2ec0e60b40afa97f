"""Refinery tests: target rules with worked examples, fold-out EP generation,
purity auditing, and the multi-generation loop."""

import math

import numpy as np
import pytest

from emorefinery.classifier import EmotionDistribution, TrainConfig, one_hot, uniform_distribution
from emorefinery.errors import ConfigError, DataError
from emorefinery.features import Segment
from emorefinery.network import Architecture
from emorefinery.refinery import (
    EmotionProfile,
    LabeledUtterance,
    RefineryConfig,
    build_ep,
    combine_with_hard,
    foldout_purity_violations,
    generate_eps_foldout,
    hard_dynamic_label,
    initial_labels,
    mean_ep_entropy,
    next_targets,
    read_ep_csv,
    refine_standard,
    run_refinery,
    soft_static_label,
    write_ep_csv,
)

NAMES4 = ("angry", "happy", "neutral", "sad")
NAMES6 = ("angry", "fear", "happy", "neutral", "sad", "surprise")
TINY = Architecture(name="tiny", conv_stages=((2,), (2,)), dtype="float64")


def dist(values, names=NAMES4):
    return EmotionDistribution(probs=np.asarray(values, dtype=np.float64), class_names=names)


def tiny_corpus(rng, n_utts=9, n_segments=2, n_classes=4):
    corpus = []
    for i in range(n_utts):
        uid = f"utt{i:02d}"
        segs = [Segment(rng.standard_normal((16, 8)), uid, j) for j in range(n_segments)]
        corpus.append(LabeledUtterance(utterance_id=uid, label=i % n_classes,
                                       segments=segs, speaker=f"spk{i % 2}"))
    return corpus


def fast_config(**kw):
    args = dict(generations=1, mode="pEPR", folds=3, seed=7,
                train=TrainConfig(max_epochs=1, batch_size=16, architecture=TINY, seed=0))
    args.update(kw)
    return RefineryConfig(**args)


class TestInitialLabels:
    def test_three_copies(self):
        labels = initial_labels(0, 3, NAMES4)
        assert len(labels) == 3
        for lab in labels:
            np.testing.assert_array_equal(lab.probs, [1, 0, 0, 0])

    def test_six_class_single_segment(self):
        labels = initial_labels(2, 1, NAMES6)
        np.testing.assert_array_equal(labels[0].probs, [0, 0, 1, 0, 0, 0])

    def test_entropy_zero(self):
        from emorefinery.classifier import entropy

        for lab in initial_labels(1, 5, NAMES4):
            assert entropy(lab) == 0.0

    def test_bad_class_index(self):
        with pytest.raises(DataError):
            initial_labels(4, 2, NAMES4)


class TestBuildEp:
    def test_columns_in_order(self):
        ep = build_ep([dist([1, 0], ("a", "b")), dist([0, 1], ("a", "b"))], "u1", 2)
        np.testing.assert_array_equal(ep.values, [[1, 0], [0, 1]])
        assert ep.utterance_id == "u1"
        assert ep.generation == 2

    def test_single_prediction(self):
        d = dist([0.25, 0.25, 0.25, 0.25])
        ep = build_ep([d])
        assert ep.values.shape == (4, 1)
        np.testing.assert_array_equal(ep.values[:, 0], d.probs)

    def test_round_trip_bit_equal(self):
        rng = np.random.default_rng(0)
        preds = []
        for _ in range(5):
            p = rng.uniform(0.05, 1.0, 4)
            preds.append(dist(p / p.sum()))
        ep = build_ep(preds)
        for i, p in enumerate(preds):
            np.testing.assert_array_equal(ep.column(i).probs, p.probs)

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no predictions"):
            build_ep([])

    def test_mixed_classes_rejected(self):
        with pytest.raises(DataError, match="mix"):
            build_ep([dist([0.5, 0.5], ("a", "b")), dist([0.5, 0.5], ("x", "y"))])


class TestTargetRules:
    def test_refine_standard_passthrough(self):
        for p in ([0.6, 0.1, 0.1, 0.2], [1, 0, 0, 0], [0.25] * 4):
            d = dist(p)
            assert refine_standard(d) is d

    def test_combine_worked_example_exact(self):
        out = combine_with_hard(dist([0.6, 0.1, 0.1, 0.2]), one_hot(0, NAMES4))
        np.testing.assert_array_equal(out.probs, [0.8, 0.05, 0.05, 0.1])

    def test_combine_fixed_point(self):
        h = one_hot(1, NAMES4)
        np.testing.assert_array_equal(combine_with_hard(h, h).probs, h.probs)

    def test_combine_uniform(self):
        out = combine_with_hard(uniform_distribution(NAMES4), one_hot(0, NAMES4))
        np.testing.assert_array_equal(out.probs, [0.625, 0.125, 0.125, 0.125])

    def test_combine_rejects_soft_hard_label(self):
        with pytest.raises(DataError, match="one-hot"):
            combine_with_hard(dist([0.25] * 4), dist([0.5, 0.5, 0, 0]))

    def test_combine_hard_mass_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            p = rng.uniform(0, 1, 6)
            pred = dist(p / p.sum(), NAMES6)
            c = rng.integers(0, 6)
            out = combine_with_hard(pred, one_hot(c, NAMES6))
            assert out.probs[c] >= max(0.5, pred.probs[c]) - 1e-15
            assert out.argmax() == c
            assert abs(out.probs.sum() - 1.0) < 1e-12

    def test_hard_dynamic(self):
        np.testing.assert_array_equal(hard_dynamic_label(dist([0.6, 0.1, 0.1, 0.2])).probs,
                                      [1, 0, 0, 0])

    def test_hard_dynamic_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.uniform(0, 1, 4)
            once = hard_dynamic_label(dist(p / p.sum()))
            np.testing.assert_array_equal(hard_dynamic_label(once).probs, once.probs)

    def test_hard_dynamic_tie_to_lowest(self):
        out = hard_dynamic_label(dist([0.5, 0.5], ("a", "b")))
        np.testing.assert_array_equal(out.probs, [1, 0])

    def test_soft_static_mean(self):
        out = soft_static_label([dist([1, 0], ("a", "b")), dist([0, 1], ("a", "b"))])
        np.testing.assert_array_equal(out.probs, [0.5, 0.5])

    def test_soft_static_constant_inputs(self):
        d = dist([0.7, 0.1, 0.1, 0.1])
        out = soft_static_label([d] * 4)
        np.testing.assert_allclose(out.probs, d.probs, atol=1e-15)

    def test_soft_static_sums_to_one(self):
        rng = np.random.default_rng(3)
        preds = []
        for _ in range(7):
            p = rng.uniform(0, 1, 6)
            preds.append(dist(p / p.sum(), NAMES6))
        assert abs(soft_static_label(preds).probs.sum() - 1.0) < 1e-9

    def test_soft_static_empty_rejected(self):
        with pytest.raises(DataError):
            soft_static_label([])


class TestEmotionProfile:
    def test_invalid_column_sum(self):
        with pytest.raises(DataError, match="sum"):
            EmotionProfile(values=np.array([[0.5, 0.2], [0.3, 0.2]]),
                           utterance_id="u", generation=1, class_names=("a", "b"))

    def test_negative_entry(self):
        with pytest.raises(DataError):
            EmotionProfile(values=np.array([[1.2], [-0.2]]),
                           utterance_id="u", generation=1, class_names=("a", "b"))

    def test_row_count_must_match_names(self):
        with pytest.raises(DataError):
            EmotionProfile(values=np.array([[0.5], [0.5]]),
                           utterance_id="u", generation=1, class_names=("a", "b", "c"))


class TestRefineryConfig:
    def test_mode_normalized(self):
        assert RefineryConfig(mode="pepr", train=TrainConfig()).mode == "pEPR"
        assert RefineryConfig(mode="SEPR", train=TrainConfig()).mode == "sEPR"

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            RefineryConfig(mode="bogus")

    def test_none_mode_requires_single_generation(self):
        RefineryConfig(mode="none", generations=1)
        with pytest.raises(ConfigError, match="none"):
            RefineryConfig(mode="none", generations=2)

    def test_bounds(self):
        with pytest.raises(ConfigError):
            RefineryConfig(generations=0)
        with pytest.raises(ConfigError):
            RefineryConfig(folds=1)


class TestFoldOutGeneration:
    def test_singleton_folds(self):
        rng = np.random.default_rng(4)
        corpus = tiny_corpus(rng, n_utts=10, n_classes=2)
        names = ("angry", "happy")
        cfg = fast_config(folds=10)
        targets = {}
        for u in corpus:
            for i, lab in enumerate(initial_labels(u.label, u.n_segments, names)):
                targets[(u.utterance_id, i)] = lab
        result = generate_eps_foldout(corpus, targets, cfg, names)
        fold_sizes = np.bincount(list(result.fold_of.values()), minlength=10)
        np.testing.assert_array_equal(fold_sizes, np.ones(10))
        assert len(result.models) == 10

    def test_ep_columns_valid_and_cover_corpus(self):
        rng = np.random.default_rng(5)
        corpus = tiny_corpus(rng)
        targets = {}
        for u in corpus:
            for i, lab in enumerate(initial_labels(u.label, u.n_segments, NAMES4)):
                targets[(u.utterance_id, i)] = lab
        result = generate_eps_foldout(corpus, targets, fast_config(), NAMES4)
        assert set(result.eps) == {u.utterance_id for u in corpus}
        for u in corpus:
            ep = result.eps[u.utterance_id]
            assert ep.n_segments == u.n_segments
            for i in range(ep.n_segments):
                col = ep.column(i)
                assert abs(col.probs.sum() - 1.0) < 1e-6

    def test_foldout_purity(self):
        rng = np.random.default_rng(6)
        corpus = tiny_corpus(rng)
        targets = {}
        for u in corpus:
            for i, lab in enumerate(initial_labels(u.label, u.n_segments, NAMES4)):
                targets[(u.utterance_id, i)] = lab
        result = generate_eps_foldout(corpus, targets, fast_config(), NAMES4)
        assert foldout_purity_violations(result, corpus) == []
        # held-out segment keys must not appear in that fold's training set
        for u in corpus:
            fold = result.fold_of[u.utterance_id]
            assert (u.utterance_id, 0) not in result.training_keys[fold]

    def test_determinism(self):
        rng = np.random.default_rng(7)
        corpus = tiny_corpus(rng)
        targets = {}
        for u in corpus:
            for i, lab in enumerate(initial_labels(u.label, u.n_segments, NAMES4)):
                targets[(u.utterance_id, i)] = lab
        r1 = generate_eps_foldout(corpus, targets, fast_config(), NAMES4)
        r2 = generate_eps_foldout(corpus, targets, fast_config(), NAMES4)
        assert r1.fold_of == r2.fold_of
        for uid in r1.eps:
            np.testing.assert_array_equal(r1.eps[uid].values, r2.eps[uid].values)

    def test_missing_target_rejected(self):
        rng = np.random.default_rng(8)
        corpus = tiny_corpus(rng)
        with pytest.raises(DataError, match="missing target"):
            generate_eps_foldout(corpus, {}, fast_config(), NAMES4)


class TestRunRefinery:
    def test_single_generation_equals_plain_foldout(self):
        rng = np.random.default_rng(9)
        corpus = tiny_corpus(rng)
        cfg = fast_config(generations=1)
        result = run_refinery(corpus, NAMES4, cfg)
        targets = {}
        for u in corpus:
            for i, lab in enumerate(initial_labels(u.label, u.n_segments, NAMES4)):
                targets[(u.utterance_id, i)] = lab
        direct = generate_eps_foldout(corpus, targets, cfg, NAMES4, generation=1)
        assert len(result.eps_by_generation) == 1
        for uid in direct.eps:
            np.testing.assert_array_equal(result.eps_by_generation[0][uid].values,
                                          direct.eps[uid].values)

    def test_pepr_targets_keep_half_mass_on_label(self):
        rng = np.random.default_rng(10)
        corpus = tiny_corpus(rng)
        cfg = fast_config(generations=2, mode="pEPR")
        result = run_refinery(corpus, NAMES4, cfg)
        gen2 = result.generations[1]
        assert gen2.t == 2
        label_of = {u.utterance_id: u.label for u in corpus}
        for (uid, _), target in gen2.targets.items():
            assert target.probs[label_of[uid]] >= 0.5

    def test_trains_generations_times_folds_models(self):
        rng = np.random.default_rng(11)
        corpus = tiny_corpus(rng)
        cfg = fast_config(generations=2, folds=3)
        result = run_refinery(corpus, NAMES4, cfg)
        assert sum(len(f.models) for f in result.foldouts) == 6

    def test_generation_callback(self):
        rng = np.random.default_rng(12)
        corpus = tiny_corpus(rng)
        seen = []
        run_refinery(corpus, NAMES4, fast_config(generations=2),
                     on_generation=lambda t, fo, gen: seen.append((t, fo.generation, gen.t)))
        assert seen == [(1, 1, 1), (2, 2, 2)]

    def test_soft_static_targets_shared_within_utterance(self):
        rng = np.random.default_rng(13)
        corpus = tiny_corpus(rng, n_segments=3)
        cfg = fast_config(generations=2, mode="soft-static")
        result = run_refinery(corpus, NAMES4, cfg)
        gen2 = result.generations[1]
        for u in corpus:
            first = gen2.targets[(u.utterance_id, 0)].probs
            for i in range(1, u.n_segments):
                np.testing.assert_array_equal(gen2.targets[(u.utterance_id, i)].probs, first)

    def test_hard_dynamic_targets_are_one_hot(self):
        rng = np.random.default_rng(14)
        corpus = tiny_corpus(rng)
        cfg = fast_config(generations=2, mode="hard-dynamic")
        result = run_refinery(corpus, NAMES4, cfg)
        for target in result.generations[1].targets.values():
            assert np.count_nonzero(target.probs) == 1
            assert target.probs.max() == 1.0

    def test_duplicate_utterance_rejected(self):
        rng = np.random.default_rng(15)
        corpus = tiny_corpus(rng, n_utts=4)
        with pytest.raises(DataError, match="duplicate"):
            run_refinery(corpus + [corpus[0]], NAMES4, fast_config())


class TestNextTargets:
    def test_sepr_targets_are_ep_columns(self):
        rng = np.random.default_rng(16)
        corpus = tiny_corpus(rng, n_utts=4, n_classes=2)
        eps = {}
        for u in corpus:
            v = rng.uniform(0.1, 1.0, (4, u.n_segments))
            eps[u.utterance_id] = EmotionProfile(values=v / v.sum(axis=0),
                                                 utterance_id=u.utterance_id,
                                                 generation=1, class_names=NAMES4)
        targets = next_targets(eps, corpus, "sEPR", NAMES4)
        for u in corpus:
            for i in range(u.n_segments):
                np.testing.assert_array_equal(targets[(u.utterance_id, i)].probs,
                                              eps[u.utterance_id].values[:, i])

    def test_none_mode_rejected(self):
        with pytest.raises(ConfigError):
            next_targets({}, [], "none", NAMES4)


class TestMeanEpEntropy:
    def ep_of(self, values, names=NAMES4):
        return EmotionProfile(values=np.asarray(values, dtype=np.float64),
                              utterance_id="u", generation=1, class_names=names)

    def test_one_hot_columns(self):
        ep = self.ep_of(np.eye(4)[:, :3])
        assert mean_ep_entropy({"u": ep}) == 0.0

    def test_uniform_six_classes(self):
        ep = self.ep_of(np.full((6, 5), 1 / 6), NAMES6)
        assert mean_ep_entropy({"u": ep}) == pytest.approx(math.log(6), abs=1e-12)
        assert mean_ep_entropy({"u": ep}) == pytest.approx(1.79176, abs=5e-6)

    def test_near_uniform_within_two_hundredths_of_max(self):
        rng = np.random.default_rng(17)
        v = 1 / 6 + rng.uniform(-0.007, 0.007, (6, 40))
        v /= v.sum(axis=0)
        assert mean_ep_entropy({"u": self.ep_of(v, NAMES6)}) > math.log(6) - 0.02

    def test_mixed_hand_value(self):
        ep = self.ep_of(np.array([[1.0, 0.5], [0.0, 0.5]]), ("a", "b"))
        assert mean_ep_entropy({"u": ep}) == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mean_ep_entropy({})


class TestEpCsv:
    def make_eps(self, rng):
        eps = {}
        for uid, n in (("utt_b", 3), ("utt_a", 2)):
            v = rng.uniform(0.01, 1.0, (4, n))
            eps[uid] = EmotionProfile(values=v / v.sum(axis=0), utterance_id=uid,
                                      generation=2, class_names=NAMES4)
        return eps

    def test_round_trip_bit_exact(self, tmp_path):
        eps = self.make_eps(np.random.default_rng(18))
        path = tmp_path / "eps.csv"
        write_ep_csv(path, eps)
        loaded = read_ep_csv(path, NAMES4)
        assert set(loaded) == set(eps)
        for uid in eps:
            np.testing.assert_array_equal(loaded[uid].values, eps[uid].values)
            assert loaded[uid].generation == 2

    def test_header_and_sorting(self, tmp_path):
        eps = self.make_eps(np.random.default_rng(19))
        path = tmp_path / "eps.csv"
        write_ep_csv(path, eps)
        lines = path.read_text().splitlines()
        assert lines[0] == "utterance_id,segment_index,generation,p_1,p_2,p_3,p_4"
        assert lines[1].startswith("utt_a,0,2,")

    def test_rewrite_byte_identical(self, tmp_path):
        eps = self.make_eps(np.random.default_rng(20))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ep_csv(p1, eps)
        write_ep_csv(p2, eps)
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def damage(text, field, value):
        """Put `value` in place of field `field` of the first data row."""
        lines = text.split("\n")
        row = lines[1].split(",")
        row[field] = value
        lines[1] = ",".join(row)
        return "\n".join(lines)

    @pytest.mark.parametrize("damage, line, what", [
        (lambda text: text[:text.rindex(",")], 6, "6 fields where the header names 7"),
        (lambda text: text[:text.rindex("\n", 0, -2) + 1] + "utt_b", 6,
         "1 fields where the header names 7"),
        (lambda text: TestEpCsv.damage(text, 1, "x"), 2, "invalid literal for int"),
        (lambda text: TestEpCsv.damage(text, 3, "junk"), 2,
         "could not convert string to float: 'junk'"),
    ])
    def test_damaged_rows_name_file_and_line(self, tmp_path, damage, line, what):
        path = tmp_path / "eps.csv"
        write_ep_csv(path, self.make_eps(np.random.default_rng(21)))
        path.write_bytes(damage(path.read_bytes().decode()).encode())
        with pytest.raises(DataError) as err:
            read_ep_csv(path, NAMES4)
        assert str(err.value).startswith(f"{path}, line {line}: ")
        assert what in str(err.value)

    def test_reject_foreign_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(DataError, match="not an emotion profile"):
            read_ep_csv(path, NAMES4)
