"""Refinery tests: target rules with worked examples, fold-out EP generation,
purity auditing, and the multi-generation loop."""

import dataclasses
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from emorefinery import classifier, refinery
from emorefinery.classifier import TrainConfig, predict_batch
from emorefinery.config import ExperimentConfig
from emorefinery.errors import ConfigError, DataError, TrainingDivergedError
from emorefinery.network import Architecture, ConvNet
from emorefinery.refinery import (
    StackedDataset,
    foldout_purity_violations,
    generate_eps_foldout,
    mean_ep_entropy,
    next_targets,
    read_ep_csv,
    run_refinery,
    write_ep_csv,
)

NAMES4 = ("angry", "happy", "neutral", "sad")
NAMES6 = ("angry", "fear", "happy", "neutral", "sad", "surprise")
TINY = Architecture(name="tiny", conv_stages=((2,), (2,)), dtype="float64")


def rows(*values):
    return np.array(values, dtype=np.float64)


def pepr(pred, label):
    """pEPR target of one segment predicted `pred` in an utterance of class `label`."""
    return next_targets(rows(pred), [label], [0, 1], "pEPR")[0]


def hard_dynamic(pred):
    return next_targets(rows(pred), [0], [0, 1], "hard-dynamic")[0]


def soft_static(preds):
    """The soft-static target shared by the segments of one utterance."""
    out = next_targets(rows(*preds), [0], [0, len(preds)], "soft-static")
    np.testing.assert_array_equal(out, np.tile(out[0], (len(preds), 1)))
    return out[0]


def random_rows(rng, n, k):
    v = rng.uniform(0.05, 1.0, (n, k))
    return v / v.sum(axis=1, keepdims=True)


def tiny_corpus(rng, n_utts=9, n_segments=2, n_classes=4, names=NAMES4):
    return StackedDataset([f"utt{i:02d}" for i in range(n_utts)],
                          [i % n_classes for i in range(n_utts)],
                          [f"spk{i % 2}" for i in range(n_utts)], names,
                          [rng.standard_normal((n_segments, 16, 8)) for _ in range(n_utts)])


# The refinery stream's seed of every test run.
SEED = 7


def fast_config(**kw):
    args = dict(generations=1, mode="pEPR", folds=3,
                train=TrainConfig(max_epochs=1, batch_size=16, architecture=TINY))
    args.update(kw)
    return ExperimentConfig(**args)


def initial_targets(labels, n_segments, names):
    """Generation 1's targets, from a run whose one generation is loaded, not trained."""
    rng = np.random.default_rng(0)
    data = StackedDataset([f"u{i}" for i in range(len(labels))], labels, [""] * len(labels),
                          names, [rng.standard_normal((n_segments, 4, 4)) for _ in labels])
    stored = np.full((len(labels) * n_segments, len(names)), 1 / len(names))
    [(targets, eps, foldout)] = run_refinery(data, fast_config(), SEED,
                                             load_generation=lambda t: stored)
    assert foldout is None and eps is stored
    return targets


class TestInitialLabels:
    def test_three_copies(self):
        np.testing.assert_array_equal(initial_targets([0], 3, NAMES4), [[1, 0, 0, 0]] * 3)

    def test_six_class_single_segment(self):
        np.testing.assert_array_equal(initial_targets([2], 1, NAMES6), [[0, 0, 1, 0, 0, 0]])

    def test_entropy_zero(self):
        assert mean_ep_entropy(initial_targets([1, 3], 5, NAMES4)) == 0.0

    def test_bad_class_index(self):
        with pytest.raises(DataError, match="not a class index"):
            initial_targets([4], 2, NAMES4)


class TestTargetRules:
    def test_refine_standard_passthrough(self):
        eps = rows([0.6, 0.1, 0.1, 0.2], [1, 0, 0, 0], [0.25] * 4)
        assert next_targets(eps, [0, 2], [0, 1, 3], "sEPR") is eps

    def test_combine_worked_example_exact(self):
        np.testing.assert_array_equal(pepr([0.6, 0.1, 0.1, 0.2], 0), [0.8, 0.05, 0.05, 0.1])

    def test_combine_fixed_point(self):
        np.testing.assert_array_equal(pepr([0, 1, 0, 0], 1), [0, 1, 0, 0])

    def test_combine_uniform(self):
        np.testing.assert_array_equal(pepr([0.25] * 4, 0), [0.625, 0.125, 0.125, 0.125])

    def test_combine_hard_mass_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            p = rng.uniform(0, 1, 6)
            pred = p / p.sum()
            c = rng.integers(0, 6)
            out = pepr(pred, c)
            assert out[c] >= max(0.5, pred[c]) - 1e-15
            assert out.argmax() == c
            assert abs(out.sum() - 1.0) < 1e-12

    def test_hard_dynamic(self):
        np.testing.assert_array_equal(hard_dynamic([0.6, 0.1, 0.1, 0.2]), [1, 0, 0, 0])

    def test_hard_dynamic_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = rng.uniform(0, 1, 4)
            once = hard_dynamic(p / p.sum())
            np.testing.assert_array_equal(hard_dynamic(once), once)

    def test_hard_dynamic_tie_to_lowest(self):
        np.testing.assert_array_equal(hard_dynamic([0.5, 0.5]), [1, 0])

    def test_soft_static_mean(self):
        np.testing.assert_array_equal(soft_static([[1, 0], [0, 1]]), [0.5, 0.5])

    def test_soft_static_constant_inputs(self):
        d = [0.7, 0.1, 0.1, 0.1]
        np.testing.assert_allclose(soft_static([d] * 4), d, atol=1e-15)

    def test_soft_static_sums_to_one(self):
        preds = random_rows(np.random.default_rng(3), 7, 6)
        assert abs(soft_static(preds).sum() - 1.0) < 1e-9


class TestEmotionProfile:
    """read_ep_csv checks every stored profile row the way training produces it."""

    def load(self, tmp_path, values, names=("a", "b")):
        path = tmp_path / "eps.csv"
        header = ",".join(f"p_{i + 1}" for i in range(len(values[0])))
        path.write_text(f"utterance_id,segment_index,generation,{header}\n" + "".join(
            f"u,{i},1," + ",".join(map(str, row)) + "\n" for i, row in enumerate(values)))
        return read_ep_csv(path, names, ["u"], [0, len(values)], 1)

    def test_invalid_column_sum(self, tmp_path):
        with pytest.raises(DataError, match="sum"):
            self.load(tmp_path, [[0.5, 0.3], [0.2, 0.2]])

    def test_negative_entry(self, tmp_path):
        with pytest.raises(DataError, match="non-negative"):
            self.load(tmp_path, [[1.2, -0.2]])

    def test_row_count_must_match_names(self, tmp_path):
        with pytest.raises(DataError, match="carries 2 classes, expected 3"):
            self.load(tmp_path, [[0.5, 0.5]], names=("a", "b", "c"))


def initial(data):
    return data, np.eye(len(data.class_names))[np.repeat(data.labels, np.diff(data.offsets))]


class TestFoldOutGeneration:
    def test_singleton_folds(self):
        rng = np.random.default_rng(4)
        data, targets = initial(tiny_corpus(rng, n_utts=10, n_classes=2,
                                            names=("angry", "happy")))
        result = generate_eps_foldout(data, targets, fast_config(folds=10), SEED)
        np.testing.assert_array_equal(np.bincount(result.fold_of, minlength=10), np.ones(10))
        assert len(result.models) == 10

    def test_ep_columns_valid_and_cover_corpus(self):
        rng = np.random.default_rng(5)
        data, targets = initial(tiny_corpus(rng))
        result = generate_eps_foldout(data, targets, fast_config(), SEED)
        assert result.eps.shape == (18, 4)
        np.testing.assert_allclose(result.eps.sum(axis=1), 1.0, atol=1e-6)
        assert sorted(result.prediction_order) == list(range(len(result.eps)))
        for i in range(9):
            a, b = data.offsets[i], data.offsets[i + 1]
            model = result.models[result.fold_of[i]]
            np.testing.assert_array_equal(result.eps[a:b], predict_batch(model, data.x[a:b]))

    def test_foldout_purity(self):
        rng = np.random.default_rng(6)
        data, targets = initial(tiny_corpus(rng))
        result = generate_eps_foldout(data, targets, fast_config(), SEED)
        assert foldout_purity_violations(result, data) == []
        # held-out segment rows must not appear in that fold's training set
        for i in range(len(data.utterance_ids)):
            assert data.offsets[i] not in result.training_rows[result.fold_of[i]]
        leaky = result.training_rows[:1] + result.training_rows[1:2] * 2
        leaked = foldout_purity_violations(
            dataclasses.replace(result, training_rows=leaky), data)
        assert leaked == [u for u, f in zip(data.utterance_ids, result.fold_of) if f == 2]

    def test_determinism(self):
        rng = np.random.default_rng(7)
        data, targets = initial(tiny_corpus(rng))
        r1 = generate_eps_foldout(data, targets, fast_config(), SEED)
        r2 = generate_eps_foldout(data, targets, fast_config(), SEED)
        np.testing.assert_array_equal(r1.fold_of, r2.fold_of)
        assert r1.eps.tobytes() == r2.eps.tobytes()

    def test_missing_target_rejected(self):
        rng = np.random.default_rng(8)
        data, targets = initial(tiny_corpus(rng))
        with pytest.raises(DataError, match="one row per segment"):
            generate_eps_foldout(data, targets[:-1], fast_config(), SEED)


class TestFoldThreads:
    """Folds trained on two threads give the bytes, models and warnings of one."""

    def inputs(self):
        # Six utterances over four classes in four folds: the folds that hold
        # out the only "neutral" or "sad" utterance warn about coverage.
        data, targets = initial(tiny_corpus(np.random.default_rng(16), n_utts=6))
        cfg = fast_config(folds=4, train=TrainConfig(max_epochs=2, batch_size=4,
                                                     architecture=TINY))
        return data, targets, cfg, SEED

    def run(self, monkeypatch, width, spy=None):
        monkeypatch.setattr(refinery, "_fold_workers", lambda cfg, input_shape: width)
        if spy is not None:
            monkeypatch.setattr(refinery, "train_segment_classifier", spy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = generate_eps_foldout(*self.inputs())
        return result, [str(w.message) for w in caught]

    def test_two_threads_same_bytes_as_one(self, monkeypatch):
        serial, serial_warnings = self.run(monkeypatch, 1)
        # Each pair of folds meets at the barrier, so two really train at once.
        barrier = threading.Barrier(2, timeout=30)
        train = refinery.train_segment_classifier

        def meet(*args, **kwargs):
            barrier.wait()
            return train(*args, **kwargs)

        threaded, threaded_warnings = self.run(monkeypatch, 2, meet)
        assert len(serial_warnings) == 2 and threaded_warnings == serial_warnings
        for name in ("eps", "fold_of", "prediction_order"):
            assert_bytes_equal(getattr(threaded, name), getattr(serial, name))
        for a, b in zip(threaded.training_rows, serial.training_rows, strict=True):
            assert_bytes_equal(a, b)
        for m1, m2 in zip(threaded.models, serial.models, strict=True):
            assert (m1.seed, m1.history) == (m2.seed, m2.history)
            for p1, p2 in zip(m1.net.params(), m2.net.params(), strict=True):
                assert_bytes_equal(p1, p2)

    def test_more_threads_than_cores_with_fast_switching(self, monkeypatch):
        serial, _ = self.run(monkeypatch, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded, _ = self.run(monkeypatch, 4)
        finally:
            sys.setswitchinterval(interval)
        assert_bytes_equal(threaded.eps, serial.eps)

    def test_prediction_order_is_fold_by_fold(self, monkeypatch):
        result, _ = self.run(monkeypatch, 2)
        data = self.inputs()[0]
        expected = [np.arange(data.offsets[i], data.offsets[i + 1])
                    for fold in range(4) for i in np.flatnonzero(result.fold_of == fold)]
        assert_bytes_equal(result.prediction_order, np.concatenate(expected))

    def test_worker_divergence_reaches_caller_as_itself(self, monkeypatch):
        error = TrainingDivergedError("fold 2 diverged")
        fold2_seed = refinery.derive_seed(SEED, refinery._STREAM_MODEL, 1, 2)
        train = refinery.train_segment_classifier

        def diverge(x, targets, ids, names, cfg, seed, **kwargs):
            if seed == fold2_seed:
                raise error
            return train(x, targets, ids, names, cfg, seed, **kwargs)

        with pytest.raises(TrainingDivergedError) as raised:
            self.run(monkeypatch, 2, diverge)
        assert raised.value is error

    @pytest.fixture
    def openblas(self):
        lib = classifier._openblas()
        if lib is None:
            pytest.skip("numpy does not use OpenBLAS here")
        get, set_ = lib
        before = get()
        set_(2)
        if get() != 2:
            set_(before)
            pytest.skip("this OpenBLAS cannot run two threads")
        yield get
        set_(before)

    def test_one_blas_thread_inside_and_restored_after(self, openblas, monkeypatch):
        # Fold 1 starts training once fold 0 has, and runs its first forward
        # pass only after fold 0's training call has returned and restored
        # the thread count it found on entry. That count must still be 1.
        fold_of_seed = {refinery.derive_seed(SEED, refinery._STREAM_MODEL, 1, f): f
                        for f in range(4)}
        fold_of_thread = {}
        started, returned = threading.Event(), threading.Event()
        seen = []
        train, forward = refinery.train_segment_classifier, ConvNet.forward

        def ordered_train(x, targets, ids, names, cfg, seed, **kwargs):
            fold = fold_of_seed[seed]
            fold_of_thread[threading.get_ident()] = fold
            if fold == 1:
                assert started.wait(30)
            model = train(x, targets, ids, names, cfg, seed, **kwargs)
            if fold == 0:
                returned.set()
            return model

        def spy(net, x, train=False):
            fold = fold_of_thread[threading.get_ident()]
            if fold == 0:
                started.set()
            elif fold == 1:
                assert returned.wait(30)
            seen.append(openblas())
            return forward(net, x, train)

        monkeypatch.setattr(ConvNet, "forward", spy)
        self.run(monkeypatch, 2, ordered_train)
        assert seen and set(seen) == {1}
        assert openblas() == 2

        def diverge(*args, **kwargs):
            raise TrainingDivergedError("diverged")

        with pytest.raises(TrainingDivergedError):
            self.run(monkeypatch, 2, diverge)
        assert openblas() == 2

    def test_width_follows_net_size_and_cpus_up_to_two(self, monkeypatch):
        compact = fast_config(folds=10, train=TrainConfig(architecture="compact"))
        monkeypatch.setattr(refinery.os, "sched_getaffinity", lambda pid: set(range(16)))
        assert refinery._fold_workers(compact, (32, 32)) == 2
        assert refinery._fold_workers(fast_config(), (32, 32)) == 1  # the tiny net
        monkeypatch.setattr(refinery.os, "sched_getaffinity", lambda pid: {0})
        assert refinery._fold_workers(compact, (32, 32)) == 1


def assert_bytes_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestRunRefinery:
    def test_single_generation_equals_plain_foldout(self):
        rng = np.random.default_rng(9)
        data = tiny_corpus(rng)
        cfg = fast_config(generations=1)
        [(_, eps, _)] = run_refinery(data, cfg, SEED)
        direct = generate_eps_foldout(*initial(data), cfg, SEED, generation=1)
        assert eps.tobytes() == direct.eps.tobytes()

    def test_pepr_targets_keep_half_mass_on_label(self):
        rng = np.random.default_rng(10)
        data = tiny_corpus(rng)
        _, (gen2, _, _) = run_refinery(data, fast_config(generations=2, mode="pEPR"), SEED)
        row_labels = np.repeat(data.labels, np.diff(data.offsets))
        assert np.all(gen2[np.arange(len(gen2)), row_labels] >= 0.5)

    def test_trains_generations_times_folds_models(self):
        rng = np.random.default_rng(11)
        cfg = fast_config(generations=2, folds=3)
        assert sum(len(f.models) for _, _, f in run_refinery(tiny_corpus(rng), cfg, SEED)) == 6

    def test_each_item_taken_trains_one_generation(self, monkeypatch):
        data = tiny_corpus(np.random.default_rng(12))
        trained = []
        real = refinery.generate_eps_foldout

        def spy(*args, **kwargs):
            trained.append(kwargs["generation"])
            return real(*args, **kwargs)

        monkeypatch.setattr(refinery, "generate_eps_foldout", spy)
        stream = run_refinery(data, fast_config(generations=2), SEED)
        assert trained == []
        targets, eps, foldout = next(stream)
        assert trained == [1] and foldout.generation == 1 and eps is foldout.eps
        assert_bytes_equal(targets, initial(data)[1])
        targets, _, foldout = next(stream)
        assert trained == [1, 2] and foldout.generation == 2
        assert_bytes_equal(targets, next_targets(eps, data.labels, data.offsets, "pEPR"))
        assert next(stream, None) is None and trained == [1, 2]

    def test_loaded_generation_replaces_training(self):
        rng = np.random.default_rng(12)
        data = tiny_corpus(rng)
        cfg = fast_config(generations=2)
        full = list(run_refinery(data, cfg, SEED))
        resumed = list(run_refinery(data, cfg, SEED,
                                    load_generation=lambda t: full[0][1] if t == 1 else None))
        assert [foldout is None for _, _, foldout in resumed] == [True, False]
        assert resumed[1][1].tobytes() == full[1][1].tobytes()
        with pytest.raises(DataError, match="stored generation 1"):
            next(run_refinery(data, cfg, SEED, load_generation=lambda t: np.zeros((2, 4))))

    def test_generation_1_is_the_same_in_every_mode(self):
        """Generation 1 trains on the one-hot labels with seeds of the seed,
        generation and fold alone, so its EPs and models are byte-equal in
        every mode; the acceptance fixtures train it once for two modes."""
        data = tiny_corpus(np.random.default_rng(16))
        firsts = [next(run_refinery(data, fast_config(generations=1 if mode == "none" else 2,
                                                      mode=mode), SEED))[2]
                  for mode in ("none", "sEPR", "pEPR")]
        for other in firsts[1:]:
            assert_bytes_equal(other.eps, firsts[0].eps)
            for a, b in zip(other.models, firsts[0].models, strict=True):
                for pa, pb in zip(a.net.params(), b.net.params(), strict=True):
                    assert_bytes_equal(pa, pb)

    def test_purity_violation_stops_the_run(self, monkeypatch):
        real = refinery.generate_eps_foldout

        def leaky(data, *args, **kwargs):
            result = real(data, *args, **kwargs)
            everything = np.arange(len(result.eps))
            return dataclasses.replace(result, training_rows=(everything,) * 3)

        monkeypatch.setattr(refinery, "generate_eps_foldout", leaky)
        stream = run_refinery(tiny_corpus(np.random.default_rng(12)), fast_config(), SEED)
        with pytest.raises(DataError, match="purity violated"):
            next(stream)

    def test_soft_static_targets_shared_within_utterance(self):
        rng = np.random.default_rng(13)
        _, (gen2, _, _) = run_refinery(tiny_corpus(rng, n_segments=3),
                                       fast_config(generations=2, mode="soft-static"), SEED)
        for i in range(9):
            block = gen2[3 * i:3 * i + 3]
            np.testing.assert_array_equal(block, np.tile(block[0], (3, 1)))

    def test_hard_dynamic_targets_are_one_hot(self):
        rng = np.random.default_rng(14)
        _, (gen2, _, _) = run_refinery(tiny_corpus(rng),
                                       fast_config(generations=2, mode="hard-dynamic"), SEED)
        assert np.all(np.count_nonzero(gen2, axis=1) == 1)
        assert np.all(gen2.max(axis=1) == 1.0)


def stacked(ids=("a", "b"), labels=(0, 1), segments=None):
    rng = np.random.default_rng(15)
    if segments is None:
        segments = [rng.standard_normal((2, 4, 3)) for _ in ids]
    return StackedDataset(ids, labels, ["spk"] * len(ids), NAMES4, segments)


def with_nan(a):
    a = a.copy()
    a[1, 2, 0] = np.nan
    return a


class TestStackedDataset:
    def test_concatenates_the_segment_arrays_once(self):
        rng = np.random.default_rng(16)
        # transposed views, laid out like features.segment_spectrogram's windows
        segments = [rng.standard_normal((4, n, 3)).transpose(1, 0, 2) for n in (2, 1, 3)]
        data = StackedDataset(["a", "b", "c"], [0, 3, 1], ["s0", "s1", "s0"], NAMES4, segments)
        np.testing.assert_array_equal(data.offsets, [0, 2, 3, 6])
        assert data.x.tobytes() == np.concatenate(segments).tobytes()
        assert data.x.flags.c_contiguous
        assert not any(np.shares_memory(data.x, a) for a in segments)
        np.testing.assert_array_equal(data.row_utterance, [0, 0, 1, 2, 2, 2])

    @pytest.mark.parametrize("build, what", [
        (lambda: stacked(ids=(), labels=()), "dataset is empty"),
        (lambda: stacked(segments=[np.zeros((2, 4, 3)), np.zeros((0, 4, 3))]),
         "utterance 'b' has no segments"),
        (lambda: stacked(ids=("a", "a")), "duplicate utterance id 'a'"),
        (lambda: stacked(labels=(0, 4)), "'b' has label 4, not a class index 0..3"),
        (lambda: stacked(labels=(-1, 0)), "'a' has label -1, not a class index 0..3"),
        (lambda: stacked(segments=[np.zeros((2, 4, 3)), np.zeros((2, 4, 2))]),
         "share one \\(n_mels, seg_frames\\) shape, but utterance 'b' has \\(4, 2\\) "
         "and 'a' \\(4, 3\\)"),
        (lambda: stacked(segments=[np.zeros((2, 4)), np.zeros((2, 4))]),
         "utterance 'a' has segments of shape \\(2, 4\\), not \\(n, n_mels, seg_frames\\)"),
        (lambda: stacked(segments=[np.zeros((2, 4, 3)), with_nan(np.zeros((2, 4, 3)))]),
         "utterance 'b' segment 1 has non-finite values"),
        (lambda: stacked(labels=(0,)), "2 utterance ids for 1 labels"),
    ], ids=["empty", "no-segments", "duplicate-id", "label-too-large", "negative-label",
            "shape-mismatch", "not-3d", "non-finite", "length-mismatch"])
    def test_rejects(self, build, what):
        with pytest.raises(DataError, match=what):
            build()


class TestNextTargets:
    def test_sepr_targets_are_ep_columns(self):
        rng = np.random.default_rng(16)
        data = tiny_corpus(rng, n_utts=4, n_classes=2)
        eps = random_rows(rng, len(data.x), 4)
        targets = next_targets(eps, data.labels, data.offsets, "sEPR")
        np.testing.assert_array_equal(targets, eps)

    def test_none_mode_rejected(self):
        with pytest.raises(ConfigError):
            next_targets(np.zeros((0, 4)), [], [0], "none")

    def test_eps_that_miss_the_offsets_rejected(self):
        with pytest.raises(DataError, match=r"^EPs of shape \(5, 3\) do not match 2 "
                                            r"utterances of 4 segments$"):
            next_targets(np.full((5, 3), 1 / 3), [0, 1], [0, 2, 4], "pEPR")


class TestMeanEpEntropy:
    def test_one_hot_columns(self):
        assert mean_ep_entropy(np.eye(4)[:3]) == 0.0

    def test_uniform_six_classes(self):
        eps = np.full((5, 6), 1 / 6)
        assert mean_ep_entropy(eps) == pytest.approx(math.log(6), abs=1e-12)
        assert mean_ep_entropy(eps) == pytest.approx(1.79176, abs=5e-6)

    def test_near_uniform_within_two_hundredths_of_max(self):
        rng = np.random.default_rng(17)
        v = 1 / 6 + rng.uniform(-0.007, 0.007, (6, 40))
        v /= v.sum(axis=0)
        assert mean_ep_entropy(v.T.copy()) > math.log(6) - 0.02

    def test_mixed_hand_value(self):
        eps = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert mean_ep_entropy(eps) == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            mean_ep_entropy(np.zeros((0, 4)))


class TestEpCsv:
    IDS = ("utt_b", "utt_a")
    OFFSETS = (0, 3, 5)

    def make_eps(self, rng):
        return random_rows(rng, 5, 4)

    def write(self, path, eps):
        write_ep_csv(path, eps, self.IDS, self.OFFSETS, 2)

    def read(self, path):
        return read_ep_csv(path, NAMES4, self.IDS, self.OFFSETS, 2)

    def test_round_trip_bit_exact(self, tmp_path):
        eps = self.make_eps(np.random.default_rng(18))
        path = tmp_path / "eps.csv"
        self.write(path, eps)
        assert self.read(path).tobytes() == eps.tobytes()

    def test_header_and_sorting(self, tmp_path):
        eps = self.make_eps(np.random.default_rng(19))
        path = tmp_path / "eps.csv"
        self.write(path, eps)
        lines = path.read_text().splitlines()
        assert lines[0] == "utterance_id,segment_index,generation,p_1,p_2,p_3,p_4"
        assert lines[1] == "utt_a,0,2," + ",".join(f"{v:.17g}" for v in eps[3])
        assert [line[:9] for line in lines[1:]] == [
            "utt_a,0,2", "utt_a,1,2", "utt_b,0,2", "utt_b,1,2", "utt_b,2,2"]

    def test_rewrite_byte_identical(self, tmp_path):
        eps = self.make_eps(np.random.default_rng(20))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        self.write(p1, eps)
        self.write(p2, eps)
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
        (lambda text: TestEpCsv.damage(text, 0, '"' + "x" * 200_000 + '"'), 2,
         "field larger than field limit"),
    ])
    def test_damaged_rows_name_file_and_line(self, tmp_path, damage, line, what):
        path = tmp_path / "eps.csv"
        self.write(path, self.make_eps(np.random.default_rng(21)))
        path.write_bytes(damage(path.read_bytes().decode()).encode())
        with pytest.raises(DataError) as err:
            self.read(path)
        assert str(err.value).startswith(f"{path}, line {line}: ")
        assert what in str(err.value)

    @pytest.mark.parametrize("damage, what", [
        (lambda text: text.replace("utt_a,1,2", "utt_c,1,2"),
         "line 3: utterance 'utt_c' is not in the dataset"),
        (lambda text: text.replace("utt_a,1,2", "utt_a,2,2"),
         "line 3: utterance 'utt_a' has no segment 2"),
        (lambda text: text.replace("utt_a,1,2", "utt_a,0,2"),
         "line 3: segment 0 of 'utt_a' appears twice"),
        (lambda text: text.replace("utt_b,2,2", "utt_b,2,1"),
         "line 6: generation 1 in the file of generation 2"),
        (lambda text: "\n".join(line for line in text.split("\n") if "utt_b,1," not in line),
         ": no row for segment 1 of 'utt_b'"),
    ])
    def test_rows_must_cover_the_dataset(self, tmp_path, damage, what):
        path = tmp_path / "eps.csv"
        self.write(path, self.make_eps(np.random.default_rng(22)))
        path.write_bytes(damage(path.read_bytes().decode()).encode())
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}.*{re.escape(what)}"):
            self.read(path)

    def test_reject_foreign_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(DataError, match="not an emotion profile"):
            self.read(path)
