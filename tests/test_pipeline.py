"""Pipeline orchestration tests: featurizing, run artifacts, resume, determinism."""

import csv
import json
import re
import shutil

import numpy as np
import pytest

from emorefinery import pipeline
from emorefinery.classifier import TrainConfig, load_model
from emorefinery.config import ExperimentConfig
from emorefinery.datagen import SyntheticCorpusSpec, generate_synthetic_corpus
from emorefinery.decision import ForestConfig
from emorefinery.errors import DataError
from emorefinery.features import FrameSpec, SegmentSpec
from emorefinery.manifest import load_manifest, read_spectrogram_csv, write_synthetic_corpus
from emorefinery.pipeline import (
    cross_validated_predictions,
    export_ep_evolution,
    featurize_corpus,
    generation_dir,
    run_experiment,
    utterances_from_manifest,
)
from emorefinery.refinery import _STREAM_MODEL, StackedDataset, derive_seed, read_ep_csv
from emorefinery.representation import representations_for
from same_bytes import tree_bytes
from spectrogram_csv import rewrite_as_csv

SPEC = SyntheticCorpusSpec(n_classes=3, utterances_per_class=4, segments_range=(3, 4),
                           n_mels=8, seg_frames=4, n_speakers=2, noise_level=0.4, seed=9)
SEGMENT = SegmentSpec(seg_frames=4, seg_hop_ms=40.0)


def fast_config(**kw):
    base = dict(
        master_seed=5, mode="pEPR", generations=2, folds=3, eval_folds=3,
        segment=SEGMENT,
        train=TrainConfig(max_epochs=2, batch_size=32, architecture="tiny",
                          validation_fraction=0.2),
        forest=ForestConfig(n_trees=15))
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_synthetic_corpus(root, generate_synthetic_corpus(SPEC), SPEC.class_names)
    return root


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory, corpus):
    run_dir = tmp_path_factory.mktemp("run")
    metrics = run_experiment(corpus, fast_config(), run_dir=run_dir)
    return run_dir, metrics


class TestUtterancesFromManifest:
    def test_segments_and_labels(self, corpus):
        m = load_manifest(corpus)
        data, errors = utterances_from_manifest(m, FrameSpec(), SEGMENT)
        assert not errors
        assert data.utterance_ids == tuple(r.utterance_id for r in m.rows)
        assert data.labels.tolist() == [m.label_index(r.training_label) for r in m.rows]
        assert data.speakers == tuple(r.speaker for r in m.rows)
        assert all(3 <= n <= 4 for n in np.diff(data.offsets))
        assert data.x.shape == (data.offsets[-1], 8, 4)

    def test_segments_are_the_spectrogram_windows(self, corpus):
        m = load_manifest(corpus)
        data, _ = utterances_from_manifest(m, FrameSpec(), SEGMENT)
        for i, row in enumerate(m.rows):
            values = read_spectrogram_csv(corpus / row.path).values
            for j, seg in enumerate(data.x[data.offsets[i]:data.offsets[i + 1]]):
                assert seg.tobytes() == values[:, 4 * j:4 * j + 4].copy().tobytes()

    def test_collects_errors_per_utterance(self, corpus, tmp_path):
        out = tmp_path / "broken"
        m, _ = featurize_corpus(load_manifest(corpus), FrameSpec(), out)
        (bad,) = rewrite_as_csv(out, [m.rows[0].utterance_id])
        bad.write_text("frame_time_ms,m_1\n")
        data, errors = utterances_from_manifest(load_manifest(out), FrameSpec(), SEGMENT)
        assert len(data.utterance_ids) == 11 and bad.stem not in data.utterance_ids
        assert list(errors) == [bad.stem]
        assert "no frames" in errors[bad.stem]

    def test_no_readable_row_gives_no_dataset(self, corpus, tmp_path):
        out = tmp_path / "broken"
        m, _ = featurize_corpus(load_manifest(corpus), FrameSpec(), out)
        for path in rewrite_as_csv(out, [r.utterance_id for r in m.rows]):
            path.write_text("frame_time_ms,m_1\n")
        data, errors = utterances_from_manifest(load_manifest(out), FrameSpec(), SEGMENT)
        assert data is None and len(errors) == 12

    def test_stored_spectrograms_are_read_without_read_array(self, corpus, monkeypatch):
        """The files gen-data and featurize write are read by matching
        np.save's header, not by numpy's general .npy reader."""
        expected, _ = utterances_from_manifest(load_manifest(corpus), FrameSpec(), SEGMENT)

        def unused(*args, **kwargs):
            raise AssertionError("np.lib.format.read_array was called")

        monkeypatch.setattr(np.lib.format, "read_array", unused)
        data, errors = utterances_from_manifest(load_manifest(corpus), FrameSpec(), SEGMENT)
        assert not errors
        assert data.x.tobytes() == expected.x.tobytes()


class TestFeaturizeCorpus:
    def test_features_pass_through_exactly(self, corpus, tmp_path):
        # featurize of an .npy corpus writes the same files and manifest.
        src = load_manifest(corpus)
        out, errors = featurize_corpus(src, FrameSpec(), tmp_path / "copy")
        assert not errors
        assert len(out.rows) == len(src.rows)
        a = (corpus / "features" / "u0000_c0.npy").read_bytes()
        b = (tmp_path / "copy" / "features" / "u0000_c0.npy").read_bytes()
        assert a == b
        assert tree_bytes(tmp_path / "copy") == tree_bytes(corpus)

    def test_survivors_written_when_rows_fail(self, corpus, tmp_path):
        first = tmp_path / "first"
        m, _ = featurize_corpus(load_manifest(corpus), FrameSpec(), first)
        rewrite_as_csv(first, [m.rows[0].utterance_id])
        sorted((first / "features").glob("*.csv"))[0].write_text("junk\n")
        out, errors = featurize_corpus(load_manifest(first), FrameSpec(), tmp_path / "second")
        assert len(errors) == 1
        assert len(out.rows) == 11
        load_manifest(tmp_path / "second")

    def test_a_tied_mel_count_goes_to_the_count_read_first(self, corpus, tmp_path):
        self.assert_tied_mel_count(corpus, tmp_path, "csv")

    def test_a_tied_npy_mel_count_goes_to_the_count_read_first(self, corpus, tmp_path):
        self.assert_tied_mel_count(corpus, tmp_path, "npy")

    @staticmethod
    def assert_tied_mel_count(corpus, tmp_path, fmt):
        # Every other row cut to 6 mel bands, the first row read among them:
        # run and featurize both keep the 6 rows of 6 and name the 6 of 8.
        first = tmp_path / "first"
        m, _ = featurize_corpus(load_manifest(corpus), FrameSpec(), first)
        if fmt == "csv":
            for path in rewrite_as_csv(first, [r.utterance_id for r in m.rows[::2]]):
                path.write_text("".join(",".join(line.split(",")[:7]) + "\n"
                                        for line in path.read_text().splitlines()))
        else:
            for row in m.rows[::2]:
                np.save(first / row.path, np.load(first / row.path)[:7])
        kept = [r.utterance_id for r in m.rows[::2]]
        named = {r.utterance_id: f"{first / r.path}: 8 mel bands, where {kept[0]!r} has 6"
                 for r in m.rows[1::2]}
        data, errors = utterances_from_manifest(load_manifest(first), FrameSpec(), SEGMENT)
        assert list(data.utterance_ids) == kept and data.x.shape[1] == 6
        assert errors == named
        out, errors = featurize_corpus(load_manifest(first), FrameSpec(), tmp_path / "second")
        assert [r.utterance_id for r in out.rows] == kept and errors == named


class TestCorpusFormats:
    """A CSV corpus and its .npy copy are one corpus: featurize converts one
    to the other bit for bit, and a run cannot tell them apart."""

    @pytest.fixture(scope="class")
    def csv_corpus(self, corpus, tmp_path_factory):
        root = tmp_path_factory.mktemp("csv_corpus")
        shutil.copytree(corpus, root, dirs_exist_ok=True)
        rewrite_as_csv(root, [r.utterance_id for r in load_manifest(root).rows])
        return root

    @pytest.fixture(scope="class")
    def csv_run(self, csv_corpus, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("csv_run")
        run_experiment(csv_corpus, fast_config(), run_dir=run_dir)
        return run_dir

    def test_featurize_of_csv_writes_the_same_values_as_npy(self, corpus, csv_corpus,
                                                            tmp_path):
        out, errors = featurize_corpus(load_manifest(csv_corpus), FrameSpec(), tmp_path / "npy")
        assert not errors
        for row in out.rows:
            assert row.path == f"features/{row.utterance_id}.npy"
            s = read_spectrogram_csv(csv_corpus / "features" / f"{row.utterance_id}.csv")
            table = np.load(tmp_path / "npy" / row.path)
            assert table[0].tobytes() == s.frame_times.tobytes()
            assert table[1:].tobytes() == s.values.tobytes()
        assert tree_bytes(tmp_path / "npy") == tree_bytes(corpus)

    def test_same_fingerprint_and_run_bytes(self, finished_run, csv_run):
        run_dir, _ = finished_run
        fingerprints = [json.loads((d / "run_manifest.json").read_text())["corpus_sha256"]
                        for d in (run_dir, csv_run)]
        assert fingerprints[0] == fingerprints[1]
        assert tree_bytes(run_dir) == tree_bytes(csv_run)

    @pytest.mark.parametrize("made_on", ["npy", "csv"])
    def test_a_run_resumes_on_the_other_format(self, corpus, csv_corpus, finished_run,
                                               csv_run, tmp_path, monkeypatch, made_on):
        def never(*args, **kwargs):
            raise AssertionError("a fold trained")

        made, other = ((finished_run[0], csv_corpus) if made_on == "npy"
                       else (csv_run, corpus))
        shutil.copytree(made, tmp_path / "run")
        monkeypatch.setattr("emorefinery.refinery.train_segment_classifier", never)
        run_experiment(other, fast_config(), run_dir=tmp_path / "run")
        assert tree_bytes(tmp_path / "run") == tree_bytes(made)


def dataset_and_reps(corpus):
    data, _ = utterances_from_manifest(load_manifest(corpus), FrameSpec(), SEGMENT)
    rng = np.random.default_rng(0)
    eps = []
    for n in np.diff(data.offsets):
        cols = rng.uniform(0.05, 1.0, (len(data.class_names), n))
        eps.append((cols / cols.sum(axis=0)).T)
    return data, representations_for(np.concatenate(eps), data.offsets)


class TestCrossValidatedPredictions:
    def test_every_utterance_predicted_once_and_deterministically(self, corpus):
        data, reps = dataset_and_reps(corpus)
        first = cross_validated_predictions(data, reps, ForestConfig(n_trees=10), 3, 17, 3)
        second = cross_validated_predictions(data, reps, ForestConfig(n_trees=10), 3, 17, 3)
        assert first.dtype == np.int64 and first.shape == (len(data.utterance_ids),)
        assert set(first.tolist()) <= set(range(len(data.class_names)))
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("by_speaker", [False, True])
    def test_permuting_the_dataset_permutes_the_predictions(self, corpus, by_speaker):
        # Each fold's forest trains on its rows in sorted-id order, whatever
        # the dataset's order, so its bootstrap draws pick the same rows.
        data, reps = dataset_and_reps(corpus)
        perm = np.random.default_rng(1).permutation(len(data.utterance_ids))
        permuted = StackedDataset(
            [data.utterance_ids[i] for i in perm], data.labels[perm],
            [data.speakers[i] for i in perm], data.class_names,
            [data.x[data.offsets[i]:data.offsets[i + 1]] for i in perm])
        cfg = ForestConfig(n_trees=10)
        expected = cross_validated_predictions(
            data, reps, cfg, 2, 17, 3, groups=data.speakers if by_speaker else None)
        got = cross_validated_predictions(
            permuted, reps[perm], cfg, 2, 17, 3, groups=permuted.speakers if by_speaker else None)
        np.testing.assert_array_equal(got, expected[perm])


class TestRunExperiment:
    def test_artifact_tree(self, finished_run):
        run_dir, _ = finished_run
        assert (run_dir / "run_manifest.json").exists()
        assert (run_dir / "metrics.json").exists()
        for t in (1, 2):
            gen = generation_dir(run_dir, t)
            for name in ("eps.csv", "representations.csv", "predictions.csv",
                         "confusion.csv", "metrics.json", "foldout.json"):
                assert (gen / name).exists(), f"gen{t} missing {name}"
            assert len(list((gen / "models").glob("fold*.npz"))) == 3

    def test_report_structure(self, finished_run):
        _, metrics = finished_run
        assert metrics["mode"] == "pEPR"
        assert [g["generation"] for g in metrics["generations"]] == [1, 2]
        for g in metrics["generations"]:
            assert 0.0 <= g["wa"] <= 1.0
            assert 0.0 <= g["ua"] <= 1.0
            assert g["mean_ep_entropy"] >= 0.0
            assert g["n_utterances"] == 12

    def test_purity_audit_recorded_clean(self, finished_run):
        run_dir, _ = finished_run
        for t in (1, 2):
            audit = json.loads((generation_dir(run_dir, t) / "foldout.json").read_text())
            assert audit["violations"] == []
            assert audit["generation"] == t
            assert sorted(audit["fold_of"].values()) != []

    def test_eps_readable_and_generation_tagged(self, finished_run, corpus):
        run_dir, _ = finished_run
        names = ("class_0", "class_1", "class_2")
        data, _ = utterances_from_manifest(load_manifest(corpus), FrameSpec(), SEGMENT)
        ids, offsets = data.utterance_ids, data.offsets
        for t in (1, 2):
            path = generation_dir(run_dir, t) / "eps.csv"
            eps = read_ep_csv(path, names, ids, offsets, t)
            assert eps.shape == (offsets[-1], 3)
            with pytest.raises(DataError, match=f"in generation {3 - t}, found .*'{t}'\\]$"):
                read_ep_csv(path, names, ids, offsets, 3 - t)

    def test_twin_runs_byte_identical(self, corpus, tmp_path):
        cfg = fast_config()
        run_experiment(corpus, cfg, run_dir=tmp_path / "a")
        run_experiment(corpus, cfg, run_dir=tmp_path / "b")
        for rel in ("metrics.json", "run_manifest.json",
                    "generations/gen01/eps.csv", "generations/gen02/eps.csv",
                    "generations/gen01/metrics.json", "generations/gen02/metrics.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_each_layer_gets_its_stream_seed(self, corpus, tmp_path, monkeypatch):
        """Fold f of generation t trains with derive_seed(refinery, _STREAM_MODEL,
        t, f), and evaluation fold f's forest with derive_seed(forest, f)."""
        cfg = fast_config(folds=2)
        seeds = cfg.derived_seeds()
        forest_seeds = []
        train_forest = pipeline.train_forest

        def recording(x, y, forest_cfg, class_names, seed):
            forest_seeds.append(seed)
            return train_forest(x, y, forest_cfg, class_names, seed)

        monkeypatch.setattr(pipeline, "train_forest", recording)
        run_dir = tmp_path / "r"
        run_experiment(corpus, cfg, run_dir=run_dir)
        assert json.loads((run_dir / "run_manifest.json").read_text())["derived_seeds"] == seeds
        for t in (1, 2):
            for fold in (0, 1):
                model = load_model(generation_dir(run_dir, t) / "models" / f"fold{fold:02d}.npz")
                assert model.seed == derive_seed(seeds["refinery"], _STREAM_MODEL, t, fold)
        assert forest_seeds == [derive_seed(seeds["forest"], fold)
                                for fold in range(cfg.eval_folds)] * 2

    def test_resume_skips_training(self, corpus, tmp_path, monkeypatch):
        cfg = fast_config()
        before = run_experiment(corpus, cfg, run_dir=tmp_path / "r")

        def boom(*args, **kwargs):
            raise AssertionError("resume must not retrain")

        monkeypatch.setattr("emorefinery.refinery.generate_eps_foldout", boom)
        again = run_experiment(corpus, cfg, run_dir=tmp_path / "r")
        assert again == before

    def test_resume_recomputes_missing_tail_identically(self, corpus, tmp_path):
        import shutil
        cfg = fast_config()
        run_experiment(corpus, cfg, run_dir=tmp_path / "r")
        reference = (tmp_path / "r" / "metrics.json").read_bytes()
        gen2 = generation_dir(tmp_path / "r", 2)
        files = sorted(p.relative_to(gen2) for p in gen2.rglob("*") if p.is_file())
        assert [str(p) for p in files] == [
            "confusion.csv", "eps.csv", "foldout.json", "metrics.json",
            "models/fold00.npz", "models/fold01.npz", "models/fold02.npz",
            "predictions.csv", "representations.csv"]
        uninterrupted = {p: (gen2 / p).read_bytes() for p in files}
        shutil.rmtree(gen2)
        run_experiment(corpus, cfg, run_dir=tmp_path / "r")
        assert (tmp_path / "r" / "metrics.json").read_bytes() == reference
        assert sorted(p.relative_to(gen2) for p in gen2.rglob("*") if p.is_file()) == files
        for p in files:
            assert (gen2 / p).read_bytes() == uninterrupted[p], p

    def test_resume_discards_an_interrupted_generation_write(self, corpus, tmp_path):
        cfg = fast_config()
        run_experiment(corpus, cfg, run_dir=tmp_path / "r")
        gen2 = generation_dir(tmp_path / "r", 2)
        uninterrupted = {p.relative_to(gen2): p.read_bytes()
                         for p in gen2.rglob("*") if p.is_file()}
        leftover = gen2.with_name(".gen02.tmp")
        gen2.rename(leftover)
        (leftover / "eps.csv").write_text("cut short")
        run_experiment(corpus, cfg, run_dir=tmp_path / "r")
        assert not leftover.exists()
        assert {p.relative_to(gen2): p.read_bytes()
                for p in gen2.rglob("*") if p.is_file()} == uninterrupted

    def test_config_change_on_existing_run_dir_rejected(self, corpus, tmp_path):
        run_experiment(corpus, fast_config(), run_dir=tmp_path / "r")
        with pytest.raises(DataError, match="different config"):
            run_experiment(corpus, fast_config(master_seed=6), run_dir=tmp_path / "r")

    @pytest.mark.parametrize("text, what", [
        ('{"format": "emorefinery-run", "con', "is not valid JSON"),
        ("\xff\xfe", "is not valid JSON"),
        ("[]", "is not a run manifest"),
    ])
    def test_damaged_run_manifest_rejected(self, corpus, tmp_path, text, what):
        (tmp_path / "r").mkdir()
        manifest = tmp_path / "r" / "run_manifest.json"
        manifest.write_text(text, encoding="latin-1")
        with pytest.raises(DataError, match=f"^{re.escape(str(manifest))} {what}"):
            run_experiment(corpus, fast_config(), run_dir=tmp_path / "r")

    def test_run_files_leave_no_temporaries(self, finished_run):
        run_dir, _ = finished_run
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "generations", "metrics.json", "run_manifest.json"]

    def test_no_resume_recomputes(self, corpus, tmp_path, monkeypatch):
        cfg = fast_config()
        run_experiment(corpus, cfg, run_dir=tmp_path / "r")
        calls = []
        from emorefinery.refinery import generate_eps_foldout as real

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr("emorefinery.refinery.generate_eps_foldout", counting)
        run_experiment(corpus, cfg, run_dir=tmp_path / "r", resume=False)
        assert len(calls) == 2

    def test_predictions_csv_uses_class_names(self, finished_run):
        run_dir, _ = finished_run
        with (generation_dir(run_dir, 1) / "predictions.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["utterance_id", "true", "pred"]
        assert len(rows) == 12
        names = {"class_0", "class_1", "class_2"}
        assert {r[1] for r in rows} <= names
        assert {r[2] for r in rows} <= names


class TestLabelNoiseReporting:
    def test_clean_label_metrics_present_only_for_noisy_corpora(self, finished_run,
                                                                tmp_path):
        _, metrics = finished_run
        assert "wa_clean" not in metrics["generations"][0]
        spec = SyntheticCorpusSpec(n_classes=3, utterances_per_class=5,
                                   segments_range=(3, 3), n_mels=8, seg_frames=4,
                                   label_noise=0.2, noise_level=0.4, seed=11)
        root = tmp_path / "noisy"
        write_synthetic_corpus(root, generate_synthetic_corpus(spec), spec.class_names)
        noisy = run_experiment(root, fast_config(generations=1, folds=3),
                               run_dir=tmp_path / "run")
        gen = noisy["generations"][0]
        assert 0.0 <= gen["wa_clean"] <= 1.0
        assert 0.0 <= gen["ua_clean"] <= 1.0


class TestExportEp:
    def test_rows_cover_all_generations(self, finished_run, tmp_path):
        run_dir, _ = finished_run
        lines = (generation_dir(run_dir, 1) / "eps.csv").read_text().splitlines()
        uid = lines[1].split(",")[0]
        n_segments = sum(1 for line in lines if line.startswith(f"{uid},"))
        out = tmp_path / "ep.csv"
        n = export_ep_evolution(run_dir, uid, out)
        lines = out.read_text().splitlines()
        assert n == 2 * n_segments
        assert len(lines) == n + 1
        assert lines[0].startswith("utterance_id,segment_index,generation,")
        generations = {line.split(",")[2] for line in lines[1:]}
        assert generations == {"1", "2"}

    def test_generations_with_other_headers_are_refused(self, finished_run, tmp_path):
        import shutil
        run_dir = tmp_path / "run"
        shutil.copytree(finished_run[0], run_dir)
        eps = generation_dir(run_dir, 2) / "eps.csv"
        eps.write_bytes(eps.read_bytes().replace(b"p_3", b"p_9", 1))
        first = generation_dir(run_dir, 1) / "eps.csv"
        message = f"{eps} has another EP header than {first}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            export_ep_evolution(run_dir, "u", tmp_path / "x.csv")

    def test_unknown_utterance(self, finished_run, tmp_path):
        run_dir, _ = finished_run
        with pytest.raises(DataError, match="not found"):
            export_ep_evolution(run_dir, "nope", tmp_path / "x.csv")

    def test_empty_run_dir(self, tmp_path):
        with pytest.raises(DataError, match="no completed generations"):
            export_ep_evolution(tmp_path, "u", tmp_path / "x.csv")
