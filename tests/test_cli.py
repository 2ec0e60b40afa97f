"""Command line interface tests: workflows and exit codes."""

import contextlib
import csv
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from emorefinery.classifier import TrainConfig
from emorefinery.cli import main
from emorefinery.config import ExperimentConfig
from emorefinery.datagen import SyntheticCorpusSpec
from emorefinery.decision import ForestConfig
from emorefinery.errors import TrainingDivergedError
from emorefinery.features import FrameSpec, SegmentSpec
from emorefinery.manifest import load_manifest, manifest_from_wav_tree, read_spectrogram_csv
from same_bytes import tree_bytes
from spectrogram_csv import rewrite_as_csv

CORPUS_SPEC = {
    "n_classes": 3, "utterances_per_class": 4, "segments_range": [3, 4],
    "n_mels": 8, "seg_frames": 4, "n_speakers": 2, "noise_level": 0.4, "seed": 9,
}
RUN_CONFIG = {
    "master_seed": 5, "mode": "pEPR", "generations": 2, "folds": 3, "eval_folds": 3,
    "segment": {"seg_frames": 4, "seg_hop_ms": 40.0},
    "train": {"max_epochs": 2, "batch_size": 32, "architecture": "tiny",
              "validation_fraction": 0.2},
    "forest": {"n_trees": 15},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    (ws / "spec.json").write_text(json.dumps(CORPUS_SPEC))
    (ws / "cfg.json").write_text(json.dumps(RUN_CONFIG))
    assert main(["gen-data", "--spec", str(ws / "spec.json"),
                 "--out", str(ws / "corpus")]) == 0
    return ws


@pytest.fixture(scope="module")
def finished_run(workspace):
    run_dir = workspace / "run"
    code = main(["run", "--config", str(workspace / "cfg.json"),
                 "--corpus", str(workspace / "corpus"), "--out", str(run_dir)])
    assert code == 0
    return run_dir


class TestGenData:
    def test_corpus_written(self, workspace, capsys):
        assert (workspace / "corpus" / "manifest.json").exists()
        assert len(list((workspace / "corpus" / "features").glob("*.npy"))) == 12

    def test_deterministic_and_seed_override_changes_bytes(self, workspace, tmp_path):
        spec = str(workspace / "spec.json")
        assert main(["gen-data", "--spec", spec, "--out", str(tmp_path / "again")]) == 0
        a = (workspace / "corpus" / "features" / "u0000_c0.npy").read_bytes()
        assert (tmp_path / "again" / "features" / "u0000_c0.npy").read_bytes() == a
        assert main(["gen-data", "--spec", spec, "--seed", "77",
                     "--out", str(tmp_path / "reseeded")]) == 0
        assert (tmp_path / "reseeded" / "features" / "u0000_c0.npy").read_bytes() != a

    def test_unknown_spec_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_classes": 3, "banana": 1}))
        assert main(["gen-data", "--spec", str(bad), "--out", str(tmp_path / "c")]) == 2

    def test_missing_spec_exits_2(self, tmp_path):
        assert main(["gen-data", "--spec", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "c")]) == 2

    @pytest.mark.parametrize("text, what", [
        ('{"segments_range": 5}', "segments_range must be two integers"),
        ('{"segments_range": [1, 2, 3]}', "segments_range must be two integers"),
        ('{"class_names": 5}', "class_names must be a list of strings"),
        ('{"n_classes": "3"}', "n_classes must be an integer"),
        ('{"noise_level": "x"}', "noise_level must be a number"),
        ('{"seed": 1.5}', "seed must be an integer"),
        ('{"noise_level": NaN}', "noise_level must be a finite number"),
        ('{"seg_frames": 1%s}' % ("0" * 400), "seg_frames must be an integer from -2**63"),
        ('{"seg_frames": -1%s}' % ("0" * 400), "seg_frames must be an integer from -2**63"),
        # Levels whose noise would overflow; pyproject.toml makes numpy's
        # overflow warning an error, so none may be printed either.
        ('{"noise_level": 1e308}', "must lie in [0, 1e+300], and noise_level is 1e+308"),
        ('{"utterance_noise_level": 1e308}',
         "must lie in [0, 1e+300], and utterance_noise_level is 1e+308"),
        ('{"n_classes": 3, "class_names": ["a", "a", "b"]}',
         "class_names must be distinct, not ['a', 'a', 'b']"),
        # An empty name was written as a class; a surrogate, which UTF-8
        # cannot encode, ended in a traceback.
        ('{"n_classes": 3, "class_names": ["", "b", "c"]}',
         "class name '' must not be empty nor hold a surrogate"),
        ('{"n_classes": 3, "class_names": ["a\\ud800", "b", "c"]}',
         "class name 'a\\ud800' must not be empty nor hold a surrogate"),
    ])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, text, what):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["gen-data", "--spec", str(bad), "--out", str(tmp_path / "c")]) == 2
        assert what in one_error(capsys, bad)
        assert not (tmp_path / "c").exists()

    # It ended in a traceback with exit 1. The first array would take
    # petabytes, or more bytes than numpy can count, so its allocation
    # fails before any memory is touched.
    @pytest.mark.parametrize("n_mels", [10 ** 15, 2 ** 63 - 1])
    def test_corpus_too_large_to_allocate_exits_2_writing_nothing(self, tmp_path, capsys,
                                                                  n_mels):
        spec = tmp_path / "huge.json"
        spec.write_text(json.dumps({**CORPUS_SPEC, "n_mels": n_mels}))
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "c")]) == 2
        assert "its corpus cannot be allocated" in one_error(capsys, f"{spec}: ")
        assert not (tmp_path / "c").exists()

    def test_existing_corpus_refused_and_kept(self, workspace, tmp_path, capsys):
        out = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", out)
        before = tree_bytes(out)
        capsys.readouterr()
        assert main(["gen-data", "--spec", str(workspace / "spec.json"), "--seed", "77",
                     "--out", str(out)]) == 3
        assert one_error(capsys, out) == (
            f"error: {out} already holds a corpus; write to a new or empty directory")
        assert tree_bytes(out) == before


class TestFeaturize:
    def test_copies_feature_corpus(self, workspace, tmp_path):
        out = tmp_path / "feats"
        out.mkdir()  # an empty directory is fresh
        code = main(["featurize", "--corpus", str(workspace / "corpus"), "--out", str(out)])
        assert code == 0
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("held", ["manifest.json and features/", "features/"])
    def test_existing_corpus_refused_before_reading(self, audio_site, tmp_path, capsys,
                                                    monkeypatch, held):
        # Featurizing again with another hop once rewrote the files one by
        # one, and an interrupt left files of both hops under one manifest.
        case, _ = audio_case(audio_site, "ang_s0_00.wav")
        out = case / "features"
        assert main(["featurize", "--corpus", str(case / "corpus"), "--out", str(out)]) == 0
        if held == "features/":
            (out / "manifest.json").unlink()
        before = tree_bytes(out)
        (tmp_path / "cfg.json").write_text(json.dumps({"frame": {"hop_ms": 5.0}}))

        def unread(*args):
            raise AssertionError("the corpus must not be read")

        monkeypatch.setattr("emorefinery.pipeline._read_corpus", unread)
        capsys.readouterr()
        assert main(["featurize", "--corpus", str(case / "corpus"), "--out", str(out),
                     "--config", str(tmp_path / "cfg.json")]) == 3
        assert one_error(capsys, out) == (
            f"error: {out} already holds a corpus; write to a new or empty directory")
        assert tree_bytes(out) == before

    def test_partial_failure_exits_3(self, workspace, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["featurize", "--corpus", str(workspace / "corpus"),
                     "--out", str(first)]) == 0
        rewrite_as_csv(first, ["u0000_c0"])
        sorted((first / "features").glob("*.csv"))[0].write_text("junk\n")
        code = main(["featurize", "--corpus", str(first), "--out", str(tmp_path / "second")])
        assert code == 3
        assert "failed" in capsys.readouterr().err
        assert len(list((tmp_path / "second" / "features").glob("*.npy"))) == 11

    def test_no_row_featurized_names_each_row(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        wavfile.write(corpus / "a.wav", 44100, np.zeros(4410, dtype=np.int16))
        manifest_from_wav_tree(corpus, lambda rel: ("ang", "s0"), class_names=("ang", "hap"))
        out = tmp_path / "out"
        assert main(["featurize", "--corpus", str(corpus), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: 1 utterance(s) failed to featurize: a: {corpus / 'a.wav'}: frame.fft_len=512"
            " is shorter than the 1102-sample window at 44100 Hz; set frame.fft_len to at"
            " least 1102"]
        assert not out.exists()

    def test_id_with_a_path_separator_exits_3_naming_the_manifest(self, workspace, tmp_path,
                                                                  capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        rename_ids(corpus, ["sub/u9"])
        capsys.readouterr()
        assert main(["featurize", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 3
        assert "'sub/u9' is not a file name" in one_error(capsys, corpus / "manifest.json")
        assert not (tmp_path / "out").exists()

    def test_id_too_long_for_a_file_name_exits_3_naming_the_file(self, workspace, tmp_path,
                                                                 capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        rename_ids(corpus, ["a" * 300])
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["featurize", "--corpus", str(corpus), "--out", str(out)]) == 3
        assert "cannot be written" in one_error(capsys, out / "features" / ("a" * 300 + ".npy"))

    def test_out_that_cannot_be_made_exits_3_naming_it(self, workspace, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert main(["featurize", "--corpus", str(workspace / "corpus"), "--out", str(out)]) == 3
        assert "cannot be written" in one_error(capsys, out / "features")


class TestRun:
    def test_artifacts_and_stdout(self, finished_run, capsys):
        assert (finished_run / "metrics.json").exists()
        assert (finished_run / "generations" / "gen02" / "eps.csv").exists()

    def test_describe_prints_derived_seeds(self, workspace, capsys):
        code = main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(workspace / "corpus"), "--describe"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["derived_seeds"]) == {"refinery", "forest", "eval"}

    def test_override_flags_reach_config(self, workspace, capsys):
        code = main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(workspace / "corpus"), "--seed", "9",
                     "--mode", "sEPR", "--generations", "1", "--folds", "4",
                     "--describe"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["master_seed"], doc["mode"]) == (9, "sEPR")
        assert (doc["generations"], doc["folds"]) == (1, 4)

    def test_bad_config_exits_2(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus": 1}))
        assert main(["run", "--config", str(bad),
                     "--corpus", str(workspace / "corpus")]) == 2

    @pytest.mark.parametrize("override, key", [
        ({"generations": "2"}, "generations"),
        ({"forest": {"n_trees": "5"}}, "forest.n_trees"),
        # json.dumps spells these Infinity and NaN; 1e999 also parses to inf.
        ({"segment": {"seg_frames": 4, "seg_hop_ms": float("inf")}}, "segment.seg_hop_ms"),
        ({"segment": {"seg_frames": 4, "seg_hop_ms": float("nan")}}, "segment.seg_hop_ms"),
        ({"frame": {"win_ms": float("nan")}}, "frame.win_ms"),
        ({"frame": {"win_ms": 10 ** 400}}, "frame.win_ms"),
        ({"segment": {"seg_frames": 10 ** 400}}, "segment.seg_frames"),
        ({"master_seed": -10 ** 400}, "master_seed"),
    ])
    def test_wrongly_typed_config_value_exits_2(self, workspace, tmp_path, capsys,
                                                override, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**RUN_CONFIG, **override}))
        assert main(["run", "--config", str(bad), "--corpus", str(workspace / "corpus"),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: {key} must be ")

    @pytest.mark.parametrize("architecture, what", [
        ({"name": "x", "conv_stages": "ab"}, "conv_stages must be"),
        ({"name": "x", "conv_stages": [[2]], "dense": "a"}, "dense must be"),
        ({"name": "x", "conv_stages": [[0]]}, "conv_stages must be"),
        ({"name": "x", "conv_stages": [[]]}, "conv_stages must be"),
        ({"name": 3, "conv_stages": [[2]]}, "name must be a string"),
    ])
    def test_bad_inline_architecture_exits_2(self, workspace, tmp_path, capsys,
                                             architecture, what):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**RUN_CONFIG, "train": {"architecture": architecture}}))
        assert main(["run", "--config", str(bad), "--corpus", str(workspace / "corpus"),
                     "--out", str(tmp_path / "run")]) == 2
        assert what in one_error(capsys, bad)

    def test_segment_hop_off_the_frame_hop_exits_2_naming_the_config(self, workspace, tmp_path,
                                                                     capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**RUN_CONFIG, "segment": {"seg_frames": 4,
                                                              "seg_hop_ms": 25.0}}))
        assert main(["run", "--config", str(bad), "--corpus", str(workspace / "corpus"),
                     "--out", str(tmp_path / "run")]) == 2
        assert one_error(capsys, bad) == (
            f"error: {bad}: seg_hop_ms=25.0 is not a positive multiple of hop_ms=10.0")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, what", [
        ({"folds": 13}, "folds=13, but the corpus at {corpus} has only 12 utterances"),
        ({"eval_folds": 13}, "eval_folds=13, but the corpus at {corpus} has only 12 utterances"),
        ({"group_by_speaker": True},
         "folds=3, but the corpus at {corpus} has only 2 speakers"),
        ({"forest": {"max_features": 16}},
         "forest.max_features=16, but the corpus at {corpus} has 15 representation features "
         "(5 per class)"),
    ])
    def test_limits_the_corpus_sets_exit_2_before_training(self, workspace, tmp_path, capsys,
                                                           monkeypatch, override, what):
        def never(*args, **kwargs):
            raise AssertionError("a fold trained")

        monkeypatch.setattr("emorefinery.refinery.train_segment_classifier", never)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**RUN_CONFIG, **override}))
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(bad), "--corpus", str(workspace / "corpus"),
                     "--out", str(run_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: " + what.format(corpus=workspace / "corpus")]
        assert not (run_dir / "run_manifest.json").exists()

    def test_net_that_pools_odd_dims_exits_2_before_writing(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        deep = {"name": "deep", "conv_stages": [[2], [2], [2]], "dtype": "float64"}
        bad.write_text(json.dumps({**RUN_CONFIG, "train": {**RUN_CONFIG["train"],
                                                            "architecture": deep}}))
        run_dir = tmp_path / "run"
        args = ["--corpus", str(workspace / "corpus"), "--out", str(run_dir),
                "--generations", "1"]
        assert main(["run", "--config", str(bad)] + args) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: architecture 'deep' pools 2x1 below even dims for input (8, 4)"]
        assert not run_dir.exists()
        # Nothing was written, so the corrected config runs in the same directory.
        assert main(["run", "--config", str(workspace / "cfg.json")] + args) == 0

    # It ended in a traceback from a fold thread, with exit 1. The dense
    # layer would take petabytes, or more bytes than numpy can count, so
    # its allocation fails before any memory is touched.
    @pytest.mark.parametrize("width", [10 ** 15, 10 ** 18])
    def test_net_too_large_to_allocate_exits_2_naming_it(self, workspace, tmp_path, capsys,
                                                         width):
        bad = tmp_path / "bad.json"
        huge = {"name": "huge", "conv_stages": [[2]], "dense": [width], "dtype": "float64"}
        bad.write_text(json.dumps({**RUN_CONFIG, "train": {**RUN_CONFIG["train"],
                                                            "architecture": huge}}))
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(bad), "--corpus", str(workspace / "corpus"),
                     "--out", str(run_dir)]) == 2
        assert one_error(capsys, "architecture 'huge' cannot be allocated for 8x4 segments (")
        # The net is allocated in training, after the run manifest is written.
        assert (run_dir / "run_manifest.json").exists()
        assert list((run_dir / "generations").iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "featurize"])
    @pytest.mark.parametrize("names", [
        "01",
        {"class_0": 1, "class_1": 1, "class_2": 1},
        ["class_0", "class_1", "class_2", 3],
    ], ids=["string", "object", "number"])
    def test_class_names_not_a_list_of_strings_exit_3(self, workspace, tmp_path, capsys,
                                                      command, names):
        # The object and the list holding a number were accepted: `run` exited 0.
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        doc = json.loads((corpus / "manifest.json").read_text())
        doc["class_names"] = names
        (corpus / "manifest.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        args = [command, "--corpus", str(corpus), "--out", str(out)]
        if command == "run":
            args += ["--config", str(workspace / "cfg.json")]
        assert main(args) == 3
        assert one_error(capsys, corpus / "manifest.json") == (
            f"error: {corpus / 'manifest.json'}: class_names must be a list of strings, "
            f"not {names!r}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "featurize"])
    @pytest.mark.parametrize("name", ["", "class_0\ud800"], ids=["empty", "surrogate"])
    def test_empty_or_surrogate_class_name_exits_3(self, workspace, tmp_path, capsys,
                                                   command, name):
        # The empty name ran with exit 0; the surrogate trained generation 1,
        # then ended in a traceback, leaving its temporary directory behind.
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        path = corpus / "manifest.json"
        doc = json.loads(path.read_text())
        doc["class_names"][0] = name
        for row in doc["rows"]:
            row["label"] = name if row["label"] == "class_0" else row["label"]
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        args = [command, "--corpus", str(corpus), "--out", str(out)]
        if command == "run":
            args += ["--config", str(workspace / "cfg.json")]
        assert main(args) == 3
        assert one_error(capsys, path) == (
            f"error: {path}: class name {name!r} must not be empty nor hold a surrogate")
        assert not out.exists()

    def test_diverging_training_exits_4(self, tmp_path, capsys):
        # Too few utterances per fold for a validation split: the monitored
        # loss is the epoch's loss before its last step, which overflows.
        spec = {"n_classes": 3, "utterances_per_class": 3, "segments_range": [2, 3],
                "n_mels": 8, "seg_frames": 4, "seed": 1}
        cfg = {"generations": 1, "folds": 2, "eval_folds": 2,
               "segment": {"seg_frames": 4, "seg_hop_ms": 40.0},
               "train": {"initial_lr": 1e308, "max_epochs": 1, "architecture": "tiny"},
               "forest": {"n_trees": 2}}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["gen-data", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "corpus")]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing Adam step
            code = main(["run", "--config", str(tmp_path / "cfg.json"),
                         "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "run")])
        assert code == 4
        assert "parameters became non-finite" in capsys.readouterr().err

    def test_overflowing_optimizer_moments_exit_4(self, tmp_path, capsys):
        # Features near float64's limit square past it in Adam's second
        # moment, while loss and parameters stay finite.
        spec = {"n_classes": 3, "utterances_per_class": 4, "segments_range": [3, 4],
                "n_mels": 8, "seg_frames": 4, "noise_level": 1e300, "seed": 9}
        cfg = {"generations": 1, "folds": 2, "eval_folds": 2,
               "segment": {"seg_frames": 4, "seg_hop_ms": 40.0},
               "train": {"max_epochs": 1, "architecture": "tiny"},
               "forest": {"n_trees": 2}}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["gen-data", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(tmp_path / "corpus")]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(tmp_path / "cfg.json"),
                         "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "run")])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: optimizer moments overflowed at step 1 (overflow encountered in multiply)"]

    def test_damaged_run_manifest_exits_3(self, workspace, tmp_path, capsys):
        args = ["run", "--config", str(workspace / "cfg.json"),
                "--corpus", str(workspace / "corpus"), "--out", str(tmp_path / "run"),
                "--generations", "1"]
        assert main(args) == 0
        manifest = tmp_path / "run" / "run_manifest.json"
        text = manifest.read_text()
        manifest.write_text(text[:len(text) // 2])
        capsys.readouterr()
        assert main(args) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {manifest} is not valid JSON")

    def test_missing_corpus_exits_3(self, workspace, tmp_path):
        assert main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(tmp_path / "nowhere")]) == 3

    @pytest.mark.parametrize("text, what", [
        ('{"format": "emorefinery-corpus", "version": 1, "rows": [', "is not valid JSON"),
        ('{"format": "emorefinery-corpus", "version": 1, "class_names": ["a", "b"]}',
         "lacks the key 'rows'"),
        # true and 1.0 equal 1 in Python, and were taken for version 1.
        ('{"format": "emorefinery-corpus", "version": true}',
         ": unsupported corpus manifest version True"),
        ('{"format": "emorefinery-corpus", "version": 1.0}',
         ": unsupported corpus manifest version 1.0"),
    ])
    def test_malformed_manifest_exits_3(self, workspace, tmp_path, capsys, text, what):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(tmp_path), "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {manifest}")
        assert what in err[0]

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_that_only_equals_1_exits_2_naming_the_config(
            self, workspace, tmp_path, capsys, version):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**RUN_CONFIG, "schema_version": version}))
        assert main(["run", "--config", str(bad), "--corpus", str(workspace / "corpus"),
                     "--out", str(tmp_path / "run")]) == 2
        assert one_error(capsys, bad) == (
            f"error: {bad}: unsupported config schema_version {version!r}")
        assert not (tmp_path / "run").exists()

    def test_repeated_class_name_exits_3_naming_the_manifest(self, workspace, tmp_path, capsys):
        shutil.copytree(workspace / "corpus", tmp_path / "corpus")
        manifest = tmp_path / "corpus" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["class_names"] = ["class_0", "class_0", "class_1", "class_2"]
        manifest.write_text(json.dumps(doc))
        assert main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "run")]) == 3
        assert one_error(capsys, manifest) == (
            f"error: {manifest}: class_names must be distinct, "
            "not ['class_0', 'class_0', 'class_1', 'class_2']")
        assert not (tmp_path / "run").exists()

    def test_spectrograms_without_mel_columns_exit_3_naming_each_file(self, workspace,
                                                                       tmp_path, capsys):
        self.assert_no_mel_band_named(workspace, tmp_path, capsys, "csv",
                                      "names no mel column after frame_time_ms")

    def test_npy_spectrograms_without_mel_rows_exit_3_naming_each_file(self, workspace,
                                                                       tmp_path, capsys):
        self.assert_no_mel_band_named(workspace, tmp_path, capsys, "npy",
                                      "names no mel row after the frame times")

    @staticmethod
    def assert_no_mel_band_named(workspace, tmp_path, capsys, fmt, what):
        """Keep only the frame times of every corpus row, stored as `fmt`:
        `run` exits 3 with one error naming each file."""
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        if fmt == "csv":
            rewrite_as_csv(corpus, [r.utterance_id for r in load_manifest(corpus).rows])
        paths = sorted((corpus / "features").glob(f"*.{fmt}"))
        for path in paths:
            if fmt == "csv":
                path.write_text("".join(line.split(",")[0] + "\n"
                                        for line in path.read_text().splitlines()))
            else:
                np.save(path, np.load(path)[:1])
        assert main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(corpus), "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {len(paths)} utterance(s) failed")
        for path in paths:
            assert f"{path.stem}: {path} {what}" in err[0]

    @staticmethod
    def assert_one_mismatch(workspace, tmp_path, capsys, odd, ref, fmt):
        """Cut the corpus row `odd`, stored as `fmt`, to 6 mel bands: `run`
        and `featurize` each exit 3 naming it alone, and `featurize` writes
        the 11 others."""
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        if fmt == "csv":
            (path,) = rewrite_as_csv(corpus, [odd])
            path.write_text("".join(",".join(line.split(",")[:7]) + "\n"
                                    for line in path.read_text().splitlines()))
        else:
            path = corpus / "features" / f"{odd}.npy"
            np.save(path, np.load(path)[:7])
        reason = f"{path}: 6 mel bands, where {ref!r} has 8"
        assert main(["run", "--config", str(workspace / "cfg.json"), "--corpus", str(corpus),
                     "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: 1 utterance(s) failed to featurize: {odd}: {reason}"]
        assert not (tmp_path / "run").exists()
        out = tmp_path / "featurized"
        assert main(["featurize", "--corpus", str(corpus), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"failed {odd}: {reason}", "error: 1 utterance(s) failed"]
        written = load_manifest(out)
        assert len(written.rows) == 11 and odd not in {r.utterance_id for r in written.rows}
        assert len(list((out / "features").glob("*.npy"))) == 11

    def test_mismatched_mel_count_exits_3_naming_the_file(self, workspace, tmp_path, capsys):
        self.assert_one_mismatch(workspace, tmp_path, capsys, "u0005_c1", "u0000_c0", "csv")

    def test_mismatched_first_file_is_the_one_named(self, workspace, tmp_path, capsys):
        # The corpus's mel count is the most common one, not the first read.
        self.assert_one_mismatch(workspace, tmp_path, capsys, "u0000_c0", "u0001_c0", "csv")

    @pytest.mark.parametrize("odd, ref", [("u0005_c1", "u0000_c0"), ("u0000_c0", "u0001_c0")])
    def test_mismatched_npy_mel_count_exits_3_naming_the_file(self, workspace, tmp_path,
                                                              capsys, odd, ref):
        self.assert_one_mismatch(workspace, tmp_path, capsys, odd, ref, "npy")

    def test_unreadable_manifest_exits_3(self, workspace, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.mkdir()
        assert main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(tmp_path), "--out", str(tmp_path / "run")]) == 3
        assert "cannot be read" in one_error(capsys, manifest)

    def test_truncated_eps_csv_exits_3(self, workspace, tmp_path, capsys):
        args = ["run", "--config", str(workspace / "cfg.json"),
                "--corpus", str(workspace / "corpus"), "--out", str(tmp_path / "run"),
                "--generations", "1"]
        assert main(args) == 0
        eps = tmp_path / "run" / "generations" / "gen01" / "eps.csv"
        text = eps.read_text()
        eps.write_text(text[:text.rindex(",")])
        capsys.readouterr()
        assert main(args) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {eps}, line ")

    @pytest.mark.parametrize("name, damage, what", [
        ("metrics.json", lambda text: text[:len(text) // 2], "is not valid JSON"),
        ("metrics.json", lambda text: json.dumps({"generation": 1, "wa": 0.5, "ua": 0.5}),
         "is not the report of generation 1 with numbers for wa, ua and mean_ep_entropy"),
        ("metrics.json", lambda text: json.dumps({"wa": 0.5, "ua": 0.5, "mean_ep_entropy": 1}),
         "is not the report of generation 1"),
        ("metrics.json", lambda text: text.replace('"wa": ', '"wa": "x", "_": '),
         "is not the report of generation 1"),
        # Resume reused the generation and wrote its NaN into the run's metrics.json.
        ("metrics.json", lambda text: text.replace('"wa": ', '"wa": NaN, "_": '),
         "is not the report of generation 1"),
        ("metrics.json",
         lambda text: text.replace('"mean_ep_entropy": ', '"mean_ep_entropy": -Infinity, "_": '),
         "is not the report of generation 1"),
        ("eps.csv", lambda text: "".join(line for line in text.splitlines(keepends=True)
                                         if not line.startswith("u0001_c0,")),
         ": expected segment 0 of 'u0001_c0' in generation 1, found "),
    ])
    def test_damaged_generation_exits_3(self, workspace, tmp_path, capsys, name, damage, what):
        args = ["run", "--config", str(workspace / "cfg.json"),
                "--corpus", str(workspace / "corpus"), "--out", str(tmp_path / "run"),
                "--generations", "1"]
        assert main(args) == 0
        path = tmp_path / "run" / "generations" / "gen01" / name
        path.write_text(damage(path.read_text()))
        capsys.readouterr()
        assert main(args) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}")
        assert what in err[0] and err[0].endswith("rerun with --no-resume to recompute it")
        assert main(args + ["--no-resume"]) == 0

    @pytest.mark.parametrize("name", [
        "eps.csv", "representations.csv", "predictions.csv", "confusion.csv", "metrics.json",
        "foldout.json", "models/fold00.npz", "models/fold01.npz", "models/fold02.npz"])
    def test_generation_missing_a_file_exits_3_naming_it(self, workspace, finished_run,
                                                         tmp_path, capsys, name):
        # The run reused the generation, printing its old metrics, with exit 0.
        run_dir = tmp_path / "run"
        shutil.copytree(finished_run, run_dir)
        path = run_dir / "generations" / "gen01" / name
        path.unlink()
        capsys.readouterr()
        assert main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(workspace / "corpus"), "--out", str(run_dir)]) == 3
        assert one_error(capsys, path) == (
            f"error: {path} is missing; generation 1 cannot be reused, "
            "rerun with --no-resume to recompute it")
        assert not path.exists()

    @pytest.mark.parametrize("damage, what", [
        (lambda audit: "garbage", "is not valid JSON"),
        (lambda audit: {**audit, "generation": 1}, "is not the audit of generation 2"),
        (lambda audit: {**audit, "folds": 2}, "is not the audit of generation 2 over 3 folds"),
        (lambda audit: {**audit, "violations": ["u0000_c0"]}, "with no violations"),
        (lambda audit: [audit], "is not the audit of generation 2"),
    ])
    def test_damaged_foldout_audit_exits_3(self, workspace, finished_run, tmp_path, capsys,
                                           damage, what):
        # The run reused the generation, printing its old metrics, with exit 0.
        run_dir = tmp_path / "run"
        shutil.copytree(finished_run, run_dir)
        path = run_dir / "generations" / "gen02" / "foldout.json"
        doc = damage(json.loads(path.read_text()))
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        capsys.readouterr()
        assert main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(workspace / "corpus"), "--out", str(run_dir)]) == 3
        err = one_error(capsys, path)
        assert what in err and err.endswith(
            "; generation 2 cannot be reused, rerun with --no-resume to recompute it")

    @pytest.mark.parametrize("field, value", [("generation", True), ("folds", 3.0)])
    def test_foldout_audit_of_equal_non_integers_exits_3(self, workspace, finished_run,
                                                         tmp_path, capsys, field, value):
        # true == 1 and 3.0 == 3, but neither is the integer JSON the audit holds.
        run_dir = tmp_path / "run"
        shutil.copytree(finished_run, run_dir)
        path = run_dir / "generations" / "gen01" / "foldout.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        capsys.readouterr()
        assert main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(workspace / "corpus"), "--out", str(run_dir)]) == 3
        assert one_error(capsys, path) == (
            f"error: {path} is not the audit of generation 1 over 3 folds with no violations; "
            "generation 1 cannot be reused, rerun with --no-resume to recompute it")

    @pytest.mark.parametrize("command", ["run", "featurize"])
    def test_oversized_header_field_exits_3_naming_the_file(self, workspace, tmp_path,
                                                            capsys, command):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        (path,) = rewrite_as_csv(corpus, ["u0000_c0"])
        path.write_text(f'"{"x" * 200_000}",' + path.read_text())
        args = (reading_command("run", tmp_path, workspace / "cfg.json") if command == "run"
                else ["featurize", "--corpus", str(corpus), "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert main(args) == 3
        assert f"{path}, line 1: field larger than field limit" in capsys.readouterr().err

    def test_conflicting_run_dir_exits_3(self, workspace, finished_run):
        assert main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(workspace / "corpus"), "--seed", "6",
                     "--out", str(finished_run)]) == 3


def same_run(a, b):
    """Run directories identical byte for byte, but for the output_dir they record."""
    files_a, files_b = tree_bytes(a), tree_bytes(b)
    manifests = [json.loads(files.pop("run_manifest.json")) for files in (files_a, files_b)]
    assert manifests[0]["config"].pop("output_dir") == str(a)
    assert manifests[1]["config"].pop("output_dir") == str(b)
    return files_a == files_b and manifests[0] == manifests[1]


def one_error(capsys, path):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}")
    return err[0]


@pytest.mark.parametrize("command", ["gen-data", "featurize", "run", "export-ep"])
def test_out_under_a_file_exits_3_naming_it(workspace, finished_run, tmp_path, capsys,
                                             command):
    # run and export-ep ended in a traceback.
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    args = {"gen-data": ["--spec", str(workspace / "spec.json")],
            "featurize": ["--corpus", str(workspace / "corpus")],
            "run": ["--config", str(workspace / "cfg.json"),
                    "--corpus", str(workspace / "corpus")],
            "export-ep": ["--run", str(finished_run), "--utterance", "u0000_c0"]}[command]
    capsys.readouterr()
    assert main([command, *args, "--out", str(out)]) == 3
    assert "cannot be written" in one_error(capsys, out)


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_full_disk_names_the_file(finished_run, capsys):
    # The write fails on flush, where Python names no file.
    capsys.readouterr()
    assert main(["export-ep", "--run", str(finished_run), "--utterance", "u0000_c0",
                 "--out", "/dev/full"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: /dev/full cannot be written (No space left on device)"]


def test_unencodable_output_dir_exits_2_before_reading(tmp_path, capsys, monkeypatch):
    # It read and segmented the corpus, then ended in a UnicodeEncodeError.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps({**RUN_CONFIG, "output_dir": "R\ud800"}))
    (tmp_path / "good.json").write_text(json.dumps(RUN_CONFIG))
    assert main(["run", "--config", "bad.json", "--corpus", "missing"]) == 2
    assert "output_dir 'R\\ud800' cannot be encoded" in one_error(capsys, "bad.json")
    assert main(["run", "--config", "good.json", "--corpus", "missing", "--out", "R\ud800"]) == 2
    assert "cannot be encoded" in one_error(capsys, "output_dir")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "good.json"]


def test_empty_output_dir_exits_2_and_writes_nothing(workspace, tmp_path, capsys, monkeypatch):
    # It wrote the run into the working directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps({**RUN_CONFIG, "output_dir": ""}))
    (tmp_path / "good.json").write_text(json.dumps(RUN_CONFIG))
    corpus = str(workspace / "corpus")
    assert main(["run", "--config", "bad.json", "--corpus", corpus]) == 2
    assert "output_dir must not be empty" in one_error(capsys, "bad.json")
    assert main(["run", "--config", "good.json", "--corpus", corpus, "--out", ""]) == 2
    one_error(capsys, "output_dir must not be empty")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "good.json"]


def test_output_dir_with_a_nul_exits_2_before_reading(tmp_path, capsys, monkeypatch):
    # It read and segmented the corpus, then ended in "embedded null byte".
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps({**RUN_CONFIG, "output_dir": "R\u0000x"}))
    (tmp_path / "good.json").write_text(json.dumps(RUN_CONFIG))
    assert main(["run", "--config", "bad.json", "--corpus", "missing"]) == 2
    assert "output_dir 'R\\x00x' holds a NUL character" in one_error(capsys, "bad.json")
    assert main(["run", "--config", "good.json", "--corpus", "missing", "--out", "R\0x"]) == 2
    assert "holds a NUL character" in one_error(capsys, "output_dir")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "good.json"]


class TestResume:
    def gen_corpus(self, ws, seed):
        spec = ws / "same_shape.json"
        spec.write_text(json.dumps({**CORPUS_SPEC, "segments_range": [3, 3]}))
        out = ws / f"corpus{seed}"
        assert main(["gen-data", "--spec", str(spec), "--seed", str(seed),
                     "--out", str(out)]) == 0
        return out

    def run_args(self, workspace, corpus, run_dir):
        return ["run", "--config", str(workspace / "cfg.json"), "--corpus", str(corpus),
                "--out", str(run_dir)]

    def test_refuses_another_corpus(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(self.run_args(workspace, self.gen_corpus(tmp_path, 9), run_dir)) == 0
        shutil.rmtree(run_dir / "generations" / "gen02")
        other = self.run_args(workspace, self.gen_corpus(tmp_path, 10), run_dir)
        capsys.readouterr()
        assert main(other) == 3
        err = one_error(capsys, run_dir / "run_manifest.json")
        assert "records a different corpus_sha256" in err and "--no-resume" in err
        assert sorted(p.name for p in (run_dir / "generations").iterdir()) == ["gen01"]
        assert main(other + ["--no-resume"]) == 0
        assert main(self.run_args(workspace, tmp_path / "corpus10", tmp_path / "fresh")) == 0
        assert same_run(run_dir, tmp_path / "fresh")

    def test_refuses_a_run_manifest_without_fingerprint(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        args = self.run_args(workspace, workspace / "corpus", run_dir) + ["--generations", "1"]
        assert main(args) == 0
        path = run_dir / "run_manifest.json"
        doc = json.loads(path.read_text())
        assert len(doc.pop("corpus_sha256")) == 64
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(args) == 3
        assert "records no corpus_sha256" in one_error(capsys, path)

    def test_refuses_generations_without_run_manifest(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        args = self.run_args(workspace, workspace / "corpus", run_dir) + ["--generations", "1"]
        assert main(args) == 0
        (run_dir / "run_manifest.json").unlink()
        capsys.readouterr()
        assert main(args) == 3
        assert "cannot be read" in one_error(capsys, run_dir / "run_manifest.json")
        assert main(args + ["--no-resume"]) == 0

    def test_no_resume_starts_a_changed_config_over(self, workspace, tmp_path):
        args = self.run_args(workspace, workspace / "corpus", tmp_path / "run")
        assert main(args + ["--generations", "1"]) == 0
        assert main(args + ["--seed", "6", "--no-resume"]) == 0
        fresh = self.run_args(workspace, workspace / "corpus", tmp_path / "fresh")
        assert main(fresh + ["--seed", "6"]) == 0
        assert same_run(tmp_path / "run", tmp_path / "fresh")

    def test_resume_with_a_changed_config_keeps_the_run(self, workspace, finished_run,
                                                        capsys):
        before = tree_bytes(finished_run)
        assert sorted(p.name for p in (finished_run / "generations").iterdir()) == \
            ["gen01", "gen02"]
        capsys.readouterr()
        assert main(self.run_args(workspace, workspace / "corpus", finished_run)
                    + ["--seed", "6"]) == 3
        assert "records a different config" in one_error(capsys, finished_run / "run_manifest.json")
        assert tree_bytes(finished_run) == before

    @pytest.mark.parametrize("flags, change", [
        (["--seed", "6"], "(master_seed: 5 in the run, 6 in the config)"),
        (["--mode", "sEPR"], '(mode: "pEPR" in the run, "sEPR" in the config)'),
    ])
    def test_changed_config_key_is_named_with_both_values(self, workspace, finished_run,
                                                          capsys, flags, change):
        capsys.readouterr()
        assert main(self.run_args(workspace, workspace / "corpus", finished_run) + flags) == 3
        assert f"records a different config {change}, so" in one_error(
            capsys, finished_run / "run_manifest.json")

    @pytest.mark.parametrize("edit, change", [
        (lambda c: c["train"].update(max_epochs=1), "train.max_epochs: 1 in the run, 2 "),
        (lambda c: c["forest"].pop("n_trees"), "forest.n_trees: absent in the run, 15 "),
        (lambda c: c.update(extra=[1]), "extra: [1] in the run, absent in the config"),
    ], ids=["changed", "absent-in-the-run", "absent-in-the-config"])
    def test_changed_nested_key_is_named_with_both_values(self, workspace, finished_run,
                                                          tmp_path, capsys, edit, change):
        run_dir = tmp_path / "run"
        shutil.copytree(finished_run, run_dir)
        path = run_dir / "run_manifest.json"
        doc = json.loads(path.read_text())
        edit(doc["config"])
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(self.run_args(workspace, workspace / "corpus", run_dir)) == 3
        assert f"records a different config ({change}" in one_error(capsys, path)

    def test_moved_run_resumes_without_training(self, workspace, finished_run, tmp_path,
                                                monkeypatch):
        # It exited 3: the run manifest recorded the old output_dir.
        def never(*args, **kwargs):
            raise AssertionError("a fold trained")

        moved = tmp_path / "moved"
        shutil.copytree(finished_run, moved)
        monkeypatch.setattr("emorefinery.refinery.train_segment_classifier", never)
        assert main(self.run_args(workspace, workspace / "corpus", moved)) == 0
        for name in ("metrics.json", "generations/gen01/eps.csv", "generations/gen02/eps.csv"):
            assert (moved / name).read_bytes() == (finished_run / name).read_bytes()
        assert same_run(finished_run, moved)

    def test_start_over_that_fails_leaves_no_metrics_for_eval(self, workspace, finished_run,
                                                              tmp_path, capsys, monkeypatch):
        # eval exited 0 and printed the WA of the run that was started over.
        def diverge(*args, **kwargs):
            raise TrainingDivergedError("non-finite loss")

        run_dir = tmp_path / "run"
        shutil.copytree(finished_run, run_dir)
        monkeypatch.setattr("emorefinery.refinery.train_segment_classifier", diverge)
        capsys.readouterr()
        args = self.run_args(workspace, workspace / "corpus", run_dir) + ["--no-resume"]
        assert main(args) == 4
        one_error(capsys, "non-finite loss")
        assert list((run_dir / "generations").iterdir()) == []
        assert main(["eval", "--run", str(run_dir)]) == 3
        one_error(capsys, f"no metrics report at {run_dir / 'metrics.json'}")

    def test_damaged_clean_accuracy_exits_3(self, workspace, tmp_path, capsys):
        args = self.run_args(workspace, workspace / "corpus", tmp_path / "run") + [
            "--generations", "1"]
        assert main(args) == 0
        path = tmp_path / "run" / "generations" / "gen01" / "metrics.json"
        report = json.loads(path.read_text())
        path.write_text(json.dumps({**report, "wa_clean": "x", "ua_clean": 0.5}))
        capsys.readouterr()
        assert main(args) == 3
        err = one_error(capsys, path)
        assert "is not the report of generation 1" in err and "--no-resume" in err


def test_label_noise_is_reported_by_gen_data_run_and_eval(workspace, tmp_path, capsys):
    spec, corpus, run_dir = tmp_path / "noisy.json", tmp_path / "corpus", tmp_path / "run"
    spec.write_text(json.dumps({**CORPUS_SPEC, "label_noise": 0.25}))
    assert main(["gen-data", "--spec", str(spec), "--out", str(corpus)]) == 0
    flipped = sum(r.observed_label != "" for r in load_manifest(corpus).rows)
    assert flipped == 3  # a quarter of 12 utterances
    assert "label noise: 3 observed labels differ from clean labels\n" in capsys.readouterr().out
    assert main(["run", "--config", str(workspace / "cfg.json"), "--corpus", str(corpus),
                 "--out", str(run_dir)]) == 0
    lines = [f"gen {g['generation']}: WA {g['wa']:.4f} UA {g['ua']:.4f} mean EP entropy "
             f"{g['mean_ep_entropy']:.4f} (clean-label WA {g['wa_clean']:.4f} "
             f"UA {g['ua_clean']:.4f})"
             for g in json.loads((run_dir / "metrics.json").read_text())["generations"]]
    assert len(lines) == 2
    assert capsys.readouterr().out.splitlines() == lines + [f"run artifacts in {run_dir}"]
    assert main(["eval", "--run", str(run_dir)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == lines


def with_generations(text, change):
    """A run's metrics.json text with its list of generation reports changed."""
    doc = json.loads(text)
    return json.dumps({**doc, "generations": change(doc["generations"])})


class TestEvalAndExport:
    def test_eval_prints_generations(self, finished_run, capsys):
        assert main(["eval", "--run", str(finished_run)]) == 0
        out = capsys.readouterr().out
        assert "gen 1: WA" in out and "gen 2: WA" in out

    def test_eval_single_generation(self, finished_run, capsys):
        assert main(["eval", "--run", str(finished_run), "--generation", "2"]) == 0
        out = capsys.readouterr().out
        assert "gen 2" in out and "gen 1" not in out

    def test_eval_unknown_generation_exits_3(self, finished_run):
        assert main(["eval", "--run", str(finished_run), "--generation", "9"]) == 3

    def test_eval_missing_run_exits_3(self, tmp_path):
        assert main(["eval", "--run", str(tmp_path)]) == 3

    @pytest.mark.parametrize("damage", [
        lambda text: text[:len(text) // 2],
        lambda text: "[]",
        lambda text: text.replace('"mode": ', '"mode": 1, "_": '),
        lambda text: text.replace('"generations": [', '"generations": [{}, '),
        lambda text: text.replace('"wa": ', '"wa": "x", "_": ', 1),
        # eval printed "WA nan" and exited 0.
        lambda text: text.replace('"wa": ', '"wa": NaN, "_": ', 1),
        lambda text: text.replace('"ua": ', '"ua": Infinity, "_": ', 1),
        # eval printed only the mode line, or "gen 2" twice, and exited 0.
        lambda text: with_generations(text, lambda g: []),
        lambda text: with_generations(text, lambda g: [g[1], g[1]]),
        lambda text: with_generations(text, lambda g: g[::-1]),
        lambda text: with_generations(text, lambda g: g[1:]),
    ], ids=["truncated", "empty-list", "numeric-mode", "empty-generation", "string-wa",
            "nan-wa", "infinite-ua", "no-generations", "gen-2-twice", "out-of-order",
            "gen-1-missing"])
    def test_eval_damaged_report_exits_3(self, finished_run, tmp_path, capsys, damage):
        run_dir = tmp_path / "copy"
        shutil.copytree(finished_run, run_dir)
        path = run_dir / "metrics.json"
        path.write_text(damage(path.read_text()))
        capsys.readouterr()
        assert main(["eval", "--run", str(run_dir)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path} is not ")

    def test_eval_unreadable_report_exits_3(self, finished_run, tmp_path, capsys):
        run_dir = tmp_path / "copy"
        shutil.copytree(finished_run, run_dir)
        path = run_dir / "metrics.json"
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert main(["eval", "--run", str(run_dir)]) == 3
        assert "cannot be read" in one_error(capsys, path)

    def test_export_unreadable_eps_exits_3(self, finished_run, tmp_path, capsys):
        run_dir = tmp_path / "copy"
        shutil.copytree(finished_run, run_dir)
        path = run_dir / "generations" / "gen02" / "eps.csv"
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert main(["export-ep", "--run", str(run_dir),
                     "--utterance", "u0000_c0", "--out", str(tmp_path / "x.csv")]) == 3
        assert "cannot be read" in one_error(capsys, path)

    @pytest.mark.parametrize("damage, what", [
        (lambda raw: b"", "is empty"),
        (lambda raw: b"\xff" + raw, "is not UTF-8 text"),
        (lambda raw: raw + b'"' + b"x" * 200_000 + b'"\r\n', "field larger than field limit"),
    ], ids=["empty", "non-utf8", "oversized-field"])
    def test_export_damaged_eps_exits_3(self, finished_run, tmp_path, capsys, damage, what):
        run_dir = tmp_path / "copy"
        shutil.copytree(finished_run, run_dir)
        path = run_dir / "generations" / "gen01" / "eps.csv"
        path.write_bytes(damage(path.read_bytes()))
        capsys.readouterr()
        assert main(["export-ep", "--run", str(run_dir),
                     "--utterance", "u0000_c0", "--out", str(tmp_path / "x.csv")]) == 3
        assert what in one_error(capsys, path)

    def test_export_reads_only_the_generation_directories(self, finished_run, tmp_path):
        # The copy's rows were exported twice and the stray file ended in exit 3.
        run_dir = tmp_path / "copy"
        shutil.copytree(finished_run, run_dir)
        shutil.copytree(run_dir / "generations" / "gen01", run_dir / "generations" / "gen01.bak")
        (run_dir / "generations" / "gen-notes.txt").write_text("notes\n")
        for run, out in ((finished_run, "clean.csv"), (run_dir, "strays.csv")):
            assert main(["export-ep", "--run", str(run), "--utterance", "u0000_c0",
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "strays.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()

    def test_export_ep(self, finished_run, tmp_path, capsys):
        out = tmp_path / "ep.csv"
        assert main(["export-ep", "--run", str(finished_run),
                     "--utterance", "u0000_c0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("utterance_id,segment_index,generation")
        assert len(lines) > 1

    def test_export_copies_the_stored_rows(self, finished_run, tmp_path):
        out = tmp_path / "ep.csv"
        assert main(["export-ep", "--run", str(finished_run),
                     "--utterance", "u0001_c0", "--out", str(out)]) == 0
        stored = [(finished_run / "generations" / f"gen0{t}" / "eps.csv").read_bytes()
                  .split(b"\r\n") for t in (1, 2)]
        expected = [stored[0][0]] + [line for lines in stored for line in lines
                                     if line.startswith(b"u0001_c0,")]
        assert out.read_bytes() == b"\n".join(expected) + b"\n"

    def test_export_finds_ids_that_need_quoting(self, workspace, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace / "corpus", corpus)
        rename_ids(corpus, ["u0,x", 'u1"q'])
        args = ["run", "--config", str(workspace / "cfg.json"), "--corpus", str(corpus),
                "--out", str(tmp_path / "run")]
        assert main(args) == 0 and main(args) == 0  # the second run resumes
        for uid in ("u0,x", 'u1"q'):
            assert_exported(tmp_path / "run", uid, tmp_path / "ep.csv")

    def test_export_unknown_utterance_exits_3(self, finished_run, tmp_path):
        assert main(["export-ep", "--run", str(finished_run),
                     "--utterance", "ghost", "--out", str(tmp_path / "x.csv")]) == 3


def typed_fields(cls):
    """(name, type) of the fields of a dataclass that hold one JSON scalar."""
    return [(f.name, f.type) for f in fields(cls) if f.type in (bool, int, float, str)]


SECTIONS = {"frame": FrameSpec, "segment": SegmentSpec, "train": TrainConfig,
            "forest": ForestConfig}
# (file kind, config section or None, field name, declared type).
TYPED_FIELDS = ([("config", None, *f) for f in typed_fields(ExperimentConfig)]
                + [("config", section, *f) for section, cls in SECTIONS.items()
                   for f in typed_fields(cls)]
                + [("spec", None, *f) for f in typed_fields(SyntheticCorpusSpec)])
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10 ** 400), st.floats(),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def wrong_value(kind):
    """A JSON value that is not of the kind, or for a float one that is not
    a finite float."""
    if kind is float:
        return JSON_VALUES.filter(lambda v: type(v) not in (int, float)
                                  or not -sys.float_info.max <= v <= sys.float_info.max)
    return JSON_VALUES.filter(lambda v: type(v) is not kind)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.data())
def test_wrongly_typed_or_non_finite_field_exits_2(data):
    file_kind, section, name, kind = data.draw(st.sampled_from(TYPED_FIELDS))
    value = data.draw(wrong_value(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{file_kind}.json"
        if file_kind == "spec":
            doc = {name: value}
            args = ["gen-data", "--spec", str(path), "--out", str(Path(tmp) / "corpus")]
        else:
            doc = dict(RUN_CONFIG)
            if section is None:
                doc[name] = value
            else:
                doc[section] = {**doc.get(section, {}), name: value}
            args = ["run", "--config", str(path), "--corpus", str(Path(tmp) / "corpus"),
                    "--out", str(Path(tmp) / "run")]
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    key = name if section is None else f"{section}.{name}"
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith(f"error: {path}: {key} must be ")


@pytest.mark.parametrize("command", ["gen-data --spec", "run --corpus corpus --config"])
@pytest.mark.parametrize("make", [lambda path: path.write_bytes(b"\xff{}"), Path.mkdir])
def test_unreadable_input_file_exits_2(tmp_path, capsys, command, make):
    path = tmp_path / "input.json"
    make(path)
    assert main(command.split() + [str(path), "--out", str(tmp_path / "out")]) == 2
    one_error(capsys, path)


# Files of a finished run and its corpus, under one case directory, and the
# commands that read each of them.
READ_BY = {
    "corpus/manifest.json": ("run",),
    "corpus/features/u0000_c0.csv": ("run",),
    "corpus/features/u0001_c0.npy": ("run",),
    "run/generations/gen01/eps.csv": ("run", "export-ep"),
    "run/generations/gen02/metrics.json": ("run",),
    "run/metrics.json": ("eval",),
    "run/run_manifest.json": ("run",),
}


@pytest.fixture(scope="module")
def damage_site(tmp_path_factory, workspace):
    """A finished tiny run of two generations and its corpus, whose row
    u0000_c0 is a CSV and the others .npy files, kept in `pristine`; each
    case works on a copy at `case`, where the run was made, so that resuming
    it finds the config it records."""
    root = tmp_path_factory.mktemp("damage")
    shutil.copytree(workspace / "corpus", root / "case" / "corpus")
    rewrite_as_csv(root / "case" / "corpus", ["u0000_c0"])
    assert main(["run", "--config", str(workspace / "cfg.json"), "--corpus",
                 str(root / "case" / "corpus"), "--out", str(root / "case" / "run")]) == 0
    shutil.copytree(root / "case", root / "pristine")
    return root


def reading_command(command, case, config):
    if command == "run":
        return ["run", "--config", str(config), "--corpus", str(case / "corpus"),
                "--out", str(case / "run")]
    if command == "eval":
        return ["eval", "--run", str(case / "run")]
    return ["export-ep", "--run", str(case / "run"), "--utterance", "u0000_c0",
            "--out", str(case / "ep.csv")]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_damaged_file_exits_2_or_3_naming_it(damage_site, workspace, data):
    """A cut, a non-UTF-8 first byte or a directory in place of a run or
    corpus file, a CSV or an .npy spectrogram among them, ends in exit 0, or
    in exit 2 or 3 with one error line that names the file. A cut
    spectrogram that still parses is another corpus, which the run manifest
    refuses to resume by its fingerprint."""
    rel = data.draw(st.sampled_from(sorted(READ_BY)))
    command = data.draw(st.sampled_from(READ_BY[rel]))
    damage = data.draw(st.sampled_from(["cut", "non-utf8", "directory"]))
    run_on_damaged_file(damage_site, workspace, rel, command, damage,
                        cut_at=lambda size: data.draw(st.integers(0, size - 1)))


@pytest.mark.parametrize("rel", ["corpus/features/u0000_c0.csv",
                                 "corpus/features/u0001_c0.npy"])
@pytest.mark.parametrize("damage", ["non-utf8", "directory"])
def test_damaged_spectrogram_of_either_format_exits_3_naming_it(damage_site, workspace,
                                                                rel, damage):
    assert run_on_damaged_file(damage_site, workspace, rel, "run", damage, cut_at=None) == 3


@pytest.mark.parametrize("damage", ["bytes after the array", "header length 1"])
@pytest.mark.parametrize("command", ["featurize", "run"])
def test_damaged_npy_exits_3_naming_the_utterance_once(damage_site, workspace, capsys,
                                                       command, damage):
    """A stored spectrogram with bytes after its array, or whose header
    length field is wrong, is listed once, not read as a shorter table or
    ended in a traceback."""
    case = damage_site / "case"
    shutil.rmtree(case)
    shutil.copytree(damage_site / "pristine", case)
    path = case / "corpus" / "features" / "u0001_c0.npy"
    raw = bytearray(path.read_bytes())
    if damage == "bytes after the array":
        raw += bytes(29)
    else:
        raw[8:10] = (1).to_bytes(2, "little")
    path.write_bytes(raw)
    args = (reading_command("run", case, workspace / "cfg.json") if command == "run" else
            ["featurize", "--corpus", str(case / "corpus"), "--out", str(case / "features")])
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.count(str(path)) == 1, err
    assert err.replace(str(path), "<file>").count("u0001_c0") == 1, err
    assert f"u0001_c0: {path} is not a .npy array: " in err, err


def run_on_damaged_file(damage_site, workspace, rel, command, damage, cut_at):
    """Damage the file `rel` of a fresh case, run `command` on it and return
    its exit code: 0, or 2 or 3 with one error line that names the file. A
    cut keeps the first cut_at(size) bytes."""
    case = damage_site / "case"
    shutil.rmtree(case)
    shutil.copytree(damage_site / "pristine", case)
    path = case / rel
    raw = path.read_bytes()
    if damage == "cut":
        path.write_bytes(raw[:cut_at(len(raw))])
    elif damage == "non-utf8":
        path.write_bytes(b"\xff" + raw)
    else:
        path.unlink()
        path.mkdir()
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(reading_command(command, case, workspace / "cfg.json"))
    if code == 0:
        return code
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    assert code in (2, 3) and len(errors) == 1, (code, err.getvalue())
    if "records a different corpus_sha256" in errors[0]:
        assert rel.startswith("corpus/features/") and damage == "cut"
        read_spectrogram_csv(path)
    else:
        assert str(path) in errors[0], errors[0]
    return code


def rename_ids(corpus, ids):
    """Give the first rows of the corpus manifest the utterance ids `ids`."""
    path = corpus / "manifest.json"
    doc = json.loads(path.read_text())
    for row, uid in zip(doc["rows"], ids):
        row["utterance_id"] = uid
    path.write_text(json.dumps(doc))


def assert_exported(run_dir, uid, out):
    """export-ep finds the utterance's segments in both generations."""
    assert main(["export-ep", "--run", str(run_dir), "--utterance", uid,
                 "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert rows[0][:3] == ["utterance_id", "segment_index", "generation"]
    assert rows[1:] and {r[0] for r in rows[1:]} == {uid}
    assert {r[2] for r in rows[1:]} == {"1", "2"}


# Characters of utterance ids: the CSV delimiter and quote, a dot, a space and
# non-ASCII letters, and in half the examples path separators, a newline and a
# lone surrogate, which UTF-8 cannot encode.
ID_CHARACTERS = [",", '"', ".", " ", "é", "Ж", "u"]
NOT_IN_FILE_NAMES = ["/", "\\", "\n", "\ud800"]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_any_utterance_id_runs_or_exits_3_naming_the_manifest(damage_site, workspace, data):
    """featurize and run on a corpus whose first ids are `ids` both end in
    exit 0 when the ids are file names, and otherwise both in exit 3 with
    one error naming manifest.json. After a run export-ep finds every id,
    and no file is written outside the output directories."""
    alphabet = ID_CHARACTERS + (NOT_IN_FILE_NAMES if data.draw(st.booleans()) else [])
    ids = data.draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=4),
                             min_size=1, max_size=3, unique=True))
    case = damage_site / "case"
    shutil.rmtree(case)
    shutil.copytree(damage_site / "pristine" / "corpus", case / "corpus")
    rename_ids(case / "corpus", ids)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        codes = [main(["featurize", "--corpus", str(case / "corpus"),
                       "--out", str(case / "features")]),
                 main(reading_command("run", case, workspace / "cfg.json"))]
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    file_names = all(uid not in ("", ".", "..") and not set(uid) & set(NOT_IN_FILE_NAMES)
                     for uid in ids)
    if file_names:
        assert codes == [0, 0] and not errors, err.getvalue()
        assert ({p.name for p in (case / "features" / "features").iterdir()}
                == {f"{r.utterance_id}.npy" for r in load_manifest(case / "corpus").rows})
        for uid in ids:
            assert_exported(case / "run", uid, case / "ep.csv")
    else:
        assert codes == [3, 3] and len(errors) == 2, err.getvalue()
        assert all(str(case / "corpus" / "manifest.json") in line for line in errors)
    assert {p.name for p in case.iterdir()} <= {"corpus", "features", "run", "ep.csv"}


# Offset and struct format of the fields of a canonical 44-byte WAV header
# that the damage test overwrites, besides the rate that set_rate writes.
WAV_FIELDS = {"channels": (22, "<H"), "bits": (34, "<H"), "data size": (40, "<I")}


@pytest.fixture(scope="module")
def audio_site(tmp_path_factory):
    """An audio-kind corpus of six 16-bit mono WAVs of 0.25 s at 16 kHz, in
    `pristine`, that the run config of `workspace` runs on."""
    root = tmp_path_factory.mktemp("audio")
    corpus = root / "pristine"
    corpus.mkdir()
    rng = np.random.default_rng(0)
    t = np.arange(4000) / 16000
    for c, label in enumerate(["ang", "hap", "sad"]):
        for speaker in range(2):
            x = 0.3 * np.sin(2 * np.pi * (300 + 200 * c) * t) + 0.05 * rng.standard_normal(t.size)
            wavfile.write(corpus / f"{label}_s{speaker}_{c}{speaker}.wav", 16000,
                          (x * 32767).astype(np.int16))
    manifest_from_wav_tree(corpus, "label_speaker_index")
    return root


def audio_case(audio_site, name):
    """A fresh copy of the pristine audio corpus; returns (case dir, path of WAV `name`)."""
    case = audio_site / "case"
    shutil.rmtree(case, ignore_errors=True)
    shutil.copytree(audio_site / "pristine", case / "corpus")
    return case, case / "corpus" / name


def featurize_and_run(case, config):
    """Exit code and stderr of featurize and then run on the case's corpus."""
    results = []
    for args in (["featurize", "--corpus", str(case / "corpus"), "--out", str(case / "features")],
                 reading_command("run", case, config)):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            results.append((main(args), err.getvalue()))
    return results


def set_rate(raw, rate):
    """Overwrite the rate of a 16-bit mono WAV header, and its byte rate to match."""
    struct.pack_into("<II", raw, 24, rate, 2 * rate % 2**32)


def test_pristine_audio_corpus_runs(audio_site, workspace):
    case, _ = audio_case(audio_site, "ang_s0_00.wav")
    assert [code for code, _ in featurize_and_run(case, workspace / "cfg.json")] == [0, 0]


@pytest.mark.parametrize("rate", [0, 1, 50, 44_100, 1_048_576])
def test_wav_rate_the_front_end_cannot_use_exits_3_naming_the_file_once(audio_site, workspace,
                                                                        rate):
    case, path = audio_case(audio_site, "ang_s0_00.wav")
    raw = bytearray(path.read_bytes())
    set_rate(raw, rate)
    path.write_bytes(raw)
    for code, err in featurize_and_run(case, workspace / "cfg.json"):
        assert code == 3 and err.count(str(path)) == 1, err
        assert err.replace(str(path), "<file>").count("ang_s0_00") == 1, err
        if rate == 44_100:  # SAVEE's rate: the message says how to fix it
            assert ("frame.fft_len=512 is shorter than the 1102-sample window at 44100 Hz; "
                    "set frame.fft_len to at least 1102") in err, err


@pytest.mark.parametrize("command", ["featurize", "run"])
def test_segment_hop_past_float_range_exits_2_before_reading(tmp_path, capsys, command):
    # run ended in an OverflowError from SegmentSpec.hop_frames; featurize
    # read the corpus before the config.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**RUN_CONFIG, "frame": {"hop_ms": 5e-324, "win_ms": 1},
                                  "segment": {"seg_hop_ms": 30}}))
    assert main([command, "--config", str(config), "--corpus", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "out")]) == 2
    err = one_error(capsys, config)
    assert "seg_hop_ms=30 is not a positive multiple of hop_ms=5e-324" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["featurize", "run"])
def test_window_past_float_range_at_the_wav_rate_exits_3_naming_each_file_once(
        audio_site, capsys, command):
    # Both ended in an OverflowError from FrameSpec.win_samples.
    case, _ = audio_case(audio_site, "ang_s0_00.wav")
    config = case / "cfg.json"
    config.write_text(json.dumps({**RUN_CONFIG, "frame": {"win_ms": 1e308, "hop_ms": 1e308},
                                  "segment": {"seg_hop_ms": 1e308, "seg_frames": 1}}))
    assert main([command, "--config", str(config), "--corpus", str(case / "corpus"),
                 "--out", str(case / "out")]) == 3
    err = one_error(capsys, "6 utterance(s) failed to featurize")
    wavs = sorted((case / "corpus").glob("*.wav"))
    assert len(wavs) == 6 and all(err.count(str(wav)) == 1 for wav in wavs), err
    assert err.count("sample rate 16000 Hz gives the 1e+308 ms window too many samples "
                     "to count") == 6, err


@pytest.mark.parametrize("command", ["featurize", "run"])
def test_front_end_out_of_memory_exits_3_naming_each_file_once(audio_site, capsys, monkeypatch,
                                                                command):
    # Both ended in a MemoryError traceback with exit 1. The FFT's failure
    # is injected, so nothing near the machine's memory is allocated.
    def unable(*args, **kwargs):
        raise MemoryError("Unable to allocate 184. TiB")

    case, _ = audio_case(audio_site, "ang_s0_00.wav")
    config = case / "cfg.json"
    config.write_text(json.dumps({**RUN_CONFIG, "frame": {"fft_len": 2**40}}))
    monkeypatch.setattr(np.fft, "rfft", unable)
    assert main([command, "--config", str(config), "--corpus", str(case / "corpus"),
                 "--out", str(case / "out")]) == 3
    err = one_error(capsys, "6 utterance(s) failed to featurize")
    wavs = sorted((case / "corpus").glob("*.wav"))
    assert len(wavs) == 6 and all(err.count(str(wav)) == 1 for wav in wavs), err
    assert err.count("frame.fft_len=1099511627776 and frame.n_mels=64 at 16000 Hz need more "
                     "memory than is free (Unable to allocate 184. TiB)") == 6, err
    assert not (case / "out").exists()


@pytest.mark.parametrize("damage", ["cut inside the data", "data size past the end"])
def test_wav_shorter_than_its_header_exits_3_naming_it(audio_site, workspace, damage):
    """A WAV that ends before the samples its header announces is an error,
    not a shorter utterance."""
    case, path = audio_case(audio_site, "hap_s1_11.wav")
    raw = bytearray(path.read_bytes())
    if damage == "cut inside the data":
        raw = raw[:len(raw) // 2]
    else:
        # The RIFF and data sizes agree with each other, but not with the file.
        extra = 2 * 4000
        struct.pack_into("<I", raw, 4, struct.unpack_from("<I", raw, 4)[0] + extra)
        struct.pack_into("<I", raw, 40, struct.unpack_from("<I", raw, 40)[0] + extra)
    path.write_bytes(raw)
    for code, err in featurize_and_run(case, workspace / "cfg.json"):
        assert code == 3 and err.count(str(path)) == 1, err
        assert "cannot read WAV file (its chunks take " in err, err


def test_wav_data_size_too_small_exits_3_naming_it_once(audio_site, workspace):
    """A WAV whose data size field is halved is refused, not read as half
    its samples followed by an unknown chunk."""
    case, path = audio_case(audio_site, "sad_s0_20.wav")
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 40, struct.unpack_from("<I", raw, 40)[0] // 2)
    path.write_bytes(raw)
    for code, err in featurize_and_run(case, workspace / "cfg.json"):
        assert code == 3 and err.count(str(path)) == 1, err
        assert f"{path}: cannot read WAV file (its chunks take " in err, err


@pytest.mark.parametrize("bits", [24, 0])
def test_wav_bits_field_that_disagrees_with_block_align_exits_3_naming_it_once(
        audio_site, workspace, bits):
    """A 16-bit WAV whose bits-per-sample field is wrong is refused, not
    decoded by its block align without a word."""
    case, path = audio_case(audio_site, "ang_s1_01.wav")
    raw = bytearray(path.read_bytes())
    struct.pack_into("<H", raw, 34, bits)
    path.write_bytes(raw)
    for code, err in featurize_and_run(case, workspace / "cfg.json"):
        assert code == 3 and err.count(str(path)) == 1, err
        assert (f"{path}: cannot read WAV file (block align 2 is not 1 x {bits} bits / 8)"
                in err), err


# Writes a six-WAV corpus with the standard library's `wave` module, then
# featurizes and runs it with scipy blocked, and prints the exit codes and
# every scipy module that entered sys.modules.
WITHOUT_SCIPY = """
import json, sys, wave
sys.modules["scipy"] = None  # any import of scipy now fails
from pathlib import Path
import numpy as np
from emorefinery.cli import main
from emorefinery.manifest import manifest_from_wav_tree

root, config = Path(sys.argv[1]), sys.argv[2]
(root / "corpus").mkdir()
t = np.arange(4000) / 16000
for c, label in enumerate(["ang", "hap", "sad"]):
    for speaker in range(2):
        x = 0.3 * np.sin(2 * np.pi * (300 + 200 * c + 20 * speaker) * t)
        with wave.open(str(root / "corpus" / f"{label}_s{speaker}_{c}{speaker}.wav"), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes((x * 32767).astype("<i2").tobytes())
manifest_from_wav_tree(root / "corpus", "label_speaker_index")
codes = [main(["featurize", "--corpus", str(root / "corpus"), "--out", str(root / "features")]),
         main(["run", "--config", config, "--corpus", str(root / "corpus"),
               "--out", str(root / "run")])]
print(json.dumps([codes, [m for m in sys.modules if m.split(".")[0] == "scipy"]]))
"""


def test_wav_corpus_featurizes_and_runs_without_scipy(workspace, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path),
                           str(workspace / "cfg.json")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    # "scipy" itself is the None that blocks it; no real scipy module loaded.
    assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0], ["scipy"]], done.stderr


def test_utterance_too_short_for_a_segment_is_named_once(damage_site, workspace, capsys):
    """run names a failing utterance's id once and its file once:
    `<id>: <file>: <reason>`."""
    assert_too_short_named_once(damage_site, workspace, capsys, "u0000_c0.csv")


def test_npy_utterance_too_short_for_a_segment_is_named_once(damage_site, workspace, capsys):
    assert_too_short_named_once(damage_site, workspace, capsys, "u0001_c0.npy")


def assert_too_short_named_once(damage_site, workspace, capsys, name):
    """Cut the corpus file `name` to 2 frames, in its own format, and run."""
    case = damage_site / "case"
    shutil.rmtree(case)
    shutil.copytree(damage_site / "pristine", case)
    path = case / "corpus" / "features" / name
    if path.suffix == ".csv":
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
    else:
        np.save(path, np.load(path)[:, :2])
    uid = path.stem
    assert main(reading_command("run", case, workspace / "cfg.json")) == 3
    err = capsys.readouterr().err
    assert err.count(str(path)) == 1, err
    assert err.replace(str(path), "<file>").count(uid) == 1, err
    assert f"{uid}: {path}: utterance too short for one segment (2 frames < 4)" in err


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_damaged_wav_runs_or_exits_2_or_3_naming_it(audio_site, workspace, data):
    """featurize and run on an audio corpus with one WAV cut at any offset,
    or with its rate, channel count, bits per sample or data size set to
    any value, end in exit 0, or in exit 2 or 3 naming the WAV."""
    names = sorted(p.name for p in (audio_site / "pristine").glob("*.wav"))
    case, path = audio_case(audio_site, data.draw(st.sampled_from(names)))
    raw = bytearray(path.read_bytes())
    field = data.draw(st.sampled_from(["cut", "rate", *sorted(WAV_FIELDS)]))
    if field == "cut":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif field == "rate":
        set_rate(raw, data.draw(st.integers(0, 2**32 - 1)))
    else:
        offset, fmt = WAV_FIELDS[field]
        value = data.draw(st.integers(0, 2**(8 * struct.calcsize(fmt)) - 1))
        struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(raw)
    for code, err in featurize_and_run(case, workspace / "cfg.json"):
        assert code == 0 or (code in (2, 3) and str(path) in err), (code, err)


class TestParser:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
