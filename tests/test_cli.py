"""Command line interface tests: workflows and exit codes."""

import json
import shutil

import pytest

from emorefinery.cli import main

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
        assert len(list((workspace / "corpus" / "features").glob("*.csv"))) == 12

    def test_deterministic_and_seed_override_changes_bytes(self, workspace, tmp_path):
        spec = str(workspace / "spec.json")
        assert main(["gen-data", "--spec", spec, "--out", str(tmp_path / "again")]) == 0
        a = (workspace / "corpus" / "features" / "u0000_c0.csv").read_bytes()
        assert (tmp_path / "again" / "features" / "u0000_c0.csv").read_bytes() == a
        assert main(["gen-data", "--spec", spec, "--seed", "77",
                     "--out", str(tmp_path / "reseeded")]) == 0
        assert (tmp_path / "reseeded" / "features" / "u0000_c0.csv").read_bytes() != a

    def test_unknown_spec_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_classes": 3, "banana": 1}))
        assert main(["gen-data", "--spec", str(bad), "--out", str(tmp_path / "c")]) == 2

    def test_missing_spec_exits_2(self, tmp_path):
        assert main(["gen-data", "--spec", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "c")]) == 2


class TestFeaturize:
    def test_copies_feature_corpus(self, workspace, tmp_path):
        code = main(["featurize", "--corpus", str(workspace / "corpus"),
                     "--out", str(tmp_path / "feats")])
        assert code == 0
        assert (tmp_path / "feats" / "manifest.json").exists()

    def test_partial_failure_exits_3(self, workspace, tmp_path, capsys):
        first = tmp_path / "first"
        assert main(["featurize", "--corpus", str(workspace / "corpus"),
                     "--out", str(first)]) == 0
        sorted((first / "features").glob("*.csv"))[0].write_text("junk\n")
        code = main(["featurize", "--corpus", str(first), "--out", str(tmp_path / "second")])
        assert code == 3
        assert "failed" in capsys.readouterr().err
        assert len(list((tmp_path / "second" / "features").glob("*.csv"))) == 11


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
    ])
    def test_wrongly_typed_config_value_exits_2(self, workspace, tmp_path, capsys,
                                                override, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**RUN_CONFIG, **override}))
        assert main(["run", "--config", str(bad), "--corpus", str(workspace / "corpus"),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: {key} must be ")

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
    ])
    def test_malformed_manifest_exits_3(self, workspace, tmp_path, capsys, text, what):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        assert main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(tmp_path), "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {manifest}")
        assert what in err[0]

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
        ("eps.csv", lambda text: "".join(line for line in text.splitlines(keepends=True)
                                         if not line.startswith("u0001_c0,")),
         ": no row for segment 0 of 'u0001_c0'"),
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

    def test_conflicting_run_dir_exits_3(self, workspace, finished_run):
        assert main(["run", "--config", str(workspace / "cfg.json"),
                     "--corpus", str(workspace / "corpus"), "--seed", "6",
                     "--out", str(finished_run)]) == 3


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
        assert main(self.run_args(workspace, self.gen_corpus(tmp_path, 10),
                                  tmp_path / "fresh")) == 0
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
    ], ids=["truncated", "empty-list", "numeric-mode", "empty-generation", "string-wa"])
    def test_eval_damaged_report_exits_3(self, finished_run, tmp_path, capsys, damage):
        run_dir = tmp_path / "copy"
        shutil.copytree(finished_run, run_dir)
        path = run_dir / "metrics.json"
        path.write_text(damage(path.read_text()))
        capsys.readouterr()
        assert main(["eval", "--run", str(run_dir)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path} is not ")

    def test_export_ep(self, finished_run, tmp_path, capsys):
        out = tmp_path / "ep.csv"
        assert main(["export-ep", "--run", str(finished_run),
                     "--utterance", "u0000_c0", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("utterance_id,segment_index,generation")
        assert len(lines) > 1

    def test_export_unknown_utterance_exits_3(self, finished_run, tmp_path):
        assert main(["export-ep", "--run", str(finished_run),
                     "--utterance", "ghost", "--out", str(tmp_path / "x.csv")]) == 3


class TestParser:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
