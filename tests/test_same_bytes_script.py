"""The tree comparison of scripts/same_bytes.py, on small directories."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "same_bytes_script", Path(__file__).resolve().parent.parent / "scripts" / "same_bytes.py")
same_bytes_script = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bytes_script)


def write_tree(root, files):
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def run_manifest(output_dir, seed=5):
    return (json.dumps({"config": {"master_seed": seed, "output_dir": output_dir}},
                       indent=2, sort_keys=True) + "\n").encode()


@pytest.fixture
def trees(tmp_path):
    files = {"runs/a/run_manifest.json": run_manifest("runs/a"),
             "runs/a/generations/gen01/eps.csv": b"utterance_id\r\n",
             "stdout/run.txt": b"exit 0\n"}
    return write_tree(tmp_path / "x", files), write_tree(tmp_path / "y", files)


def test_equal_trees_have_no_differences(trees):
    x, y = trees
    assert same_bytes_script.differences(x, y) == []


def test_each_differing_or_unmatched_file_is_named(trees):
    x, y = trees
    (x / "runs/a/generations/gen01/eps.csv").write_bytes(b"utterance_id\n")
    (y / "stdout/extra.txt").write_bytes(b"")
    (y / "stdout/run.txt").unlink()
    assert same_bytes_script.differences(x, y, ("REV", "this checkout")) == [
        "runs/a/generations/gen01/eps.csv: differs",
        "stdout/extra.txt: only in this checkout",
        "stdout/run.txt: only in REV",
    ]


@pytest.mark.parametrize("output_dir", ["resumed/a", "/tmp/x/runs/a", 'say "a"\\b', ""])
def test_output_dir_of_a_run_manifest_is_masked(trees, output_dir):
    x, y = trees
    (y / "runs/a/run_manifest.json").write_bytes(run_manifest(output_dir))
    assert same_bytes_script.differences(x, y) == []


def test_the_rest_of_a_run_manifest_is_compared(trees):
    x, y = trees
    (y / "runs/a/run_manifest.json").write_bytes(run_manifest("elsewhere", seed=6))
    assert same_bytes_script.differences(x, y) == ["runs/a/run_manifest.json: differs"]


def test_output_dir_elsewhere_is_compared(trees):
    x, y = trees
    for root, output_dir in ((x, "runs/a"), (y, "runs/b")):
        (root / "inputs/config.json").parent.mkdir()
        (root / "inputs/config.json").write_text(json.dumps({"output_dir": output_dir}))
    assert same_bytes_script.differences(x, y) == ["inputs/config.json: differs"]
