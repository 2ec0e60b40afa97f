"""README code stays in step with the package: every fenced python block
compiles, every name it imports from emorefinery exists, and the
`run_refinery` example runs. The `run_experiment` example reads
`corpora/demo`, so it is only compiled. Every fenced JSON block loads
through the reader of the document it shows."""

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

from emorefinery.config import config_from_dict, dataclass_from_dict
from emorefinery.datagen import SyntheticCorpusSpec
from emorefinery.manifest import MANIFEST_NAME, load_manifest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
JSON_BLOCKS = [json.loads(block) for block in
               re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_compiles_and_its_imports_exist(block):
    tree = ast.parse(block)
    compile(tree, str(README), "exec")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("emorefinery"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module} has no {alias.name}"


def test_run_refinery_block_runs(tmp_path, monkeypatch):
    [block] = [b for b in BLOCKS if "run_refinery(" in b]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})


def _kind(doc):
    """Which document a JSON block shows: a corpus manifest, a corpus spec or
    an experiment config."""
    return "manifest" if "format" in doc else "spec" if "n_classes" in doc else "config"


def test_readme_shows_each_json_document():
    assert sorted(_kind(doc) for doc in JSON_BLOCKS) == ["config", "config", "manifest", "spec"]


@pytest.mark.parametrize("doc", JSON_BLOCKS, ids=[f"json{i}" for i in range(len(JSON_BLOCKS))])
def test_json_block_loads(doc, tmp_path):
    kind = _kind(doc)
    if kind == "manifest":
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(doc))
        assert load_manifest(tmp_path).class_names == tuple(doc["class_names"])
    elif kind == "spec":
        assert dataclass_from_dict(SyntheticCorpusSpec, doc, "corpus spec").seed == doc["seed"]
    else:
        assert config_from_dict(doc).mode == doc["mode"]
