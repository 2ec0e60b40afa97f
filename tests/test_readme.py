"""README code stays in step with the package: every fenced python block
compiles, every name it imports from emorefinery exists, and the
`run_refinery` example runs. The `run_experiment` example reads
`corpora/demo`, so it is only compiled."""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


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
