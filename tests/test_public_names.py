"""Every public name of the package has a user: each module-level public
function, class and constant of src/emorefinery is loaded somewhere in the
package's code, or README.md names it in code, so no helper lives on only
for its own unit test. Docstrings and comments do not count as a use."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "emorefinery").glob("*.py"))
# The console script, which pyproject.toml loads.
EXEMPT = {("cli", "main")}


def public_names(tree):
    """Names that a module's top-level statements define, less private ones."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def loaded_names(trees):
    """Every name the code reads, as a variable or as an attribute."""
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in MODULES}
LOADED = loaded_names(TREES.values())
# Inline code spans and fenced blocks of the README; its prose does not count.
README_CODE = "\n".join(re.findall(r"```.*?```|`[^`]+`", (ROOT / "README.md").read_text(),
                                   re.S))
DEFINED = [(module, name) for module, tree in TREES.items() for name in public_names(tree)
           if (module, name) not in EXEMPT]


def test_the_package_defines_public_names():
    assert len(DEFINED) > 50 and ("features", "load_wav") in DEFINED


def test_every_public_name_is_used_or_documented():
    unused = [f"{module}.{name}" for module, name in DEFINED if name not in LOADED
              and not re.search(rf"\b{re.escape(name)}\b", README_CODE)]
    assert unused == [], ("read nowhere in src/ and not named in README.md's code; "
                          "use, document or delete them")
