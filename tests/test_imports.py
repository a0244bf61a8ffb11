"""Every name a rot4 module imports is used in that module.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library.  A name counts as used when it is
read anywhere in the module, inside a string annotation included.
__init__.py is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rot4"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        if annotation is not None:
            yield annotation


def _used(tree: ast.AST) -> set[str]:
    """Names read in the tree, and in the strings of its annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but unused: {unused}"


def test_catches_an_unused_import():
    tree = ast.parse(
        "import math\nfrom typing import TYPE_CHECKING\n"
        "from .quat import Vec3, dot4\n\n"
        "def f(x: 'Vec3') -> float:\n    return dot4(x, x)\n"
    )
    used = _used(tree)
    assert sorted(n for n in _imported(tree) if n not in used) == ["TYPE_CHECKING", "math"]
