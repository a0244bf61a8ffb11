"""src/rot4 imports numpy only where it computes with arrays.

The functions that return arrays (to_matrix, left_mult_matrix and
right_mult_matrix) and the random generator (cmd_random) import numpy in
their bodies; type annotations may name it under
TYPE_CHECKING.  Every other import of numpy, or of one of its submodules,
would put numpy's start-up cost on a path that does not need it.  The check
walks each module's syntax tree with the standard library, so it sees
import statements only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rot4"
ALLOWED = {"to_matrix", "left_mult_matrix", "right_mult_matrix", "cmd_random"}


def _numpy_imports(tree: ast.Module) -> list[tuple[str | None, int]]:
    """(place, line) of each import of numpy: place is the innermost
    enclosing function's name, "TYPE_CHECKING" inside an
    `if TYPE_CHECKING:` block, and None at module level."""
    found = []

    def visit(node: ast.AST, place: str | None):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            modules = []
        if any(m == "numpy" or m.startswith("numpy.") for m in modules):
            found.append((place, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            place = node.name
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for child in node.body:
                visit(child, "TYPE_CHECKING")
            for child in node.orelse:
                visit(child, place)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, place)

    visit(tree, None)
    return found


def test_numpy_only_where_arrays_are_used():
    misplaced = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for place, line in _numpy_imports(tree):
            if place not in ALLOWED and place != "TYPE_CHECKING":
                misplaced.setdefault(path.stem, []).append((place, line))
    assert not misplaced, f"numpy imported outside {sorted(ALLOWED)}: {misplaced}"


def test_catches_a_misplaced_import():
    tree = ast.parse(
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import numpy\n"
        "def to_matrix(r):\n    import numpy as np\n"
        "    def inner():\n        from numpy.linalg import svd\n"
        "def rank(m):\n    from numpy import linalg\n"
    )
    assert _numpy_imports(tree) == [
        (None, 1), ("TYPE_CHECKING", 4), ("to_matrix", 6), ("inner", 8), ("rank", 10)
    ]
