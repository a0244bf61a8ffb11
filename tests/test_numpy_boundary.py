"""rot4 imports only the standard library.

No module of src/rot4 imports numpy: the check walks each module's syntax
tree with the standard library, so it sees import statements anywhere, in
function bodies included.  A fresh interpreter then shows that importing the
package, its CLI and its oracle loads neither numpy nor typing.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rot4"


def _numpy_imports(tree: ast.Module) -> list[int]:
    """The line of each import of numpy, or of one of its submodules."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(m == "numpy" or m.startswith("numpy.") for m in modules):
            found.append(node.lineno)
    return sorted(found)


def test_no_module_imports_numpy():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _numpy_imports(ast.parse(path.read_text(), filename=str(path)))
        if lines:
            found[path.stem] = lines
    assert not found, f"numpy imported at: {found}"


def test_catches_a_misplaced_import():
    tree = ast.parse(
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    import numpy\n"
        "def to_matrix(r):\n    import numpy as np\n"
        "    def inner():\n        from numpy.linalg import svd\n"
        "def rank(m):\n    from numpy import linalg\n"
        "from . import numpy_free\n"
    )
    assert _numpy_imports(tree) == [1, 4, 6, 8, 10]


def test_start_up_loads_no_numpy_or_typing():
    # -S skips site, whose start-up hooks may import either module
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            "import sys, rot4, rot4.cli, rot4.oracle\n"
            "print(sorted(m for m in ('numpy', 'typing') if m in sys.modules))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
