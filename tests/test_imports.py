"""Every name a rot4 module imports is used in that module, every
module-level private name rot4 defines is read somewhere in rot4, and every
tolerance lives in quat.py's block of constants and is read somewhere in rot4,
and only rotation._rotation admits a rotation that rot4 derives.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library.  A name counts as used when it is
read anywhere in the module, inside a string annotation included.
__init__.py is left out of the import check: it imports names to re-export
them.

rot4.compose and rot4.oracle are registered lazily by the package, and
rot4.cli imports rot4.verify and rot4.sample only for the names that moved
there; the last tests run each import order in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
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
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
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


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each module-level _name (not __dunder__) a def, class or assignment
    binds, with the statement that binds it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        defined.update((n, node) for n in names if n.startswith("_") and not n.startswith("__"))
    return defined


def _reads(statements: list[ast.stmt]) -> set[str]:
    """Names the statements read: loaded names, attribute names, names
    imported from another module and names in string annotations."""
    read = set()
    for statement in statements:
        read |= _used(statement)
        for node in ast.walk(statement):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return read


def _orphans(modules: dict[str, ast.Module]) -> list[str]:
    """module.name of each private definition read nowhere but in itself."""
    orphans = []
    for name, tree in modules.items():
        for private, node in _private_definitions(tree).items():
            elsewhere = [t.body for m, t in modules.items() if m != name]
            own = [s for s in tree.body if s is not node]
            if not any(private in _reads(body) for body in [own, *elsewhere]):
                orphans.append(f"{name}.{private}")
    return sorted(orphans)


def test_every_private_definition_is_read():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert _orphans(modules) == []


def test_catches_an_orphaned_private_helper():
    modules = {
        "rotation": ast.parse(
            "import math\n\n_TOL = 1e-9\n\n"
            "def _clamp(x):\n    return min(1.0, max(-1.0, x))\n\n"
            "def _turn(c, s):\n    return _turn(c, -s) if s < 0.0 else math.atan2(s, c)\n\n"
            "def _axis(x):\n    return x\n\n"
            "def classify(x):\n    _unused = 0.0\n    return _axis(x) if abs(x) > _TOL else x\n"
        ),
        "compose": ast.parse(
            "from .rotation import _TOL\n\ndef _helper(q: '_TOL'):\n    return q\n"
        ),
    }
    assert _orphans(modules) == ["compose._helper", "rotation._clamp", "rotation._turn"]


def _block(tree: ast.Module) -> list[ast.Assign]:
    """The module-level assignments of a float literal to UPPER_CASE names
    only: in quat, the block that holds every tolerance of the package."""
    return [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
    ]


def _tolerance_literals(tree: ast.Module, module: str) -> list[int]:
    """Lines of the nonzero float literals below 1e-3 in magnitude, but for
    the values of quat's block."""
    block = {node.value for node in _block(tree)} if module == "quat" else set()
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-3
        and node not in block
    ]


def test_every_tolerance_is_in_the_quat_block():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _tolerance_literals(ast.parse(path.read_text(), filename=str(path)), path.stem)
        if lines:
            found[path.name] = lines
    assert found == {}


def test_catches_a_tolerance_outside_the_block():
    quat = ast.parse("EPS_AXIS = 1e-9\n\ndef _unit(x):\n    return x if x > 1e-12 else 0.0\n")
    rotation = ast.parse(
        "_TOL = 1e-9\nHALF = 0.5\n\ndef f(x):\n    return abs(x) <= -2e-10 * HALF or x == 0.0\n"
    )
    assert _tolerance_literals(quat, "quat") == [4]
    assert _tolerance_literals(rotation, "rotation") == [1, 5]


def _unread_tolerances(modules: dict[str, ast.Module]) -> list[str]:
    """Each name of quat's block that no statement reads, as a loaded name
    or an attribute, but the one that assigns it; an import is no read."""
    unread = []
    for node in _block(modules["quat"]):
        statements = [s for tree in modules.values() for s in tree.body if s is not node]
        read = set()
        for statement in statements:
            read |= _used(statement)
            read |= {n.attr for n in ast.walk(statement) if isinstance(n, ast.Attribute)}
        unread += [t.id for t in node.targets if t.id not in read]
    return sorted(unread)


def test_every_tolerance_is_read():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert _unread_tolerances(modules) == []


def test_catches_an_unread_tolerance():
    modules = {
        "quat": ast.parse(
            "EPS_A = 1e-9\nEPS_B = 1e-8\nEPS_C = 1e-6\nEPS_D = 1e-10\nEPS_E = 1e-7\n\n"
            "def _gate(x):\n    return abs(x) <= EPS_A\n\nONE = _gate(1.0)\n"
        ),
        "rotation": ast.parse(
            "from . import quat\nfrom .quat import EPS_B, EPS_C\n\n"
            "def f(x, eps=EPS_B):\n    return x <= quat.EPS_D or x <= eps\n"
        ),
        "__init__": ast.parse("from .quat import EPS_E\n\n__all__ = ['EPS_E']\n"),
    }
    assert _unread_tolerances(modules) == ["EPS_C", "EPS_E"]


# The two places that build a Rotation4 from factors they are handed: a
# document's pair, and a drawn pair.  Every rotation rot4 derives goes
# through rotation._rotation, which renormalizes its factor products.
_ADMITS_GIVEN_FACTORS = {"cli._rotation_from_doc", "sample.random_rotation"}


def _rotation4_calls(modules: dict[str, ast.Module]) -> set[str]:
    """module.qualname of each function that calls Rotation4(...) by name,
    bare or as an attribute, outside the class Rotation4 itself."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "Rotation4":
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "Rotation4":
                    found.add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for name, tree in modules.items():
        visit(tree, name)
    return found


def test_derived_rotations_use_one_admission():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    assert _rotation4_calls(modules) - _ADMITS_GIVEN_FACTORS == set()


def test_catches_a_second_admission():
    modules = {
        "rotation": ast.parse(
            "class Rotation4:\n    @classmethod\n    def identity(cls):\n"
            "        return Rotation4(ONE, ONE)\n\n"
            "def from_reflections(y, z):\n    return Rotation4(mul(z, y), mul(y, z))\n"
        ),
        "compose": ast.parse(
            "from . import rotation\n\nclass GibbsPair:\n    def to_rotation(self):\n"
            "        return rotation.Rotation4(self.a, self.b)\n"
        ),
        "cli": ast.parse("def _rotation_from_doc(doc):\n    return Rotation4(*doc)\n"),
    }
    assert _rotation4_calls(modules) - _ADMITS_GIVEN_FACTORS == {
        "compose.GibbsPair.to_rotation",
        "rotation.from_reflections",
    }


# Runs a first statement, then prints one fact a line: the rot4 modules that
# have run their code, whether dir(rot4) lists every public name (and those
# modules again, since dir must run nothing), and whether rot4.compose,
# rot4.oracle and `from rot4 import *` resolve as they always have.
_LAZY_SCRIPT = """
import sys, types
def ran():
    run = [n for n, m in sys.modules.items() if type(m) is types.ModuleType]
    return " ".join(sorted(n for n in run if n.startswith("rot4")))
exec(sys.argv[1])
import rot4
print(ran())
names = dir(rot4)
print(names == sorted(names) and set(rot4.__all__) <= set(names), ran())
compose, oracle = sys.modules["rot4.compose"], sys.modules["rot4.oracle"]
print(rot4.compose is compose.compose and callable(rot4.compose))
print(rot4.oracle is oracle and rot4.oracle.planes_from_matrix is rot4.planes_from_matrix)
namespace = {}
exec("from rot4 import *", namespace)
star = set(namespace) - {"__builtins__"}
print(star == set(rot4.__all__) and namespace["compose"] is rot4.compose)
"""

_RUN = "rot4 rot4.errors rot4.plane rot4.quat rot4.rotation"


@pytest.mark.parametrize(
    "first, ran",
    [
        ("import rot4", _RUN),
        ("import rot4.cli", _RUN + " rot4.cli"),
        ("import rot4.compose", _RUN),
        ("from rot4.compose import _gibbs_rule", _RUN + " rot4.compose"),
        ("import importlib; importlib.import_module('rot4.compose')", _RUN),
        (
            "import rot4.oracle as m; assert m is sys.modules['rot4.oracle']; m.planes_from_matrix",
            _RUN + " rot4.oracle",
        ),
        ("from rot4 import *", _RUN + " rot4.compose rot4.oracle"),
        ("import rot4.verify", _RUN + " rot4.cli rot4.verify"),
        ("import rot4.sample", _RUN + " rot4.cli rot4.sample"),
        ("from rot4.cli import build_verify_report", _RUN + " rot4.cli rot4.verify"),
        ("from rot4.cli import random_rotation", _RUN + " rot4.cli rot4.sample"),
    ],
    ids=[
        "rot4",
        "cli",
        "import-compose",
        "from-compose",
        "import_module",
        "oracle-as",
        "star",
        "verify",
        "sample",
        "cli-verify",
        "cli-sample",
    ],
)
def test_lazy_modules_in_every_import_order(first, ran):
    # rot4.compose and rot4.oracle sit in sys.modules from `import rot4` on
    # and run only when a name is read from them; rot4.compose stays the
    # function whichever statement comes first
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCRIPT, first],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    executed, listed, *resolved = proc.stdout.splitlines()
    assert executed == " ".join(sorted(ran.split()))
    assert listed == f"True {executed}"
    assert resolved == ["True"] * 3
