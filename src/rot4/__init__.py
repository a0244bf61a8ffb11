"""Finite rotations of Euclidean 4-space as unit-quaternion pairs x -> a x b.

Classification (identity / simple / isoclinic / double) with invariant
planes and angles, composition with geometric-parameter propagation in the
Gibbs chart, the simplicity criterion for composed simple rotations, and an
independent matrix oracle, which reads the invariant planes off M + M^T in
plain floats, without an eigensolver.  It checks only classify's planes
and angles, through build_verify_report and `rot4 verify`; the Gibbs
composition, the simplicity verdict and the reflections have no oracle
check yet.

Everything computes in plain floats with the standard library alone:
to_matrix returns the matrix as rows of floats.  rot4.compose and
rot4.oracle are registered in sys.modules at `import rot4` but run no code
until a name is first read from them, so a process compiles them only if
it composes or consults the oracle.  Their names below resolve through the
module __getattr__ on first use and are then plain package globals.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .errors import DegenerateAxis, GibbsSingular, NotSimple, NotUnit, PairingFailure, Rot4Error
from .plane import Plane, projector_distance
from .quat import (
    DEFAULT_EPS,
    EPS_AXIS,
    EPS_GIBBS,
    EPS_UNIT,
    I,
    J,
    K,
    ONE,
    Quaternion,
    Vec3,
    conj,
    dot4,
    mul,
    norm,
    norm_sq,
    normalized,
    pure,
)
from .rotation import (
    Double,
    Identity,
    LeftIsoclinic,
    ReflectionNormal,
    RightIsoclinic,
    Rotation4,
    RotationKind,
    Simple,
    apply,
    classify,
    from_reflections,
    reflect,
    simple_to_reflections,
    to_matrix,
)

__all__ = [
    "DEFAULT_EPS",
    "DegenerateAxis",
    "Double",
    "EPS_AXIS",
    "EPS_GIBBS",
    "EPS_UNIT",
    "GibbsPair",
    "GibbsSingular",
    "I",
    "Identity",
    "J",
    "K",
    "LeftIsoclinic",
    "NotSimple",
    "NotUnit",
    "ONE",
    "OraclePlanes",
    "PairingFailure",
    "Plane",
    "Quaternion",
    "ReflectionNormal",
    "RightIsoclinic",
    "Rot4Error",
    "Rotation4",
    "RotationKind",
    "Simple",
    "SimplicityReport",
    "Vec3",
    "apply",
    "classify",
    "compose",
    "compose_gibbs",
    "composed_planes_from_gibbs",
    "conj",
    "dot4",
    "from_reflections",
    "gibbs_from_unit",
    "is_composition_simple",
    "mul",
    "norm",
    "norm_sq",
    "normalized",
    "planes_from_matrix",
    "projector_distance",
    "pure",
    "reflect",
    "rodrigues_compose",
    "simple_to_reflections",
    "to_matrix",
    "unit_from_gibbs",
]

__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule rot4.<name>, put in sys.modules without running it:
    LazyLoader runs its code on the first attribute access."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_compose = _lazy("compose")  # the name rot4.compose is the function, as it always was
oracle = _lazy("oracle")  # the attribute `import rot4.oracle` would set

_LAZY_NAMES = {
    "GibbsPair": _compose,
    "SimplicityReport": _compose,
    "compose": _compose,
    "compose_gibbs": _compose,
    "composed_planes_from_gibbs": _compose,
    "gibbs_from_unit": _compose,
    "is_composition_simple": _compose,
    "rodrigues_compose": _compose,
    "unit_from_gibbs": _compose,
    "OraclePlanes": oracle,
    "planes_from_matrix": oracle,
}


def __getattr__(name: str):
    try:
        module = _LAZY_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))
