"""Finite rotations of Euclidean 4-space as unit-quaternion pairs x -> a x b.

Classification (identity / simple / isoclinic / double) with invariant
planes and angles, composition with geometric-parameter propagation in the
Gibbs chart, the simplicity criterion for composed simple rotations, and an
independent matrix oracle for cross-checking all of it, which reads the
invariant planes off M + M^T in plain floats, without an eigensolver.

Everything computes in plain floats with the standard library alone:
to_matrix returns the matrix as rows of floats.  The oracle loads on first
use, keeping its import time off the commands that never call it: its names
below resolve through the module __getattr__.
"""

from .compose import (
    GibbsPair,
    SimplicityReport,
    compose,
    compose_gibbs,
    composed_planes_from_gibbs,
    is_composition_simple,
)
from .errors import (
    DegenerateAxis,
    GibbsSingular,
    NotSimple,
    NotUnit,
    PairingFailure,
    Rot4Error,
)
from .plane import (
    Plane,
    projector_distance,
)
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
    gibbs_from_unit,
    mul,
    norm,
    norm_sq,
    normalized,
    pure,
    rodrigues_compose,
    unit_from_gibbs,
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

_ORACLE_NAMES = ("OraclePlanes", "planes_from_matrix")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_ORACLE_NAMES))
