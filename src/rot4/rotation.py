"""Rotations of Euclidean 4-space as unit-quaternion pairs x -> a x b.

Covers application, conversion to a 4x4 matrix, classification into the
identity / simple / isoclinic / double taxonomy with invariant planes and
angles, hyperplane reflections, and the two-reflections decomposition of
simple rotations.

Conventions fixed here once and used everywhere:

* (a, b) and (-a, -b) act identically; the stored representative makes the
  first component of `a` whose magnitude exceeds EPS_AXIS positive.
* All reported rotation angles lie in [0, pi]; each reported plane has its
  basis oriented so the in-plane turn is counterclockwise relative to
  (u, w).  This removes the double ambiguity plane-orientation x angle-sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NotSimple, NotUnit
from .linalg4 import nullspace
from .oracle import left_mult_matrix, right_mult_matrix
from .plane import Plane, plane_from_span
from .quat import (
    EPS_AXIS,
    EPS_UNIT,
    ONE,
    PolarForm,
    Quaternion,
    Vec3,
    conj,
    dot4,
    mul,
    normalized,
    polar,
    pure,
    require_unit,
)

EPS_APPLY = 1e-9
DEFAULT_EPS = 1e-8


def _leading_negative(q: Quaternion) -> bool:
    """Whether the first component of q whose magnitude exceeds EPS_AXIS is
    negative: the sign rule that picks one of +-q."""
    for c in q.components():
        if abs(c) > EPS_AXIS:
            return c < 0.0
    return False


@dataclass(frozen=True)
class Rotation4:
    """The rotation x -> a x b for unit quaternions a, b.

    Construction validates both norms and canonicalizes the pair's common
    sign, so value equality of two instances means equality of rotations
    whenever the factors match bit-for-bit.
    """

    a: Quaternion
    b: Quaternion

    def __post_init__(self):
        require_unit(self.a, "left factor")
        require_unit(self.b, "right factor")
        if _leading_negative(self.a):
            object.__setattr__(self, "a", -self.a)
            object.__setattr__(self, "b", -self.b)

    @classmethod
    def identity(cls) -> "Rotation4":
        return cls(ONE, ONE)


def apply(r: Rotation4, x: Quaternion) -> Quaternion:
    """Image of x under the rotation: a x b."""
    return mul(mul(r.a, x), r.b)


def to_matrix(r: Rotation4) -> np.ndarray:
    """4x4 matrix M with M @ [s, x1, x2, x3] = components of apply(r, x)."""
    return left_mult_matrix(r.a) @ right_mult_matrix(r.b)


@dataclass(frozen=True)
class ReflectionNormal:
    """Unit normal q of the hyperplane reflection x -> -q conj(x) q."""

    q: Quaternion

    def __post_init__(self):
        require_unit(self.q, "reflection normal")


def reflect(n: ReflectionNormal, x: Quaternion) -> Quaternion:
    """Reflection through the hyperplane orthogonal to n: x -> -q conj(x) q."""
    return -mul(mul(n.q, conj(x)), n.q)


def from_reflections(first: ReflectionNormal, second: ReflectionNormal) -> Rotation4:
    """Rotation realizing reflection in `first` followed by reflection in
    `second`: factors a = z conj(y), b = conj(y) z.  Always simple (or the
    identity), since both factors share the scalar part dot4(y, z).

    Factor products are renormalized so normals admitted at the unit-norm
    tolerance cannot push the result past the same gate."""
    y, z = first.q, second.q
    return Rotation4(normalized(mul(z, conj(y))), normalized(mul(conj(y), z)))


# --- classification -------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Simple:
    """One plane is pointwise fixed, the orthogonal one turns by `angle`."""

    angle: float
    fixed_plane: Plane
    rotation_plane: Plane


@dataclass(frozen=True)
class LeftIsoclinic:
    """x -> a x: every vector turns by the same angle, cos(angle) = S(a)."""

    angle: float


@dataclass(frozen=True)
class RightIsoclinic:
    """x -> x b: every vector turns by the same angle, cos(angle) = S(b)."""

    angle: float


@dataclass(frozen=True)
class Double:
    """Two orthogonal planes turn by distinct angles.

    With factor polar half-angles ha and hb, plane1 carries ha + hb and
    plane2 carries ha - hb, each reduced to [0, pi]."""

    plane1: Plane
    angle1: float
    plane2: Plane
    angle2: float


RotationKind = Union[Identity, Simple, LeftIsoclinic, RightIsoclinic, Double]


def _clamp(x: float) -> float:
    return min(1.0, max(-1.0, x))


def _reduce_angle(t: float) -> float:
    """Fold an angle into [0, pi] (same cosine, unsigned)."""
    t = math.fmod(abs(t), 2.0 * math.pi)
    return t if t <= math.pi else 2.0 * math.pi - t


def plane_rotation_angle(r: Rotation4, invariant: Plane) -> tuple[Plane, float]:
    """Turning angle of r inside one of its invariant planes.

    Returns the plane, orientation-corrected so the turn is counterclockwise
    relative to (u, w), together with the angle in [0, pi].  Only meaningful
    when `invariant` really is invariant under r.
    """
    fu = apply(r, invariant.u)
    c = dot4(fu, invariant.u)
    s = dot4(fu, invariant.w)
    if s < 0.0:
        invariant = invariant.flipped()
        s = -s
    return invariant, math.atan2(s, c)


def _sum_plane_first(
    pa: PolarForm, pb: PolarForm, m1: tuple[Plane, float], m2: tuple[Plane, float]
) -> tuple[tuple[Plane, float], tuple[Plane, float]]:
    """Order two measured (plane, angle) pairs so the one whose angle is
    nearest the reduced half-angle sum of the factors comes first; a tie
    keeps m1 first."""
    half_sum = _reduce_angle(pa.half_angle + pb.half_angle)
    if abs(m2[1] - half_sum) < abs(m1[1] - half_sum):
        return m2, m1
    return m1, m2


def _orthonormal_to(p: Vec3) -> tuple[Vec3, Vec3]:
    """Two unit 3-vectors completing the unit vector p to a right triad."""
    comps = p.components()
    seeds = (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    seed = seeds[min(range(3), key=lambda k: abs(comps[k]))]
    e = p.cross(seed)
    e = e / e.norm()
    return e, p.cross(e)


def invariant_planes(p: Vec3, q: Vec3) -> tuple[Plane, Plane]:
    """The two orthogonal invariant planes of x -> a x b from the unit axes
    p (of a) and q (of b).

    Generic case: the spans {p - q, 1 + pq} and {p + q, 1 - pq},
    orthonormalized first-vector-first.  For q = +-p both generic spans of
    one plane collapse; the pair is then Sp{1, p} and its orthogonal
    complement {x : Sx = 0, p.x = 0}.  Which plane carries which angle is
    the caller's concern (see classify).
    """
    if abs(p.norm() - 1.0) > EPS_UNIT or abs(q.norm() - 1.0) > EPS_UNIT:
        raise NotUnit("axes must be unit 3-vectors")
    if (p - q).norm() <= EPS_AXIS or (p + q).norm() <= EPS_AXIS:
        lam1 = plane_from_span(ONE, pure(p))
        e, f = _orthonormal_to(p)
        lam2 = Plane(pure(e), pure(f))
        return lam1, lam2
    pq = mul(pure(p), pure(q))
    pi1 = plane_from_span(pure(p - q), ONE + pq)
    pi2 = plane_from_span(pure(p + q), ONE - pq)
    return pi1, pi2


def classify(r: Rotation4, eps: float = DEFAULT_EPS) -> RotationKind:
    """Classify the rotation and extract its geometric parameters.

    Decision order: a factor counts as +-1 when its vector part is below
    EPS_AXIS (isoclinic / identity cases); otherwise the rotation is Simple
    when |S(a) - S(b)| <= eps and Double otherwise.  Plane/angle assignment
    is measured directly by applying r inside each candidate plane rather
    than trusting any labeling convention, so the degenerate axis cases
    need no special-casing here.
    """
    a, b = r.a, r.b
    require_unit(a, "left factor")
    require_unit(b, "right factor")
    va = a.v.norm()
    vb = b.v.norm()
    if va <= EPS_AXIS and vb <= EPS_AXIS:
        if a.s * b.s > 0.0:
            return Identity()
        # central inversion x -> -x; by convention a left turn by pi
        return LeftIsoclinic(math.pi)
    if va <= EPS_AXIS:
        return RightIsoclinic(math.acos(_clamp(math.copysign(1.0, a.s) * b.s)))
    if vb <= EPS_AXIS:
        return LeftIsoclinic(math.acos(_clamp(math.copysign(1.0, b.s) * a.s)))

    pa: PolarForm = polar(a)
    pb: PolarForm = polar(b)
    first, second = invariant_planes(pa.axis, pb.axis)
    measured = [plane_rotation_angle(r, first), plane_rotation_angle(r, second)]

    if abs(a.s - b.s) <= eps:
        fixed_idx = 0 if measured[0][1] <= measured[1][1] else 1
        rot_plane, angle = measured[1 - fixed_idx]
        return Simple(angle, fixed_plane=measured[fixed_idx][0], rotation_plane=rot_plane)

    (p1, a1), (p2, a2) = _sum_plane_first(pa, pb, *measured)
    return Double(plane1=p1, angle1=a1, plane2=p2, angle2=a2)


def simple_to_reflections(
    r: Rotation4, eps: float = DEFAULT_EPS
) -> tuple[ReflectionNormal, ReflectionNormal]:
    """Decompose a simple rotation into two hyperplane reflections.

    The first normal y is a unit vector solving a y = y b, found as a
    nullspace vector of the 4x4 map x -> a x - x b (the nullspace is
    2-dimensional exactly when S(a) = S(b)); the second is z = a y.  Then
    z conj(y) = a exactly and conj(y) z = b up to the kernel residual, so
    from_reflections(y, z) reproduces r.

    Among the nullspace basis the vector with the largest single component
    is chosen, which makes the decomposition deterministic.
    """
    if abs(r.a.s - r.b.s) > eps:
        raise NotSimple(
            f"scalar parts differ by {abs(r.a.s - r.b.s):.3e}; not a simple rotation"
        )
    kernel_map = left_mult_matrix(r.a) - right_mult_matrix(r.b)
    basis = nullspace(kernel_map)
    if not basis:
        raise NotSimple(
            "factors deviate from the simple-rotation condition by more than "
            "the kernel tolerance"
        )
    y_arr = max(basis, key=lambda vec: float(np.abs(vec).max()))
    y = Quaternion.from_array(y_arr)
    z = normalized(mul(r.a, y))
    return ReflectionNormal(y), ReflectionNormal(z)
