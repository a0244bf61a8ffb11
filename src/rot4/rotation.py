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
from typing import TYPE_CHECKING, Union

from .errors import NotSimple, NotUnit
from .plane import Plane
from .quat import (
    DEFAULT_EPS,
    EPS_AXIS,
    EPS_UNIT,
    ONE,
    I,
    J,
    K,
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

if TYPE_CHECKING:
    import numpy as np


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
    from .oracle import left_mult_matrix, right_mult_matrix

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


_BASIS = (ONE, I, J, K)


def invariant_planes(p: Vec3, q: Vec3) -> tuple[Plane, Plane]:
    """The two orthogonal invariant planes of x -> a x b from the unit axes
    p (of a) and q (of b).

    They are the +1 and -1 eigenspaces of the symmetric involution
    T x = p x q, holding p - q, 1 + pq and p + q, 1 - pq.  For s = +-1, u is
    column k of 2P = I + sT, twice the projector, at its first largest
    diagonal entry; its squared norm 4 P_kk is at least 2 since trace P = 2.
    Column k of T is p e_k q, and its diagonal is (-p.q, p.q - 2 p_i q_i).
    The partner p u is orthogonal to u and in the plane, as x -> p x
    commutes with T.  No axis threshold is involved.  The plane holding
    more of 1 comes first; which plane carries which angle is classify's
    concern.
    """
    if abs(p.norm() - 1.0) > EPS_UNIT or abs(q.norm() - 1.0) > EPS_UNIT:
        raise NotUnit("axes must be unit 3-vectors")
    pp, pq = pure(p), pure(q)
    d = p.dot(q)
    diag = (-d, d - 2.0 * p.x1 * q.x1, d - 2.0 * p.x2 * q.x2, d - 2.0 * p.x3 * q.x3)
    planes = []
    for sign, k in ((1.0, diag.index(max(diag))), (-1.0, diag.index(min(diag)))):
        u = normalized(mul(mul(pp, _BASIS[k]), pq) * sign + _BASIS[k])
        planes.append(Plane(u, mul(pp, u)))
    plus, minus = planes
    return (minus, plus) if d > 0.0 else (plus, minus)


def _measured_planes(r: Rotation4) -> tuple[tuple[Plane, float], tuple[Plane, float]]:
    """Both invariant planes of r, each measured by plane_rotation_angle, the
    -1 eigenspace of x -> p x q first.  There p x = x q, so r turns it by
    x -> x e^{q(ha+hb)}: it carries the reduced half-angle sum, the +1
    eigenspace the reduced difference.  invariant_planes puts the -1
    eigenspace first exactly when p.q > 0."""
    p, q = polar(r.a).axis, polar(r.b).axis
    first, second = invariant_planes(p, q)
    if p.dot(q) <= 0.0:
        first, second = second, first
    return plane_rotation_angle(r, first), plane_rotation_angle(r, second)


def classify(r: Rotation4, eps: float = DEFAULT_EPS) -> RotationKind:
    """Classify the rotation and extract its geometric parameters.

    Decision order: a factor counts as +-1 when its vector part is below
    EPS_AXIS (isoclinic / identity cases); otherwise the rotation is Simple
    when |S(a) - S(b)| <= eps and Double otherwise.  Both cases take the
    planes in one order: the -1 eigenspace of x -> p x q for the unit axes
    p, q first, which carries the half-angle sum, then the +1 eigenspace.
    Each angle is measured by applying r inside its plane.  The first plane
    is plane1 of a Double and the rotation plane of a Simple, whose other
    plane is the fixed one.
    """
    a, b = r.a, r.b
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

    (p1, a1), (p2, a2) = _measured_planes(r)
    if abs(a.s - b.s) <= eps:
        return Simple(a1, fixed_plane=p2, rotation_plane=p1)
    return Double(plane1=p1, angle1=a1, plane2=p2, angle2=a2)


def simple_to_reflections(
    r: Rotation4, eps: float = DEFAULT_EPS
) -> tuple[ReflectionNormal, ReflectionNormal]:
    """Decompose a simple rotation into two hyperplane reflections.

    Accepts exactly what classify(r, eps) calls Simple or Identity and
    raises NotSimple on every other kind.  The first normal y is the u of
    classify's rotation plane (1 for the identity); the second is z = a y.
    That plane is the -1 eigenspace of x -> p x q for the unit axes p, q,
    so p y = y q and a y = y b' with b' = S(a) + |V(a)| q.  Hence
    from_reflections(y, z) is (a, b'): r itself when S(a) = S(b), and for
    a near-simple r the simple rotation with a's angle and b's axis.
    """
    kind = classify(r, eps)
    if isinstance(kind, Identity):
        y = ONE
    elif isinstance(kind, Simple):
        y = kind.rotation_plane.u
    else:
        raise NotSimple(f"a {type(kind).__name__} rotation, not simple at eps = {eps:.1e}")
    z = normalized(mul(r.a, y))
    return ReflectionNormal(y), ReflectionNormal(z)
