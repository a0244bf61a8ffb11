"""Rotations of Euclidean 4-space as unit-quaternion pairs x -> a x b.

Covers application, conversion to a 4x4 matrix, classification into the
identity / simple / isoclinic / double taxonomy with invariant planes and
angles, hyperplane reflections, and the two-reflections decomposition of
simple rotations.

Conventions fixed here once and used everywhere:

* (a, b) and (-a, -b) act identically; the stored representative makes the
  first component of `a` whose magnitude exceeds EPS_AXIS positive.
* All reported rotation angles lie in [0, pi] and are computed from the
  factor half-angles atan2(|V|, S), not measured; each reported plane has
  its basis oriented so the in-plane turn is counterclockwise relative to
  (u, w).  This removes the double ambiguity plane-orientation x angle-sign.
  A turn by exactly pi, and a simple rotation's fixed plane, which does
  not turn, keep the basis (u, p u) they are built with.
"""

from __future__ import annotations

import math

from .errors import NotSimple
from .plane import Plane, _set_u, _set_w
from .quat import (
    DEFAULT_EPS,
    EPS_AXIS,
    EPS_UNIT,
    ONE,
    Quaternion,
    _mul4,
    _new,
    _quat,
    _setters,
    _Value,
    conj,
    mul,
    normalized,
    require_unit,
)

def _leading_negative(c: tuple) -> bool:
    """Whether the first of the components c whose magnitude exceeds
    EPS_AXIS is negative: the sign rule that picks one of +-q."""
    for x in c:
        if abs(x) > EPS_AXIS:
            return x < 0.0
    return False


def _negated(a: tuple, b: tuple) -> bool:
    """Rotation4's admission of the factors' components a and b: NotUnit
    for a factor off unit norm, each norm_sq summed as require_unit sums it
    and require_unit called only to raise, then the sign rule, whether the
    pair is negated: S(a)'s sign unless |S(a)| <= EPS_AXIS, where
    _leading_negative reads on."""
    s, x1, x2, x3 = a
    if abs(s * s + (x1 * x1 + x2 * x2 + x3 * x3) - 1.0) > EPS_UNIT:
        require_unit(_quat(*a), "left factor")
    t, y1, y2, y3 = b
    if abs(t * t + (y1 * y1 + y2 * y2 + y3 * y3) - 1.0) > EPS_UNIT:
        require_unit(_quat(*b), "right factor")
    return (s < 0.0) if abs(s) > EPS_AXIS else _leading_negative(a)


class Rotation4(_Value):
    """The rotation x -> a x b for unit quaternions a, b.

    Construction validates both norms and canonicalizes the pair's common
    sign (_negated), so value equality of two instances means equality of
    rotations whenever the factors match bit-for-bit.  A factor that is not
    a Quaternion is a TypeError naming it, a plain tuple of four floats too.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Quaternion, b: Quaternion):
        if not isinstance(a, Quaternion) or not isinstance(b, Quaternion):
            name, x = ("b", b) if isinstance(a, Quaternion) else ("a", a)
            raise TypeError(f"{name} must be a Quaternion, got {type(x).__name__}")
        if _negated(a, b):
            a, b = -a, -b
        _set_a(self, a)
        _set_b(self, b)

    @classmethod
    def identity(cls) -> "Rotation4":
        return cls(ONE, ONE)


_set_a, _set_b = _setters(Rotation4)


def _rotation(a: tuple, b: tuple) -> Rotation4:
    """Rotation4 of the factors' components a and b, admitted as the
    constructor admits its factors (_negated), negated on the floats, and
    built with only its two factors."""
    if _negated(a, b):
        a, b = (-a[0], -a[1], -a[2], -a[3]), (-b[0], -b[1], -b[2], -b[3])
    r = _new(Rotation4)
    _set_a(r, _quat(*a))
    _set_b(r, _quat(*b))
    return r


def apply(r: Rotation4, x: Quaternion) -> Quaternion:
    """Image of x under the rotation: a x b."""
    return mul(mul(r.a, x), r.b)


def to_matrix(r: Rotation4) -> list[list[float]]:
    """Rows of the 4x4 matrix M with M @ [s, x1, x2, x3] = components of
    apply(r, x): M = L(a) R(b), the matrices of x -> a x and x -> x b, whose
    entry (i, j) is row i of L(a) times column j of R(b), summed in that
    order.  np.array(to_matrix(r)) gives it as an array."""
    s, x1, x2, x3 = r.a
    t, y1, y2, y3 = r.b
    # rows of L(a): (s, -x1, -x2, -x3), (x1, s, -x3, x2), (x2, x3, s, -x1),
    # (x3, -x2, x1, s); columns of R(b): (t, y1, y2, y3), (-y1, t, -y3, y2),
    # (-y2, y3, t, -y1), (-y3, -y2, y1, t).  A negated factor is written as a
    # subtraction, which rounds the same.
    return [
        [
            s * t - x1 * y1 - x2 * y2 - x3 * y3,
            -s * y1 - x1 * t + x2 * y3 - x3 * y2,
            -s * y2 - x1 * y3 - x2 * t + x3 * y1,
            -s * y3 + x1 * y2 - x2 * y1 - x3 * t,
        ],
        [
            x1 * t + s * y1 - x3 * y2 + x2 * y3,
            -x1 * y1 + s * t + x3 * y3 + x2 * y2,
            -x1 * y2 + s * y3 - x3 * t - x2 * y1,
            -x1 * y3 - s * y2 - x3 * y1 + x2 * t,
        ],
        [
            x2 * t + x3 * y1 + s * y2 - x1 * y3,
            -x2 * y1 + x3 * t - s * y3 - x1 * y2,
            -x2 * y2 + x3 * y3 + s * t + x1 * y1,
            -x2 * y3 - x3 * y2 + s * y1 - x1 * t,
        ],
        [
            x3 * t - x2 * y1 + x1 * y2 + s * y3,
            -x3 * y1 - x2 * t - x1 * y3 + s * y2,
            -x3 * y2 - x2 * y3 + x1 * t - s * y1,
            -x3 * y3 + x2 * y2 + x1 * y1 + s * t,
        ],
    ]


class ReflectionNormal(_Value):
    """Unit normal q of the hyperplane reflection x -> -q conj(x) q."""

    __slots__ = ("q",)

    def __init__(self, q: Quaternion):
        require_unit(q, "reflection normal")
        _set_q(self, q)


(_set_q,) = _setters(ReflectionNormal)


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


class Identity(_Value):
    __slots__ = ()


class Simple(_Value):
    """One plane is pointwise fixed, the orthogonal one turns by `angle`."""

    __slots__ = ("angle", "fixed_plane", "rotation_plane")


class LeftIsoclinic(_Value):
    """x -> a x: every vector turns by the same angle, cos(angle) = S(a)."""

    __slots__ = ("angle",)


class RightIsoclinic(_Value):
    """x -> x b: every vector turns by the same angle, cos(angle) = S(b)."""

    __slots__ = ("angle",)


class Double(_Value):
    """Two orthogonal planes turn by distinct angles.

    Write the factors as a = cos(ha) + p sin(ha) and b = cos(hb) + q sin(hb)
    with unit axes p, q and half-angles ha, hb in [0, pi].  plane1 carries
    ha + hb and plane2 carries ha - hb, each reduced to [0, pi]."""

    __slots__ = ("plane1", "angle1", "plane2", "angle2")


RotationKind = Identity | Simple | LeftIsoclinic | RightIsoclinic | Double


_BASIS = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))


def _kind_of(s: float, t: float, na: float, nb: float, eps: float) -> type:
    """The kind rule, on the scalar parts s, t of the factors a, b and the
    norms na, nb of their vector parts: a factor counts as +-1 when its
    vector part is at or below EPS_AXIS (isoclinic / identity cases; x -> -x
    is by convention a left turn by pi); otherwise the rotation is Simple
    when |S(a) - S(b)| <= eps, else Double."""
    a_real, b_real = na <= EPS_AXIS, nb <= EPS_AXIS
    if a_real and b_real:
        return Identity if s * t > 0.0 else LeftIsoclinic
    if a_real or b_real:
        return RightIsoclinic if a_real else LeftIsoclinic
    return Simple if abs(s - t) <= eps else Double


def _kind(r: Rotation4, eps: float) -> type:
    """The class of r's kind, by _kind_of."""
    s, a1, a2, a3 = r.a
    t, b1, b2, b3 = r.b
    na = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    return _kind_of(s, t, na, math.sqrt(b1 * b1 + b2 * b2 + b3 * b3), eps)


def _axes(a: tuple, b: tuple, na: float, nb: float) -> tuple:
    """The unit axes p = V(a)/|V(a)|, q = V(b)/|V(b)| of the factors'
    components a, b, given na = |V(a)| and nb = |V(b)|, as pure component
    tuples; each is unit to rounding, a vector over its own norm."""
    f, g = 1.0 / na, 1.0 / nb
    return (0.0, a[1] * f, a[2] * f, a[3] * f), (0.0, b[1] * g, b[2] * g, b[3] * g)


def _eigenvector(p: tuple, q: tuple, sign: float) -> tuple:
    """The unit eigenvector of T x = p x q for the eigenvalue sign (+-1), for
    the unit axes p, q of _axes: column k of I + sign T, twice the
    eigenspace's projector P, at the first largest (+1) or smallest (-1)
    diagonal entry, divided by its norm, which is never small: its norm^2
    is 4 P_kk >= 2, as trace P = 2.  The diagonal of T is
    (-p.q, p.q - 2 p_i q_i), and the column is sign (p e_k) q + e_k, with
    p e_k the signed permutation of p below.  The products of its zero and
    of q's zero scalar part are left out: each is an exact +-0, and each
    component ends in + e_i, which clears the sign of a zero, so the column
    is bit for bit _mul4's."""
    _, p1, p2, p3 = p
    _, q1, q2, q3 = q
    d = p1 * q1 + p2 * q2 + p3 * q3
    diag = (-d, d - 2.0 * p1 * q1, d - 2.0 * p2 * q2, d - 2.0 * p3 * q3)
    k = diag.index(max(diag) if sign > 0.0 else min(diag))
    if k == 0:  # m = p e_k
        m0, m1, m2, m3 = 0.0, p1, p2, p3
    elif k == 1:
        m0, m1, m2, m3 = -p1, 0.0, p3, -p2
    elif k == 2:
        m0, m1, m2, m3 = -p2, -p3, 0.0, p1
    else:
        m0, m1, m2, m3 = -p3, p2, -p1, 0.0
    e0, e1, e2, e3 = _BASIS[k]
    v0 = (m1 * q1 + m2 * q2 + m3 * q3) * -sign + e0
    v1 = (q1 * m0 + (m2 * q3 - m3 * q2)) * sign + e1
    v2 = (q2 * m0 + (m3 * q1 - m1 * q3)) * sign + e2
    v3 = (q3 * m0 + (m1 * q2 - m2 * q1)) * sign + e3
    f = 1.0 / math.sqrt(v0 * v0 + (v1 * v1 + v2 * v2 + v3 * v3))
    return v0 * f, v1 * f, v2 * f, v3 * f


def _invariant_planes(
    a: tuple, b: tuple, na: float, nb: float, simple: bool
) -> tuple[tuple[Plane, float], ...]:
    """Both invariant planes, with their angles, of the rotation whose
    factors have components a, b and vector-part norms na, nb, on floats
    until each plane is built.

    With a = cos(ha) + p sin(ha), b = cos(hb) + q sin(hb) for the unit axes
    p, q of _axes and the half-angles atan2(|V|, S) in [0, pi], the first
    plane is (u, p u) for u = _eigenvector(p, q, -1.0), the second the same
    for the +1 eigenvector: x -> p x commutes with x -> p x q, so p u is
    orthogonal to u in the same eigenspace.  On the first p u = u q, so the
    rotation turns (u, p u) by ha + hb; on the second p u = -u q, so by
    ha - hb.  Each turn is reduced to [0, pi] by flipping w, and a turn by
    exactly pi keeps (u, p u).  For a simple rotation the second, its fixed
    plane, is kept as built with angle 0.0.  Each plane passes Plane's gate
    by construction, so none is checked: u is unit and w = +-p u for the
    unit pure p, which is unit and orthogonal to u."""
    ha, hb = math.atan2(na, a[0]), math.atan2(nb, b[0])
    p, q = _axes(a, b, na, nb)
    total = ha + hb
    turns = (
        (-1.0, total > math.pi, min(total, 2.0 * math.pi - total)),
        (1.0, False, 0.0) if simple else (1.0, ha < hb, abs(ha - hb)),
    )
    planes = []
    for sign, flip, angle in turns:
        u = u0, u1, u2, u3 = _eigenvector(p, q, sign)
        w0, w1, w2, w3 = _mul4(p, u)
        if flip:
            w0, w1, w2, w3 = -w0, -w1, -w2, -w3
        plane = _new(Plane)
        _set_u(plane, _quat(u0, u1, u2, u3))
        _set_w(plane, _quat(w0, w1, w2, w3))
        planes.append((plane, angle))
    return tuple(planes)


def classify(r: Rotation4, eps: float = DEFAULT_EPS) -> RotationKind:
    """Classify the rotation and extract its geometric parameters.

    The kind is decided by _kind_of, the one kind rule, which
    simple_to_reflections and is_composition_simple share.  Simple and
    Double take their planes from _invariant_planes in one order: the -1
    eigenvector of x -> p x q (_eigenvector) for the unit axes p, q (_axes)
    first, which carries the half-angle sum, then the +1 eigenvector, which
    carries the difference.  Every angle
    comes from the factor half-angles atan2(|V|, S) in closed form, the
    isoclinic ones included; none is measured by applying r.  The first
    plane is plane1 of a Double and the rotation plane of a Simple.  A
    Simple's fixed plane is reported as built, (u, p u), with angle 0.0.
    _planes_of reads the planes and angles of a result back in this order.
    """
    a = s, a1, a2, a3 = r.a
    b = t, b1, b2, b3 = r.b
    na = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    nb = math.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
    kind = _kind_of(s, t, na, nb, eps)
    if kind is Identity:
        return Identity()
    if kind is RightIsoclinic:
        return RightIsoclinic(math.atan2(nb, math.copysign(1.0, s) * t))
    if kind is LeftIsoclinic:
        if na <= EPS_AXIS:
            return LeftIsoclinic(math.pi)  # x -> -x
        return LeftIsoclinic(math.atan2(na, math.copysign(1.0, t) * s))
    (p1, angle1), (p2, angle2) = _invariant_planes(a, b, na, nb, kind is Simple)
    if kind is Simple:
        return Simple(angle1, p2, p1)
    return Double(p1, angle1, p2, angle2)


def _planes_of(kind: RotationKind) -> tuple:
    """(plane1, angle1, plane2, angle2) of a classify result, in classify's
    plane order: a Simple's rotation plane and angle, then its fixed plane
    and 0.0.  The identity and isoclinic kinds turn every plane by one
    angle, so none is unique: their planes are None."""
    if isinstance(kind, Identity):
        return None, 0.0, None, 0.0
    if isinstance(kind, (LeftIsoclinic, RightIsoclinic)):
        return None, kind.angle, None, kind.angle
    if isinstance(kind, Simple):
        return kind.rotation_plane, kind.angle, kind.fixed_plane, 0.0
    return kind.plane1, kind.angle1, kind.plane2, kind.angle2


def simple_to_reflections(
    r: Rotation4, eps: float = DEFAULT_EPS
) -> tuple[ReflectionNormal, ReflectionNormal]:
    """Decompose a simple rotation into two hyperplane reflections.

    Takes classify's decision (_kind_of): accepts exactly what
    classify(r, eps) calls Simple or Identity, raises NotSimple on every
    other kind.  It builds only y = _eigenvector(p, q, -1.0) for the unit
    axes p, q of _axes, as classify does: bit for bit the u of classify's
    rotation plane (1 for the identity).
    The second normal is z = a y.  As p y = y q, a y = y b' with
    b' = S(a) + |V(a)| q: from_reflections(y, z) is (a, b'), r itself when
    S(a) = S(b), else the simple rotation with a's angle and b's axis.
    """
    _, _, y, z, _, _ = _split(r, eps)
    return ReflectionNormal(_quat(*y)), ReflectionNormal(_quat(*z))


def _split(r: Rotation4, eps: float) -> tuple:
    """simple_to_reflections in floats: (p, q, y, z, va, vb) with the unit
    axes p, q of a and b (_axes), None for the identity, the normals y, z,
    and the vector parts va, vb of the pair (z conj(y), conj(y) z) that the
    normals realise, all component tuples.  The kind is _kind_of's;
    NotSimple on every kind but Simple and Identity.  y is
    _eigenvector(p, q, -1.0), bit for bit the u of classify's rotation
    plane, or 1 for the identity, and z is a y scaled by 1/|a y|, which is
    never small: |a y| = |a| for the unit y.  As a y = y b' with
    b' = S(a) + |V(a)| q, the pair is (a, b')/|a y|, so va = V(a)/|a y| and
    vb = |V(a)| q/|a y|; for the identity, y = 1 and the pair is (a, a)/|a|."""
    a = s, a1, a2, a3 = r.a
    b = t, b1, b2, b3 = r.b
    na = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    nb = math.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
    kind = _kind_of(s, t, na, nb, eps)
    if kind is Simple:
        p, q = _axes(a, b, na, nb)
        y = _eigenvector(p, q, -1.0)
    elif kind is Identity:
        p = q = None
        y = _BASIS[0]
    else:
        raise NotSimple(f"a {kind.__name__} rotation, not simple at eps = {eps:.1e}")
    y0, y1, y2, y3 = y
    v0 = s * y0 - (a1 * y1 + a2 * y2 + a3 * y3)  # a y
    v1 = y1 * s + a1 * y0 + (a2 * y3 - a3 * y2)
    v2 = y2 * s + a2 * y0 + (a3 * y1 - a1 * y3)
    v3 = y3 * s + a3 * y0 + (a1 * y2 - a2 * y1)
    f = 1.0 / math.sqrt(v0 * v0 + (v1 * v1 + v2 * v2 + v3 * v3))
    z, va = (v0 * f, v1 * f, v2 * f, v3 * f), (a1 * f, a2 * f, a3 * f)
    if q is None:
        return p, q, y, z, va, va
    g = na * f
    return p, q, y, z, va, (q[1] * g, q[2] * g, q[3] * g)
