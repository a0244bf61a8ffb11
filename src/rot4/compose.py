"""Composition of 4-space rotations with geometric-parameter propagation.

Composing x -> a x b (applied first) with x -> c x d gives x -> (ca) x (bd).
When both inputs carry Gibbs data, the composed Gibbs data follows closed
rules that generalize the classical 3D composition formula; and when both
inputs are simple, a scalar residual decides whether the composition stays
simple, equivalently whether the four reflection normals are linearly
dependent, equivalently whether the fixed planes intersect nontrivially.

The Gibbs chart of one unit quaternion lives here, beside compose_gibbs: the
package runs this module on first use, so only a process that composes
compiles it.
"""

from __future__ import annotations

import math

from .errors import DegenerateAxis, GibbsSingular, NotSimple
from .plane import Plane
from .quat import (
    EPS_GIBBS,
    EPS_UNIT,
    PIVOT_TOL,
    Quaternion,
    Vec3,
    _det4,
    _mul4,
    _new,
    _quat,
    _setters,
    _unit4,
    _Value,
    _vec,
    normalized,
    require_unit,
)
from .rotation import DEFAULT_EPS, Rotation4, _planes_of, _rotation, _split, classify


def compose(g: Rotation4, f: Rotation4) -> Rotation4:
    """The rotation 'f followed by g': factors (g.a * f.a, f.b * g.b).

    The factor products are renormalized: inputs admitted at the unit-norm
    tolerance would otherwise drift past it when multiplied.  The pair is
    admitted and its sign fixed on the floats (rotation._rotation), so only
    the two factors kept are built."""
    return _rotation(_unit4(_mul4(g.a, f.a)), _unit4(_mul4(f.b, g.b)))


def gibbs_from_unit(a: Quaternion) -> Vec3:
    """Gibbs vector of a unit quaternion: axis * tan(half_angle) = Va / Sa.
    Raises GibbsSingular at half-angle pi/2, where the chart blows up."""
    require_unit(a)
    if abs(a.s) <= EPS_GIBBS:
        raise GibbsSingular("scalar part vanishes; the Gibbs chart is singular here")
    return a.v / a.s


def unit_from_gibbs(g: Vec3) -> Quaternion:
    """Unit quaternion (1 + g)/sqrt(1 + |g|^2); scalar part always positive.
    Where 1 + |g|^2 overflows, quat._unit4 first scales 1 + g by 1/max|g_i|."""
    return _quat(*_unit4((1.0, *g)))


def _gibbs_rule(g1: tuple, g2: tuple, singular: str) -> tuple:
    """The Gibbs composition rule 'g1 followed by g2' on component tuples:
    (g2 + g1 + g2 x g1) / den and den = 1 - g2.g1, as four floats, the dot
    and cross summed as Vec3.dot and _cross3 sum them and the quotient taken
    as * (1/den).

    Raises GibbsSingular with the message `singular` when den vanishes, and
    Vec3's refusal for a result that is not finite, so that compose_gibbs
    refuses its left side before it computes the right.
    """
    a1, a2, a3 = g1
    b1, b2, b3 = g2
    den = 1.0 - (b1 * a1 + b2 * a2 + b3 * a3)
    if abs(den) <= EPS_GIBBS:
        raise GibbsSingular(singular)
    f = 1.0 / den
    x1 = (b1 + a1 + (b2 * a3 - b3 * a2)) * f
    x2 = (b2 + a2 + (b3 * a1 - b1 * a3)) * f
    x3 = (b3 + a3 + (b1 * a2 - b2 * a1)) * f
    if x1 * 0.0 + x2 * 0.0 + x3 * 0.0 != 0.0:
        Vec3(x1, x2, x3)  # raises its refusal
    return x1, x2, x3, den


def rodrigues_compose(g1: Vec3, g2: Vec3) -> Vec3:
    """Gibbs vector of the 3D rotation 'g1 followed by g2', by the rule
    (g2 + g1 + g2 x g1) / (1 - g2.g1); singular exactly when the composed
    rotation angle reaches pi."""
    x1, x2, x3, _ = _gibbs_rule(g1, g2, "composed rotation angle is pi; no Gibbs vector exists")
    return _vec(x1, x2, x3)


class GibbsPair(_Value):
    """Gibbs-chart data of a rotation written as
    cos_alpha * (1 + p_tilde) x (1 + q_tilde) * cos_beta.

    p_tilde = p * tan(ha) and q_tilde = q * tan(hb) for factor half-angles
    ha, hb; the chart exists only while both cosines are nonzero.  The
    cosines are stored as floats; a p_tilde or q_tilde that is not a Vec3
    is a TypeError naming it.
    """

    __slots__ = ("p_tilde", "q_tilde", "cos_alpha", "cos_beta")

    def __init__(self, p_tilde: Vec3, q_tilde: Vec3, cos_alpha: float, cos_beta: float):
        for name, tilde in (("p_tilde", p_tilde), ("q_tilde", q_tilde)):
            if not isinstance(tilde, Vec3):
                raise TypeError(f"{name} must be a Vec3, got {type(tilde).__name__}")
        _gibbs_pair(self, *p_tilde, *q_tilde, float(cos_alpha), float(cos_beta), False)

    @classmethod
    def from_rotation(cls, r: Rotation4) -> "GibbsPair":
        s, a1, a2, a3 = r.a
        t, b1, b2, b3 = r.b
        if abs(s) <= EPS_GIBBS or abs(t) <= EPS_GIBBS:
            raise GibbsSingular(
                "a factor has vanishing scalar part; the rotation has no Gibbs form"
            )
        f, g = 1.0 / s, 1.0 / t
        return _gibbs_pair(_new(cls), a1 * f, a2 * f, a3 * f, b1 * g, b2 * g, b3 * g, s, t, True)

    def to_rotation(self) -> Rotation4:
        a = Quaternion(self.cos_alpha, self.p_tilde * self.cos_alpha)
        b = Quaternion(self.cos_beta, self.q_tilde * self.cos_beta)
        # the gate admits factors up to EPS_UNIT off unit norm, as Rotation4 does
        return Rotation4(normalized(a), normalized(b))


_set_p_tilde, _set_q_tilde, _set_cos_alpha, _set_cos_beta = _setters(GibbsPair)


def _gibbs_pair(
    pair, p1, p2, p3, q1, q2, q3, cos_alpha: float, cos_beta: float, renormalize: bool
) -> GibbsPair:
    """Fill the bare GibbsPair `pair` with the Gibbs vectors (p1, p2, p3),
    (q1, q2, q3) and the float cosines, behind the consistency gate, left
    side first: each factor cos (1 + g) that to_rotation rebuilds is unit
    within EPS_UNIT, as Rotation4 admits its factors, so
    |cos^2 (1 + |g|^2) - 1| <= EPS_UNIT.  "not <=" fails a NaN, and an
    overflowed 1 + |g|^2 fails it too, which sends that side to _recheck.
    With renormalize, as for the pairs rot4 derives itself, _recheck scales
    a cosine past the gate to unit norm instead of refusing it."""
    p, q = _vec(p1, p2, p3), _vec(q1, q2, q3)
    scale = 1.0 + (p1 * p1 + p2 * p2 + p3 * p3)
    if not abs(cos_alpha * cos_alpha * scale - 1.0) <= EPS_UNIT:
        cos_alpha = _recheck("left", p1, p2, p3, cos_alpha, scale, renormalize)
    scale = 1.0 + (q1 * q1 + q2 * q2 + q3 * q3)
    if not abs(cos_beta * cos_beta * scale - 1.0) <= EPS_UNIT:
        cos_beta = _recheck("right", q1, q2, q3, cos_beta, scale, renormalize)
    _set_p_tilde(pair, p)
    _set_q_tilde(pair, q)
    _set_cos_alpha(pair, cos_alpha)
    _set_cos_beta(pair, cos_beta)
    return pair


def _recheck(
    side: str, g1: float, g2: float, g3: float, cos: float, scale: float, renormalize: bool
) -> float:
    """The slow end of _gibbs_pair's gate for one side: the cosine to keep.
    The squared norm of the factor cos (1 + g) is cos^2 (1 + |g|^2), or
    cos^2 + |cos g|^2 where the scale 1 + |g|^2 overflowed.  cos is kept
    when that is 1 within EPS_UNIT; with renormalize, a finite nonzero norm
    is divided out of it; otherwise this raises the side's ValueError."""
    value = cos * cos * scale
    if scale == math.inf:
        x1, x2, x3 = cos * g1, cos * g2, cos * g3
        value = cos * cos + (x1 * x1 + x2 * x2 + x3 * x3)
    if abs(value - 1.0) <= EPS_UNIT:
        return cos
    if renormalize and 0.0 < value < math.inf:
        return cos / math.sqrt(value)
    raise ValueError(f"{side} data is inconsistent: cos^2*(1+|g|^2) = {value!r}, expected 1")


def compose_gibbs(f: GibbsPair, g: GibbsPair) -> GibbsPair:
    """Gibbs data of 'f followed by g', computed without quaternion products.

    Left side:   cos = cos_a1 * cos_a2 * (1 - p1.p2),
                 p   = (p2 + p1 + p2 x p1) / (1 - p2.p1);
    right side:  cos = cos_b1 * cos_b2 * (1 - q1.q2),
                 q   = (q1 + q2 + q1 x q2) / (1 - q1.q2).
    The cross products take opposite orders on the two sides; that asymmetry
    is real, not a typo.  A vanishing denominator means the composed factor
    is a pure quaternion (cosine zero) and the chart breaks down.  Both
    sides run _gibbs_rule on floats.  GibbsSingular, left side first, where
    a denominator or a composed cosine is at or below EPS_GIBBS, as
    GibbsPair.from_rotation refuses such a factor.  The composed cosines are
    renormalized where the inputs' own distance from unit norm, up to
    EPS_UNIT each, takes them past the consistency gate, as compose
    renormalizes its factor products.
    """
    p1, p2, p3, den_p = _gibbs_rule(
        f.p_tilde, g.p_tilde, "left composed cosine vanishes (p-denominator is zero)"
    )
    cos_a = f.cos_alpha * g.cos_alpha * den_p
    if abs(cos_a) <= EPS_GIBBS:
        raise GibbsSingular(f"left composed cosine {cos_a!r} is within EPS_GIBBS of zero")
    q1, q2, q3, den_q = _gibbs_rule(
        g.q_tilde, f.q_tilde, "right composed cosine vanishes (q-denominator is zero)"
    )
    cos_b = f.cos_beta * g.cos_beta * den_q
    if abs(cos_b) <= EPS_GIBBS:
        raise GibbsSingular(f"right composed cosine {cos_b!r} is within EPS_GIBBS of zero")
    return _gibbs_pair(_new(GibbsPair), p1, p2, p3, q1, q2, q3, cos_a, cos_b, True)


class SimplicityReport(_Value):
    """Three equivalent verdicts on whether a composition of two simple
    rotations is itself simple, taken on the pair that the normals y, z of f
    and u, w of g realise: a = z conj(y), b = conj(y) z, c = w conj(u),
    d = conj(u) w.

    s_condition is the residual Vc.Va - Vb.Vd of the factor vector parts,
    sin(ha_f) sin(ha_g) (p_f.p_g - q_f.q_g) for exactly simple factors with
    half-angles ha and unit axes p, q.  It equals -2 * det_normals, the
    determinant of the four reflection normals (components ordered
    vector-first, scalar last: the ordering under which that identity holds
    with the minus sign), and it vanishes exactly when the two fixed planes
    intersect nontrivially (intersection_dim >= 1)."""

    __slots__ = ("s_condition", "det_normals", "intersection_dim", "is_simple")


def _intersection_dim(y: tuple, u: tuple, q: tuple, p: tuple) -> int:
    """Dimension of the intersection of the fixed planes of two simple
    rotations f and g, from the first normals y of f and u of g and the unit
    axes q of f.b and p of g.a, all component tuples.  f's fixed plane is
    {y k : k pure, k.q = 0}, and (u, p u) is an orthonormal basis of g's
    rotation plane.  Up to an isometry, x1 = V(conj(y) u) x q and
    x2 = V(conj(y) p u) x q are its parts in f's fixed plane, so the singular
    values s1, s2 of [x1 x2] are the sines of the principal angles of the
    fixed planes: s1^2 + s2^2 = |x1|^2 + |x2|^2, s1 s2 = |x1 x x2|.  Counts
    those at or below PIVOT_TOL.  The three quaternion products and two
    cross products are written out as _mul4 and _cross3 sum them."""
    y0, yc1, yc2, yc3 = y[0], -y[1], -y[2], -y[3]  # conj(y)
    u0, u1, u2, u3 = u
    _, q1, q2, q3 = q
    p0, p1, p2, p3 = p
    m1 = u1 * y0 + yc1 * u0 + (yc2 * u3 - yc3 * u2)  # V(conj(y) u)
    m2 = u2 * y0 + yc2 * u0 + (yc3 * u1 - yc1 * u3)
    m3 = u3 * y0 + yc3 * u0 + (yc1 * u2 - yc2 * u1)
    n0 = y0 * p0 - (yc1 * p1 + yc2 * p2 + yc3 * p3)  # conj(y) p
    n1 = p1 * y0 + yc1 * p0 + (yc2 * p3 - yc3 * p2)
    n2 = p2 * y0 + yc2 * p0 + (yc3 * p1 - yc1 * p3)
    n3 = p3 * y0 + yc3 * p0 + (yc1 * p2 - yc2 * p1)
    k1 = u1 * n0 + n1 * u0 + (n2 * u3 - n3 * u2)  # V(conj(y) p u)
    k2 = u2 * n0 + n2 * u0 + (n3 * u1 - n1 * u3)
    k3 = u3 * n0 + n3 * u0 + (n1 * u2 - n2 * u1)
    a1, a2, a3 = m2 * q3 - m3 * q2, m3 * q1 - m1 * q3, m1 * q2 - m2 * q1  # x1
    b1, b2, b3 = k2 * q3 - k3 * q2, k3 * q1 - k1 * q3, k1 * q2 - k2 * q1  # x2
    total = (a1 * a1 + a2 * a2 + a3 * a3) + (b1 * b1 + b2 * b2 + b3 * b3)
    c1, c2, c3 = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
    area = math.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
    s1 = math.sqrt((total + math.sqrt(max(0.0, total * total - 4.0 * area * area))) / 2.0)
    s2 = area / s1 if s1 > 0.0 else 0.0
    return (s1 <= PIVOT_TOL) + (s2 <= PIVOT_TOL)


def is_composition_simple(
    f: Rotation4, g: Rotation4, eps: float = DEFAULT_EPS
) -> SimplicityReport:
    """Decide whether 'f followed by g' is simple, for simple f and g.

    Splits f and g as simple_to_reflections does (_split, on floats, with
    rotation's kind rule and eigenvector helper) and computes all three
    routes on the pair the normals realise, (f, g) itself when both are
    exactly simple, in plain floats: the scalar residual of the vector parts
    of that pair, which _split returns beside the normals; the determinant
    of the stacked reflection normals (quat._det4); and the dimension of the
    intersection of the two fixed planes (_intersection_dim), 2 when either
    is the identity, which fixes all of E4.  The residual does not read the
    normals, so s_condition = -2 det_normals checks two computations."""
    splits = []
    for name, rot in (("f", f), ("g", g)):
        try:
            splits.append(_split(rot, eps))
        except NotSimple as exc:
            exc.args = (f"{name} is not a simple rotation: {exc}",)
            raise  # in place, so the traceback still ends in the split
    (_, q, y, z, (a1, a2, a3), (b1, b2, b3)), (p, _, u, w, (c1, c2, c3), (d1, d2, d3)) = splits
    s_condition = (c1 * a1 + c2 * a2 + c3 * a3) - (b1 * d1 + b2 * d2 + b3 * d3)
    y0, y1, y2, y3 = y
    z0, z1, z2, z3 = z
    u0, u1, u2, u3 = u
    w0, w1, w2, w3 = w
    # the normals as columns, scalar last
    det = _det4(((y1, z1, u1, w1), (y2, z2, u2, w2), (y3, z3, u3, w3), (y0, z0, u0, w0)))
    dim = 2 if q is None or p is None else _intersection_dim(y, u, q, p)
    return SimplicityReport(s_condition, det, dim, abs(s_condition) <= eps)


def composed_planes_from_gibbs(h: GibbsPair) -> tuple[Plane, Plane, float, float]:
    """Invariant planes and angles of the rotation described by Gibbs data.

    Rebuilds the rotation from the stored vectors and cosines and reads its
    planes off classify at DEFAULT_EPS (rotation._planes_of): the planes are
    the eigenspaces of x -> p x q for the unit axes p, q, and the angles
    follow from the factor half-angles.  Returns (plane1, plane2, angle1,
    angle2) with plane1 carrying the reduced half-angle sum and plane2 the
    reduced difference, in classify's order; for a simple rotation plane2 is
    its fixed plane as built and angle2 is 0.0.  DegenerateAxis when classify
    calls the rotation the identity or isoclinic, whose planes are not unique.
    """
    p1, a1, p2, a2 = _planes_of(classify(h.to_rotation()))
    if p1 is None:
        raise DegenerateAxis(
            "a Gibbs vector vanishes; the rotation is isoclinic-like and its "
            "planes are not unique"
        )
    return p1, p2, a1, a2
