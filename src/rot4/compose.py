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
    require_unit,
)
from .rotation import DEFAULT_EPS, Rotation4, _planes_of, _rotation, _split, classify


def compose(g: Rotation4, f: Rotation4) -> Rotation4:
    """The rotation 'f followed by g': factors (g.a * f.a, f.b * g.b), on
    floats.  rotation._rotation renormalizes the two products, admits the
    pair and fixes its sign, so only the two factors kept are built."""
    return _rotation(_mul4(g.a, f.a), _mul4(f.b, g.b))


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
        """The rotation of the factors cos_alpha (1 + p_tilde) and
        cos_beta (1 + q_tilde), which the gate admits up to EPS_UNIT off
        unit norm, as Rotation4 does; rotation._rotation renormalizes them."""
        c, d = self.cos_alpha, self.cos_beta
        p1, p2, p3 = self.p_tilde
        q1, q2, q3 = self.q_tilde
        return _rotation((c, p1 * c, p2 * c, p3 * c), (d, q1 * d, q2 * d, q3 * d))


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
    intersect nontrivially (intersection_dim >= 1).  intersection_dim counts
    the principal angles of the fixed planes, in radians, at or below the
    eps that is_simple cuts |s_condition| at; they follow from the pair's
    unit axes p, q alone."""

    __slots__ = ("s_condition", "det_normals", "intersection_dim", "is_simple")


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
    intersection of the two fixed planes, 2 when either is the identity,
    which fixes all of E4.  Only det_normals reads the normals, so
    s_condition = -2 det_normals checks two computations.

    The dimension comes from the unit axes pf, qf of f's factors and pg, qg
    of g's, which _split also returns.  A fixed plane {x : p x = -x q} is
    the pair (p, -q), so with the angles left between pf and pg and right
    between qf and qg, each atan2(|x X x'|, x.x'), which keeps its digits
    near 0 and pi, the principal angles of the two planes are
    |left - right|/2 and t = (left + right)/2, the latter reduced to
    min(t, pi - t) for the planes' orientation.  The dimension counts those
    at or below eps, in radians.  Both verdicts cut at eps; as
    |s_condition| = k sin(t_min), k = 2 sin(ha_f) sin(ha_g) sin(t_max), for
    the principal angles t_min <= t_max, they can differ only while t_min
    lies between eps and eps / k."""
    splits = []
    for name, rot in (("f", f), ("g", g)):
        try:
            splits.append(_split(rot, eps))
        except NotSimple as exc:
            exc.args = (f"{name} is not a simple rotation: {exc}",)
            raise  # in place, so the traceback still ends in the split
    (pf, qf, y, z, (a1, a2, a3), (b1, b2, b3)), (pg, qg, u, w, (c1, c2, c3), (d1, d2, d3)) = splits
    s_condition = (c1 * a1 + c2 * a2 + c3 * a3) - (b1 * d1 + b2 * d2 + b3 * d3)
    y0, y1, y2, y3 = y
    z0, z1, z2, z3 = z
    u0, u1, u2, u3 = u
    w0, w1, w2, w3 = w
    # the normals as columns, scalar last
    det = _det4(((y1, z1, u1, w1), (y2, z2, u2, w2), (y3, z3, u3, w3), (y0, z0, u0, w0)))
    dim = 2
    if pf is not None and pg is not None:
        (_, m1, m2, m3), (_, n1, n2, n3) = pf, pg
        k1, k2, k3 = m2 * n3 - m3 * n2, m3 * n1 - m1 * n3, m1 * n2 - m2 * n1
        left = math.atan2(math.sqrt(k1 * k1 + k2 * k2 + k3 * k3), m1 * n1 + m2 * n2 + m3 * n3)
        (_, m1, m2, m3), (_, n1, n2, n3) = qf, qg
        k1, k2, k3 = m2 * n3 - m3 * n2, m3 * n1 - m1 * n3, m1 * n2 - m2 * n1
        right = math.atan2(math.sqrt(k1 * k1 + k2 * k2 + k3 * k3), m1 * n1 + m2 * n2 + m3 * n3)
        t = (left + right) / 2.0
        dim = (abs(left - right) / 2.0 <= eps) + (min(t, math.pi - t) <= eps)
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
