"""The float kernels against the object arithmetic they replace, and the
straight-line matrix code against its loop form.

classify, compose, GibbsPair.from_rotation, compose_gibbs,
composed_planes_from_gibbs, simple_to_reflections and
is_composition_simple compute on float tuples and build values only for
their results.  The first reference below computes the same formulas
through Quaternion and Vec3 operators, one value per step, in the same
summation order; every result must match it bit for bit, down to the sign
of a zero, so reprs are compared.

planes_from_matrix, projector_distance and to_matrix write every matrix
entry out on named floats.  The second reference, ref_planes_from_matrix
with ref_projector_distance and ref_to_matrix, is their loop form over
rows of floats: the same expressions, summed in the same order.  Results
are compared by repr, and refusals by type and message.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rot4 import (
    DEFAULT_EPS,
    EPS_AXIS,
    EPS_GIBBS,
    EPS_UNIT,
    ONE,
    GibbsPair,
    GibbsSingular,
    I,
    Identity,
    J,
    K,
    LeftIsoclinic,
    NotSimple,
    NotUnit,
    PairingFailure,
    Plane,
    Quaternion,
    ReflectionNormal,
    RightIsoclinic,
    Rotation4,
    Simple,
    Double,
    SimplicityReport,
    Vec3,
    classify,
    compose,
    compose_gibbs,
    composed_planes_from_gibbs,
    is_composition_simple,
    mul,
    normalized,
    planes_from_matrix,
    projector_distance,
    simple_to_reflections,
    to_matrix,
)
import rot4.quat as quat_module
import rot4.rotation as rotation_module
from rot4.oracle import _FIXED_SPLIT, OraclePlanes, _basis, _rows
from rot4.quat import EPS_MATRIX, _det4
from conftest import GOLDEN_F, GOLDEN_G, R2

# `import rot4.compose as ...` would bind the function rot4.compose
compose_module = importlib.import_module("rot4.compose")

# --- the reference: one Quaternion or Vec3 per step ------------------------


def ref_mul(x: Quaternion, y: Quaternion) -> Quaternion:
    """s1 s2 - v1.v2 and s1 v2 + s2 v1 + v1 x v2, summed in that order."""
    return Quaternion(x.s * y.s - x.v.dot(y.v), y.v * x.s + x.v * y.s + x.v.cross(y.v))


def ref_normalized(x: Quaternion) -> Quaternion:
    n = math.sqrt(x.s * x.s + x.v.norm_sq())
    if n <= EPS_AXIS:
        raise ValueError("cannot normalize a (near-)zero quaternion")
    return x / n


def ref_conj(x: Quaternion) -> Quaternion:
    return Quaternion(x.s, -x.v)


def ref_axis(x: Quaternion) -> Quaternion:
    return Quaternion(0.0, x.v / x.v.norm())


def ref_eigenvectors(p: Quaternion, q: Quaternion, *signs: float) -> list[Quaternion]:
    pv, qv = p.v, q.v
    if abs(pv.norm() - 1.0) > EPS_UNIT or abs(qv.norm() - 1.0) > EPS_UNIT:
        raise NotUnit("axes must be unit 3-vectors")
    d = pv.dot(qv)
    diag = (-d, d - 2.0 * pv.x1 * qv.x1, d - 2.0 * pv.x2 * qv.x2, d - 2.0 * pv.x3 * qv.x3)
    us = []
    for s in signs:
        e = (ONE, I, J, K)[diag.index(max(diag) if s > 0.0 else min(diag))]
        us.append(ref_normalized(ref_mul(ref_mul(p, e), q) * s + e))
    return us


def ref_kind(r: Rotation4, eps: float) -> type:
    """The kind rule on the factors' scalar parts and vector-part norms."""
    return rotation_module._kind_of(r.a.s, r.b.s, r.a.v.norm(), r.b.v.norm(), eps)


def ref_half_angle(x: Quaternion) -> float:
    """h in [0, pi] with x = cos(h) + sin(h) axis."""
    return math.atan2(x.v.norm(), x.s)


def ref_plane(u: Quaternion, p: Quaternion, flip: bool) -> Plane:
    """(u, p u), or (u, -p u) when the turn is read the other way round."""
    w = ref_mul(p, u)
    return Plane(u, -w if flip else w)


def ref_classify(r: Rotation4, eps: float):
    """The planes turn by the half-angle sum and difference, each reduced to
    [0, pi] by flipping w."""
    kind = ref_kind(r, eps)
    a, b = r.a, r.b
    if kind is Identity:
        return Identity()
    if kind is RightIsoclinic:
        return RightIsoclinic(math.atan2(b.v.norm(), math.copysign(1.0, a.s) * b.s))
    if kind is LeftIsoclinic:
        if a.v.norm() <= EPS_AXIS:
            return LeftIsoclinic(math.pi)
        return LeftIsoclinic(math.atan2(a.v.norm(), math.copysign(1.0, b.s) * a.s))
    ha, hb = ref_half_angle(a), ref_half_angle(b)
    p, q = ref_axis(a), ref_axis(b)
    u1, u2 = ref_eigenvectors(p, q, -1.0, 1.0)
    total = ha + hb
    first = ref_plane(u1, p, total > math.pi)
    angle1 = 2.0 * math.pi - total if total > math.pi else total
    if kind is Simple:
        return Simple(angle1, ref_plane(u2, p, False), first)
    return Double(first, angle1, ref_plane(u2, p, ha < hb), abs(ha - hb))


def ref_compose(g: Rotation4, f: Rotation4) -> Rotation4:
    return Rotation4(ref_normalized(ref_mul(g.a, f.a)), ref_normalized(ref_mul(f.b, g.b)))


def ref_from_rotation(r: Rotation4) -> GibbsPair:
    if abs(r.a.s) <= EPS_GIBBS or abs(r.b.s) <= EPS_GIBBS:
        raise GibbsSingular("a factor has vanishing scalar part")
    return GibbsPair(r.a.v / r.a.s, r.b.v / r.b.s, r.a.s, r.b.s)


def ref_gibbs_rule(g1: Vec3, g2: Vec3) -> tuple[Vec3, float]:
    den = 1.0 - g2.dot(g1)
    if abs(den) <= EPS_GIBBS:
        raise GibbsSingular("denominator vanishes")
    return (g2 + g1 + g2.cross(g1)) / den, den


def ref_compose_gibbs(f: GibbsPair, g: GibbsPair) -> GibbsPair:
    """Each side refused where its denominator or its composed cosine is at
    or below EPS_GIBBS, the left side first."""
    p, den_p = ref_gibbs_rule(f.p_tilde, g.p_tilde)
    cos_a = f.cos_alpha * g.cos_alpha * den_p
    if abs(cos_a) <= EPS_GIBBS:
        raise GibbsSingular("left composed cosine vanishes")
    q, den_q = ref_gibbs_rule(g.q_tilde, f.q_tilde)
    cos_b = f.cos_beta * g.cos_beta * den_q
    if abs(cos_b) <= EPS_GIBBS:
        raise GibbsSingular("right composed cosine vanishes")
    return GibbsPair(p, q, cos_a, cos_b)


def ref_split(r: Rotation4, eps: float) -> tuple[Quaternion, Quaternion]:
    kind = ref_kind(r, eps)
    if kind is Identity:
        y = ONE
    elif kind is Simple:
        (y,) = ref_eigenvectors(ref_axis(r.a), ref_axis(r.b), -1.0)
    else:
        raise NotSimple(f"a {kind.__name__} rotation, not simple at eps = {eps:.1e}")
    return y, ref_normalized(ref_mul(r.a, y))


def ref_realised(r: Rotation4, y: Quaternion, eps: float) -> tuple[Vec3, Vec3]:
    """The vector parts of the pair (z conj(y), conj(y) z) that the normals
    y and z = a y/|a y| realise: V(a)/|a y| and |V(a)| q/|a y|, or V(a)/|a y|
    twice for the identity, whose pair is (a, a)/|a|."""
    ay = ref_mul(r.a, y)
    n = math.sqrt(ay.s * ay.s + ay.v.norm_sq())
    va = r.a.v / n
    if ref_kind(r, eps) is Identity:
        return va, va
    return va, ref_axis(r.b).v * (r.a.v.norm() * (1.0 / n))


def ref_normals_residual(f: Rotation4, g: Rotation4, eps: float) -> float:
    """s_condition from the factor products of the normals themselves."""
    (y, z), (u, w) = ref_split(f, eps), ref_split(g, eps)
    a, b = ref_mul(z, ref_conj(y)), ref_mul(ref_conj(y), z)
    c, d = ref_mul(w, ref_conj(u)), ref_mul(ref_conj(u), w)
    return c.v.dot(a.v) - b.v.dot(d.v)


def ref_normals_dim(f: Rotation4, g: Rotation4, eps: float) -> tuple[int, tuple[float, ...]]:
    """intersection_dim counted from the normals, as earlier releases did,
    but at eps in radians, and the angles it cut (none when f or g is the
    identity): the arcsines of s1, s2, the singular values of [x1 x2], the
    parts of g's rotation plane (u, p u) in f's fixed plane, with
    x1 = V(conj(y) u) x q and x2 = V(conj(y) p u) x q."""
    if ref_kind(f, eps) is Identity or ref_kind(g, eps) is Identity:
        return 2, ()
    (y, _), (u, _) = ref_split(f, eps), ref_split(g, eps)
    q, yc = ref_axis(f.b).v, ref_conj(y)
    x1 = ref_mul(yc, u).v.cross(q)
    x2 = ref_mul(ref_mul(yc, ref_axis(g.a)), u).v.cross(q)
    total, area = x1.norm_sq() + x2.norm_sq(), x1.cross(x2).norm()
    s1 = math.sqrt((total + math.sqrt(max(0.0, total * total - 4.0 * area * area))) / 2.0)
    s2 = area / s1 if s1 > 0.0 else 0.0
    t1, t2 = math.asin(min(s1, 1.0)), math.asin(min(s2, 1.0))
    return (t1 <= eps) + (t2 <= eps), (t1, t2)


def ref_simplicity(f: Rotation4, g: Rotation4, eps: float) -> SimplicityReport:
    """intersection_dim by the angle rule at eps: left between the axes of
    f.a and g.a, right between those of f.b and g.b."""
    (y, z), (u, w) = ref_split(f, eps), ref_split(g, eps)
    (a, b), (c, d) = ref_realised(f, y, eps), ref_realised(g, u, eps)
    s_condition = c.dot(a) - b.dot(d)
    det = _det4(zip(*[(n.v.x1, n.v.x2, n.v.x3, n.s) for n in (y, z, u, w)]))
    if ref_kind(f, eps) is Identity or ref_kind(g, eps) is Identity:
        dim = 2
    else:
        left, right = (
            math.atan2(one.cross(other).norm(), one.dot(other))
            for one, other in (
                (ref_axis(f.a).v, ref_axis(g.a).v),
                (ref_axis(f.b).v, ref_axis(g.b).v),
            )
        )
        t = (left + right) / 2.0
        dim = (abs(left - right) / 2.0 <= eps) + (min(t, math.pi - t) <= eps)
    return SimplicityReport(s_condition, det, dim, abs(s_condition) <= eps)


def outcome(fn, *args) -> str:
    """repr of the result, or the name of the refusal raised (the messages
    are pinned where each refusal is tested)."""
    try:
        return repr(fn(*args))
    except (NotSimple, GibbsSingular) as exc:
        return type(exc).__name__


# --- the reference oracle: the loop form over rows of floats ----------------


def ref_is_rotation(m: list[list[float]], cols: list[tuple[float, ...]]) -> bool:
    if sum([x * 0.0 for row in m for x in row]) != 0.0:
        return False
    for i, (a0, a1, a2, a3) in enumerate(cols):
        for j, (b0, b1, b2, b3) in enumerate(cols[i:], i):
            if abs(a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 - (i == j)) > EPS_MATRIX:
                return False
    return abs(_det4(m) - 1.0) <= EPS_MATRIX


def ref_pair_split(n: list[list[float]], norm: float) -> float:
    quarter = norm * norm / 4.0
    r_sq = 0.0
    for i, (a0, a1, a2, a3) in enumerate(n):
        for j, (b0, b1, b2, b3) in enumerate(n[i:], i):
            x = a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
            r_sq += (x - quarter) ** 2 if i == j else 2.0 * x * x
    return math.sqrt(2.0 * r_sq) / norm


def ref_bases(n: list[list[float]], norm: float):
    p1 = [[x / norm for x in row] for row in n]
    p2 = [[-x for x in row] for row in p1]
    for i in range(4):
        p1[i][i] += 0.5
        p2[i][i] += 0.5
    basis1, basis2 = _basis(p1), _basis(p2)
    return None if basis1 is None or basis2 is None else (basis1, basis2)


def ref_planes_from_matrix(matrix, eps: float) -> OraclePlanes:
    m = _rows(matrix)
    cols = list(zip(*m))
    if not ref_is_rotation(m, cols):
        raise ValueError("matrix is not a rotation (orthogonal, det +1) to tolerance")
    mean = (m[0][0] + m[1][1] + m[2][2] + m[3][3]) / 2.0
    n = [[x + y for x, y in zip(row, col)] for row, col in zip(m, cols)]
    for i in range(4):
        n[i][i] -= mean
    norm = math.hypot(*[x for row in n for x in row])
    isoclinic = norm <= eps
    if not isoclinic:
        split = ref_pair_split(n, norm) if norm > 0.0 else 0.0
        if split > eps:
            raise PairingFailure(
                f"eigenvalues of M + M^T split by {split:.3e} within a pair, above eps = {eps:.1e}"
            )
    bases = ref_bases(n, norm) if norm > 0.0 else None
    if bases is None:
        if not isoclinic:
            raise PairingFailure(f"planes of M + M^T not resolved at eps = {eps:.1e}")
        bases = _FIXED_SPLIT
    a01, a02, a03 = (m[0][1] - m[1][0]) / 2.0, (m[0][2] - m[2][0]) / 2.0, (m[0][3] - m[3][0]) / 2.0
    a12, a13, a23 = (m[1][2] - m[2][1]) / 2.0, (m[1][3] - m[3][1]) / 2.0, (m[2][3] - m[3][2]) / 2.0
    out = []
    for (u, w), pair_mean in zip(bases, (mean + norm / 2.0, mean - norm / 2.0)):
        u0, u1, u2, u3 = u.components()
        sine = math.hypot(
            a01 * u1 + a02 * u2 + a03 * u3,
            a12 * u2 + a13 * u3 - a01 * u0,
            a23 * u3 - a02 * u0 - a12 * u1,
            -a03 * u0 - a13 * u1 - a23 * u2,
        )
        out.append((Plane(u, w), math.atan2(sine, pair_mean / 2.0)))
    (plane1, angle1), (plane2, angle2) = out
    return OraclePlanes(plane1, angle1, plane2, angle2, isoclinic)


def ref_projector_distance(p1: Plane, p2: Plane) -> float:
    rows = list(zip(p1.u.components(), p1.w.components(), p2.u.components(), p2.w.components()))
    return max(
        abs(ui * uj + wi * wj - (xi * xj + yi * yj))
        for i, (ui, wi, xi, yi) in enumerate(rows)
        for uj, wj, xj, yj in rows[i:]
    )


def ref_to_matrix(r: Rotation4) -> list[list[float]]:
    s, x1, x2, x3 = r.a.components()
    t, y1, y2, y3 = r.b.components()
    left = ((s, -x1, -x2, -x3), (x1, s, -x3, x2), (x2, x3, s, -x1), (x3, -x2, x1, s))
    right_cols = ((t, y1, y2, y3), (-y1, t, -y3, y2), (-y2, y3, t, -y1), (-y3, -y2, y1, t))
    return [
        [l0 * c0 + l1 * c1 + l2 * c2 + l3 * c3 for c0, c1, c2, c3 in right_cols]
        for l0, l1, l2, l3 in left
    ]


def oracle_outcome(fn, matrix, eps: float) -> str:
    """repr of the result, or the type and message of the refusal."""
    try:
        return repr(fn(matrix, eps))
    except (ValueError, PairingFailure) as exc:
        return f"{type(exc).__name__}: {exc}"


# --- inputs ----------------------------------------------------------------

# exact values and signed zeros, where a change of order shows in the sign
# of a zero, and half-angles that sum to exactly pi
_COMP = st.sampled_from([-1.0, -R2, -0.5, -0.0, 0.0, 0.5, R2, 1.0]) | st.floats(-1.0, 1.0)


@st.composite
def _units(draw) -> Quaternion:
    c = draw(st.tuples(_COMP, _COMP, _COMP, _COMP))
    n = math.sqrt(sum(x * x for x in c))
    assume(n >= 0.1)
    return Quaternion.of(*(x / n for x in c))


@st.composite
def _rotations(draw) -> Rotation4:
    """A generic pair, a simple one (b with a's scalar part), a near-simple
    one, or a pair with a factor +-1 or within EPS_AXIS of it."""
    a, b = draw(_units()), draw(_units())
    mode = draw(st.sampled_from(["generic", "simple", "near-simple", "real", "near-real"]))
    if mode in ("simple", "near-simple"):
        gap = 0.0 if mode == "simple" else draw(st.sampled_from([1e-11, 5e-9, 2e-8]))
        s = max(-1.0, min(1.0, a.s - gap))
        assume(b.v.norm() >= 0.1)
        b = Quaternion(s, b.v * (math.sqrt(1.0 - s * s) / b.v.norm()))
    elif mode == "real":
        b = Quaternion(draw(st.sampled_from([1.0, -1.0])))
    elif mode == "near-real":
        assume(b.v.norm() >= 0.1)
        vn = draw(st.sampled_from([5e-10, 2e-9]))
        b = Quaternion(math.sqrt(1.0 - vn * vn), b.v * (vn / b.v.norm()))
    pair = (a, b) if draw(st.booleans()) else (b, a)
    return Rotation4(*pair)


_EPSILONS = st.sampled_from([1e-12, DEFAULT_EPS, 0.3])


@st.composite
def _unit3(draw) -> Vec3:
    c = draw(st.tuples(_COMP, _COMP, _COMP))
    n = math.sqrt(sum(x * x for x in c))
    assume(n >= 0.1)
    return Vec3(*(x / n for x in c))


def _factor(s: float, axis: Vec3) -> Quaternion:
    return Quaternion(s, axis * math.sqrt(max(0.0, 1.0 - s * s)))


@st.composite
def _edge_rotations(draw) -> Rotation4:
    """A pair at the tolerance edges: a with |V(a)| near EPS_AXIS, S(a)
    near EPS_GIBBS or S(a) anywhere, either sign; b independent, with
    |S(a) - S(b)| near DEFAULT_EPS, or with its axis near +-p."""
    p, sign = draw(_unit3()), draw(st.sampled_from([1.0, -1.0]))
    mode = draw(st.sampled_from(["axis", "gibbs", "any"]))
    if mode == "axis":
        vn = draw(st.sampled_from([0.0, 5e-10, EPS_AXIS, 1.5e-9, 2e-9]))
        a = Quaternion(sign * math.sqrt(1.0 - vn * vn), p * vn)
    else:
        s = draw(st.sampled_from([0.0, 5e-10, EPS_GIBBS, 2e-9]) if mode == "gibbs" else _COMP)
        a = _factor(sign * s, p)
    mode = draw(st.sampled_from(["independent", "near-simple", "near-axis"]))
    if mode == "independent":
        b = _factor(draw(_COMP), draw(_unit3()))
    else:
        gap = draw(st.sampled_from([0.0, 1e-11, 5e-9, DEFAULT_EPS, 1.5e-8, 2e-8]))
        s = max(-1.0, min(1.0, a.s - draw(st.sampled_from([1.0, -1.0])) * gap))
        q = draw(_unit3())
        if mode == "near-axis":
            tilt = draw(st.sampled_from([0.0, 1e-10, 1e-9, 1e-8, 1e-6]))
            q = p * draw(st.sampled_from([1.0, -1.0])) + q * tilt
            q = q / q.norm()
            s = draw(st.sampled_from([s, draw(_COMP)]))
        b = _factor(s, q)
    pair = (a, b) if draw(st.booleans()) else (b, a)
    return Rotation4(*pair)


@st.composite
def _matrices(draw) -> list[list[float]]:
    """The matrix of a rotation of any kind of _rotations: as built, with one
    to three entries moved by 1e-10 to 1e-6 (across the EPS_MATRIX gates and
    the pairing test), or with one entry NaN or infinite; or diag(d, d, d, 1)
    for d from 1 down to 8 units of rounding below it, the identity and
    matrices whose N is rounding noise."""
    mode = draw(st.sampled_from(["exact", "perturbed", "non-finite", "diagonal"]))
    if mode == "diagonal":
        d = 1.0 - draw(st.integers(0, 8)) * 2.0**-52
        return [[d, 0.0, 0.0, 0.0], [0.0, d, 0.0, 0.0], [0.0, 0.0, d, 0.0], [0.0, 0.0, 0.0, 1.0]]
    m = to_matrix(draw(_rotations()))
    cell = st.tuples(st.integers(0, 3), st.integers(0, 3))
    if mode == "perturbed":
        shift = st.sampled_from([1e-10, -1e-9, 5e-9, -1e-8, 2e-8, -1e-7, 1e-6, -1e-6])
        for i, j in draw(st.lists(cell, min_size=1, max_size=3)):
            m[i][j] += draw(shift)
    elif mode == "non-finite":
        i, j = draw(cell)
        m[i][j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return m


@st.composite
def _planes(draw) -> Plane:
    """(u, w) with w the unit part of a second unit quaternion orthogonal to u."""
    u, other = draw(_units()), draw(_units())
    us, vs = u.components(), other.components()
    along = sum(x * y for x, y in zip(us, vs))
    rest = [y - along * x for x, y in zip(us, vs)]
    n = math.sqrt(sum(x * x for x in rest))
    assume(n >= 0.1)
    return Plane(u, Quaternion.of(*(x / n for x in rest)))


_ORACLE_EPSILONS = st.sampled_from([0.0, 1e-15, 1e-8, 1e-3])


_NEAR_ONE = Rotation4(Quaternion.of(1.0, 5e-10, 0.0, 0.0), Quaternion.of(1.0, 0.0, -5e-10, 0.0))
_AT_EPS = Rotation4(
    Quaternion.of(0.5, 0.5, 0.5, 0.5), Quaternion.of(0.25, 0.0, math.sqrt(0.9375), 0.0)
)  # |S(a)-S(b)| = 0.25
_DOUBLE = Rotation4(Quaternion.of(0.5, 0.5, 0.5, -0.5), Quaternion.of(R2, R2, 0.0, 0.0))
# factors on the axes (1, 0, 0), (0, -1, 0) and +-(0, 0.6, -0.8): simple,
# double, simple with q = -p, and double with q = p
_AXES_SIMPLE = Rotation4(Quaternion.of(0.6, 0.8, 0.0, 0.0), Quaternion.of(0.6, 0.0, -0.8, 0.0))
_AXES_DOUBLE = Rotation4(Quaternion.of(R2, 0.0, -R2, 0.0), Quaternion.of(0.8, 0.0, 0.36, -0.48))
_AXES_OPPOSITE = Rotation4(
    Quaternion.of(0.8, 0.0, -0.36, 0.48), Quaternion.of(0.8, 0.0, 0.36, -0.48)
)
_AXES_EQUAL = Rotation4(Quaternion.of(0.6, 0.8, 0.0, 0.0), Quaternion.of(0.8, 0.6, 0.0, 0.0))


class TestMatchesObjectArithmetic:
    def test_public_wrappers(self):
        x, y = Quaternion.of(0.5, -0.5, 0.5, 0.5), Quaternion.of(R2, 0.0, -R2, 0.0)
        for a, b in ((x, y), (y, x), (I, J), (ONE, -K)):
            assert repr(mul(a, b)) == repr(ref_mul(a, b))
            assert repr(normalized(a * 3.0 + b)) == repr(ref_normalized(a * 3.0 + b))

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(f=_rotations(), g=_rotations(), eps=_EPSILONS)
    @example(  # half-angles sum to exactly pi: +pi on (u, p u); measuring the image
        # of u read its component -0.0 along w as the angle -pi
        f=Rotation4(Quaternion.of(0.0, 0.0, 0.0, -1.0), Quaternion.of(0.0, 0.0, R2, -R2)),
        g=Rotation4(ONE, K),
        eps=DEFAULT_EPS,
    )
    # each exit of the split: f the identity; g with both factors within
    # EPS_AXIS of 1, the identity with z = a/|a| off 1; |S(a)-S(b)| = eps
    # exactly; f, then g, Double; a NaN eps, which no |S(a)-S(b)| passes
    @example(f=Rotation4(ONE, ONE), g=GOLDEN_G, eps=DEFAULT_EPS)
    @example(f=GOLDEN_F, g=_NEAR_ONE, eps=DEFAULT_EPS)
    # the identity _NEAR_ONE, its factors' vector parts 5e-10, on either
    # side: |s_condition| is about 3.5e-10, above eps = 1e-12, so not simple
    @example(f=_NEAR_ONE, g=GOLDEN_F, eps=1e-12)
    @example(f=GOLDEN_F, g=_NEAR_ONE, eps=1e-12)
    @example(f=_AT_EPS, g=GOLDEN_G, eps=0.25)
    @example(f=_DOUBLE, g=GOLDEN_G, eps=DEFAULT_EPS)
    @example(f=GOLDEN_F, g=_DOUBLE, eps=DEFAULT_EPS)
    @example(f=GOLDEN_F, g=GOLDEN_G, eps=math.nan)
    # coordinate-axis factors: p e_k and the eigenvectors have exact zeros,
    # whose signs the closed form of p e_k must keep
    @example(f=_AXES_SIMPLE, g=_AXES_OPPOSITE, eps=DEFAULT_EPS)
    @example(f=_AXES_OPPOSITE, g=_AXES_SIMPLE, eps=DEFAULT_EPS)
    @example(f=_AXES_DOUBLE, g=_AXES_SIMPLE, eps=DEFAULT_EPS)
    @example(f=_AXES_EQUAL, g=_AXES_DOUBLE, eps=0.3)
    def test_results(self, f, g, eps):
        assert outcome(classify, f, eps) == outcome(ref_classify, f, eps)
        assert outcome(compose, g, f) == outcome(ref_compose, g, f)
        got = outcome(simple_to_reflections, f, eps)
        want = outcome(lambda: tuple(map(ReflectionNormal, ref_split(f, eps))))
        assert got == want
        got = outcome(is_composition_simple, f, g, eps)
        assert got == outcome(ref_simplicity, f, g, eps)
        if got.startswith("SimplicityReport"):
            report = is_composition_simple(f, g, eps)
            assert abs(report.s_condition - ref_normals_residual(f, g, eps)) <= 4e-15
            dim, angles = ref_normals_dim(f, g, eps)
            if all(abs(x - eps) > 1e-14 for x in angles):
                assert report.intersection_dim == dim
        if min(abs(f.a.s), abs(f.b.s), abs(g.a.s), abs(g.b.s)) > EPS_GIBBS:
            gf, gg = GibbsPair.from_rotation(f), GibbsPair.from_rotation(g)
            assert outcome(compose_gibbs, gf, gg) == outcome(ref_compose_gibbs, gf, gg)


class TestComposePathMatchesObjectArithmetic:
    """The compose path as the benchmark runs it, each step against its
    reference: classify(compose(g, f)), and the Gibbs chart from
    from_rotation through compose_gibbs to composed_planes_from_gibbs."""

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(f=_edge_rotations(), g=_edge_rotations(), eps=_EPSILONS)
    def test_chain(self, f, g, eps):
        got = outcome(lambda: classify(compose(g, f), eps))
        assert got == outcome(lambda: ref_classify(ref_compose(g, f), eps))
        got = outcome(lambda: compose_gibbs(*map(GibbsPair.from_rotation, (f, g))))
        want = outcome(lambda: ref_compose_gibbs(*map(ref_from_rotation, (f, g))))
        assert got == want
        if got.startswith("GibbsPair"):
            h = compose_gibbs(GibbsPair.from_rotation(f), GibbsPair.from_rotation(g))
            kind = ref_classify(h.to_rotation(), DEFAULT_EPS)
            if isinstance(kind, Simple):
                want = (kind.rotation_plane, kind.fixed_plane, kind.angle, 0.0)
            elif isinstance(kind, Double):
                want = (kind.plane1, kind.plane2, kind.angle1, kind.angle2)
            else:
                return
            assert repr(composed_planes_from_gibbs(h)) == repr(want)


class TestOracleMatchesLoopForm:
    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(matrix=_matrices(), eps=_ORACLE_EPSILONS)
    def test_planes_from_matrix(self, matrix, eps):
        got = oracle_outcome(planes_from_matrix, matrix, eps)
        assert got == oracle_outcome(ref_planes_from_matrix, matrix, eps)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(p1=_planes(), p2=_planes())
    def test_projector_distance(self, p1, p2):
        assert repr(projector_distance(p1, p2)) == repr(ref_projector_distance(p1, p2))
        assert repr(projector_distance(p1, p1)) == repr(ref_projector_distance(p1, p1))

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(r=_rotations())
    def test_to_matrix(self, r):
        assert repr(to_matrix(r)) == repr(ref_to_matrix(r))


class TestAllocation:
    """Only results are built: every Quaternion of the kernels' callers goes
    through _quat, counted here in each module that imports it, as the
    oracle's test counts _finite."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls, original = [], quat_module._quat

        def counting(*components):
            calls.append(components)
            return original(*components)

        for module in (quat_module, rotation_module, compose_module):
            if "_quat" in vars(module):
                monkeypatch.setattr(module, "_quat", counting)
        return calls

    def test_classify_builds_its_four_plane_vectors(self, built):
        r = Rotation4(Quaternion.of(0.5, 0.5, 0.5, -0.5), Quaternion.of(R2, R2, 0.0, 0.0))
        kind = classify(r)
        assert isinstance(kind, Double)
        planes = (kind.plane1, kind.plane2)
        assert built == [c for p in planes for c in (p.u.components(), p.w.components())]

    def test_compose_builds_its_two_factors(self, built):
        f = Rotation4(Quaternion.of(0.8, 0.6, 0.0, 0.0), Quaternion.of(0.8, 0.0, 0.0, -0.6))
        h = compose(f, f)
        assert built == [h.a.components(), h.b.components()]

    def test_compose_negates_by_the_sign_rule(self, built):
        # the product's leading component is negative: compose negates both
        # on the floats and builds only the two factors it keeps
        h = compose(Rotation4(K, K), Rotation4(K, ONE))
        assert built == [h.a.components(), h.b.components()]
        assert h == Rotation4(ONE, -K)

    def test_split_and_simplicity(self, built):
        f = Rotation4(Quaternion.of(R2, R2, 0.0, 0.0), Quaternion.of(R2, 0.0, R2, 0.0))
        g = Rotation4(Quaternion.of(R2, 0.0, R2, 0.0), Quaternion.of(R2, 0.0, 0.0, R2))
        ny, nz = simple_to_reflections(f)
        assert built == [ny.q.components(), nz.q.components()]
        built.clear()
        is_composition_simple(f, g)
        assert built == []

    def test_admission_calls_no_finite(self, monkeypatch):
        # Quaternion.of, from_array and Rotation4 admit finite unit input in
        # line; _finite runs only on the way to a refusal
        calls, original = [], quat_module._finite

        def counting(name, value):
            calls.append(name)
            return original(name, value)

        monkeypatch.setattr(quat_module, "_finite", counting)
        f = Rotation4(Quaternion.of(R2, R2, 0.0, 0.0), Quaternion.from_array([R2, 0.0, R2, 0]))
        g = Rotation4(Quaternion.of(R2, 0, R2, 0), Quaternion.from_array(np.array([R2, 0, 0, R2])))
        is_composition_simple(f, g)
        assert calls == []
        with pytest.raises(ValueError, match="x2 must be finite"):
            Quaternion.of(1.0, 0.0, math.inf, 0.0)
        assert calls == ["x1", "x2"]
