import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rot4 import (
    EPS_UNIT,
    DegenerateAxis,
    Double,
    GibbsPair,
    GibbsSingular,
    Identity,
    NotSimple,
    NotUnit,
    ONE,
    Plane,
    Quaternion,
    ReflectionNormal,
    Rotation4,
    Simple,
    Vec3,
    apply,
    classify,
    compose,
    compose_gibbs,
    composed_planes_from_gibbs,
    conj,
    from_reflections,
    gibbs_from_unit,
    is_composition_simple,
    mul,
    norm_sq,
    planes_from_matrix,
    projector_distance,
    pure,
    rodrigues_compose,
    simple_to_reflections,
    to_matrix,
    unit_from_gibbs,
)
from rot4.cli import random_rotation
from rot4.quat import PIVOT_TOL
from conftest import EPS_ALG, comp_diff, matrix_of, rand_unit_quat, rand_unit_vec3, same_plane

R2 = 1.0 / math.sqrt(2.0)

GOLDEN_F = Rotation4(Quaternion.of(R2, R2, 0, 0), Quaternion.of(R2, 0, R2, 0))
GOLDEN_G = Rotation4(Quaternion.of(R2, 0, R2, 0), Quaternion.of(R2, 0, 0, R2))


def rand_rotation(rng) -> Rotation4:
    return Rotation4(rand_unit_quat(rng), rand_unit_quat(rng))


def rand_simple(rng) -> Rotation4:
    return from_reflections(
        ReflectionNormal(rand_unit_quat(rng)), ReflectionNormal(rand_unit_quat(rng))
    )


def rand_gibbs_rotation(rng) -> Rotation4:
    """Random rotation whose factors keep safely nonzero scalar parts."""
    half_a = rng.uniform(0.05, 1.45)
    half_b = rng.uniform(0.05, 1.45)
    a = Quaternion(math.cos(half_a), rand_unit_vec3(rng) * math.sin(half_a))
    b = Quaternion(math.cos(half_b), rand_unit_vec3(rng) * math.sin(half_b))
    return Rotation4(a, b)


class TestCompose:
    def test_golden(self):
        h = compose(GOLDEN_G, GOLDEN_F)
        assert comp_diff(h.a, Quaternion.of(0.5, 0.5, 0.5, -0.5)) <= 1e-12
        assert comp_diff(h.b, Quaternion.of(0.5, 0.5, 0.5, 0.5)) <= 1e-12

    def test_identity_neutral(self, rng):
        f = rand_rotation(rng)
        assert comp_diff(compose(Rotation4.identity(), f).a, f.a) <= 1e-15
        assert comp_diff(compose(f, Rotation4.identity()).b, f.b) <= 1e-15

    def test_pointwise(self, rng):
        for _ in range(200):
            f, g = rand_rotation(rng), rand_rotation(rng)
            x = Quaternion.from_array(rng.standard_normal(4))
            assert comp_diff(apply(compose(g, f), x), apply(g, apply(f, x))) <= 1e-12

    def test_matrix_homomorphism(self, rng):
        for _ in range(500):
            f, g = rand_rotation(rng), rand_rotation(rng)
            lhs = matrix_of(compose(g, f))
            rhs = matrix_of(g) @ matrix_of(f)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_angles_independent_of_order(self, rng):
        for _ in range(50):
            f, g = rand_rotation(rng), rand_rotation(rng)
            k1 = classify(compose(g, f))
            k2 = classify(compose(f, g))
            if not (isinstance(k1, Double) and isinstance(k2, Double)):
                continue
            assert abs(sorted([k1.angle1, k1.angle2])[0] - sorted([k2.angle1, k2.angle2])[0]) <= 1e-9
            assert abs(sorted([k1.angle1, k1.angle2])[1] - sorted([k2.angle1, k2.angle2])[1]) <= 1e-9


class TestSimplicity:
    def test_golden_pair_is_simple(self):
        report = is_composition_simple(GOLDEN_F, GOLDEN_G)
        assert report.is_simple
        assert report.intersection_dim >= 1
        assert abs(report.s_condition) <= 1e-12
        assert abs(report.s_condition + 2 * report.det_normals) <= 1e-9

    def test_rotation_with_itself(self, rng):
        f = rand_simple(rng)
        report = is_composition_simple(f, f)
        assert report.is_simple
        assert report.intersection_dim == 2

    def test_generic_pair_not_simple(self, rng):
        count_double = 0
        for _ in range(100):
            f, g = rand_simple(rng), rand_simple(rng)
            report = is_composition_simple(f, g)
            composed_kind = classify(compose(g, f))
            if report.is_simple:
                assert isinstance(composed_kind, (Simple, Identity))
            else:
                assert isinstance(composed_kind, Double)
                count_double += 1
        assert count_double >= 95  # generic pairs compose to double rotations

    def test_determinant_identity(self, rng):
        # columns ordered vector-components-first; with scalar-first columns
        # the same identity holds with +2 instead of -2
        for _ in range(500):
            y, z, u, w = (rand_unit_quat(rng) for _ in range(4))
            a, b = mul(z, conj(y)), mul(conj(y), z)
            c, d = mul(w, conj(u)), mul(conj(u), w)
            s_condition = c.v.dot(a.v) - b.v.dot(d.v)
            det = np.linalg.det(
                np.column_stack(
                    [[q.v.x1, q.v.x2, q.v.x3, q.s] for q in (y, z, u, w)]
                )
            )
            assert abs(s_condition + 2 * det) <= 1e-9

    def test_condition_matches_scalar_part_defect(self, rng):
        # S(ca) - S(bd) equals minus the simplicity residual for simple inputs
        for _ in range(100):
            f, g = rand_simple(rng), rand_simple(rng)
            report = is_composition_simple(f, g)
            h = compose(g, f)
            assert abs(abs(h.a.s - h.b.s) - abs(report.s_condition)) <= 1e-12

    def test_rejects_double_input(self, rng):
        while True:
            r = rand_rotation(rng)
            if isinstance(classify(r), Double):
                break
        with pytest.raises(NotSimple):
            is_composition_simple(r, rand_simple(rng))

    @pytest.mark.parametrize("which", ["f", "g"])
    def test_not_simple_names_the_factor_and_ends_in_the_split(self, which):
        double = Rotation4(Quaternion.of(0.5, 0.5, 0.5, -0.5), Quaternion.of(R2, R2, 0, 0))
        f, g = (double, GOLDEN_G) if which == "f" else (GOLDEN_F, double)
        with pytest.raises(NotSimple) as info:
            is_composition_simple(f, g)
        assert str(info.value) == (
            f"{which} is not a simple rotation: a Double rotation, not simple at eps = 1.0e-08"
        )
        tb = info.value.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        assert tb.tb_frame.f_code.co_name == "_split"

    def test_nan_eps_is_not_refused_and_nothing_is_simple(self):
        # only the CLI's parser refuses a NaN eps; the library compares
        # |S(a)-S(b)| <= eps, which NaN fails, so a simple f reads Double
        assert isinstance(classify(GOLDEN_F, math.nan), Double)
        with pytest.raises(NotSimple) as info:
            is_composition_simple(GOLDEN_F, GOLDEN_G, math.nan)
        assert str(info.value) == (
            "f is not a simple rotation: a Double rotation, not simple at eps = nan"
        )

    def test_identity_fixes_all_of_e4(self, rng):
        # the identity's fixed plane is all of E4, so it meets any fixed
        # plane in that plane; a turn of 1e-10 is the identity at EPS_AXIS
        identity, g = Rotation4.identity(), rand_simple(rng)
        y = _unit(rng.standard_normal(4))
        tiny = _from_normals(y, np.cos(5e-11) * y + np.sin(5e-11) * _perp(rng, y))
        assert isinstance(classify(tiny), Identity)
        for f, h in ((identity, identity), (identity, g), (g, identity), (tiny, g)):
            assert is_composition_simple(f, h).intersection_dim == 2


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _perp(rng, *vs) -> np.ndarray:
    """A random unit vector orthogonal to the unit vectors vs."""
    x = rng.standard_normal(4)
    for v in vs:
        x -= (x @ v) * v
    return _unit(x)


def _from_normals(y, z) -> Rotation4:
    return from_reflections(
        ReflectionNormal(Quaternion.from_array(y)), ReflectionNormal(Quaternion.from_array(z))
    )


def _split_normals(f: Rotation4, g: Rotation4) -> np.ndarray:
    """The normals y, z, u, w that is_composition_simple splits f and g
    into, as the rows of an array, scalar last."""
    normals = simple_to_reflections(f) + simple_to_reflections(g)
    return np.array([[*n.q.v.components(), n.q.s] for n in normals])


def _principal_sines(normals: np.ndarray) -> np.ndarray:
    """Sines of the principal angles between the fixed planes, the
    orthogonal complements of span(y, z) and of span(u, w): the singular
    values of an orthonormal basis of the first projected onto span(u, w)."""
    fixed_f = np.linalg.svd(normals[:2])[2][2:]
    span_g = np.linalg.qr(normals[2:].T)[0]
    return np.linalg.svd(fixed_f @ span_g, compute_uv=False)


def _stacked_dim(f: Rotation4, g: Rotation4) -> int:
    """The nullity of the stacked normals at PIVOT_TOL, by numpy's SVD."""
    values = np.linalg.svd(_split_normals(f, g), compute_uv=False)
    return 4 - int((values > PIVOT_TOL).sum())


def _shared_tilted(rng, t: float) -> tuple[Rotation4, Rotation4]:
    """Simple f and g whose four normals are orthogonal to one unit v, with
    g's second normal then tilted towards v by t."""
    v = _unit(rng.standard_normal(4))
    y, z, u, w = (_perp(rng, v) for _ in range(4))
    return _from_normals(y, z), _from_normals(u, _unit(w + t * v))


def _small_turn(rng, t: float) -> tuple[Rotation4, Rotation4]:
    """A simple f turning by t and a generic simple g."""
    y = _unit(rng.standard_normal(4))
    f = _from_normals(y, np.cos(t / 2) * y + np.sin(t / 2) * _perp(rng, y))
    return f, _from_normals(_unit(rng.standard_normal(4)), _unit(rng.standard_normal(4)))


_COORD = st.floats(-1.0, 1.0)
_VEC4 = st.tuples(_COORD, _COORD, _COORD, _COORD)


class TestIntersectionDim:
    """intersection_dim counts the principal sines between the two fixed
    planes at or below PIVOT_TOL; det_normals is the determinant of the
    stacked normals."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(v_raw=_VEC4, raws=st.tuples(_VEC4, _VEC4, _VEC4, _VEC4), log_t=st.floats(-12.0, -6.0))
    def test_matches_numpy_on_tilted_shared_lines(self, v_raw, raws, log_t):
        assume(np.linalg.norm(v_raw) >= 0.1)
        v = _unit(v_raw)
        projected = [np.array(raw) - (np.array(raw) @ v) * v for raw in raws]
        assume(min(np.linalg.norm(x) for x in projected) >= 0.1)
        y, z, u, w = (_unit(x) for x in projected)
        assume(abs(y @ z) <= 0.99 and abs(u @ w) <= 0.99)
        f, g = _from_normals(y, z), _from_normals(u, _unit(w + 10.0**log_t * v))
        report = is_composition_simple(f, g)
        normals = _split_normals(f, g)
        sines = _principal_sines(normals)
        assume(np.abs(sines - PIVOT_TOL).min() > 1e-14)
        assert report.intersection_dim == int((sines <= PIVOT_TOL).sum())
        assert abs(report.det_normals - np.linalg.det(normals)) <= 1e-15

    @pytest.mark.parametrize(
        "make, t, count, changed",
        [
            (_shared_tilted, 1e-9, 400, 28),
            (_shared_tilted, 1e-10, 400, 130),
            (_small_turn, 2.5e-9, 300, 29),
        ],
        ids=["tilt-1e-9", "tilt-1e-10", "turn-2.5e-9"],
    )
    def test_band_against_stacked_normals(self, make, t, count, changed):
        """The nullity of the stacked normals at PIVOT_TOL also reads 0 or 1
        here, but their singular values are not the principal sines.  Near
        the cut the two differ, always as the stacked normals' 1 against 0.
        With f turning by 2.5e-9 the stacked normals are ill-conditioned,
        while f's fixed plane is well defined and meets g's only at 0."""
        rng = np.random.default_rng(7)
        pairs = Counter()
        for _ in range(count):
            f, g = make(rng, t)
            dim = is_composition_simple(f, g).intersection_dim
            assert dim == int((_principal_sines(_split_normals(f, g)) <= PIVOT_TOL).sum())
            pairs[_stacked_dim(f, g), dim] += 1
        assert {k: n for k, n in pairs.items() if k[0] != k[1]} == {(1, 0): changed}


class TestComposeGibbs:
    def test_golden_parameters(self):
        gf = GibbsPair.from_rotation(GOLDEN_F)
        gg = GibbsPair.from_rotation(GOLDEN_G)
        gh = compose_gibbs(gf, gg)
        assert comp_diff(pure(gh.p_tilde), Quaternion.of(0, 1, 1, -1)) <= 1e-12
        assert comp_diff(pure(gh.q_tilde), Quaternion.of(0, 1, 1, 1)) <= 1e-12
        assert abs(gh.cos_alpha - 0.5) <= 1e-12
        assert abs(gh.cos_beta - 0.5) <= 1e-12

    def test_matches_quaternion_route(self, rng):
        done = 0
        while done < 300:
            f = rand_gibbs_rotation(rng)
            g = rand_gibbs_rotation(rng)
            gf, gg = GibbsPair.from_rotation(f), GibbsPair.from_rotation(g)
            if abs(1 - gg.p_tilde.dot(gf.p_tilde)) < 0.1:
                continue
            if abs(1 - gf.q_tilde.dot(gg.q_tilde)) < 0.1:
                continue
            done += 1
            via_rules = compose_gibbs(gf, gg)
            extracted = GibbsPair.from_rotation(compose(g, f))
            assert comp_diff(pure(via_rules.p_tilde), pure(extracted.p_tilde)) <= 1e-10
            assert comp_diff(pure(via_rules.q_tilde), pure(extracted.q_tilde)) <= 1e-10
            sign = 1.0 if via_rules.cos_alpha * extracted.cos_alpha > 0 else -1.0
            assert abs(via_rules.cos_alpha - sign * extracted.cos_alpha) <= 1e-10
            assert abs(via_rules.cos_beta - sign * extracted.cos_beta) <= 1e-10

    def test_sides_are_the_3d_rule_in_opposite_orders(self, rng):
        for _ in range(200):
            gf = GibbsPair.from_rotation(rand_gibbs_rotation(rng))
            gg = GibbsPair.from_rotation(rand_gibbs_rotation(rng))
            try:
                gh = compose_gibbs(gf, gg)
            except GibbsSingular:
                continue
            assert gh.p_tilde == rodrigues_compose(gf.p_tilde, gg.p_tilde)
            assert gh.q_tilde == rodrigues_compose(gg.q_tilde, gf.q_tilde)

    def test_singular_denominator(self):
        f = Rotation4(unit_from_gibbs(Vec3(1, 0, 0)), unit_from_gibbs(Vec3(0, 1, 0)))
        g = Rotation4(unit_from_gibbs(Vec3(1, 0, 0)), unit_from_gibbs(Vec3(0, 0, 1)))
        with pytest.raises(GibbsSingular):
            compose_gibbs(GibbsPair.from_rotation(f), GibbsPair.from_rotation(g))
        # the quaternion chart keeps working where the Gibbs chart fails
        h = compose(g, f)
        assert isinstance(classify(h), (Simple, Double, Identity))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_singular_composed_cosine(self, side):
        # half-angles pi/2 - 1e-5 and 1e-5 - 1e-10 about one axis compose to
        # a cosine of about 1e-10, below EPS_GIBBS, though the denominator
        # 1 - g2.g1 is about 1e-5: refused as from_rotation refuses it
        def turn(h):
            return Quaternion(math.cos(h), Vec3(1, 0, 0) * math.sin(h))

        factors = [(turn(math.pi / 2 - 1e-5), ONE), (turn(1e-5 - 1e-10), ONE)]
        order = 1 if side == "left" else -1
        f, g = (Rotation4(*pair[::order]) for pair in factors)
        with pytest.raises(GibbsSingular, match=f"^{side} composed cosine"):
            compose_gibbs(GibbsPair.from_rotation(f), GibbsPair.from_rotation(g))
        with pytest.raises(GibbsSingular):
            GibbsPair.from_rotation(compose(g, f))
        # both sides singular: the left side is refused first
        f, g = (Rotation4(a, a) for a, _ in factors)
        with pytest.raises(GibbsSingular, match="^left composed cosine"):
            compose_gibbs(GibbsPair.from_rotation(f), GibbsPair.from_rotation(g))

    def test_from_rotation_rejects_pure_factor(self):
        r = Rotation4(Quaternion.of(0, 1, 0, 0), ONE)
        with pytest.raises(GibbsSingular):
            GibbsPair.from_rotation(r)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            GibbsPair(Vec3(1, 0, 0), Vec3(), 0.9, 1.0)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_pair_rejects_nan_cosine(self, side):
        cosines = (float("nan"), 1.0) if side == "left" else (1.0, float("nan"))
        with pytest.raises(ValueError, match=f"{side} data is inconsistent"):
            GibbsPair(Vec3(), Vec3(), *cosines)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_pair_gate_where_the_scale_overflows(self, side):
        # 1 + |g|^2 is inf: the pair is taken on the factor cos (1 + g) it
        # rebuilds, so cos = 1 is refused and the consistent cos = 1e-200 kept
        def pair(cos):
            big = Vec3(0.0, 1e200, 0.0)
            if side == "left":
                return GibbsPair(big, Vec3(), cos, 1.0)
            return GibbsPair(Vec3(), big, 1.0, cos)

        with pytest.raises(ValueError) as info:
            pair(1.0)
        assert str(info.value) == f"{side} data is inconsistent: cos^2*(1+|g|^2) = inf, expected 1"
        r = pair(1e-200).to_rotation()
        factor = r.a if side == "left" else r.b
        assert comp_diff(factor, Quaternion.of(0.0, 0.0, 1.0, 0.0)) <= EPS_ALG
        assert factor.s == pytest.approx(1e-200, rel=1e-15)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        digits=st.floats(154.0, 308.0),
        direction=st.sampled_from([(1.0, 0.0, 0.0), (0.6, -0.8, 0.0), (R2, R2, 0.5)]),
        cos=st.sampled_from([0.0, 1e-300, 1e-200, 1e-160, 1e-9, 1.0, -1.0]) | st.floats(-1.0, 1.0),
        consistent=st.booleans(),
    )
    def test_pair_past_overflow_rebuilds(self, digits, direction, cos, consistent):
        # every pair admitted where 1 + |g|^2 overflows rebuilds its rotation
        g = Vec3(*direction) * 10.0**digits
        assume(1.0 + g.norm_sq() == math.inf)
        if consistent:
            top = max(abs(c) for c in g.components())
            cos = 1.0 / (top * (g / top).norm())
        try:
            pair = GibbsPair(g, Vec3(), cos, 1.0)
        except ValueError:
            assert not consistent
            return
        assert abs(norm_sq(pair.to_rotation().a) - 1.0) <= EPS_ALG

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        digits=st.floats(-3.0, 308.0),
        direction=st.sampled_from([(1.0, 0.0, 0.0), (0.6, -0.8, 0.0), (R2, R2, 0.5)]),
        stretch=st.sampled_from([0.0, 1e-12, 4e-10, 6e-10, 1e-9, 1e-6, 0.1, 1e5])
        | st.floats(-0.9, 1e5),
        sign=st.sampled_from([1.0, -1.0]),
    )
    @example(digits=100.0, direction=(1.0, 0.0, 0.0), stretch=1e95, sign=1.0)
    @example(digits=150.0, direction=(1.0, 0.0, 0.0), stretch=-1.0 + 1e-10, sign=1.0)
    def test_pair_gate_is_relative(self, digits, direction, stretch, sign):
        # the gate asks the factor cos (1 + g) to be unit within EPS_UNIT at
        # every |g|: judged exactly, a pair clearly off unit norm is refused,
        # and one clearly within rebuilds its rotation
        g = Vec3(*direction) * 10.0**digits
        unit = unit_from_gibbs(g)
        cos = sign * (1.0 + stretch) * unit.s
        gap = abs(Fraction(cos) ** 2 * (1 + sum(Fraction(c) ** 2 for c in g.components())) - 1)
        try:
            pair = GibbsPair(g, Vec3(), cos, 1.0)
        except ValueError:
            assert gap > EPS_UNIT * (1 - 1e-6)
            return
        assert gap <= EPS_UNIT * (1 + 1e-6)
        a = pair.to_rotation().a
        assert abs(norm_sq(a) - 1.0) <= EPS_ALG
        assert min(comp_diff(a, unit), comp_diff(a, -unit)) <= 1e-9

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        cosines=st.lists(
            st.tuples(
                st.sampled_from([1.5e-9, 1e-6, 1e-3, 0.5]) | st.floats(1.5e-9, 1.0),
                st.sampled_from([1.5e-9, 1e-6, 0.01, 0.5]) | st.floats(1.5e-9, 1.0),
            ),
            min_size=2,
            max_size=5,
        ),
        off=st.sampled_from([0.0, 0.9e-9, -0.9e-9, 0.5e-9]) | st.floats(-0.99e-9, 0.99e-9),
        axes=st.permutations([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, 0.0, -0.8), (R2, -0.5, 0.5)]),
    )
    @example(
        cosines=[(math.cos(0.01), math.cos(0.01))] * 2,
        off=0.9e-9,
        axes=[(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
    )
    def test_no_derived_pair_is_refused(self, cosines, off, axes):
        # factors admitted at Rotation4's gate, up to EPS_UNIT off unit norm,
        # with scalar parts down to near EPS_GIBBS: from_rotation and every
        # link of a compose_gibbs chain keep a pair within the gate
        k = math.sqrt(1.0 + off)
        pairs = []
        for n, (ca, cb) in enumerate(cosines):
            factors = []
            for c, axis in ((ca, axes[n % 4]), (cb, axes[(n + 1) % 4])):
                s = math.sqrt(1.0 - c * c)
                factors.append(Quaternion.of(c * k, *(x * s * k for x in axis)))
            try:
                r = Rotation4(*factors)
            except NotUnit:
                assume(False)
            pairs.append(GibbsPair.from_rotation(r))
        h = pairs[0]
        for pair in pairs[1:]:
            try:
                h = compose_gibbs(h, pair)
            except GibbsSingular:
                break
            for g, cos in ((h.p_tilde, h.cos_alpha), (h.q_tilde, h.cos_beta)):
                norm = Fraction(cos) ** 2 * (1 + sum(Fraction(c) ** 2 for c in g.components()))
                assert abs(norm - 1) <= EPS_UNIT * (1 + 1e-6)

    def test_pair_stores_float_cosines(self):
        pair = GibbsPair(Vec3(), Vec3(), np.float64(1.0), 1)
        assert type(pair.cos_alpha) is float and type(pair.cos_beta) is float
        assert repr(pair) == repr(GibbsPair(Vec3(), Vec3(), 1.0, 1.0))

    @pytest.mark.parametrize(
        "args, field",
        [
            (((0.0, 0.0, 0.0), Vec3(), 1.0, 1.0), "p_tilde must be a Vec3, got tuple"),
            ((Vec3(), None, 1.0, 1.0), "q_tilde must be a Vec3, got NoneType"),
            ((Vec3(), ONE, 1.0, 1.0), "q_tilde must be a Vec3, got Quaternion"),
        ],
        ids=["tuple", "none", "quaternion"],
    )
    def test_pair_vectors_must_be_vec3(self, args, field):
        with pytest.raises(TypeError) as info:
            GibbsPair(*args)
        assert str(info.value) == field


def compose_left(g1: Vec3, cos1: float, g2: Vec3, cos2: float) -> tuple[Vec3, float]:
    """The left side of compose_gibbs on two left turns x -> a x (first) and
    x -> b x (second): the Gibbs vector and cosine of x -> (ba) x."""
    h = compose_gibbs(GibbsPair(g1, Vec3(), cos1, 1.0), GibbsPair(g2, Vec3(), cos2, 1.0))
    assert (h.q_tilde, h.cos_beta) == (Vec3(), 1.0)
    return h.p_tilde, h.cos_alpha


class TestComposeLeftClifford:
    """compose_gibbs on left (Clifford) turns, whose right sides are 1."""

    def test_identity_neutral(self, rng):
        g1 = Vec3(*rng.standard_normal(3))
        cos1 = 1.0 / math.sqrt(1.0 + g1.norm_sq())
        vec, cos_out = compose_left(g1, cos1, Vec3(), 1.0)
        assert comp_diff(pure(vec), pure(g1)) == 0.0
        assert cos_out == cos1

    def test_quarter_turns(self):
        vec, cos_out = compose_left(Vec3(1, 0, 0), R2, Vec3(0, 1, 0), R2)
        assert comp_diff(pure(vec), Quaternion.of(0, 1, 1, -1)) <= 1e-15
        assert abs(cos_out - 0.5) <= 1e-15

    def test_inverse_pair(self):
        vec, cos_out = compose_left(Vec3(1, 0, 0), R2, Vec3(-1, 0, 0), R2)
        assert vec.components() == (0, 0, 0)
        assert abs(cos_out - 1.0) <= 1e-15

    def test_matches_quaternion_product(self, rng):
        done = 0
        while done < 200:
            g1 = Vec3(*rng.standard_normal(3))
            g2 = Vec3(*rng.standard_normal(3))
            if abs(1.0 - g1.dot(g2)) <= 0.1:
                continue
            done += 1
            a, b = unit_from_gibbs(g1), unit_from_gibbs(g2)
            cos1, cos2 = a.s, b.s
            vec, cos_out = compose_left(g1, cos1, g2, cos2)
            product = mul(b, a)
            assert comp_diff(pure(vec), pure(gibbs_from_unit(product))) <= 1e-10
            assert abs(abs(cos_out) - abs(product.s)) <= 1e-12


class TestComposedPlanes:
    def test_golden_composition(self):
        gh = compose_gibbs(
            GibbsPair.from_rotation(GOLDEN_F), GibbsPair.from_rotation(GOLDEN_G)
        )
        plane1, plane2, angle1, angle2 = composed_planes_from_gibbs(gh)
        kind = classify(compose(GOLDEN_G, GOLDEN_F))
        assert isinstance(kind, Simple)
        assert abs(angle1 - kind.angle) <= 1e-12
        assert angle2 <= 1e-12
        assert projector_distance(plane1, kind.rotation_plane) <= 1e-10
        assert projector_distance(plane2, kind.fixed_plane) <= 1e-10

    def test_equal_gibbs_vectors_give_axis_plane(self):
        pair = GibbsPair(Vec3(1, 0, 0), Vec3(1, 0, 0), R2, R2)
        plane1, plane2, angle1, angle2 = composed_planes_from_gibbs(pair)
        axis_plane = Plane(ONE, Quaternion.of(0, 1, 0, 0))
        assert same_plane(plane1, axis_plane, 1e-12)
        assert abs(angle1 - math.pi / 2) <= 1e-12
        assert angle2 <= 1e-12

    def test_matches_matrix_oracle(self, rng):
        for _ in range(100):
            r = rand_gibbs_rotation(rng)
            pair = GibbsPair.from_rotation(r)
            try:
                plane1, plane2, angle1, angle2 = composed_planes_from_gibbs(pair)
            except DegenerateAxis:
                continue
            oracle = planes_from_matrix(to_matrix(r))
            if oracle.isoclinic or abs(angle1 - angle2) < 1e-6:
                continue
            entries = {round(angle1, 6): plane1, round(angle2, 6): plane2}
            for oracle_plane, oracle_angle in (
                (oracle.plane1, oracle.angle1),
                (oracle.plane2, oracle.angle2),
            ):
                best = min(entries, key=lambda ang: abs(ang - oracle_angle))
                assert abs(best - oracle_angle) <= 1e-6
                assert projector_distance(entries[best], oracle_plane) <= 1e-8

    def test_degenerate_axis(self):
        pair = GibbsPair(Vec3(), Vec3(1, 0, 0), 1.0, R2)
        with pytest.raises(DegenerateAxis):
            composed_planes_from_gibbs(pair)

    def test_simple_fixed_plane_as_built(self):
        # the planes and angles as classify reports them, for a simple
        # rotation its fixed plane and angle 0.0 as built, not oriented or
        # measured by the rounding noise of its turn
        rng = random.Random(1)
        for _ in range(2000):
            pair = GibbsPair.from_rotation(random_rotation(rng, "simple"))
            kind = classify(pair.to_rotation())
            assert isinstance(kind, Simple)
            plane1, plane2, angle1, angle2 = composed_planes_from_gibbs(pair)
            assert (plane1, angle1) == (kind.rotation_plane, kind.angle)
            assert (plane2, angle2) == (kind.fixed_plane, 0.0)
        for _ in range(2000):
            pair = GibbsPair.from_rotation(random_rotation(rng, "double"))
            kind = classify(pair.to_rotation())
            assert isinstance(kind, Double)
            got = composed_planes_from_gibbs(pair)
            assert got == (kind.plane1, kind.plane2, kind.angle1, kind.angle2)
