import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rot4 import (
    DEFAULT_EPS,
    EPS_AXIS,
    DegenerateAxis,
    Double,
    I,
    Identity,
    J,
    K,
    LeftIsoclinic,
    NotSimple,
    NotUnit,
    ONE,
    Plane,
    Quaternion,
    ReflectionNormal,
    RightIsoclinic,
    Rotation4,
    Simple,
    Vec3,
    apply,
    classify,
    conj,
    dot4,
    from_reflections,
    invariant_planes,
    is_composition_simple,
    left_mult_matrix,
    mul,
    plane_from_span,
    planes_orthogonal,
    polar,
    projector_distance,
    pure,
    reflect,
    right_mult_matrix,
    simple_to_reflections,
    to_matrix,
)
import rot4.rotation as rotation_module
from rot4.cli import build_verify_report
from conftest import comp_diff, rand_unit_quat, rand_unit_vec3

R2 = 1.0 / math.sqrt(2.0)

GOLDEN_F = Rotation4(Quaternion.of(R2, R2, 0, 0), Quaternion.of(R2, 0, R2, 0))
GOLDEN_G = Rotation4(Quaternion.of(R2, 0, R2, 0), Quaternion.of(R2, 0, 0, R2))


def rand_rotation(rng) -> Rotation4:
    return Rotation4(rand_unit_quat(rng), rand_unit_quat(rng))


def rand_simple(rng) -> Rotation4:
    return from_reflections(
        ReflectionNormal(rand_unit_quat(rng)), ReflectionNormal(rand_unit_quat(rng))
    )


def cofactor_det4(m: np.ndarray) -> float:
    """Independent determinant by recursive cofactor expansion."""

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = 0.0
        for col in range(n):
            minor = [row[:col] + row[col + 1 :] for row in rows[1:]]
            total += (-1.0) ** col * rows[0][col] * det(minor)
        return total

    return det([list(map(float, row)) for row in m])


class TestRotation4:
    def test_canonical_sign(self, rng):
        a, b = rand_unit_quat(rng), rand_unit_quat(rng)
        r1 = Rotation4(a, b)
        r2 = Rotation4(-a, -b)
        assert comp_diff(r1.a, r2.a) == 0.0
        assert comp_diff(r1.b, r2.b) == 0.0

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnit):
            Rotation4(Quaternion.of(1, 1, 0, 0), ONE)


class TestApply:
    def test_identity(self, rng):
        r = Rotation4.identity()
        x = Quaternion.from_array(rng.standard_normal(4))
        assert comp_diff(apply(r, x), x) == 0.0

    def test_worked_image_of_one(self):
        r = Rotation4(Quaternion.of(R2, R2, 0, 0), Quaternion.of(R2, 0, R2, 0))
        assert comp_diff(apply(r, ONE), Quaternion.of(0.5, 0.5, 0.5, 0.5)) < 1e-15

    def test_isometry(self, rng):
        for _ in range(200):
            r = rand_rotation(rng)
            x1 = Quaternion.from_array(rng.standard_normal(4))
            x2 = Quaternion.from_array(rng.standard_normal(4))
            assert abs(dot4(apply(r, x1), apply(r, x2)) - dot4(x1, x2)) <= 1e-9


class TestReflect:
    def test_fixes_orthogonal_vector(self):
        n = ReflectionNormal(I)
        assert comp_diff(reflect(n, ONE), ONE) == 0.0

    def test_negates_normal(self):
        n = ReflectionNormal(I)
        assert comp_diff(reflect(n, I), -I) == 0.0

    def test_involution(self, rng):
        for _ in range(100):
            n = ReflectionNormal(rand_unit_quat(rng))
            x = Quaternion.from_array(rng.standard_normal(4))
            assert comp_diff(reflect(n, reflect(n, x)), x) <= 1e-12


class TestFromReflections:
    def test_equal_normals_give_identity(self, rng):
        n = ReflectionNormal(rand_unit_quat(rng))
        r = from_reflections(n, n)
        assert isinstance(classify(r), Identity)

    def test_matches_reflection_composition(self, rng):
        for _ in range(100):
            ny = ReflectionNormal(rand_unit_quat(rng))
            nz = ReflectionNormal(rand_unit_quat(rng))
            r = from_reflections(ny, nz)
            x = Quaternion.from_array(rng.standard_normal(4))
            assert comp_diff(apply(r, x), reflect(nz, reflect(ny, x))) <= 1e-9

    def test_always_simple(self, rng):
        for _ in range(100):
            r = rand_simple(rng)
            assert isinstance(classify(r), (Simple, Identity))
            assert abs(r.a.s - r.b.s) <= 1e-12


class TestClassify:
    def test_identity(self):
        assert isinstance(classify(Rotation4(ONE, ONE)), Identity)

    def test_central_inversion_is_left_isoclinic_pi(self):
        kind = classify(Rotation4(ONE, -ONE))
        assert isinstance(kind, LeftIsoclinic)
        assert kind.angle == math.pi

    def test_left_isoclinic(self):
        kind = classify(Rotation4(Quaternion.of(R2, R2, 0, 0), ONE))
        assert isinstance(kind, LeftIsoclinic)
        assert abs(kind.angle - math.pi / 4) < 1e-12

    def test_right_isoclinic(self):
        kind = classify(Rotation4(ONE, Quaternion.of(0.5, 0.5, 0.5, 0.5)))
        assert isinstance(kind, RightIsoclinic)
        assert abs(kind.angle - math.acos(0.5)) < 1e-12

    def test_golden_simple_fixed_plane(self):
        kind = classify(GOLDEN_F)
        assert isinstance(kind, Simple)
        expected = plane_from_span(Quaternion.of(0, 1, -1, 0), Quaternion.of(1, 0, 0, 1))
        assert projector_distance(kind.fixed_plane, expected) <= 1e-10
        assert abs(kind.angle - math.pi / 2) < 1e-12

    def test_golden_composition_is_simple(self):
        h = Rotation4(Quaternion.of(0.5, 0.5, 0.5, -0.5), Quaternion.of(0.5, 0.5, 0.5, 0.5))
        kind = classify(h)
        assert isinstance(kind, Simple)
        assert abs(kind.angle - 2 * math.pi / 3) < 1e-12

    def test_double_angles_are_half_angle_sum_and_difference(self, rng):
        for _ in range(50):
            alpha = rng.uniform(0.2, 1.4)
            beta = rng.uniform(0.2, 1.4)
            if abs(alpha - beta) < 0.05:
                continue
            p = rand_unit_vec3(rng)
            q = rand_unit_vec3(rng)
            a = Quaternion(math.cos(alpha), p * math.sin(alpha))
            b = Quaternion(math.cos(beta), q * math.sin(beta))
            kind = classify(Rotation4(a, b))
            assert isinstance(kind, Double)
            assert abs(kind.angle1 - (alpha + beta)) <= 1e-9
            assert abs(kind.angle2 - abs(alpha - beta)) <= 1e-9

    def test_double_planes_invariant_and_orthogonal(self, rng):
        for _ in range(50):
            r = rand_rotation(rng)
            kind = classify(r)
            if not isinstance(kind, Double):
                continue
            assert planes_orthogonal(kind.plane1, kind.plane2, 1e-9)
            for plane in (kind.plane1, kind.plane2):
                proj = plane.projector()
                for basis_vec in (plane.u, plane.w):
                    image = apply(r, basis_vec).as_array()
                    assert np.abs(proj @ image - image).max() <= 1e-9

    def test_angle_matches_vector_turn_inside_plane(self, rng):
        for _ in range(50):
            r = rand_rotation(rng)
            kind = classify(r)
            if not isinstance(kind, Double):
                continue
            for plane, angle in ((kind.plane1, kind.angle1), (kind.plane2, kind.angle2)):
                x = plane.u
                cos_turn = dot4(apply(r, x), x)
                assert abs(math.acos(max(-1.0, min(1.0, cos_turn))) - angle) <= 1e-9

    def test_simple_fixed_plane_is_pointwise_fixed(self, rng):
        for _ in range(100):
            r = rand_simple(rng)
            kind = classify(r)
            if not isinstance(kind, Simple):
                continue
            for basis_vec in (kind.fixed_plane.u, kind.fixed_plane.w):
                assert comp_diff(apply(r, basis_vec), basis_vec) <= 1e-9

    def test_left_isoclinic_turns_everything_equally(self, rng):
        a = rand_unit_quat(rng)
        r = Rotation4(a, ONE)
        kind = classify(r)
        assert isinstance(kind, LeftIsoclinic)
        for _ in range(100):
            x = rand_unit_quat(rng)
            assert abs(dot4(apply(r, x), x) - math.cos(kind.angle)) <= 1e-10

    def test_left_translation_invariant_plane(self, rng):
        # x -> a x maps Sp{x, px} into itself, p the polar axis of a
        for _ in range(100):
            a = rand_unit_quat(rng)
            p = polar(a).axis
            x = rand_unit_quat(rng)
            px = mul(pure(p), x)
            plane = plane_from_span(x, px)
            image = mul(a, x).as_array()
            proj = plane.projector()
            assert np.abs(proj @ image - image).max() <= 1e-10


class TestInvariantPlanes:
    def test_generic_spans(self):
        pi1, pi2 = invariant_planes(Vec3(1, 0, 0), Vec3(0, 1, 0))
        assert projector_distance(
            pi1, plane_from_span(Quaternion.of(0, 1, -1, 0), Quaternion.of(1, 0, 0, 1))
        ) <= 1e-12
        assert projector_distance(
            pi2, plane_from_span(Quaternion.of(0, 1, 1, 0), Quaternion.of(1, 0, 0, -1))
        ) <= 1e-12

    def test_degenerate_equal_axes(self):
        lam1, lam2 = invariant_planes(Vec3(1, 0, 0), Vec3(1, 0, 0))
        assert projector_distance(lam1, plane_from_span(ONE, I)) <= 1e-12
        assert projector_distance(lam2, Plane(J, K)) <= 1e-12

    def test_second_golden_rotation(self):
        pi1, pi2 = invariant_planes(Vec3(0, 1, 0), Vec3(0, 0, 1))
        assert projector_distance(
            pi1, plane_from_span(Quaternion.of(0, 0, 1, -1), Quaternion.of(1, 1, 0, 0))
        ) <= 1e-12
        assert projector_distance(
            pi2, plane_from_span(Quaternion.of(0, 0, 1, 1), Quaternion.of(1, -1, 0, 0))
        ) <= 1e-12

    def test_planes_mutually_orthogonal(self, rng):
        for _ in range(100):
            p = rand_unit_vec3(rng)
            q = rand_unit_vec3(rng)
            pi1, pi2 = invariant_planes(p, q)
            assert planes_orthogonal(pi1, pi2, 1e-9)

    def test_degenerate_images_stay_in_axis_plane(self, rng):
        # for q = +-p both 1 and p map into Sp{1, p}
        for sign in (1.0, -1.0):
            p = rand_unit_vec3(rng)
            alpha, beta = 0.9, 0.4
            a = Quaternion(math.cos(alpha), p * math.sin(alpha))
            b = Quaternion(math.cos(beta), (p * sign) * math.sin(beta))
            r = Rotation4(a, b)
            axis_plane = plane_from_span(ONE, pure(p))
            assert axis_plane.contains(apply(r, ONE), 1e-12)
            assert axis_plane.contains(apply(r, pure(p)), 1e-12)


_COORD = st.floats(-1.0, 1.0)
_VEC = st.tuples(_COORD, _COORD, _COORD)
_VEC4 = st.tuples(_COORD, _COORD, _COORD, _COORD)


def _numpy_projector(plane: Plane) -> np.ndarray:
    u, w = plane.u.as_array(), plane.w.as_array()
    return np.outer(u, u) + np.outer(w, w)


class TestProjector:
    """Projector entries are computed in floats; they must equal numpy's
    outer(u, u) + outer(w, w) exactly, not to a tolerance."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(v1=_VEC4, v2=_VEC4, v3=_VEC4, v4=_VEC4)
    def test_equal_to_numpy_outer_products(self, v1, v2, v3, v4):
        try:
            p1 = plane_from_span(Quaternion.of(*v1), Quaternion.of(*v2))
            p2 = plane_from_span(Quaternion.of(*v3), Quaternion.of(*v4))
        except (DegenerateAxis, ValueError):  # a degenerate span, or rounding past orthonormality
            assume(False)
        proj = p1.projector()
        assert proj.dtype == np.float64 and proj.shape == (4, 4)
        assert (proj == _numpy_projector(p1)).all()
        expected = float(np.abs(_numpy_projector(p1) - _numpy_projector(p2)).max())
        assert projector_distance(p1, p2) == expected


def _reference_planes(p: Vec3, q: Vec3) -> tuple[Plane, Plane]:
    """invariant_planes' construction written with numpy matrices: u is
    column k of I + sT, T = L(p) R(q), at the first largest diagonal entry of
    sT, and w = L(p) u; the plane holding more of 1 first."""
    lp = left_mult_matrix(pure(p))
    t = lp @ right_mult_matrix(pure(q))
    diag = np.diag(t)
    planes = []
    for sign, k in ((1.0, int(np.argmax(diag))), (-1.0, int(np.argmin(diag)))):
        u = sign * t[:, k]
        u[k] += 1.0
        u /= np.linalg.norm(u)
        planes.append(Plane(Quaternion.from_array(u), Quaternion.from_array(lp @ u)))
    plus, minus = planes
    return (minus, plus) if p.dot(q) > 0.0 else (plus, minus)


class TestInvariantPlanesReference:
    """The float construction against the matrix one, on generic axes and on
    axes 1e-8..1e-10 from q = +-p."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        p_raw=_VEC,
        q_raw=_VEC,
        gap=st.sampled_from([None, 1e-8, 1e-9, 1e-10]),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_matches_matrix_construction(self, p_raw, q_raw, gap, sign):
        p = np.array(p_raw)
        d = np.array(q_raw)
        assume(np.linalg.norm(p) >= 0.1 and np.linalg.norm(d) >= 0.1)
        p /= np.linalg.norm(p)
        if gap is None:
            q = d
        else:
            d -= (d @ p) * p
            assume(np.linalg.norm(d) >= 0.1)
            q = p + gap * d / np.linalg.norm(d)
        q *= sign / np.linalg.norm(q)
        p, q = Vec3(*p), Vec3(*q)
        got, want = invariant_planes(p, q), _reference_planes(p, q)
        for g, w in zip(got, want):
            assert projector_distance(g, w) <= 2e-15


class TestNearlyParallelAxes:
    """Doubles whose unit factor axes lie 1e-8, 1e-9 or 1e-10 from q = +-p:
    around EPS_AXIS, where the planes must not depend on a threshold."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        p_raw=_VEC,
        d_raw=_VEC,
        gap=st.sampled_from([1e-8, 1e-9, 1e-10]),
        sign=st.sampled_from([1.0, -1.0]),
        alpha=st.floats(0.2, 2.9),
        beta=st.floats(0.2, 2.9),
    )
    def test_double_agrees_with_oracle(self, p_raw, d_raw, gap, sign, alpha, beta):
        # half-angles away from simple: |S(a) - S(b)| >= 1e-3
        assume(abs(math.cos(alpha) - math.cos(beta)) >= 1e-3)
        p = np.array(p_raw)
        assume(np.linalg.norm(p) >= 0.1)
        p /= np.linalg.norm(p)
        d = np.array(d_raw)
        d -= (d @ p) * p
        assume(np.linalg.norm(d) >= 0.1)
        d /= np.linalg.norm(d)
        q = p + gap * d
        q *= sign / np.linalg.norm(q)
        a = Quaternion(math.cos(alpha), Vec3(*p) * math.sin(alpha))
        b = Quaternion(math.cos(beta), Vec3(*q) * math.sin(beta))
        r = Rotation4(a, b)
        assert isinstance(classify(r), Double)
        report = build_verify_report(r)
        assert report["ok"], report


class TestNearlyIsoclinic:
    """Doubles whose left factor has |V(a)| of 2e-9, 1e-8 or 1e-7, just above
    EPS_AXIS: the sum and difference angles differ by only about 2|V(a)|.
    plane1 must be the -1 eigenspace of x -> p x q and carry ha + hb."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        p_raw=_VEC,
        q_raw=_VEC,
        va=st.sampled_from([2e-9, 1e-8, 1e-7]),
        sa_sign=st.sampled_from([1.0, -1.0]),
        beta=st.floats(0.2, 2.9),
    )
    def test_plane1_is_minus_one_eigenspace(self, p_raw, q_raw, va, sa_sign, beta):
        vecs = [np.array(v) for v in (p_raw, q_raw)]
        assume(min(np.linalg.norm(v) for v in vecs) >= 0.1)
        p, q = (Vec3(*(v / np.linalg.norm(v))) for v in vecs)
        r = Rotation4(
            Quaternion(sa_sign * math.sqrt(1.0 - va * va), p * va),
            Quaternion(math.cos(beta), q * math.sin(beta)),
        )
        kind = classify(r)
        assert isinstance(kind, Double)
        pa, pb = polar(r.a), polar(r.b)
        u = kind.plane1.u
        assert comp_diff(mul(mul(pure(pa.axis), u), pure(pb.axis)), -u) <= 1e-12
        half_sum = pa.half_angle + pb.half_angle
        reduced = half_sum if half_sum <= math.pi else 2.0 * math.pi - half_sum
        assert abs(kind.angle1 - reduced) <= 1e-12


class TestToMatrix:
    def test_identity(self):
        assert np.abs(to_matrix(Rotation4.identity()) - np.eye(4)).max() == 0.0

    def test_action_matches_apply(self, rng):
        for _ in range(100):
            r = rand_rotation(rng)
            x = Quaternion.from_array(rng.standard_normal(4))
            assert np.abs(to_matrix(r) @ x.as_array() - apply(r, x).as_array()).max() <= 1e-12

    def test_det_plus_one(self, rng):
        for _ in range(20):
            m = to_matrix(rand_rotation(rng))
            assert abs(cofactor_det4(m) - 1.0) <= 1e-12


class TestSimpleToReflections:
    def test_identity_decomposes_as_equal_pair(self):
        ny, nz = simple_to_reflections(Rotation4.identity())
        assert comp_diff(ny.q, nz.q) <= 1e-12

    def test_golden_round_trip(self):
        ny, nz = simple_to_reflections(GOLDEN_F)
        back = from_reflections(ny, nz)
        for e in (ONE, I, J, K):
            assert comp_diff(apply(back, e), apply(GOLDEN_F, e)) <= 1e-12

    def test_kernel_residual(self, rng):
        for _ in range(100):
            r = rand_simple(rng)
            ny, _ = simple_to_reflections(r)
            residual = mul(r.a, ny.q) - mul(ny.q, r.b)
            assert max(abs(c) for c in residual.components()) <= 1e-10

    @pytest.mark.parametrize(
        "kind, name",
        [
            ("double", "Double"),
            ("left-isoclinic", "LeftIsoclinic"),
            ("central-inversion", "LeftIsoclinic"),
            ("right-isoclinic", "RightIsoclinic"),
        ],
        ids=["double", "left-isoclinic", "central-inversion", "right-isoclinic"],
    )
    def test_rejects_double(self, rng, kind, name):
        # the split accepts exactly what classify calls Simple or Identity:
        # a 1e-5 right turn has |S(a) - S(b)| = 5e-11 <= eps, yet is isoclinic
        if kind == "double":
            while True:
                r = rand_rotation(rng)
                if abs(r.a.s - r.b.s) > 0.1:
                    break
        elif kind == "left-isoclinic":
            r = Rotation4(Quaternion.of(R2, R2, 0, 0), ONE)
        elif kind == "central-inversion":
            r = Rotation4(ONE, -ONE)
        else:
            b = Quaternion(math.cos(1e-5), Vec3(0.6, 0.0, 0.8) * math.sin(1e-5))
            r = Rotation4(ONE, b)
            assert isinstance(classify(r), RightIsoclinic)
        with pytest.raises(NotSimple) as exc:
            simple_to_reflections(r)
        assert str(exc.value) == f"a {name} rotation, not simple at eps = 1.0e-08"

    def test_builds_no_plane(self, monkeypatch):
        # the split builds one eigenvector, no plane and no angle
        expected = simple_to_reflections(GOLDEN_F), is_composition_simple(GOLDEN_F, GOLDEN_G)
        _refuse_planes(monkeypatch)
        assert simple_to_reflections(GOLDEN_F) == expected[0]
        assert is_composition_simple(GOLDEN_F, GOLDEN_G) == expected[1]


def _refuse(*args, **kwargs):
    raise AssertionError("simple_to_reflections must not build planes")


def _refuse_planes(mp: pytest.MonkeyPatch) -> None:
    for name in ("classify", "_measured_planes", "invariant_planes", "plane_rotation_angle"):
        mp.setattr(rotation_module, name, _refuse)


def _unit3(raw) -> Vec3:
    v = np.array(raw)
    assume(np.linalg.norm(v) >= 0.1)
    return Vec3(*(v / np.linalg.norm(v)))


def _factor(s: float, axis: Vec3) -> Quaternion:
    """Unit quaternion with scalar part s about the unit axis."""
    return Quaternion(s, axis * math.sqrt(1.0 - s * s))


_EPS = st.sampled_from([1e-12, 1e-8, 1e-6])


class TestAxis:
    """_axis is pure(polar(x).axis) bit for bit, and classify and the split
    reach it only with |V(x)| > EPS_AXIS, so it never divides by zero."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(x_raw=_VEC4, scale=st.sampled_from([1.0, 1e-3, 2e-9]))
    def test_equals_polar_axis(self, x_raw, scale):
        v = np.array(x_raw)
        assume(np.linalg.norm(v[1:]) >= 0.1)
        v[1:] *= scale / np.linalg.norm(v[1:])
        v[0] = math.copysign(math.sqrt(1.0 - scale * scale), v[0])
        x = Quaternion.from_array(v)
        got, want = rotation_module._axis(x), pure(polar(x).axis)
        assert [c.hex() for c in got.components()] == [c.hex() for c in want.components()]

    def test_reached_only_above_eps_axis(self, monkeypatch):
        axis, reached = rotation_module._axis, []

        def guarded(x):
            assert x.v.norm() > EPS_AXIS
            reached.append(x)
            return axis(x)

        monkeypatch.setattr(rotation_module, "_axis", guarded)
        p = Vec3(0.48, 0.6, 0.64)
        factors = [
            Quaternion(math.copysign(math.sqrt(1.0 - vn * vn), sign), p * vn)
            for vn in (0.0, 5e-10, EPS_AXIS, 1.5e-9, 0.6)
            for sign in (1.0, -1.0)
        ]
        for a in factors:
            for b in factors:
                r = Rotation4(a, b)
                for eps in (1e-12, DEFAULT_EPS, 1.0):
                    classify(r, eps)
                    try:
                        simple_to_reflections(r, eps)
                    except NotSimple:
                        pass
        assert reached


class TestSplitMatchesClassify:
    """simple_to_reflections takes classify's decision and builds only the
    rotation plane's u: its first normal equals classify's rotation_plane.u
    bit for bit (1 for the identity), and it raises NotSimple exactly when
    classify returns another kind.  The split runs with classify and every
    plane-building step of rotation made to raise."""

    @staticmethod
    def check(r: Rotation4, eps: float) -> None:
        kind = classify(r, eps)
        with pytest.MonkeyPatch.context() as mp:
            _refuse_planes(mp)
            if isinstance(kind, (Identity, Simple)):
                ny, _ = simple_to_reflections(r, eps)
                assert ny.q == (ONE if isinstance(kind, Identity) else kind.rotation_plane.u)
            else:
                with pytest.raises(NotSimple) as exc:
                    simple_to_reflections(r, eps)
                name = type(kind).__name__
                assert str(exc.value) == f"a {name} rotation, not simple at eps = {eps:.1e}"

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(y_raw=_VEC4, z_raw=_VEC4, eps=_EPS)
    def test_generic_simple(self, y_raw, z_raw, eps):
        vecs = [np.array(v) for v in (y_raw, z_raw)]
        assume(min(np.linalg.norm(v) for v in vecs) >= 0.1)
        y, z = (ReflectionNormal(Quaternion.from_array(v / np.linalg.norm(v))) for v in vecs)
        self.check(from_reflections(y, z), eps)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        p_raw=_VEC,
        q_raw=_VEC,
        gap=st.sampled_from([1e-11, 1e-9, 5e-9, 1e-8, 1.5e-8]),
        side=st.sampled_from([1.0, -1.0]),
        alpha=st.floats(0.2, 2.9),
        eps=_EPS,
    )
    def test_near_simple_gap(self, p_raw, q_raw, gap, side, alpha, eps):
        p, q = _unit3(p_raw), _unit3(q_raw)
        sa = math.cos(alpha)
        self.check(Rotation4(_factor(sa, p), _factor(sa - side * gap, q)), eps)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        p_raw=_VEC,
        d_raw=_VEC,
        gap=st.sampled_from([1e-8, 1e-9, 1e-10]),
        sign=st.sampled_from([1.0, -1.0]),
        alpha=st.floats(0.2, 2.9),
        ds=st.sampled_from([0.0, 1e-9, 1e-3]),
        eps=_EPS,
    )
    def test_axes_near_plus_minus_p(self, p_raw, d_raw, gap, sign, alpha, ds, eps):
        p = _unit3(p_raw)
        d = np.array(d_raw)
        d -= (d @ p.as_array()) * p.as_array()
        d_axis = _unit3(d)
        q = _unit3((p * sign + d_axis * gap).components())
        sa = math.cos(alpha)
        self.check(Rotation4(_factor(sa, p), _factor(sa - ds, q)), eps)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        p_raw=_VEC,
        q_raw=_VEC,
        va=st.sampled_from([5e-10, 1e-9, 2e-9, 1e-8, 0.5]),
        vb=st.sampled_from([5e-10, 1e-9, 2e-9, 1e-8]),
        sa_sign=st.sampled_from([1.0, -1.0]),
        sb_sign=st.sampled_from([1.0, -1.0]),
        swap=st.booleans(),
        eps=_EPS,
    )
    def test_vector_part_near_eps_axis(self, p_raw, q_raw, va, vb, sa_sign, sb_sign, swap, eps):
        a = Quaternion(sa_sign * math.sqrt(1.0 - va * va), _unit3(p_raw) * va)
        b = Quaternion(sb_sign * math.sqrt(1.0 - vb * vb), _unit3(q_raw) * vb)
        self.check(Rotation4(b, a) if swap else Rotation4(a, b), eps)


class TestNearSimpleSplit:
    """Rotations that classify calls Simple at |S(a) - S(b)| of 1e-11 to
    5e-9: the split must accept them and realise (a, b'), with
    b' = S(a) + |V(a)| q for the unit axis q of b."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        p_raw=_VEC,
        q_raw=_VEC,
        y_raw=_VEC4,
        z_raw=_VEC4,
        gap=st.sampled_from([1e-11, 1e-10, 1e-9, 5e-9]),
        alpha=st.floats(0.2, 2.9),
    )
    def test_split_realises_a_and_b_prime(self, p_raw, q_raw, y_raw, z_raw, gap, alpha):
        vecs = [np.array(v) for v in (p_raw, q_raw, y_raw, z_raw)]
        assume(min(np.linalg.norm(v) for v in vecs) >= 0.1)
        p, q, y_g, z_g = (v / np.linalg.norm(v) for v in vecs)
        sb = math.cos(alpha) - gap
        r = Rotation4(
            Quaternion(math.cos(alpha), Vec3(*p) * math.sin(alpha)),
            Quaternion(sb, Vec3(*q) * math.sqrt(1.0 - sb * sb)),
        )
        assert isinstance(classify(r), Simple)
        ny, nz = simple_to_reflections(r)
        y, z = ny.q, nz.q
        b_prime = Quaternion(r.a.s, r.b.v * (r.a.v.norm() / r.b.v.norm()))
        assert comp_diff(mul(z, conj(y)), r.a) <= 1e-12
        assert comp_diff(mul(conj(y), z), b_prime) <= 1e-12
        g = from_reflections(
            ReflectionNormal(Quaternion.from_array(y_g)),
            ReflectionNormal(Quaternion.from_array(z_g)),
        )
        report = is_composition_simple(r, g)
        assert abs(report.s_condition + 2 * report.det_normals) <= 1e-12
