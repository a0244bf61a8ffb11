import itertools
import json
import math
import random
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rot4 import (
    DEFAULT_EPS,
    EPS_AXIS,
    EPS_UNIT,
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
    SimplicityReport,
    Vec3,
    apply,
    classify,
    conj,
    dot4,
    from_reflections,
    is_composition_simple,
    mul,
    norm_sq,
    normalized,
    projector_distance,
    pure,
    reflect,
    simple_to_reflections,
    to_matrix,
)
import rot4.rotation as rotation_module
from rot4.cli import build_verify_report, main, random_rotation
from rot4.plane import _projector_rows
import exact
import test_kernels as kernels
from conftest import (
    EPS_ALG,
    GOLDEN_F,
    GOLDEN_G,
    R2,
    comp_diff,
    left_matrix,
    matrix_of,
    numpy_projector,
    planes_orthogonal,
    rand_rotation,
    rand_simple,
    rand_unit_quat,
    rand_unit_vec3,
    right_matrix,
)


def _span(x, y) -> Plane:
    """The plane of the orthogonal pair x, y, each normalized."""
    return Plane(normalized(Quaternion.of(*x)), normalized(Quaternion.of(*y)))


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

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (Quaternion.of(1, 1, 0, 0), ONE, "left factor has norm_sq 2.0"),
            (ONE, Quaternion.of(0, 0, 0.5, 0), "right factor has norm_sq 0.25"),
            (Quaternion.of(2, 0, 0, 0), Quaternion.of(3, 0, 0, 0), "left factor has norm_sq 4.0"),
            (Quaternion.of(1 + 6e-10, 0, 0, 0), ONE, "left factor has norm_sq 1.0000000012"),
            (ONE, Quaternion.of(0, 0, 0, 1 - 6e-10), "right factor has norm_sq 0.9999999987999999"),
        ],
        ids=["left", "right", "left-first", "left-just-outside", "right-just-outside"],
    )
    def test_not_unit_message(self, a, b, message):
        with pytest.raises(NotUnit) as info:
            Rotation4(a, b)
        assert str(info.value) == f"{message}, expected 1"

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ((1.0, 0.0, 0.0, 0.0), ONE, "a must be a Quaternion, got tuple"),
            (ONE, None, "b must be a Quaternion, got NoneType"),
            ([1.0, 0.0, 0.0, 0.0], (1.0, 0.0, 0.0, 0.0), "a must be a Quaternion, got list"),
        ],
        ids=["a-tuple", "b-none", "both"],
    )
    def test_factors_must_be_quaternions(self, a, b, message):
        with pytest.raises(TypeError) as info:
            Rotation4(a, b)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "q, message",
        [
            ([1.0, 0.0, 0.0, 0.0], "q must be a Quaternion, got list"),
            ((0.0, 1.0, 0.0, 0.0), "q must be a Quaternion, got tuple"),
            (Vec3(1.0, 0.0, 0.0), "q must be a Quaternion, got Vec3"),
        ],
        ids=["list", "tuple", "vec3"],
    )
    def test_reflection_normal_must_be_a_quaternion(self, q, message):
        # a list would be stored as given: unhashable, and open to mutation
        with pytest.raises(TypeError) as info:
            ReflectionNormal(q)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "u, w, message",
        [
            ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], "u must be a Quaternion, got list"),
            (ONE, (0.0, 1.0, 0.0, 0.0), "w must be a Quaternion, got tuple"),
            (None, I, "u must be a Quaternion, got NoneType"),
        ],
        ids=["both-lists", "w-tuple", "u-none"],
    )
    def test_plane_basis_must_be_quaternions(self, u, w, message):
        with pytest.raises(TypeError) as info:
            Plane(u, w)
        assert str(info.value) == message

    def test_admits_within_the_unit_tolerance(self):
        a = Quaternion.of(1 + 4e-10, 0, 0, 0)
        assert Rotation4(a, a).a is a

    @pytest.mark.parametrize(
        "a, negated",
        [
            ((5e-10, -0.6, 0.8, 0.0), True),
            ((-5e-10, 0.6, -0.8, 0.0), False),
            ((-1e-9, 0.0, 1e-9, -1.0), True),
            ((1e-9, -1e-9, 0.0, 1.0), False),
            ((-2e-9, 0.6, 0.8, 0.0), True),
            ((2e-9, -0.6, -0.8, 0.0), False),
            ((-0.0, 0.0, -0.0, 1.0), False),
        ],
    )
    def test_sign_rule_past_a_small_leading_component(self, a, negated):
        # the first component above EPS_AXIS in magnitude sets the sign
        q, b = Quaternion.of(*a), Quaternion.of(0.6, 0.0, 0.8, 0.0)
        assert rotation_module._leading_negative(q.components()) is negated
        r = Rotation4(q, b)
        assert (r.a, r.b) == ((-q, -b) if negated else (q, b))


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
        expected = _span((0, 1, -1, 0), (1, 0, 0, 1))
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
                proj = numpy_projector(plane)
                for basis_vec in (plane.u, plane.w):
                    image = np.array(apply(r, basis_vec).components())
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

    def test_simple_fixed_plane_as_built(self):
        # The fixed plane is (u, p u) for the +1 eigenvector u of x -> p x q,
        # never flipped by the sign of its rounding-noise turn; the rotation
        # plane stays counterclockwise.
        rng = random.Random(1)
        for _ in range(2000):
            r = random_rotation(rng, "simple")
            kind = classify(r)
            p, q = (pure(x.v / x.v.norm()) for x in (r.a, r.b))
            (u,) = kernels.ref_eigenvectors(p, q, 1.0)
            assert kind.fixed_plane == Plane(u, mul(p, u))
            turning = kind.rotation_plane
            assert dot4(apply(r, turning.u), turning.w) >= 0.0

    def test_left_isoclinic_turns_everything_equally(self, rng):
        a = rand_unit_quat(rng)
        r = Rotation4(a, ONE)
        kind = classify(r)
        assert isinstance(kind, LeftIsoclinic)
        for _ in range(100):
            x = rand_unit_quat(rng)
            assert abs(dot4(apply(r, x), x) - math.cos(kind.angle)) <= 1e-10

    def test_left_translation_invariant_plane(self, rng):
        # x -> a x maps Sp{x, px} into itself, p the unit axis of a
        for _ in range(100):
            a = rand_unit_quat(rng)
            p = a.v / a.v.norm()
            x = rand_unit_quat(rng)
            image = np.array(mul(a, x).components())
            proj = numpy_projector(Plane(x, mul(pure(p), x)))
            assert np.abs(proj @ image - image).max() <= 1e-10


def _classify_planes(p: Vec3, q: Vec3) -> tuple[Plane, Plane]:
    """classify's planes of a double rotation with the unit axes p (of a)
    and q (of b): the -1 eigenspace of x -> p x q first."""
    a = Quaternion(math.cos(0.3), p * math.sin(0.3))
    b = Quaternion(math.cos(1.1), q * math.sin(1.1))
    kind = classify(Rotation4(a, b))
    assert isinstance(kind, Double)
    return kind.plane1, kind.plane2


class TestInvariantPlanes:
    def test_generic_spans(self):
        pi1, pi2 = _classify_planes(Vec3(1, 0, 0), Vec3(0, 1, 0))
        assert projector_distance(pi1, _span((0, 1, 1, 0), (1, 0, 0, -1))) <= 1e-12
        assert projector_distance(pi2, _span((0, 1, -1, 0), (1, 0, 0, 1))) <= 1e-12

    def test_degenerate_equal_axes(self):
        lam1, lam2 = _classify_planes(Vec3(1, 0, 0), Vec3(1, 0, 0))
        assert projector_distance(lam1, Plane(ONE, I)) <= 1e-12
        assert projector_distance(lam2, Plane(J, K)) <= 1e-12

    def test_second_golden_rotation(self):
        pi1, pi2 = _classify_planes(Vec3(0, 1, 0), Vec3(0, 0, 1))
        assert projector_distance(pi1, _span((0, 0, 1, 1), (1, -1, 0, 0))) <= 1e-12
        assert projector_distance(pi2, _span((0, 0, 1, -1), (1, 1, 0, 0))) <= 1e-12

    def test_planes_mutually_orthogonal(self, rng):
        for _ in range(100):
            p = rand_unit_vec3(rng)
            q = rand_unit_vec3(rng)
            pi1, pi2 = _classify_planes(p, q)
            assert planes_orthogonal(pi1, pi2, 1e-9)

    def test_degenerate_images_stay_in_axis_plane(self, rng):
        # for q = +-p both 1 and p map into Sp{1, p}
        for sign in (1.0, -1.0):
            p = rand_unit_vec3(rng)
            alpha, beta = 0.9, 0.4
            a = Quaternion(math.cos(alpha), p * math.sin(alpha))
            b = Quaternion(math.cos(beta), (p * sign) * math.sin(beta))
            r = Rotation4(a, b)
            proj = numpy_projector(Plane(ONE, pure(p)))
            for x in (ONE, pure(p)):
                image = np.array(apply(r, x).components())
                assert np.abs(proj @ image - image).max() <= 1e-12


_COORD = st.floats(-1.0, 1.0)
_VEC = st.tuples(_COORD, _COORD, _COORD)
_VEC4 = st.tuples(_COORD, _COORD, _COORD, _COORD)


def _plane(x_raw, p_raw) -> Plane:
    """The plane (x, p x) for the unit x along x_raw and the pure unit p
    along p_raw: every plane is one of these."""
    x = np.array(x_raw)
    assume(np.linalg.norm(x) >= 0.1)
    x = Quaternion.from_array(x / np.linalg.norm(x))
    return Plane(x, mul(pure(_unit3(p_raw)), x))


class TestProjector:
    """Projector entries are computed in floats; _projector_rows and
    projector_distance must equal numpy's outer(u, u) + outer(w, w)
    exactly, not to a tolerance."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(x1=_VEC4, p1=_VEC, x2=_VEC4, p2=_VEC)
    def test_equal_to_numpy_outer_products(self, x1, p1, x2, p2):
        plane1, plane2 = _plane(x1, p1), _plane(x2, p2)
        rows = _projector_rows(plane1)
        assert all(type(c) is float for row in rows for c in row)
        assert np.array(rows).shape == (4, 4)
        assert (np.array(rows) == numpy_projector(plane1)).all()
        expected = float(np.abs(numpy_projector(plane1) - numpy_projector(plane2)).max())
        assert projector_distance(plane1, plane2) == expected


def _reference_planes(p: Vec3, q: Vec3) -> tuple[Plane, Plane]:
    """classify's plane construction written with numpy matrices: u is
    column k of I + sT, T = L(p) R(q), at the first largest diagonal entry of
    sT, and w = L(p) u; the -1 eigenspace first."""
    lp = left_matrix(pure(p))
    t = lp @ right_matrix(pure(q))
    diag = np.diag(t)
    planes = []
    for sign, k in ((1.0, int(np.argmax(diag))), (-1.0, int(np.argmin(diag)))):
        u = sign * t[:, k]
        u[k] += 1.0
        u /= np.linalg.norm(u)
        planes.append(Plane(Quaternion.from_array(u), Quaternion.from_array(lp @ u)))
    plus, minus = planes
    return minus, plus


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
        got, want = _classify_planes(p, q), _reference_planes(p, q)
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


def _axis_and_half_angle(x: Quaternion) -> tuple[Quaternion, float]:
    """The pure unit axis p and the half-angle h in [0, pi] of the unit x =
    cos(h) + p sin(h), for V(x) != 0."""
    vn = x.v.norm()
    return pure(x.v / vn), math.atan2(vn, x.s)


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
        (pa, ha), (pb, hb) = (_axis_and_half_angle(x) for x in (r.a, r.b))
        u = kind.plane1.u
        assert comp_diff(mul(mul(pa, u), pb), -u) <= 1e-12
        half_sum = ha + hb
        reduced = half_sum if half_sum <= math.pi else 2.0 * math.pi - half_sum
        assert abs(kind.angle1 - reduced) <= 1e-12


class TestToMatrix:
    def test_identity(self):
        rows = to_matrix(Rotation4.identity())
        assert all(type(x) is float for row in rows for x in row)
        assert np.abs(np.array(rows) - np.eye(4)).max() == 0.0

    def test_action_matches_apply(self, rng):
        for _ in range(100):
            r = rand_rotation(rng)
            x = Quaternion.from_array(rng.standard_normal(4))
            image = np.array(apply(r, x).components())
            assert np.abs(matrix_of(r) @ np.array(x.components()) - image).max() <= 1e-12

    def test_det_plus_one(self, rng):
        for _ in range(20):
            m = to_matrix(rand_rotation(rng))
            assert abs(cofactor_det4(m) - 1.0) <= 1e-12

    def test_simple_rotation_kernel_is_a_plane(self, rng):
        # x -> a x - x b vanishes on a plane exactly when S(a) = S(b)
        for _ in range(50):
            r = rand_simple(rng)
            kernel_map = left_matrix(r.a) - right_matrix(r.b)
            assert np.linalg.matrix_rank(kernel_map, tol=1e-10) == 2


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


# rotation's math with atan2, which takes every angle, refused
_NO_ANGLES = types.SimpleNamespace(**{**vars(math), "atan2": _refuse})


def _refuse_planes(mp: pytest.MonkeyPatch) -> None:
    for name in ("classify", "Plane"):
        mp.setattr(rotation_module, name, _refuse)
    mp.setattr(rotation_module, "math", _NO_ANGLES)


def _unit3(raw) -> Vec3:
    v = np.array(raw)
    assume(np.linalg.norm(v) >= 0.1)
    return Vec3(*(v / np.linalg.norm(v)))


def _factor(s: float, axis: Vec3) -> Quaternion:
    """Unit quaternion with scalar part s about the unit axis."""
    return Quaternion(s, axis * math.sqrt(1.0 - s * s))


_EPS = st.sampled_from([1e-12, 1e-8, 1e-6])
_COORDINATE_AXES = [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.6, -0.8)]


class TestAxis:
    """classify and the split take the axis V(x)/|V(x)| only with
    |V(x)| > EPS_AXIS, so they never divide by zero: on factors with |V| at,
    around and below EPS_AXIS, 0 included, they match the references bit
    for bit, with the references' ref_axis guarded.  Factors on coordinate
    axes pin the exact zeros of the closed-form p e_k, down to their sign."""

    def test_reached_only_above_eps_axis(self, monkeypatch):
        axis, reached = kernels.ref_axis, []

        def guarded(x):
            assert x.v.norm() > EPS_AXIS
            reached.append(x)
            return axis(x)

        monkeypatch.setattr(kernels, "ref_axis", guarded)
        p = Vec3(0.48, 0.6, 0.64)
        factors = [
            Quaternion(math.copysign(math.sqrt(1.0 - vn * vn), sign), p * vn)
            for vn in (0.0, 5e-10, EPS_AXIS, 1.5e-9, 0.6)
            for sign in (1.0, -1.0)
        ]
        factors += [
            Quaternion(sign * 0.8, Vec3(*axis) * 0.6)
            for axis in _COORDINATE_AXES
            for sign in (1.0, -1.0)
        ]
        for a in factors:
            for b in factors:
                r = Rotation4(a, b)
                for eps in (1e-12, DEFAULT_EPS, 1.0):
                    got = kernels.outcome(classify, r, eps)
                    assert got == kernels.outcome(kernels.ref_classify, r, eps)
                    got = kernels.outcome(simple_to_reflections, r, eps)
                    split = kernels.ref_split
                    want = kernels.outcome(lambda: tuple(map(ReflectionNormal, split(r, eps))))
                    assert got == want
        assert reached


_AXIS = st.sampled_from(_COORDINATE_AXES) | _VEC


def _pure_unit(raw) -> tuple:
    """(0.0, p1, p2, p3) for the unit p along raw, as the kernels take axes."""
    n = math.sqrt(sum(x * x for x in raw))
    assume(n >= 0.1)
    return (0.0, *(x / n for x in raw))


class TestEigenvector:
    """rotation._eigenvector(p, q, sign) is a unit u with p u q = sign u, for
    unit axes p, q drawn at random or along coordinate axes, and q = +-p."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        p_raw=_AXIS,
        q_raw=_AXIS,
        q_is=st.sampled_from(["drawn", "p", "-p"]),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_unit_eigenvector(self, p_raw, q_raw, q_is, sign):
        p = _pure_unit(p_raw)
        if q_is == "drawn":
            q = _pure_unit(q_raw)
        else:
            q = p if q_is == "p" else (0.0, -p[1], -p[2], -p[3])
        u = Quaternion.of(*rotation_module._eigenvector(p, q, sign))
        assert abs(norm_sq(u) - 1.0) <= EPS_UNIT
        image = mul(mul(Quaternion.of(*p), u), Quaternion.of(*q))
        assert comp_diff(image, u * sign) <= EPS_ALG


_EDGE_NORMS = st.sampled_from([1.01 * EPS_AXIS, 1e-8, 1e-4, 0.6, 1.0])
# norm^2 - 1 at the unit gate, less a millionth so that rounding keeps it in
_EDGE_OFFS = st.sampled_from([-EPS_UNIT, 0.0, EPS_UNIT]).map(lambda x: x * (1.0 - 1e-6))


class TestKernelInvariants:
    """What the float kernels no longer re-check holds by construction, on
    factors at the admission edges: norm^2 EPS_UNIT off 1, vector parts from
    1.01 EPS_AXIS up, and b's axis drawn or within 1e-10 of +-p.  _axes
    returns unit axes, the column _eigenvector scales has norm^2 4 P_kk >= 2,
    classify's plane bases are orthonormal, and the a y that _split scales
    is never small."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        p_raw=_VEC,
        d_raw=_VEC,
        na=_EDGE_NORMS,
        nb=_EDGE_NORMS,
        offs=st.tuples(_EDGE_OFFS, _EDGE_OFFS),
        signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
        q_is=st.sampled_from(["drawn", "p", "-p"]),
        tilt=st.sampled_from([0.0, 1e-10]),
        simple=st.booleans(),
    )
    def test_at_the_admission_edges(self, p_raw, d_raw, na, nb, offs, signs, q_is, tilt, simple):
        p, d = _unit3(p_raw), _unit3(d_raw)
        if q_is == "drawn":
            q = d
        else:
            d = _unit3((d - p * d.dot(p)).components())
            q = p * (1.0 if q_is == "p" else -1.0) + d * tilt
            q = q / q.norm()
        if simple:
            nb, signs = na, (signs[0], signs[0])
        a, b = (
            Quaternion(sign * math.sqrt(1.0 - n * n), axis * n) * math.sqrt(1.0 + off)
            for sign, axis, n, off in zip(signs, (p, q), (na, nb), offs)
        )
        r = Rotation4(a, b)
        s, a1, a2, a3 = r.a
        t, b1, b2, b3 = r.b
        norms = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3), math.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
        pu, qu = (Quaternion.of(*x) for x in rotation_module._axes(r.a, r.b, *norms))
        assert abs(pu.v.norm() - 1.0) <= 1e-15 and abs(qu.v.norm() - 1.0) <= 1e-15
        for sign in (-1.0, 1.0):
            dot = pu.v.dot(qu.v)
            diag = [-dot] + [dot - 2.0 * x * y for x, y in zip(pu.v, qu.v)]
            e = (ONE, I, J, K)[diag.index(max(diag) if sign > 0.0 else min(diag))]
            column = mul(mul(pu, e), qu) * sign + e
            assert math.sqrt(norm_sq(column)) >= math.sqrt(2.0) - 1e-12
        kind = classify(r)
        if isinstance(kind, Simple):
            planes = (kind.rotation_plane, kind.fixed_plane)
        else:
            assert isinstance(kind, Double)
            planes = (kind.plane1, kind.plane2)
        for plane in planes:
            assert abs(norm_sq(plane.u) - 1.0) <= 1e-15
            assert abs(norm_sq(plane.w) - 1.0) <= 1e-15
            assert abs(dot4(plane.u, plane.w)) <= 1e-15
        if isinstance(kind, Simple):
            y = Quaternion.of(*rotation_module._split(r, DEFAULT_EPS)[2])
            assert math.sqrt(norm_sq(mul(r.a, y))) >= 1.0 - EPS_UNIT


class TestOneKindRule:
    """rotation._kind_of is the one place the kind rule is written: classify,
    simple_to_reflections, is_composition_simple and cli.random_rotation
    all follow a stub put in its place."""

    DOUBLE = Rotation4(Quaternion.of(0.5, 0.5, 0.5, -0.5), Quaternion.of(R2, R2, 0.0, 0.0))

    @staticmethod
    def stub(mp: pytest.MonkeyPatch, kind: type) -> list:
        calls = []

        def rule(s, t, na, nb, eps):
            calls.append((s, t, na, nb, eps))
            return kind

        mp.setattr(rotation_module, "_kind_of", rule)
        return calls

    def test_reads_the_factors(self, monkeypatch):
        calls = self.stub(monkeypatch, Double)
        r = self.DOUBLE
        classify(r, 0.25)
        with pytest.raises(NotSimple):
            simple_to_reflections(r, 0.25)
        want = (0.5, R2, r.a.v.norm(), r.b.v.norm(), 0.25)
        assert calls == [want, want]

    def test_a_double_called_simple(self, monkeypatch):
        r = self.DOUBLE
        assert isinstance(classify(r), Double)
        with pytest.raises(NotSimple):
            simple_to_reflections(r)
        self.stub(monkeypatch, Simple)
        assert isinstance(classify(r), Simple)
        y, z = simple_to_reflections(r)
        assert z.q == normalized(mul(r.a, y.q))
        assert isinstance(is_composition_simple(r, GOLDEN_G), SimplicityReport)
        with pytest.raises(RuntimeError, match="failed to generate a double rotation"):
            random_rotation(random.Random(0), "double")

    def test_a_simple_called_double(self, monkeypatch):
        assert isinstance(classify(GOLDEN_F), Simple)
        self.stub(monkeypatch, Double)
        assert isinstance(classify(GOLDEN_F), Double)
        with pytest.raises(NotSimple, match="a Double rotation"):
            simple_to_reflections(GOLDEN_F)
        with pytest.raises(NotSimple, match="f is not a simple rotation: a Double rotation"):
            is_composition_simple(GOLDEN_F, GOLDEN_G)
        with pytest.raises(RuntimeError, match="failed to generate a simple rotation"):
            random_rotation(random.Random(0), "simple")
        assert isinstance(random_rotation(random.Random(0), "double"), Rotation4)

    def test_the_identity(self, monkeypatch):
        self.stub(monkeypatch, Identity)
        assert classify(GOLDEN_F) == Identity()
        y, _ = simple_to_reflections(GOLDEN_F)
        assert y.q == ONE
        assert is_composition_simple(GOLDEN_F, GOLDEN_G).intersection_dim == 2


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
        ps = np.array(p.components())
        d -= (d @ ps) * ps
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


_GRID_VALUES = (0.0, 0.5, -0.5, R2, -R2, 1.0, -1.0)
# the 144 unit quaternions with components in {0, +-1/2, +-1/sqrt 2, +-1}
_GRID = [
    Quaternion.of(*c)
    for c in itertools.product(_GRID_VALUES, repeat=4)
    if abs(sum(x * x for x in c) - 1.0) <= 1e-12
]
_N14 = Vec3(1.0, 2.0, 3.0) / math.sqrt(14.0)


def _verify_exit(tmp_path, r: Rotation4) -> int:
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"a": list(r.a.components()), "b": list(r.b.components())}))
    return main(["verify", str(path)])


class TestHalfAngleRule:
    """Every angle comes from the factor half-angles atan2(|V|, S): the
    planes turn by the reduced sum and difference, the isoclinic rotations
    by the one non-real factor's half-angle."""

    def test_pi_turn_is_plus_pi_on_u_p_u(self, tmp_path, capsys):
        # the half-angles sum to exactly pi: measuring the image of u read
        # its component -0.0 along p u as the angle -pi
        r = Rotation4(Quaternion.of(0.0, 0.0, 0.0, -1.0), Quaternion.of(0.0, 0.0, R2, -R2))
        kind = classify(r)
        assert isinstance(kind, Simple)
        assert repr(kind.angle) == "3.141592653589793"
        plane = kind.rotation_plane
        assert plane.w == mul(pure(r.a.v / r.a.v.norm()), plane.u)
        assert _verify_exit(tmp_path, r) == 0
        assert capsys.readouterr().out.endswith("ok\n")

    def test_grid_angles_are_non_negative(self):
        assert len(_GRID) == 144
        for a in _GRID:
            for b in _GRID:
                kind = classify(Rotation4(a, b))
                if isinstance(kind, Simple):
                    angles = (kind.angle,)
                elif isinstance(kind, Double):
                    angles = (kind.angle1, kind.angle2)
                else:
                    continue
                for angle in angles:
                    assert math.copysign(1.0, angle) == 1.0 and 0.0 <= angle <= math.pi

    @pytest.mark.parametrize("t", [3e-9, 1e-8, 3e-8])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_small_isoclinic_turn(self, tmp_path, t, side):
        # S = cos t rounds to 1 or next to it, where acos reads 0 or 2.98e-8;
        # the exact angle of these float factors, atan(|V| / S), is within
        # 1e-22 of t
        turn = Quaternion(math.cos(t), _N14 * math.sin(t))
        r = Rotation4(turn, ONE) if side == "left" else Rotation4(ONE, turn)
        kind = classify(r)
        assert isinstance(kind, LeftIsoclinic if side == "left" else RightIsoclinic)
        assert abs(kind.angle - t) <= 1e-20
        assert _verify_exit(tmp_path, r) == 0

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        p_raw=_VEC,
        q_raw=_VEC,
        half_angles=st.sampled_from(
            [(5e-4, 2e-4), (math.pi / 2 + 1e-6, math.pi / 2 - 3e-6), (2.0, math.pi - 2.0 + 1e-5)]
        ),
        swap=st.booleans(),
    )
    def test_relative_angle_error_against_exact(self, p_raw, q_raw, half_angles, swap):
        # small doubles, and half-angle sums near pi, judged by tests/exact.py
        ha, hb = half_angles[::-1] if swap else half_angles
        p, q = _unit3(p_raw), _unit3(q_raw)
        a = Quaternion(math.cos(ha), p * math.sin(ha))
        r = Rotation4(a, Quaternion(math.cos(hb), q * math.sin(hb)))
        kind = classify(r)
        assert isinstance(kind, Double)
        want = exact.planes(r.a.components(), r.b.components())
        got = sorted((kind.angle1, kind.angle2))
        for g, w in zip(got, sorted((want.angle1, want.angle2))):
            assert abs(g - w) <= 1e-14 * w
