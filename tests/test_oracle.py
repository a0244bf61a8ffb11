import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rot4
import rot4.oracle as oracle_module
from rot4 import (
    DEFAULT_EPS,
    I,
    J,
    ONE,
    OraclePlanes,
    PairingFailure,
    Plane,
    Quaternion,
    ReflectionNormal,
    Rotation4,
    Simple,
    Vec3,
    classify,
    from_reflections,
    left_mult_matrix,
    mul,
    planes_from_matrix,
    planes_orthogonal,
    projector_distance,
    right_mult_matrix,
    symmetric_eigen4,
    to_matrix,
)
from rot4.cli import build_verify_report
from conftest import rand_unit_quat, rand_unit_vec3

R2 = 1.0 / math.sqrt(2.0)


class TestMultMatrices:
    def test_identity(self):
        assert np.array_equal(left_mult_matrix(ONE), np.eye(4))
        assert np.array_equal(right_mult_matrix(ONE), np.eye(4))

    def test_basis_actions(self):
        assert np.array_equal(left_mult_matrix(I) @ [1, 0, 0, 0], [0, 1, 0, 0])
        # i * j = k
        assert np.array_equal(right_mult_matrix(J) @ [0, 1, 0, 0], [0, 0, 0, 1])

    def test_consistency_with_mul(self, rng):
        for _ in range(200):
            a = Quaternion.from_array(rng.standard_normal(4))
            x = Quaternion.from_array(rng.standard_normal(4))
            assert np.abs(left_mult_matrix(a) @ x.as_array() - mul(a, x).as_array()).max() <= 1e-12
            assert np.abs(right_mult_matrix(a) @ x.as_array() - mul(x, a).as_array()).max() <= 1e-12

    def test_left_and_right_commute(self, rng):
        for _ in range(100):
            a, b = rand_unit_quat(rng), rand_unit_quat(rng)
            lhs = left_mult_matrix(a) @ right_mult_matrix(b)
            rhs = right_mult_matrix(b) @ left_mult_matrix(a)
            assert np.abs(lhs - rhs).max() <= 1e-13

    def test_to_matrix_is_their_product(self, rng):
        for _ in range(100):
            a, b = rand_unit_quat(rng), rand_unit_quat(rng)
            r = Rotation4(a, b)
            product = left_mult_matrix(r.a) @ right_mult_matrix(r.b)
            assert np.abs(to_matrix(r) - product).max() <= 1e-14


class TestSymmetricEigen4:
    def test_identity(self):
        eigvals, eigvecs = symmetric_eigen4(np.eye(4))
        assert np.abs(eigvals - 1.0).max() == 0.0
        assert np.abs(eigvecs.T @ eigvecs - np.eye(4)).max() <= 1e-14

    def test_diagonal(self):
        eigvals, eigvecs = symmetric_eigen4(np.diag([3.0, 2.0, 1.0, 0.0]))
        assert np.array_equal(eigvals, [3.0, 2.0, 1.0, 0.0])
        assert np.abs(np.abs(eigvecs) - np.eye(4)).max() <= 1e-14

    def test_reconstruction(self, rng):
        for _ in range(100):
            m = rng.standard_normal((4, 4)) * rng.uniform(0.1, 10)
            s = (m + m.T) / 2
            eigvals, eigvecs = symmetric_eigen4(s)
            back = eigvecs @ np.diag(eigvals) @ eigvecs.T
            scale = max(1.0, np.linalg.norm(s))
            assert np.abs(back - s).max() <= 1e-10 * scale
            assert np.abs(eigvecs.T @ eigvecs - np.eye(4)).max() <= 1e-13
            for idx in range(4):
                residual = s @ eigvecs[:, idx] - eigvals[idx] * eigvecs[:, idx]
                assert np.linalg.norm(residual) <= 1e-10 * scale

    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            symmetric_eigen4(m)


class TestPlanesFromMatrix:
    def test_identity_is_isoclinic_zero(self):
        result = planes_from_matrix(np.eye(4))
        assert result.isoclinic
        assert result.angle1 == 0.0
        assert result.angle2 == 0.0

    def test_golden_composition(self):
        h = Rotation4(Quaternion.of(0.5, 0.5, 0.5, -0.5), Quaternion.of(0.5, 0.5, 0.5, 0.5))
        result = planes_from_matrix(to_matrix(h))
        angles = sorted([result.angle1, result.angle2])
        assert angles[0] <= 1e-9
        assert abs(angles[1] - 2 * math.pi / 3) <= 1e-12
        kind = classify(h)
        assert isinstance(kind, Simple)
        fixed_oracle = result.plane1 if result.angle1 < result.angle2 else result.plane2
        assert projector_distance(fixed_oracle, kind.fixed_plane) <= 1e-8

    def test_construct_then_recover(self, rng):
        for _ in range(100):
            alpha = rng.uniform(0.15, 1.35)
            beta = rng.uniform(0.15, 1.35)
            if abs(alpha - beta) < 0.08:
                continue
            p, q = rand_unit_vec3(rng), rand_unit_vec3(rng)
            a = Quaternion(math.cos(alpha), p * math.sin(alpha))
            b = Quaternion(math.cos(beta), q * math.sin(beta))
            matrix = to_matrix(Rotation4(a, b))
            result = planes_from_matrix(matrix)
            got = sorted([result.angle1, result.angle2])
            want = sorted([alpha + beta, abs(alpha - beta)])
            assert abs(got[0] - want[0]) <= 1e-9
            assert abs(got[1] - want[1]) <= 1e-9
            if not result.isoclinic:
                assert planes_orthogonal(result.plane1, result.plane2, 1e-9)
            for plane in (result.plane1, result.plane2):
                proj = plane.projector()
                for vec in (plane.u.as_array(), plane.w.as_array()):
                    image = matrix @ vec
                    assert np.abs(proj @ image - image).max() <= 1e-9

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            planes_from_matrix(np.diag([1.0, 1.0, 1.0, -1.0]))  # det -1
        with pytest.raises(ValueError):
            planes_from_matrix(np.eye(4) * 1.5)

    def test_pairing_failure_at_tiny_eps(self, rng):
        r = Rotation4(rand_unit_quat(rng), rand_unit_quat(rng))
        with pytest.raises(PairingFailure):
            planes_from_matrix(to_matrix(r), eps=1e-16)


_NON_FINITE = pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)


def _with_entry(m: np.ndarray, value: float, *cells: tuple[int, int]) -> np.ndarray:
    m = np.array(m, dtype=float)
    for cell in cells:
        m[cell] = value
    return m


class TestNonFinite:
    """A NaN fails every comparison, so a `defect > tol` gate lets it through.
    Non-finite input is refused at the gates with their own ValueError, and
    without a RuntimeWarning on the way."""

    @_NON_FINITE
    def test_planes_from_matrix(self, value):
        rotation = to_matrix(Rotation4(Quaternion.of(0.5, 0.5, 0.5, -0.5), ONE))
        for m in (
            np.full((4, 4), value),
            _with_entry(np.eye(4), value, (0, 0)),
            _with_entry(rotation, value, (1, 2)),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="not a rotation"):
                    planes_from_matrix(m)

    @_NON_FINITE
    def test_symmetric_eigen4(self, value):
        for m in (
            np.full((4, 4), value),
            _with_entry(np.eye(4), value, (0, 0)),
            _with_entry(np.eye(4), value, (1, 2), (2, 1)),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="not symmetric"):
                    symmetric_eigen4(m)


def _array_route(matrix, eps: float = DEFAULT_EPS) -> OraclePlanes:
    """planes_from_matrix for an admitted rotation matrix, written on numpy
    arrays throughout: symmetric_eigen4 on m + m.T, column slices, one
    np.linalg.norm per plane and Quaternion.from_array."""
    m = np.array(matrix, dtype=float)
    eigvals, eigvecs = symmetric_eigen4(m + m.T)
    if eigvals[0] - eigvals[1] > eps or eigvals[2] - eigvals[3] > eps:
        raise PairingFailure(f"eigenvalues {eigvals} do not split into two near-equal pairs")
    antisym = (m - m.T) / 2.0

    def plane_and_angle(i0: int) -> tuple[Plane, float]:
        u, w = eigvecs[:, i0], eigvecs[:, i0 + 1]
        sine = float(np.linalg.norm(antisym @ u))
        angle = math.atan2(sine, (eigvals[i0] + eigvals[i0 + 1]) / 2.0 / 2.0)
        return Plane(Quaternion.from_array(u), Quaternion.from_array(w)), angle

    plane1, angle1 = plane_and_angle(0)
    plane2, angle2 = plane_and_angle(2)
    isoclinic = (eigvals[0] - eigvals[3]) <= eps
    return OraclePlanes(plane1, angle1, plane2, angle2, isoclinic)


def _bits(plane: Plane) -> list[str]:
    return [c.hex() for q in (plane.u, plane.w) for c in q.components()]


def _verdict(r: Rotation4, eps: float):
    try:
        return build_verify_report(r, eps)["ok"]
    except PairingFailure as exc:
        return str(exc)


_COORD = st.floats(-1.0, 1.0)
_VEC = st.tuples(_COORD, _COORD, _COORD)
_VEC4 = st.tuples(_COORD, _COORD, _COORD, _COORD)
_HALF_ANGLE = st.floats(0.2, 2.9)
_PAIRING_EPS = st.sampled_from([DEFAULT_EPS, 1e-6, 1e-14, 1e-15, 1e-16])


def _unit(raw) -> np.ndarray:
    v = np.array(raw)
    assume(np.linalg.norm(v) >= 0.1)
    return v / np.linalg.norm(v)


def _turn(half_angle: float, axis) -> Quaternion:
    return Quaternion(math.cos(half_angle), Vec3(*axis) * math.sin(half_angle))


class TestArrayRoute:
    """The oracle reads eigh's output once as floats.  Against the same
    construction on numpy arrays it gives bit-identical planes and the same
    isoclinic flag, angles within 1e-15 (the sine sums run in another
    order), the same PairingFailure cases, and the same verify verdict."""

    @staticmethod
    def check(r: Rotation4, eps: float) -> None:
        m = to_matrix(r)
        try:
            want = _array_route(m, eps)
        except PairingFailure as exc:
            with pytest.raises(PairingFailure) as got:
                planes_from_matrix(m, eps)
            assert str(got.value) == str(exc)
        else:
            got = planes_from_matrix(m, eps)
            assert _bits(got.plane1) == _bits(want.plane1)
            assert _bits(got.plane2) == _bits(want.plane2)
            assert got.isoclinic == want.isoclinic
            assert abs(got.angle1 - want.angle1) <= 1e-15
            assert abs(got.angle2 - want.angle2) <= 1e-15
        verdict = _verdict(r, eps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "planes_from_matrix", _array_route)
            assert _verdict(r, eps) == verdict

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(a_raw=_VEC4, b_raw=_VEC4, eps=_PAIRING_EPS)
    def test_generic(self, a_raw, b_raw, eps):
        a, b = (Quaternion.from_array(_unit(v)) for v in (a_raw, b_raw))
        self.check(Rotation4(a, b), eps)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(y_raw=_VEC4, z_raw=_VEC4, eps=_PAIRING_EPS)
    def test_simple(self, y_raw, z_raw, eps):
        y, z = (ReflectionNormal(Quaternion.from_array(_unit(v))) for v in (y_raw, z_raw))
        self.check(from_reflections(y, z), eps)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(a_raw=_VEC4, left=st.booleans(), sign=st.sampled_from([1.0, -1.0]), eps=_PAIRING_EPS)
    def test_isoclinic(self, a_raw, left, sign, eps):
        a, one = Quaternion.from_array(_unit(a_raw)), ONE * sign
        self.check(Rotation4(a, one) if left else Rotation4(one, a), eps)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        p_raw=_VEC,
        d_raw=_VEC,
        gap=st.sampled_from([1e-8, 1e-9, 1e-10]),
        sign=st.sampled_from([1.0, -1.0]),
        alpha=_HALF_ANGLE,
        beta=_HALF_ANGLE,
        eps=_PAIRING_EPS,
    )
    def test_axes_near_plus_minus_p(self, p_raw, d_raw, gap, sign, alpha, beta, eps):
        p = _unit(p_raw)
        d = np.array(d_raw)
        d -= (d @ p) * p
        q = _unit(sign * p + gap * _unit(d))
        self.check(Rotation4(_turn(alpha, p), _turn(beta, q)), eps)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        p_raw=_VEC,
        q_raw=_VEC,
        alpha=_HALF_ANGLE,
        gap=st.floats(5e-9, 1.5e-8),
        side=st.sampled_from([1.0, -1.0]),
        eps=_PAIRING_EPS,
    )
    def test_near_simple_band(self, p_raw, q_raw, alpha, gap, side, eps):
        """|S(a) - S(b)| of 5e-9 to 1.5e-8."""
        sa = math.cos(alpha)
        sb = sa - side * gap
        a = Quaternion(sa, Vec3(*_unit(p_raw)) * math.sqrt(1.0 - sa * sa))
        b = Quaternion(sb, Vec3(*_unit(q_raw)) * math.sqrt(1.0 - sb * sb))
        self.check(Rotation4(a, b), eps)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        p_raw=_VEC,
        b_raw=_VEC4,
        va=st.floats(5e-9, 2e-8),
        sa_sign=st.sampled_from([1.0, -1.0]),
        eps=_PAIRING_EPS,
    )
    def test_nearly_equal_angles_band(self, p_raw, b_raw, va, sa_sign, eps):
        """|V(a)| of 5e-9 to 2e-8: the two angles differ by about 2|V(a)|."""
        a = Quaternion(sa_sign * math.sqrt(1.0 - va * va), Vec3(*_unit(p_raw)) * va)
        self.check(Rotation4(a, Quaternion.from_array(_unit(b_raw))), eps)


class TestPublicSurface:
    """The oracle's names are resolved on first use, not at `import rot4`."""

    ORACLE_NAMES = (
        "OraclePlanes",
        "left_mult_matrix",
        "planes_from_matrix",
        "right_mult_matrix",
        "symmetric_eigen4",
    )

    def test_every_public_name_resolves(self):
        for name in rot4.__all__:
            assert getattr(rot4, name) is not None, name
        for name in self.ORACLE_NAMES:
            assert name in rot4.__all__
            assert getattr(rot4, name) is getattr(rot4.oracle, name)
        assert set(rot4.__all__) <= set(dir(rot4))

    def test_star_import(self):
        namespace = {}
        exec("from rot4 import *", namespace)
        assert namespace["planes_from_matrix"] is planes_from_matrix
        assert set(namespace) - {"__builtins__"} == set(rot4.__all__)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            rot4.no_such_name
        assert not hasattr(rot4, "planes_from_array")
