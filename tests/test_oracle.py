import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rot4
import rot4.oracle as oracle_module
import rot4.quat as quat_module
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
    mul,
    normalized,
    planes_from_matrix,
    projector_distance,
    to_matrix,
)
from rot4.cli import build_verify_report

import exact
from conftest import (
    R2,
    left_matrix,
    matrix_of,
    numpy_projector,
    planes_orthogonal,
    rand_unit_quat,
    rand_unit_vec3,
    right_matrix,
)


class TestMultMatrices:
    """L(a) and R(b), the matrices of x -> a x and x -> x b, built by
    to_matrix as the matrices of the rotations (a, 1) and (1, b)."""

    def test_identity(self):
        assert np.array_equal(left_matrix(ONE), np.eye(4))
        assert np.array_equal(right_matrix(ONE), np.eye(4))

    def test_basis_actions(self):
        assert np.array_equal(left_matrix(I) @ [1, 0, 0, 0], [0, 1, 0, 0])
        # i * j = k
        assert np.array_equal(right_matrix(J) @ [0, 1, 0, 0], [0, 0, 0, 1])

    def test_consistency_with_mul(self, rng):
        for _ in range(200):
            a = normalized(Quaternion.from_array(rng.standard_normal(4)))
            x = Quaternion.from_array(rng.standard_normal(4))
            xs = np.array(x.components())
            assert np.abs(left_matrix(a) @ xs - mul(a, x).components()).max() <= 1e-12
            assert np.abs(right_matrix(a) @ xs - mul(x, a).components()).max() <= 1e-12

    def test_left_and_right_commute(self, rng):
        for _ in range(100):
            a, b = rand_unit_quat(rng), rand_unit_quat(rng)
            lhs = left_matrix(a) @ right_matrix(b)
            rhs = right_matrix(b) @ left_matrix(a)
            assert np.abs(lhs - rhs).max() <= 1e-13

    def test_to_matrix_is_their_product(self, rng):
        for _ in range(100):
            a, b = rand_unit_quat(rng), rand_unit_quat(rng)
            r = Rotation4(a, b)
            product = left_matrix(r.a) @ right_matrix(r.b)
            assert np.abs(matrix_of(r) - product).max() <= 1e-14


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
                proj = numpy_projector(plane)
                for vec in (np.array(plane.u.components()), np.array(plane.w.components())):
                    image = matrix @ vec
                    assert np.abs(proj @ image - image).max() <= 1e-9

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            planes_from_matrix(np.diag([1.0, 1.0, 1.0, -1.0]))  # det -1
        with pytest.raises(ValueError):
            planes_from_matrix(np.eye(4) * 1.5)

    @pytest.mark.parametrize(
        "matrix",
        [
            pytest.param([[1.0, 0.0, 0.0, 0.0]] * 3, id="3-rows"),
            pytest.param([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], id="3x3"),
            pytest.param([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0]] + [[0.0] * 4] * 2, id="ragged"),
            pytest.param([[0.0] * 5] + [[0.0] * 4] * 3, id="ragged-long-row"),
            pytest.param(np.eye(3), id="array-3x3"),
            pytest.param(np.eye(5), id="array-5x5"),
            pytest.param(np.eye(4)[:, :3], id="array-4x3"),
            pytest.param(np.eye(4)[:, :, None], id="array-4x4x1"),
            pytest.param([[np.ones(1)] * 4] * 4, id="entries-of-one-element-arrays"),
            pytest.param(np.zeros(16), id="array-flat"),
            pytest.param(1.0, id="scalar"),
        ],
    )
    def test_rejects_bad_shape(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="expected a 4x4 matrix"):
                planes_from_matrix(matrix)

    def test_bases_skip_the_per_component_check(self, monkeypatch):
        """The plane bases are admitted by _quat's one fused finiteness test."""
        matrix = to_matrix(Rotation4(Quaternion.of(0.5, 0.5, 0.5, -0.5), Quaternion.of(R2, R2, 0, 0)))
        calls = []
        monkeypatch.setattr(quat_module, "_finite", lambda name, value: calls.append(name))
        planes_from_matrix(matrix)
        assert calls == []

    def test_rounding_noise_gives_the_fixed_split(self):
        """M = diag(d, d, d, 1) with d = 1 - 3 * 2^-52 is a rotation to
        rounding.  N = 2^-51 diag(-1, -1, -1, 2) is no multiple of P1 - P2,
        so I/2 +- N/|N|_F are no projectors: isoclinic at DEFAULT_EPS with
        the fixed split, and unresolved at an eps between the pair split
        (6.2e-16) and |N|_F (1.2e-15)."""
        d = 1.0 - 3.0 * 2.0**-52
        m = np.diag([d, d, d, 1.0])
        result = planes_from_matrix(m)
        assert result.isoclinic
        assert (result.plane1, result.plane2) == (Plane(ONE, I), Plane(J, rot4.K))
        assert result.angle1 == result.angle2 == 0.0
        with pytest.raises(PairingFailure, match="not resolved"):
            planes_from_matrix(m, eps=1e-15)

    def test_pairing_failure_at_tiny_eps(self, rng):
        r = Rotation4(rand_unit_quat(rng), rand_unit_quat(rng))
        with pytest.raises(PairingFailure):
            planes_from_matrix(to_matrix(r), eps=1e-16)


_NON_FINITE = pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)


def _with_entry(m: np.ndarray, value: float, cell: tuple[int, int]) -> np.ndarray:
    m = np.array(m, dtype=float)
    m[cell] = value
    return m


_GENERIC = matrix_of(
    Rotation4(Quaternion.of(0.5, 0.5, 0.5, -0.5), normalized(Quaternion.of(3.0, 1.0, -2.0, 0.5)))
)


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
    @pytest.mark.parametrize("cell", [(i, j) for i in range(4) for j in range(4)], ids=str)
    def test_every_cell(self, value, cell):
        """Each of the 16 entries feeds the finiteness test."""
        for m in (_with_entry(np.eye(4), value, cell), _with_entry(_GENERIC, value, cell)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="not a rotation"):
                    planes_from_matrix(m)


class TestGramGate:
    """Each of the 10 distinct entries of M^T M - I is tested against
    EPS_MATRIX on its own.  A generic rotation R is multiplied by a matrix
    that moves one entry of the Gram matrix and leaves det M within
    EPS_MATRIX of 1, so only that entry can refuse it."""

    @pytest.mark.parametrize("i, j", [(i, j) for i in range(4) for j in range(i + 1, 4)], ids=str)
    def test_off_diagonal_shear(self, i, j):
        """R (I + d E_ij) has column i times column j equal to d, and det 1."""

        def sheared(d: float) -> np.ndarray:
            shear = np.eye(4)
            shear[i, j] = d
            return _GENERIC @ shear

        with pytest.raises(ValueError, match="not a rotation"):
            planes_from_matrix(sheared(2e-8))
        assert isinstance(planes_from_matrix(sheared(5e-9), eps=1e-3), OraclePlanes)

    @pytest.mark.parametrize("i", range(4))
    def test_diagonal_column_scale(self, i):
        """Scaling column i by 1 + 6e-9 moves its Gram entry by 1.2e-8 and
        det M by only 6e-9; 1 + 4e-9 moves them by 8e-9 and 4e-9."""

        def scaled(c: float) -> np.ndarray:
            scale = np.ones(4)
            scale[i] = c
            return _GENERIC * scale

        with pytest.raises(ValueError, match="not a rotation"):
            planes_from_matrix(scaled(1.0 + 6e-9))
        assert isinstance(planes_from_matrix(scaled(1.0 + 4e-9), eps=1e-3), OraclePlanes)


def _eigh_route(matrix, eps: float = DEFAULT_EPS) -> OraclePlanes:
    """The reference route on numpy arrays: np.linalg.eigh on M + M^T, a
    PairingFailure when an eigenvalue pair splits by more than eps, the
    eigenvector columns as plane bases, isoclinic when l1 - l4 <= eps."""
    m = np.array(matrix, dtype=float)
    ascending, eigvecs = np.linalg.eigh(m + m.T)
    eigvals, eigvecs = ascending[::-1], eigvecs[:, ::-1]
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


def _gap(matrix) -> float:
    """|N|_F for N = S - (tr S / 4) I, S = M + M^T: the eigenvalue gap l1 - l2."""
    m = np.array(matrix, dtype=float)
    s = m + m.T
    return float(np.linalg.norm(s - np.trace(s) / 4.0 * np.eye(4)))


def _angle_spread(matrix) -> float:
    """A bound on how far apart the two angles of a rotation lie.  Their
    cosines differ by (l1 - l2)/2.  A^T A, for A = (M - M^T)/2, has the
    double eigenvalues s1^2, s2^2 of the squared sines, so g = |K|_F for
    K = A^T A - (tr/4) I is |s1^2 - s2^2|, and the sines differ by at most
    g / (s1 + s2) <= g / sqrt(tr/2) and by at most sqrt(g)."""
    m = np.array(matrix, dtype=float)
    a = (m - m.T) / 2.0
    k = a.T @ a
    g = float(np.linalg.norm(k - np.trace(k) / 4.0 * np.eye(4)))
    sines = min(math.sqrt(g), g / math.sqrt(np.trace(k) / 2.0)) if g > 0.0 else 0.0
    return _gap(matrix) / 2.0 + sines


def _verdict(r: Rotation4, eps: float):
    try:
        return build_verify_report(r, eps)["ok"]
    except PairingFailure:
        return "PairingFailure"


def _outcome(route, matrix, eps: float):
    try:
        return route(matrix, eps)
    except PairingFailure:
        return None


U = 2.0**-53
# planes_from_matrix's projectors agree with the eigh route's within
# C_EIGH * U / |N|_F and with the exact arbiter's within C_EXACT * U / |N|_F:
# the u/gap conditioning of any method that reads only M.  The largest
# factors seen on 2000 seeded rotations of each of the six kinds below were
# 72 and 18.
# Its angles are within ANGLE_TOL of the arbiter's (4.7e-16 seen); against
# the eigh route they may also differ by the tilt of a basis vector, as a
# sine is read as |A u|.
C_EIGH = 128.0
C_EXACT = 32.0
ANGLE_TOL = 1e-15
# At eps <= 1e-15 the pair splits that both routes measure, and the plane
# and angle differences that verify compares, are rounding noise of about
# 1e-16 to 1e-15, so either route may raise PairingFailure or report a
# DISCREPANCY where the other does not.
ROUNDING_EPS = 1e-15

_COORD = st.floats(-1.0, 1.0)
_VEC = st.tuples(_COORD, _COORD, _COORD)
_VEC4 = st.tuples(_COORD, _COORD, _COORD, _COORD)
_HALF_ANGLE = st.floats(0.2, 2.9)
_PAIRING_EPS = st.sampled_from([1e-6, DEFAULT_EPS, 1e-10, 1e-12, 1e-14, 1e-15, 1e-16])


def _unit(raw) -> np.ndarray:
    v = np.array(raw)
    assume(np.linalg.norm(v) >= 0.1)
    return v / np.linalg.norm(v)


def _turn(half_angle: float, axis) -> Quaternion:
    return Quaternion(math.cos(half_angle), Vec3(*axis) * math.sin(half_angle))


def _assert_exact(r: Rotation4, got: OraclePlanes) -> None:
    """got's planes within C_EXACT * U / |N|_F, and its angles within
    ANGLE_TOL, of the exact planes and angles of r (tests/exact.py)."""
    want = exact.planes(r.a.components(), r.b.components())
    bound = C_EXACT * U / float(want.gap)
    for plane, angle, projector, exact_angle in (
        (got.plane1, got.angle1, want.projector1, want.angle1),
        (got.plane2, got.angle2, want.projector2, want.angle2),
    ):
        u, w = plane.u.components(), plane.w.components()
        assert exact.projector_error(u, w, projector) <= bound
        assert abs(angle - exact_angle) <= ANGLE_TOL


def _nearly_equal_angles(p_raw, b: Quaternion, va: float, sa_sign: float) -> Rotation4:
    """|V(a)| = va: the two angles differ by about 2 va."""
    a = Quaternion(sa_sign * math.sqrt(1.0 - va * va), Vec3(*_unit(p_raw)) * va)
    return Rotation4(a, b)


class TestArrayRoute:
    """planes_from_matrix works in floats, without an eigensolver.  Against
    the eigh route on numpy arrays (_eigh_route) it raises PairingFailure on
    the same cases for eps above ROUNDING_EPS, gives the same isoclinic
    flag, and projectors within C_EIGH * U / |N|_F, isoclinic or not.  A
    basis vector tilted by phi out of its plane moves the sine read off it
    by at most phi, and never past the other plane's, so the angles agree
    within the smaller of that bound and the spread of the two angles
    (_angle_spread).  verify's verdict is the same on both routes, except in
    the nearly-equal band.  Where the two verdicts differ, the exact planes
    side with planes_from_matrix, as verify calls it (_assert_exact)."""

    @staticmethod
    def check(r: Rotation4, eps: float, same_verdict: bool = True) -> None:
        m = to_matrix(r)
        want = _outcome(_eigh_route, m, eps)
        got = _outcome(planes_from_matrix, m, eps)
        if eps > ROUNDING_EPS:
            assert (got is None) == (want is None)
        if got is not None and want is not None:
            gap = _gap(m)
            tilt = C_EIGH * U / gap if gap > 0.0 else math.inf
            assert got.isoclinic == want.isoclinic
            tol = ANGLE_TOL + min(tilt, _angle_spread(m))
            assert abs(got.angle1 - want.angle1) <= tol
            assert abs(got.angle2 - want.angle2) <= tol
            assert projector_distance(got.plane1, want.plane1) <= tilt
            assert projector_distance(got.plane2, want.plane2) <= tilt
        if same_verdict and eps > ROUNDING_EPS:
            verdict = _verdict(r, eps)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle_module, "planes_from_matrix", _eigh_route)
                eigh_verdict = _verdict(r, eps)
            if eigh_verdict != verdict:
                _assert_exact(r, planes_from_matrix(m, max(eps, DEFAULT_EPS)))

    @pytest.mark.parametrize("d1, d2", [(2.5e-9, 0.0), (0.0, 2.5e-9), (2e-9, 2e-9)])
    def test_pair_splits_of_a_near_rotation(self, rng, d1, d2):
        """M = Q D Q^T with D = diag(1 + d1, 1 - d1, -1 + d2, -1 - d2) passes
        the gates, and M + M^T has the pair splits s1 = 4 d1 and s2 = 4 d2.
        planes_from_matrix compares sqrt(s1^2 + s2^2) with eps, the eigh
        route max(s1, s2): with both splits nonzero they differ in between."""
        q = matrix_of(Rotation4(rand_unit_quat(rng), rand_unit_quat(rng)))
        m = q @ np.diag([1.0 + d1, 1.0 - d1, -1.0 + d2, -1.0 - d2]) @ q.T
        split, larger = math.hypot(4.0 * d1, 4.0 * d2), 4.0 * max(d1, d2)
        for eps in (0.9 * split, 1.1 * split, 0.9 * larger, 1.1 * larger):
            assert (_outcome(planes_from_matrix, m, eps) is None) == (split > eps)
            assert (_outcome(_eigh_route, m, eps) is None) == (larger > eps)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(a_raw=_VEC4, b_raw=_VEC4, eps=_PAIRING_EPS)
    # |N|_F = 2.4e-8: verify says ok, the eigh route DISCREPANCY
    @example(a_raw=(1.0, 0.0, 0.0, 1e-08), b_raw=(1.0, 0.75, 0.0, 0.0), eps=1e-10)
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
        """|V(a)| of 5e-9 to 2e-8.  Both routes are ill-conditioned here, the
        eigh route more so, and verify's verdicts may differ: TestExactArbiter
        judges this band."""
        b = Quaternion.from_array(_unit(b_raw))
        self.check(_nearly_equal_angles(p_raw, b, va, sa_sign), eps, same_verdict=False)


def _true_angles(r: Rotation4) -> list[float]:
    """The angles ha + hb and |ha - hb|, in [0, pi], from the factors'
    half-angles, sorted."""
    (sa, *va), (sb, *vb) = r.a.components(), r.b.components()
    ha, hb = math.atan2(math.hypot(*va), sa), math.atan2(math.hypot(*vb), sb)
    return sorted([min(ha + hb, 2.0 * math.pi - ha - hb), abs(ha - hb)])


def _small_or_near_pi(p_raw, q_raw, large: float, ratio: float, simple: bool, near_pi: bool):
    """A double rotation by `large` and `ratio * large`, or by pi minus
    each, which negates S(a); a simple rotation by `large` or pi - large."""
    if simple:
        ha = hb = (math.pi - large if near_pi else large) / 2.0
        sign = 1.0
    else:
        ha, hb = large * (1.0 + ratio) / 2.0, large * (1.0 - ratio) / 2.0
        sign = -1.0 if near_pi else 1.0
    a = Quaternion(sign * math.cos(ha), Vec3(*_unit(p_raw)) * math.sin(ha))
    return Rotation4(a, _turn(hb, _unit(q_raw)))


class TestAnglesNearZeroAndPi:
    """Angles of 1e-7 to 1e-4, or that close to pi, in generic orientations.
    The cosines of two such angles agree within DEFAULT_EPS, so the oracle
    calls the rotation isoclinic, but it still reads each angle off its own
    plane: within ORACLE_TOL of the true angles (1.4e-9 the largest seen on
    4000 seeded rotations, against 6.6e-9 for the eigh route), so verify
    says ok.  A double rotation with both angles near 0 has |S(a) - S(b)|
    of about large * small / 2 < DEFAULT_EPS, so classify calls it Simple;
    its smaller angle is at least 2e-8 here, so verify reports DISCREPANCY,
    on either route."""

    ORACLE_TOL = DEFAULT_EPS / 4.0

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        p_raw=_VEC,
        q_raw=_VEC,
        large=st.floats(-7.0, -4.0).map(lambda e: 10.0**e),
        ratio=st.floats(0.2, 0.8),
        simple=st.booleans(),
        near_pi=st.booleans(),
    )
    def test_verify(self, p_raw, q_raw, large, ratio, simple, near_pi):
        r = _small_or_near_pi(p_raw, q_raw, large, ratio, simple, near_pi)
        oracle = planes_from_matrix(to_matrix(r))
        got = sorted([oracle.angle1, oracle.angle2])
        for angle, true in zip(got, _true_angles(r)):
            assert abs(angle - true) <= self.ORACLE_TOL
        assert _verdict(r, DEFAULT_EPS) is (simple or near_pi)

    def test_simple_turn_in_a_coordinate_plane(self):
        """a = b = cos(h) + j sin(h) turns the (1, j) plane by 2h = 1e-5."""
        a = Quaternion.of(math.cos(5e-6), 0.0, math.sin(5e-6), 0.0)
        oracle = planes_from_matrix(to_matrix(Rotation4(a, a)))
        assert oracle.isoclinic
        assert sorted([oracle.angle1, oracle.angle2]) == pytest.approx([0.0, 1e-5], abs=1e-15)
        assert build_verify_report(Rotation4(a, a))["ok"]


class TestExactArbiter:
    """Against the exact planes of tests/exact.py, where the float oracle is
    ill-conditioned: projectors within C_EXACT * U / |N|_F, angles within
    ANGLE_TOL."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        p_raw=_VEC,
        q_raw=_VEC,
        beta=_HALF_ANGLE,
        va=st.floats(5e-9, 2e-8),
        sa_sign=st.sampled_from([1.0, -1.0]),
    )
    def test_nearly_equal_angles_band(self, p_raw, q_raw, beta, va, sa_sign):
        r = _nearly_equal_angles(p_raw, _turn(beta, _unit(q_raw)), va, sa_sign)
        got = planes_from_matrix(to_matrix(r), eps=1e-12)
        assert not got.isoclinic
        _assert_exact(r, got)


class TestPublicSurface:
    """The oracle's names are resolved on first use, not at `import rot4`."""

    ORACLE_NAMES = ("OraclePlanes", "planes_from_matrix")

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

    def test_removed_names(self):
        for name in (
            "plane_from_span",
            "invariant_planes",
            "polar",
            "PolarForm",
            "left_mult_matrix",
            "right_mult_matrix",
            "compose_left_clifford",
            "EPS_ALG",
            "EPS_PLANE",
            "same_plane",
            "planes_orthogonal",
            "plane_rotation_angle",
        ):
            with pytest.raises(AttributeError, match=name):
                getattr(rot4, name)
            assert name not in rot4.__all__
            assert name not in dir(rot4)
        for cls in (Plane, Vec3, Quaternion):
            for attr in ("projector", "contains", "as_array", "flipped"):
                assert not hasattr(cls, attr), f"{cls.__name__}.{attr}"
