import math

import numpy as np
import pytest

import rot4
from rot4 import (
    I,
    J,
    ONE,
    PairingFailure,
    Quaternion,
    Rotation4,
    Simple,
    classify,
    left_mult_matrix,
    mul,
    planes_from_matrix,
    planes_orthogonal,
    projector_distance,
    right_mult_matrix,
    symmetric_eigen4,
    to_matrix,
)
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


class TestJacobi:
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
