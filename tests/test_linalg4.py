import numpy as np

from rot4 import ReflectionNormal, from_reflections, left_mult_matrix, right_mult_matrix
from rot4.linalg4 import nullspace, rank
from conftest import rand_unit_quat

D = np.diag([1.0, 1.0, 1e-9, 1e-11])


class TestRank:
    def test_threshold_is_relative_to_largest_entry(self):
        # a value counts as zero at <= 1e-10 * max(1, largest |entry|)
        assert rank(D) == 3
        assert rank(100 * D) == 3
        assert rank(np.diag([100.0, 1.0, 1e-9, 1e-11])) == 2

    def test_threshold_is_absolute_below_unit_scale(self):
        assert rank(D / 100) == 2

    def test_full_and_zero(self, rng):
        assert rank(rng.standard_normal((4, 4))) == 4
        assert rank(np.zeros((4, 4))) == 0


class TestNullspace:
    def test_orthonormal_and_annihilated(self, rng):
        for _ in range(50):
            a = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
            basis = np.array(nullspace(a))
            assert basis.shape == (2, 4)
            assert np.abs(basis @ basis.T - np.eye(2)).max() <= 1e-12
            assert np.abs(a @ basis.T).max() <= 1e-12

    def test_full_rank_has_none(self, rng):
        assert nullspace(rng.standard_normal((4, 4))) == []

    def test_simple_rotation_kernel_is_a_plane(self, rng):
        # x -> a x - x b vanishes on a plane exactly when S(a) = S(b)
        for _ in range(50):
            r = from_reflections(
                ReflectionNormal(rand_unit_quat(rng)), ReflectionNormal(rand_unit_quat(rng))
            )
            kernel_map = left_mult_matrix(r.a) - right_mult_matrix(r.b)
            assert len(nullspace(kernel_map)) == 2
            assert rank(kernel_map) == 2
