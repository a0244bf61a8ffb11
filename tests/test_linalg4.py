"""Linear-algebra facts about the matrices of simple rotations, checked with
numpy inside the test."""

import numpy as np

from rot4 import ReflectionNormal, from_reflections, left_mult_matrix, right_mult_matrix
from conftest import rand_unit_quat


class TestNullspace:
    def test_simple_rotation_kernel_is_a_plane(self, rng):
        # x -> a x - x b vanishes on a plane exactly when S(a) = S(b)
        for _ in range(50):
            r = from_reflections(
                ReflectionNormal(rand_unit_quat(rng)), ReflectionNormal(rand_unit_quat(rng))
            )
            kernel_map = left_mult_matrix(r.a) - right_mult_matrix(r.b)
            assert np.linalg.matrix_rank(kernel_map, tol=1e-10) == 2
