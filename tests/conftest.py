import math

import numpy as np
import pytest

from rot4 import (
    ONE,
    Plane,
    Quaternion,
    ReflectionNormal,
    Rotation4,
    Vec3,
    dot4,
    from_reflections,
    projector_distance,
    to_matrix,
)

# Bounds the tests hold rot4 to; no rot4 code compares against them.
# Pure-algebra identities hold to rounding, within EPS_ALG.
EPS_ALG = 1e-12
# The default projector equality of planes.
EPS_PLANE = 1e-8

R2 = 1.0 / math.sqrt(2.0)

GOLDEN_F = Rotation4(Quaternion.of(R2, R2, 0, 0), Quaternion.of(R2, 0, R2, 0))
GOLDEN_G = Rotation4(Quaternion.of(R2, 0, R2, 0), Quaternion.of(R2, 0, 0, R2))


def same_plane(p1: Plane, p2: Plane, eps: float = EPS_PLANE) -> bool:
    return projector_distance(p1, p2) <= eps


def planes_orthogonal(p1: Plane, p2: Plane, eps: float = EPS_PLANE) -> bool:
    """True when every basis vector of p1 is orthogonal to every one of p2."""
    dots = (
        dot4(p1.u, p2.u),
        dot4(p1.u, p2.w),
        dot4(p1.w, p2.u),
        dot4(p1.w, p2.w),
    )
    return max(abs(d) for d in dots) <= eps


def rand_unit_quat(rng) -> Quaternion:
    v = rng.standard_normal(4)
    return Quaternion.from_array(v / np.linalg.norm(v))


def rand_rotation(rng) -> Rotation4:
    return Rotation4(rand_unit_quat(rng), rand_unit_quat(rng))


def rand_simple(rng) -> Rotation4:
    return from_reflections(
        ReflectionNormal(rand_unit_quat(rng)), ReflectionNormal(rand_unit_quat(rng))
    )


def rand_unit_vec3(rng) -> Vec3:
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return Vec3(*v)


def comp_diff(x: Quaternion, y: Quaternion) -> float:
    return max(abs(a - b) for a, b in zip(x.components(), y.components()))


def comp_diff_up_to_sign(x: Quaternion, y: Quaternion) -> float:
    return min(comp_diff(x, y), comp_diff(x, -y))


def numpy_projector(plane: Plane) -> np.ndarray:
    """The plane's projector outer(u, u) + outer(w, w), computed by numpy."""
    u, w = np.array(plane.u.components()), np.array(plane.w.components())
    return np.outer(u, u) + np.outer(w, w)


def matrix_of(r: Rotation4) -> np.ndarray:
    """The rows of to_matrix(r) as an array."""
    return np.array(to_matrix(r))


def left_matrix(a: Quaternion) -> np.ndarray:
    """L(a), the matrix of x -> a x, for a unit a."""
    return matrix_of(Rotation4(a, ONE))


def right_matrix(b: Quaternion) -> np.ndarray:
    """R(b), the matrix of x -> x b, for a unit b."""
    return matrix_of(Rotation4(ONE, b))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
