import numpy as np
import pytest

from rot4 import Plane, Quaternion, Vec3


def rand_unit_quat(rng) -> Quaternion:
    v = rng.standard_normal(4)
    return Quaternion.from_array(v / np.linalg.norm(v))


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
