"""Matrix-based ground truth for rotations of Euclidean 4-space.

The map x -> a x b is linear, so it has a 4x4 matrix M in the basis
(1, i, j, k).  For a rotation with angles t1, t2 on its two orthogonal
invariant planes, the symmetric part M + M^T acts as 2*cos(t_i) on plane i:
its eigenspaces are the invariant planes and its eigenvalues encode the
angle cosines.  The antisymmetric part (M - M^T)/2 acts as sin(t_i) times a
quarter-turn on plane i, which recovers the sines.  Everything here is
derived from the matrix alone; none of the closed-form plane constructions
of the rest of the package are consulted, so this module can arbitrate them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PairingFailure
from .plane import Plane
from .quat import EPS_ALG, Quaternion


def left_mult_matrix(a: Quaternion) -> np.ndarray:
    """Matrix of x -> a x in the basis (1, i, j, k)."""
    s, x1, x2, x3 = a.components()
    return np.array(
        [
            [s, -x1, -x2, -x3],
            [x1, s, -x3, x2],
            [x2, x3, s, -x1],
            [x3, -x2, x1, s],
        ]
    )


def right_mult_matrix(b: Quaternion) -> np.ndarray:
    """Matrix of x -> x b in the basis (1, i, j, k)."""
    s, x1, x2, x3 = b.components()
    return np.array(
        [
            [s, -x1, -x2, -x3],
            [x1, s, x3, -x2],
            [x2, -x3, s, x1],
            [x3, x2, -x1, s],
        ]
    )


def symmetric_eigen4(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a
    symmetric 4x4 matrix, by LAPACK's symmetric eigensolver.

    Raises ValueError for a non-4x4 or asymmetric input.
    """
    s = np.array(matrix, dtype=float)
    if s.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {s.shape}")
    if np.abs(s - s.T).max() > EPS_ALG:
        raise ValueError("matrix is not symmetric")
    eigvals, eigvecs = np.linalg.eigh((s + s.T) / 2.0)
    return eigvals[::-1], eigvecs[:, ::-1]


@dataclass(frozen=True)
class OraclePlanes:
    """Invariant planes and angles recovered from a rotation matrix.

    Angles are unsigned, in [0, pi].  When the two angles coincide the
    planes are not unique (any orthogonal split works); isoclinic is then
    set and the reported planes are just one admissible choice.
    """

    plane1: Plane
    angle1: float
    plane2: Plane
    angle2: float
    isoclinic: bool


def planes_from_matrix(matrix, eps: float = 1e-8) -> OraclePlanes:
    """Recover invariant planes and angles of a 4x4 rotation matrix."""
    m = np.array(matrix, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    # admission is looser than the 1e-9 unit-norm gate on quaternion factors:
    # factors at that boundary already give an orthogonality defect near 2e-9
    if np.abs(m.T @ m - np.eye(4)).max() > 1e-8 or abs(np.linalg.det(m) - 1.0) > 1e-8:
        raise ValueError("matrix is not a rotation (orthogonal, det +1) to tolerance")

    eigvals, eigvecs = symmetric_eigen4(m + m.T)
    gap1 = eigvals[0] - eigvals[1]
    gap2 = eigvals[2] - eigvals[3]
    if gap1 > eps or gap2 > eps:
        raise PairingFailure(
            f"eigenvalues {eigvals} do not split into two near-equal pairs"
        )

    antisym = (m - m.T) / 2.0

    def plane_and_angle(i0: int) -> tuple[Plane, float]:
        pair_mean = (eigvals[i0] + eigvals[i0 + 1]) / 2.0
        u = eigvecs[:, i0]
        w = eigvecs[:, i0 + 1]
        # |sin| from the antisymmetric part keeps near-zero angles
        # well-conditioned, where arccos of the eigenvalue loses half the digits
        sine = float(np.linalg.norm(antisym @ u))
        angle = math.atan2(sine, pair_mean / 2.0)
        return Plane(Quaternion.from_array(u), Quaternion.from_array(w)), angle

    plane1, angle1 = plane_and_angle(0)
    plane2, angle2 = plane_and_angle(2)
    isoclinic = (eigvals[0] - eigvals[3]) <= eps
    return OraclePlanes(plane1, angle1, plane2, angle2, isoclinic)
