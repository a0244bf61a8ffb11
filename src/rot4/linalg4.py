"""Small dense rank/nullspace helpers via the singular value decomposition.

Sized for the 4x4 systems this package produces; deterministic for a given
LAPACK build (fixed tolerance, no random starts)."""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10


def _svd_rank(matrix, tol: float) -> tuple[np.ndarray, int]:
    """Vt of the SVD and the count of singular values above
    tol * max(1, largest |entry|)."""
    a = np.array(matrix, dtype=float)
    _, sv, vt = np.linalg.svd(a)
    cut = tol * max(1.0, float(np.abs(a).max()))
    return vt, int((sv > cut).sum())


def rank(matrix, tol: float = PIVOT_TOL) -> int:
    """Numerical rank with singular values measured against the largest entry."""
    return _svd_rank(matrix, tol)[1]


def nullspace(matrix, tol: float = PIVOT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the (right) nullspace: the rows of Vt past the rank."""
    vt, r = _svd_rank(matrix, tol)
    return list(vt[r:])
