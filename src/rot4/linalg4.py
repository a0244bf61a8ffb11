"""Determinant and numerical rank (via the singular values) of the small
dense matrices this package produces.

Deterministic for a given LAPACK build (fixed tolerance, no random
starts)."""

from __future__ import annotations

import numpy as np

from .quat import PIVOT_TOL


def rank(matrix, tol: float = PIVOT_TOL) -> int:
    """Numerical rank: the count of singular values above
    tol * max(1, largest |entry|)."""
    a = np.array(matrix, dtype=float)
    cut = tol * max(1.0, float(np.abs(a).max()))
    return int((np.linalg.svd(a, compute_uv=False) > cut).sum())


def det(matrix) -> float:
    """Determinant, by LAPACK's LU factorization."""
    return float(np.linalg.det(np.array(matrix, dtype=float)))
