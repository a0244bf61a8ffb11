"""Numerical rank of the small dense matrices this package produces, via
the singular values.

Deterministic for a given LAPACK build (fixed tolerance, no random
starts)."""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10


def rank(matrix, tol: float = PIVOT_TOL) -> int:
    """Numerical rank: the count of singular values above
    tol * max(1, largest |entry|)."""
    a = np.array(matrix, dtype=float)
    cut = tol * max(1.0, float(np.abs(a).max()))
    return int((np.linalg.svd(a, compute_uv=False) > cut).sum())
