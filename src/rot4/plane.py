"""Oriented 2D subspaces of Euclidean 4-space.

A plane is stored as an ordered orthonormal basis pair (u, w).  Identity of
planes is decided through their projector u*u^T + w*w^T, which is basis-free;
orientation (the order/sign of the basis) carries the sense of in-plane
rotation.
"""

from __future__ import annotations

from .quat import EPS_UNIT, Quaternion, _dot4, _set, _Value


class Plane(_Value):
    """Plane spanned by the orthonormal pair (u, w)."""

    __slots__ = ("u", "w")

    def __init__(self, u: Quaternion, w: Quaternion):
        us, ws = u.components(), w.components()
        if (
            abs(_dot4(us, us) - 1.0) > EPS_UNIT
            or abs(_dot4(ws, ws) - 1.0) > EPS_UNIT
            or abs(_dot4(us, ws)) > EPS_UNIT
        ):
            raise ValueError("plane basis is not orthonormal")
        _set(self, "u", u)
        _set(self, "w", w)


def _projector_rows(plane: Plane) -> list[list[float]]:
    """Rows of the projector, entry (i, j) = u_i*u_j + w_i*w_j: bit for bit
    the floats of outer(u, u) + outer(w, w)."""
    us, ws = plane.u.components(), plane.w.components()
    return [[ui * uj + wi * wj for uj, wj in zip(us, ws)] for ui, wi in zip(us, ws)]


def projector_distance(p1: Plane, p2: Plane) -> float:
    """Max-abs entry difference of the two projectors, entries as in
    _projector_rows; both are symmetric bit for bit, so i <= j suffices."""
    rows = list(zip(p1.u.components(), p1.w.components(), p2.u.components(), p2.w.components()))
    return max(
        abs(ui * uj + wi * wj - (xi * xj + yi * yj))
        for i, (ui, wi, xi, yi) in enumerate(rows)
        for uj, wj, xj, yj in rows[i:]
    )

