"""Oriented 2D subspaces of Euclidean 4-space.

A plane is stored as an ordered orthonormal basis pair (u, w).  Identity of
planes is decided through their projector u*u^T + w*w^T, which is basis-free;
orientation (the order/sign of the basis) carries the sense of in-plane
rotation.
"""

from __future__ import annotations

from .quat import EPS_UNIT, Quaternion, _dot4, _setters, _Value


class Plane(_Value):
    """Plane spanned by the orthonormal pair (u, w)."""

    __slots__ = ("u", "w")

    def __init__(self, u: Quaternion, w: Quaternion):
        if not isinstance(u, Quaternion) or not isinstance(w, Quaternion):
            name, x = ("w", w) if isinstance(u, Quaternion) else ("u", u)
            raise TypeError(f"{name} must be a Quaternion, got {type(x).__name__}")
        if (
            abs(_dot4(u, u) - 1.0) > EPS_UNIT
            or abs(_dot4(w, w) - 1.0) > EPS_UNIT
            or abs(_dot4(u, w)) > EPS_UNIT
        ):
            raise ValueError("plane basis is not orthonormal")
        _set_u(self, u)
        _set_w(self, w)


_set_u, _set_w = _setters(Plane)


def _projector_rows(plane: Plane) -> list[list[float]]:
    """Rows of the projector, entry (i, j) = u_i*u_j + w_i*w_j: bit for bit
    the floats of outer(u, u) + outer(w, w)."""
    us, ws = plane.u, plane.w
    return [[ui * uj + wi * wj for uj, wj in zip(us, ws)] for ui, wi in zip(us, ws)]


def projector_distance(p1: Plane, p2: Plane) -> float:
    """Max-abs entry difference of the two projectors, entries as in
    _projector_rows; both are symmetric bit for bit, so i <= j suffices."""
    u0, u1, u2, u3 = p1.u
    w0, w1, w2, w3 = p1.w
    x0, x1, x2, x3 = p2.u
    y0, y1, y2, y3 = p2.w
    return max(
        abs(u0 * u0 + w0 * w0 - (x0 * x0 + y0 * y0)),
        abs(u0 * u1 + w0 * w1 - (x0 * x1 + y0 * y1)),
        abs(u0 * u2 + w0 * w2 - (x0 * x2 + y0 * y2)),
        abs(u0 * u3 + w0 * w3 - (x0 * x3 + y0 * y3)),
        abs(u1 * u1 + w1 * w1 - (x1 * x1 + y1 * y1)),
        abs(u1 * u2 + w1 * w2 - (x1 * x2 + y1 * y2)),
        abs(u1 * u3 + w1 * w3 - (x1 * x3 + y1 * y3)),
        abs(u2 * u2 + w2 * w2 - (x2 * x2 + y2 * y2)),
        abs(u2 * u3 + w2 * w3 - (x2 * x3 + y2 * y3)),
        abs(u3 * u3 + w3 * w3 - (x3 * x3 + y3 * y3)),
    )
