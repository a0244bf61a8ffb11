"""Exact reference for the invariant planes and angles of x -> a x b.

Standard library only, and nothing from rot4: it judges rot4 where the float
oracle is ill-conditioned, as when the two rotation angles nearly coincide.

Float components are dyadic rationals, so M = L(a) R(b) is exact in
fractions.Fraction.  M is |a||b| times a rotation, so S = M + M^T has two
double eigenvalues l1 > l2, and N = S - (tr S / 4) I equals
((l1 - l2) / 2) (P1 - P2) with |N|_F = l1 - l2.  The plane projectors are
P1,2 = (I +- 2N/|N|_F) / 2: one square root, taken in decimal at DIGITS
digits.  The angles follow from cos t_i = (tr S/4 +- |N|_F/2) / (2|a||b|) and
sin t_i = |A P_i|_F / (sqrt(2) |a||b|) with A = (M - M^T)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

DIGITS = 60


def _left(a) -> list[list[Fraction]]:
    s, x1, x2, x3 = a
    return [[s, -x1, -x2, -x3], [x1, s, -x3, x2], [x2, x3, s, -x1], [x3, -x2, x1, s]]


def _right(b) -> list[list[Fraction]]:
    s, x1, x2, x3 = b
    return [[s, -x1, -x2, -x3], [x1, s, x3, -x2], [x2, -x3, s, x1], [x3, x2, -x1, s]]


def matrix(a, b) -> list[list[Fraction]]:
    """M = L(a) R(b) exactly, for float 4-tuples a, b."""
    left = _left([Fraction(x) for x in a])
    right = _right([Fraction(x) for x in b])
    return [[sum(left[i][k] * right[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def _decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


@dataclass(frozen=True)
class ExactPlanes:
    """Projectors (Decimal rows) and angles (floats) of both planes; plane 1
    belongs to the larger eigenvalue of M + M^T, and gap is |N|_F."""

    projector1: list[list[Decimal]]
    angle1: float
    projector2: list[list[Decimal]]
    angle2: float
    gap: Decimal


def planes(a, b) -> ExactPlanes:
    """The exact planes and angles of x -> a x b for float 4-tuples a, b.

    Raises ValueError when the angles coincide (N = 0) or, as a check of the
    method, when N^2 != (|N|_F/2)^2 I."""
    m = matrix(a, b)
    s = [[m[i][j] + m[j][i] for j in range(4)] for i in range(4)]
    quarter_trace = sum(s[i][i] for i in range(4)) / 4
    n = [[s[i][j] - (quarter_trace if i == j else 0) for j in range(4)] for i in range(4)]
    norm_sq = sum(x * x for row in n for x in row)
    if norm_sq == 0:
        raise ValueError("isoclinic: the planes are not unique")
    for i in range(4):
        for j in range(4):
            square = sum(n[i][k] * n[k][j] for k in range(4))
            if square != (norm_sq / 4 if i == j else 0):
                raise ValueError("N^2 is not a multiple of I: not a scaled rotation")
    antisym = [[(m[i][j] - m[j][i]) / 2 for j in range(4)] for i in range(4)]
    scale_sq = sum(Fraction(x) ** 2 for x in a) * sum(Fraction(x) ** 2 for x in b)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        norm = _decimal(norm_sq).sqrt()
        scale = _decimal(scale_sq).sqrt()
        half = Decimal(1) / 2
        out = []
        for sign in (1, -1):
            p = [
                [(half if i == j else 0) + sign * _decimal(n[i][j]) / norm for j in range(4)]
                for i in range(4)
            ]
            ap = [
                [sum(_decimal(antisym[i][k]) * p[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)
            ]
            sine = sum(x * x for row in ap for x in row).sqrt() / (Decimal(2).sqrt() * scale)
            cosine = (_decimal(quarter_trace) + sign * norm / 2) / (2 * scale)
            out.append((p, math.atan2(float(sine), float(cosine))))
    (p1, angle1), (p2, angle2) = out
    return ExactPlanes(p1, angle1, p2, angle2, norm)


def projector_error(u, w, projector: list[list[Decimal]]) -> float:
    """Largest |(u u^T + w w^T)_ij - P_ij| for float 4-tuples u, w, with the
    float products taken exactly."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(
            max(
                abs(Decimal(u[i]) * Decimal(u[j]) + Decimal(w[i]) * Decimal(w[j]) - projector[i][j])
                for i in range(4)
                for j in range(4)
            )
        )
