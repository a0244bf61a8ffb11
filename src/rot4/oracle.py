"""Matrix-based ground truth for rotations of Euclidean 4-space.

The map x -> a x b is linear, so it has a 4x4 matrix M in the basis
(1, i, j, k).  For a rotation with angles t1, t2 on its two orthogonal
invariant planes, S = M + M^T acts as 2*cos(t_i) on plane i: its two double
eigenvalues l1 > l2 encode the angle cosines, and its eigenspaces are the
invariant planes.  N = S - (tr S / 4) I equals ((l1 - l2) / 2) (P1 - P2) for
the plane projectors P1, P2, so |N|_F = l1 - l2 and P1,2 = (I +- 2N/|N|_F)/2:
no eigensolver is needed.  The antisymmetric part (M - M^T)/2 acts as
sin(t_i) times a quarter-turn on plane i, which recovers the sines.
planes_from_matrix computes all of it in plain floats, straight-line on the 16
named entries of M.  Everything is derived from the matrix alone; none of the
closed-form plane constructions of the rest of the package are consulted, so
this module can arbitrate them.
"""

from __future__ import annotations

import math

from .errors import PairingFailure
from .plane import Plane
from .quat import DEFAULT_EPS, EPS_MATRIX, Quaternion, _det4, _quat, _Value


class OraclePlanes(_Value):
    """Invariant planes and angles recovered from a rotation matrix.

    Angles are unsigned, in [0, pi].  isoclinic is set when the cosines of
    the two angles agree to eps, so that the planes are not told apart to
    that tolerance; the planes are still read off the matrix, but when N is
    rounding noise they are the fixed split (e0, e1), (e2, e3), which need
    not be invariant.  Either way only the angles are meaningful then.
    """

    __slots__ = ("plane1", "angle1", "plane2", "angle2", "isoclinic")


def _rows(matrix) -> list[list[float]]:
    """The 4x4 matrix (nested sequences or an array) as rows of floats.
    Every entry must be a real number: float() would also take an array of
    one element, which would let a 4x4x1 array through."""
    try:
        rows = [[x if type(x) is float else _real(x) for x in row] for row in matrix]
    except TypeError:
        rows = None
    if rows is None or len(rows) != 4 or any(len(row) != 4 for row in rows):
        raise ValueError("expected a 4x4 matrix")
    return rows


def _real(x) -> float:
    from numbers import Real  # imported here: only an entry that is not a float gets here

    if not isinstance(x, Real):
        raise TypeError(f"not a real number: {x!r}")
    return float(x)


def _is_rotation(m: list[list[float]]) -> bool:
    """Finite, with every entry of M^T M - I and det M - 1 within
    EPS_MATRIX.  x*0.0 is 0.0 exactly when x is finite, so one fused test
    refuses NaN and infinities before any comparison could let them pass."""
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = m
    if (
        m00 * 0.0 + m01 * 0.0 + m02 * 0.0 + m03 * 0.0
        + m10 * 0.0 + m11 * 0.0 + m12 * 0.0 + m13 * 0.0
        + m20 * 0.0 + m21 * 0.0 + m22 * 0.0 + m23 * 0.0
        + m30 * 0.0 + m31 * 0.0 + m32 * 0.0 + m33 * 0.0
    ) != 0.0:
        return False
    # entry (i, j) of M^T M is column i of M times column j
    if (
        abs(m00 * m00 + m10 * m10 + m20 * m20 + m30 * m30 - 1.0) > EPS_MATRIX
        or abs(m00 * m01 + m10 * m11 + m20 * m21 + m30 * m31) > EPS_MATRIX
        or abs(m00 * m02 + m10 * m12 + m20 * m22 + m30 * m32) > EPS_MATRIX
        or abs(m00 * m03 + m10 * m13 + m20 * m23 + m30 * m33) > EPS_MATRIX
        or abs(m01 * m01 + m11 * m11 + m21 * m21 + m31 * m31 - 1.0) > EPS_MATRIX
        or abs(m01 * m02 + m11 * m12 + m21 * m22 + m31 * m32) > EPS_MATRIX
        or abs(m01 * m03 + m11 * m13 + m21 * m23 + m31 * m33) > EPS_MATRIX
        or abs(m02 * m02 + m12 * m12 + m22 * m22 + m32 * m32 - 1.0) > EPS_MATRIX
        or abs(m02 * m03 + m12 * m13 + m22 * m23 + m32 * m33) > EPS_MATRIX
        or abs(m03 * m03 + m13 * m13 + m23 * m23 + m33 * m33 - 1.0) > EPS_MATRIX
    ):
        return False
    return abs(_det4(m) - 1.0) <= EPS_MATRIX


def _basis(p: tuple[tuple[float, ...], ...]) -> tuple[Quaternion, Quaternion] | None:
    """An orthonormal (u, w) of the plane whose projector is P: u is the
    column of P at its largest diagonal entry, normalised, and w the column
    of P - u u^T at its largest diagonal entry, with u projected out once
    more and normalised.  For a projector those columns have squared norm
    at least 1/2 and 1/4, as the traces are 2 and 1.  None when they fall
    below 1/4 and 1/8: P is then no projector, which happens only when N is
    rounding noise."""
    diag = [p[0][0], p[1][1], p[2][2], p[3][3]]
    u0, u1, u2, u3 = p[diag.index(max(diag))]
    u_sq = u0 * u0 + u1 * u1 + u2 * u2 + u3 * u3
    if not u_sq >= 0.25:
        return None
    scale = 1.0 / math.sqrt(u_sq)
    u0, u1, u2, u3 = u0 * scale, u1 * scale, u2 * scale, u3 * scale
    rest = [d - x * x for d, x in zip(diag, (u0, u1, u2, u3))]
    j = rest.index(max(rest))
    w0, w1, w2, w3 = p[j]
    uj = (u0, u1, u2, u3)[j]
    w0, w1, w2, w3 = w0 - u0 * uj, w1 - u1 * uj, w2 - u2 * uj, w3 - u3 * uj
    along = w0 * u0 + w1 * u1 + w2 * u2 + w3 * u3
    w0, w1, w2, w3 = w0 - u0 * along, w1 - u1 * along, w2 - u2 * along, w3 - u3 * along
    w_sq = w0 * w0 + w1 * w1 + w2 * w2 + w3 * w3
    if not w_sq >= 0.125:
        return None
    scale = 1.0 / math.sqrt(w_sq)
    return _quat(u0, u1, u2, u3), _quat(w0 * scale, w1 * scale, w2 * scale, w3 * scale)


_FIXED_SPLIT = (
    (_quat(1.0, 0.0, 0.0, 0.0), _quat(0.0, 1.0, 0.0, 0.0)),
    (_quat(0.0, 0.0, 1.0, 0.0), _quat(0.0, 0.0, 0.0, 1.0)),
)


def planes_from_matrix(matrix, eps: float = DEFAULT_EPS) -> OraclePlanes:
    """Recover invariant planes and angles of a 4x4 rotation matrix.

    Takes nested sequences or an array, and raises ValueError unless they
    form a 4x4 matrix that is finite, orthogonal and of determinant 1 to
    EPS_MATRIX.  The rotation is isoclinic when |N|_F = l1 - l2 <= eps.
    Otherwise a pair split of more than eps, read off N^2, raises
    PairingFailure.  The planes are read off P1 = I/2 + N/|N|_F, of the
    larger eigenvalue l1, and P2 = I - P1, isoclinic or not: a small |N|_F
    still tells the planes apart, to u/|N|_F as an eigensolver would, and
    near angle 0 or pi two angles whose cosines agree within eps may differ
    by sqrt(eps).  Only when N is rounding noise, so that P1 is no
    projector (_basis), are the planes the fixed split (e0, e1), (e2, e3).
    """
    m = _rows(matrix)
    # admission is looser than the 1e-9 unit-norm gate on quaternion factors:
    # factors at that boundary already give an orthogonality defect near 2e-9.
    if not _is_rotation(m):
        raise ValueError("matrix is not a rotation (orthogonal, det +1) to tolerance")
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = m

    # N = M + M^T - (tr S / 4) I, symmetric bit for bit
    mean = (m00 + m11 + m22 + m33) / 2.0  # tr S / 4
    n00, n11 = (m00 + m00) - mean, (m11 + m11) - mean
    n22, n33 = (m22 + m22) - mean, (m33 + m33) - mean
    n01, n02, n03 = m01 + m10, m02 + m20, m03 + m30
    n12, n13, n23 = m12 + m21, m13 + m31, m23 + m32
    norm = math.hypot(
        n00, n01, n02, n03, n01, n11, n12, n13, n02, n12, n22, n23, n03, n13, n23, n33
    )
    isoclinic = norm <= eps
    if not isoclinic:
        split = 0.0
        if norm > 0.0:
            # the pair split, read off the residual R = N^2 - (|N|_F/2)^2 I,
            # which vanishes for a rotation.  For eigenvalues c +- s1/2 and
            # -c +- s2/2, |N|_F is about 2c and R has eigenvalues about
            # +-c s1 and +-c s2, so sqrt(2) |R|_F / |N|_F is
            # sqrt(s1^2 + s2^2) to first order: at least the larger split,
            # and at most sqrt(2) times it.  Entry (i, j) of N^2 is row i
            # of N times row j; the 6 entries off the diagonal count twice.
            quarter = norm * norm / 4.0
            x01 = n00 * n01 + n01 * n11 + n02 * n12 + n03 * n13
            x02 = n00 * n02 + n01 * n12 + n02 * n22 + n03 * n23
            x03 = n00 * n03 + n01 * n13 + n02 * n23 + n03 * n33
            x12 = n01 * n02 + n11 * n12 + n12 * n22 + n13 * n23
            x13 = n01 * n03 + n11 * n13 + n12 * n23 + n13 * n33
            x23 = n02 * n03 + n12 * n13 + n22 * n23 + n23 * n33
            r_sq = (
                (n00 * n00 + n01 * n01 + n02 * n02 + n03 * n03 - quarter) ** 2
                + 2.0 * x01 * x01
                + 2.0 * x02 * x02
                + 2.0 * x03 * x03
                + (n01 * n01 + n11 * n11 + n12 * n12 + n13 * n13 - quarter) ** 2
                + 2.0 * x12 * x12
                + 2.0 * x13 * x13
                + (n02 * n02 + n12 * n12 + n22 * n22 + n23 * n23 - quarter) ** 2
                + 2.0 * x23 * x23
                + (n03 * n03 + n13 * n13 + n23 * n23 + n33 * n33 - quarter) ** 2
            )
            split = math.sqrt(2.0 * r_sq) / norm
        if split > eps:
            raise PairingFailure(
                f"eigenvalues of M + M^T split by {split:.3e} within a pair, above eps = {eps:.1e}"
            )
    bases = None
    if norm > 0.0:
        # P1 = I/2 + N/|N|_F, of the larger eigenvalue, and P2 = I - P1
        q00, q01, q02, q03 = n00 / norm, n01 / norm, n02 / norm, n03 / norm
        q11, q12, q13 = n11 / norm, n12 / norm, n13 / norm
        q22, q23, q33 = n22 / norm, n23 / norm, n33 / norm
        basis1 = _basis(
            (
                (q00 + 0.5, q01, q02, q03),
                (q01, q11 + 0.5, q12, q13),
                (q02, q12, q22 + 0.5, q23),
                (q03, q13, q23, q33 + 0.5),
            )
        )
        basis2 = _basis(
            (
                (0.5 - q00, -q01, -q02, -q03),
                (-q01, 0.5 - q11, -q12, -q13),
                (-q02, -q12, 0.5 - q22, -q23),
                (-q03, -q13, -q23, 0.5 - q33),
            )
        )
        if basis1 is not None and basis2 is not None:
            bases = (basis1, basis2)
    if bases is None:
        if not isoclinic:
            # |N|_F > eps, yet N is too far from paired to give planes
            raise PairingFailure(f"planes of M + M^T not resolved at eps = {eps:.1e}")
        bases = _FIXED_SPLIT

    # |sin| = |A u| for A = (M - M^T)/2 keeps near-zero angles
    # well-conditioned, where acos of the eigenvalue loses half the digits
    a01, a02, a03 = (m01 - m10) / 2.0, (m02 - m20) / 2.0, (m03 - m30) / 2.0
    a12, a13, a23 = (m12 - m21) / 2.0, (m13 - m31) / 2.0, (m23 - m32) / 2.0
    out = []
    for (u, w), pair_mean in zip(bases, (mean + norm / 2.0, mean - norm / 2.0)):
        u0, u1, u2, u3 = u
        sine = math.hypot(
            a01 * u1 + a02 * u2 + a03 * u3,
            a12 * u2 + a13 * u3 - a01 * u0,
            a23 * u3 - a02 * u0 - a12 * u1,
            -a03 * u0 - a13 * u1 - a23 * u2,
        )
        out.append((Plane(u, w), math.atan2(sine, pair_mean / 2.0)))
    (plane1, angle1), (plane2, angle2) = out
    return OraclePlanes(plane1, angle1, plane2, angle2, isoclinic)
