"""Checks of rot4's outputs against computations made apart from rot4.

Everything here works from quaternion components with numpy alone.  The 4x4
matrix of x -> a x b is built by applying a quaternion product written out
below to the basis (1, i, j, k); rot4's oracle, matrices and constructions
are never consulted, so a fault in rot4 cannot hide itself here.

Reports are plain dicts in the shape of the `rot4` CLI's JSON output, so the
in-process workloads and the `cli` workload share one checker.  Every check
raises CheckFailed on a wrong output.
"""

from __future__ import annotations

import math

import numpy as np

# rot4's default classification eps; angles, planes and the oracle agreement
# are promised to this tolerance.
TOL_ANGLE = 1e-8
TOL_PLANE = 1e-8
# exact algebraic identities between matrices of unit factors
TOL_MATRIX = 1e-10
# s_condition = -2 * det_normals; the normals come from a nullspace solve
TOL_DET = 1e-9
# unit norm of reported vectors (rot4 admits factors at 1e-9)
TOL_UNIT = 1e-9
# singular-value cut for rank(M(h) - I): inputs keep every rotation angle
# above 1e-3, whose singular value 2 sin(angle/2) is far above this
RANK_TOL = 1e-6
# two eigen-angles closer than this make the invariant planes non-unique
ISOCLINIC_GAP = 1e-6

ONE = (1.0, 0.0, 0.0, 0.0)
BASIS = (ONE, (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
KINDS = ("identity", "simple", "left-isoclinic", "right-isoclinic", "double")


class CheckFailed(Exception):
    """A rot4 output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- quaternion arithmetic, written out -------------------------------------


def qmul(x, y) -> tuple[float, float, float, float]:
    """Hamilton product of two component 4-tuples [s, x1, x2, x3]."""
    s1, a1, b1, c1 = x
    s2, a2, b2, c2 = y
    return (
        s1 * s2 - a1 * a2 - b1 * b2 - c1 * c2,
        s1 * a2 + a1 * s2 + b1 * c2 - c1 * b2,
        s1 * b2 - a1 * c2 + b1 * s2 + c1 * a2,
        s1 * c2 + a1 * b2 - b1 * a2 + c1 * s2,
    )


def qconj(x) -> tuple[float, float, float, float]:
    return (x[0], -x[1], -x[2], -x[3])


def rotation_matrix(a, b) -> np.ndarray:
    """Matrix of x -> a x b: column k is the image of basis vector k."""
    return np.array([qmul(qmul(a, e), b) for e in BASIS]).T


def reflection_matrix(q) -> np.ndarray:
    """Matrix of the reflection through the hyperplane orthogonal to q."""
    n = np.asarray(q, dtype=float)
    return np.eye(4) - 2.0 * np.outer(n, n)


def eigen_angles(m: np.ndarray) -> tuple[float, float]:
    """The two rotation angles of M in [0, pi], smaller first, from the
    arguments of its eigenvalues, which come in conjugate pairs."""
    args = sorted(abs(float(np.angle(lam))) for lam in np.linalg.eigvals(m))
    require(
        abs(args[0] - args[1]) <= TOL_ANGLE and abs(args[2] - args[3]) <= TOL_ANGLE,
        f"eigenvalue arguments {args} of M do not pair up",
    )
    return args[0], args[2]


# --- single outputs ---------------------------------------------------------


def check_unit(vec, what: str) -> None:
    require(len(vec) == 4, f"{what} has {len(vec)} components, expected 4")
    require(
        abs(float(np.dot(vec, vec)) - 1.0) <= TOL_UNIT, f"{what} is not a unit vector"
    )


def check_product(m_h: np.ndarray, m_g: np.ndarray, m_f: np.ndarray, what: str) -> None:
    """M(h) = M(g) M(f): h is 'f followed by g'."""
    err = float(np.abs(m_h - m_g @ m_f).max())
    require(err <= TOL_MATRIX, f"{what}: |M(h) - M(g)M(f)| = {err:.3e}")


def check_plane(m: np.ndarray, plane: dict, angle: float, what: str, invariant: bool) -> None:
    """The plane (u, w) is orthonormal and M turns u by `angle` inside it.

    With `invariant`, its projector must also commute with M.  An isoclinic
    M turns every vector by the same angle but leaves only some planes
    invariant, so for a plane picked arbitrarily only the turn of u is
    checked."""
    u = np.asarray(plane["u"], dtype=float)
    w = np.asarray(plane["w"], dtype=float)
    check_unit(u, f"{what} u")
    check_unit(w, f"{what} w")
    require(abs(float(u @ w)) <= TOL_UNIT, f"{what}: u and w are not orthogonal")
    proj = np.outer(u, u) + np.outer(w, w)
    if "projector" in plane:
        err = float(np.abs(np.asarray(plane["projector"]) - proj).max())
        require(err <= TOL_PLANE, f"{what}: projector differs from uu^T + ww^T by {err:.3e}")
    mu = m @ u
    require(
        abs(float(u @ mu) - math.cos(angle)) <= TOL_ANGLE,
        f"{what}: u.Mu = {float(u @ mu)!r} but cos(angle) = {math.cos(angle)!r}",
    )
    if not invariant:
        return
    err = float(np.abs(proj @ m - m @ proj).max())
    require(err <= TOL_PLANE, f"{what}: projector does not commute with M ({err:.3e})")
    require(
        abs(abs(float(w @ mu)) - math.sin(angle)) <= TOL_ANGLE,
        f"{what}: |w.Mu| = {abs(float(w @ mu))!r} but sin(angle) = {math.sin(angle)!r}",
    )


def check_angle_set(angles, expected: tuple[float, float], what: str) -> None:
    got = sorted(float(t) for t in angles)
    want = sorted(expected)
    require(
        len(got) == 2 and all(abs(g - w) <= TOL_ANGLE for g, w in zip(got, want)),
        f"{what}: angles {got} but eigenvalues of M give {want}",
    )


def check_classification(m: np.ndarray, report: dict, what: str = "classify") -> None:
    """A classification report {kind, angles, planes} against M."""
    kind = report["kind"]
    require(kind in KINDS, f"{what}: unknown kind {kind!r}")
    t1, t2 = eigen_angles(m)
    angles = report["angles"]
    if kind == "identity":
        require(angles == [] and t2 <= TOL_ANGLE, f"{what}: identity, but M turns by {t2!r}")
        return
    if kind in ("left-isoclinic", "right-isoclinic"):
        require(len(angles) == 1, f"{what}: isoclinic report needs one angle")
        check_angle_set([angles[0], angles[0]], (t1, t2), what)
        # x -> a x has a = M(1), and x -> x b has b = M(1)
        image_of_one = tuple(float(c) for c in m[:, 0])
        factors = (image_of_one, ONE) if kind == "left-isoclinic" else (ONE, image_of_one)
        err = float(np.abs(rotation_matrix(*factors) - m).max())
        require(err <= TOL_MATRIX, f"{what}: M is not {kind} ({err:.3e})")
        return
    require(t2 - t1 > ISOCLINIC_GAP, f"{what}: {kind}, but M is isoclinic")
    planes = report["planes"]
    require(len(planes) == 2, f"{what}: {kind} report needs two planes")
    if kind == "simple":
        require(len(angles) == 1, f"{what}: simple report needs one angle")
        check_angle_set([0.0, angles[0]], (t1, t2), what)
        require(
            planes[0]["role"] == "fixed" and planes[0]["angle"] == 0.0,
            f"{what}: first plane of a simple rotation must be the fixed one",
        )
    else:
        require(len(angles) == 2, f"{what}: double report needs two angles")
        check_angle_set(angles, (t1, t2), what)
        require(t1 > ISOCLINIC_GAP, f"{what}: double, but M fixes a plane")
    for entry in planes:
        check_plane(m, entry["plane"], entry["angle"], f"{what} {entry['role']} plane", True)


def check_verify_report(m: np.ndarray, report: dict, what: str = "verify") -> None:
    """A `verify` report: ok, and both sides' planes and angles against M."""
    require(report["ok"] is True, f"{what}: report is not ok: {report}")
    require(report["kind"] in KINDS, f"{what}: unknown kind {report['kind']!r}")
    t1, t2 = eigen_angles(m)
    planes_unique = t2 - t1 > ISOCLINIC_GAP
    for side in ("formula", "oracle"):
        entries = report[side]
        require(len(entries) == 2, f"{what}: {side} side needs two entries")
        check_angle_set([e["angle"] for e in entries], (t1, t2), f"{what} {side}")
        for k, entry in enumerate(entries):
            if entry["plane"] is not None:
                check_plane(
                    m, entry["plane"], entry["angle"], f"{what} {side} plane {k}", planes_unique
                )
    require(
        report["max_projector_distance"] <= TOL_PLANE
        and report["max_angle_difference"] <= TOL_ANGLE,
        f"{what}: ok although the reported differences exceed eps",
    )


def check_gibbs(m_h: np.ndarray, gibbs: dict, factors: tuple, what: str = "gibbs") -> None:
    """Composed Gibbs data {p_tilde, q_tilde, cos_alpha, cos_beta}, or
    {singular: ...} when the chart breaks down.

    factors are (f.a, f.b, g.a, g.b).  The data must rebuild the factors
    cos * (1 + tilde) of a rotation with matrix M(h); a singular verdict
    must come with a vanishing factor cosine or composed cosine."""
    fa, fb, ga, gb = factors
    if "singular" in gibbs:
        cosines = (fa[0], fb[0], ga[0], gb[0], qmul(ga, fa)[0], qmul(fb, gb)[0])
        require(
            min(abs(c) for c in cosines) <= 1e-8,
            f"{what}: reported singular, but every cosine is >= 1e-8",
        )
        return
    a = gibbs["cos_alpha"] * np.array([1.0, *gibbs["p_tilde"]])
    b = gibbs["cos_beta"] * np.array([1.0, *gibbs["q_tilde"]])
    check_unit(a, f"{what} left factor")
    check_unit(b, f"{what} right factor")
    err = float(np.abs(rotation_matrix(a, b) - m_h).max())
    require(err <= TOL_MATRIX, f"{what}: Gibbs data describe another rotation ({err:.3e})")


def check_simplicity(m_h: np.ndarray, report: dict, expected: bool, what: str = "simplicity") -> None:
    """A simplicity report {s_condition, det_normals, intersection_dim,
    is_simple} against the verdict the inputs were built to have and
    against rank(M(h) - I), which is 2 for a simple rotation and 4 else."""
    identity_err = abs(report["s_condition"] + 2.0 * report["det_normals"])
    require(
        identity_err <= TOL_DET,
        f"{what}: s_condition + 2 det_normals = {identity_err:.3e}",
    )
    require(
        report["is_simple"] is expected,
        f"{what}: verdict {report['is_simple']} but the inputs were built "
        f"{'' if expected else 'not '}to compose to a simple rotation",
    )
    rank = int(np.linalg.matrix_rank(m_h - np.eye(4), tol=RANK_TOL))
    require((rank <= 2) is expected, f"{what}: verdict {expected} but rank(M(h) - I) = {rank}")
    require(
        (report["intersection_dim"] >= 1) is expected,
        f"{what}: intersection_dim {report['intersection_dim']} contradicts the verdict",
    )


def check_reflections(m: np.ndarray, normals: dict, what: str = "reflections") -> None:
    """Normals {y, z}: reflecting in y, then in z, must give M."""
    check_unit(normals["y"], f"{what} y")
    check_unit(normals["z"], f"{what} z")
    product = reflection_matrix(normals["z"]) @ reflection_matrix(normals["y"])
    err = float(np.abs(product - m).max())
    require(err <= TOL_MATRIX, f"{what}: the two reflections do not give M ({err:.3e})")
