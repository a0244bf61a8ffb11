"""Composition of 4-space rotations with geometric-parameter propagation.

Composing x -> a x b (applied first) with x -> c x d gives x -> (ca) x (bd).
When both inputs carry Gibbs data, the composed Gibbs data follows closed
rules that generalize the classical 3D composition formula; and when both
inputs are simple, a scalar residual decides whether the composition stays
simple, equivalently whether the four reflection normals are linearly
dependent, equivalently whether the fixed planes intersect nontrivially.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAxis, GibbsSingular, NotSimple
from .linalg4 import rank
from .plane import Plane
from .quat import (
    EPS_AXIS,
    EPS_GIBBS,
    EPS_UNIT,
    Quaternion,
    Vec3,
    _gibbs_rule,
    mul,
    normalized,
    polar,
)
from .rotation import (
    DEFAULT_EPS,
    Identity,
    Rotation4,
    Simple,
    _sum_plane_first,
    classify,
    invariant_planes,
    plane_rotation_angle,
    simple_to_reflections,
)


def compose(g: Rotation4, f: Rotation4) -> Rotation4:
    """The rotation 'f followed by g': factors (g.a * f.a, f.b * g.b).

    The factor products are renormalized: inputs admitted at the unit-norm
    tolerance would otherwise drift past it when multiplied."""
    return Rotation4(normalized(mul(g.a, f.a)), normalized(mul(f.b, g.b)))


@dataclass(frozen=True)
class GibbsPair:
    """Gibbs-chart data of a rotation written as
    cos_alpha * (1 + p_tilde) x (1 + q_tilde) * cos_beta.

    p_tilde = p * tan(ha) and q_tilde = q * tan(hb) for factor half-angles
    ha, hb; the chart exists only while both cosines are nonzero.
    """

    p_tilde: Vec3
    q_tilde: Vec3
    cos_alpha: float
    cos_beta: float

    def __post_init__(self):
        for cos_val, tilde, side in (
            (self.cos_alpha, self.p_tilde, "left"),
            (self.cos_beta, self.q_tilde, "right"),
        ):
            scale = 1.0 + tilde.norm_sq()
            if abs(cos_val * cos_val * scale - 1.0) > EPS_UNIT * scale:
                raise ValueError(
                    f"{side} data is inconsistent: cos^2*(1+|g|^2) = "
                    f"{cos_val * cos_val * scale!r}, expected 1"
                )

    @classmethod
    def from_rotation(cls, r: Rotation4) -> "GibbsPair":
        if abs(r.a.s) <= EPS_GIBBS or abs(r.b.s) <= EPS_GIBBS:
            raise GibbsSingular(
                "a factor has vanishing scalar part; the rotation has no Gibbs form"
            )
        return cls(r.a.v / r.a.s, r.b.v / r.b.s, r.a.s, r.b.s)

    def to_rotation(self) -> Rotation4:
        a = Quaternion(self.cos_alpha, self.p_tilde * self.cos_alpha)
        b = Quaternion(self.cos_beta, self.q_tilde * self.cos_beta)
        # the consistency gate scales with 1+|g|^2, so reconstruction can sit
        # slightly off unit norm for long Gibbs vectors
        return Rotation4(normalized(a), normalized(b))


def compose_gibbs(f: GibbsPair, g: GibbsPair) -> GibbsPair:
    """Gibbs data of 'f followed by g', computed without quaternion products.

    Left side:   cos = cos_a1 * cos_a2 * (1 - p1.p2),
                 p   = (p2 + p1 + p2 x p1) / (1 - p2.p1);
    right side:  cos = cos_b1 * cos_b2 * (1 - q1.q2),
                 q   = (q1 + q2 + q1 x q2) / (1 - q1.q2).
    The cross products take opposite orders on the two sides; that asymmetry
    is real, not a typo.  A vanishing denominator means the composed factor
    is a pure quaternion (cosine zero) and the chart breaks down.
    """
    p, den_p = _gibbs_rule(
        f.p_tilde, g.p_tilde, "left composed cosine vanishes (p-denominator is zero)"
    )
    q, den_q = _gibbs_rule(
        g.q_tilde, f.q_tilde, "right composed cosine vanishes (q-denominator is zero)"
    )
    cos_a = f.cos_alpha * g.cos_alpha * den_p
    cos_b = f.cos_beta * g.cos_beta * den_q
    return GibbsPair(p, q, cos_a, cos_b)


def compose_left_clifford(
    g1: Vec3, cos1: float, g2: Vec3, cos2: float
) -> tuple[Vec3, float]:
    """Compose two left turns x -> a x (first) and x -> b x (second) in the
    Gibbs chart; returns the data of x -> (ba) x."""
    p, den = _gibbs_rule(g1, g2, "composed cosine vanishes (denominator is zero)")
    return p, cos1 * cos2 * den


@dataclass(frozen=True)
class SimplicityReport:
    """Three equivalent verdicts on whether a composition of two simple
    rotations is itself simple.

    s_condition is the residual Vc.Va - Vb.Vd of the factor vector parts; it
    equals -2 * det_normals, the determinant of the four reflection normals
    (components ordered vector-first, scalar last: the ordering under which
    that identity holds with the minus sign), and it vanishes exactly when
    the two fixed planes intersect nontrivially (intersection_dim >= 1)."""

    s_condition: float
    det_normals: float
    intersection_dim: int
    is_simple: bool


def _normals_matrix_scalar_last(*normals) -> np.ndarray:
    return np.column_stack(
        [[n.q.v.x1, n.q.v.x2, n.q.v.x3, n.q.s] for n in normals]
    )


def is_composition_simple(
    f: Rotation4, g: Rotation4, eps: float = DEFAULT_EPS
) -> SimplicityReport:
    """Decide whether 'f followed by g' is simple, for simple f and g.

    Computes all three routes: the scalar residual from the quaternion
    factors, the determinant of the stacked reflection normals, and the
    dimension of the intersection of the two fixed planes (nullity of the
    4x4 matrix of the four normals)."""
    for name, rot in (("f", f), ("g", g)):
        if not isinstance(classify(rot, eps), (Simple, Identity)):
            raise NotSimple(f"{name} is not a simple rotation")
    s_condition = g.a.v.dot(f.a.v) - f.b.v.dot(g.b.v)
    ny, nz = simple_to_reflections(f, eps)
    nu, nw = simple_to_reflections(g, eps)
    normals = _normals_matrix_scalar_last(ny, nz, nu, nw)
    return SimplicityReport(
        s_condition=s_condition,
        det_normals=float(np.linalg.det(normals)),
        intersection_dim=4 - rank(normals),
        is_simple=abs(s_condition) <= eps,
    )


def composed_planes_from_gibbs(h: GibbsPair) -> tuple[Plane, Plane, float, float]:
    """Invariant planes and angles of the rotation described by Gibbs data.

    Recovers unit axes and half-angles from the stored vectors and cosines,
    builds the invariant planes, and measures the turn inside each plane on
    the reconstructed rotation.  Returns (plane1, plane2, angle1, angle2)
    with plane1 carrying the reduced half-angle sum and plane2 the reduced
    difference; consistent with classify of the reconstructed rotation.
    """
    if h.p_tilde.norm() <= EPS_AXIS or h.q_tilde.norm() <= EPS_AXIS:
        raise DegenerateAxis(
            "a Gibbs vector vanishes; the rotation is isoclinic-like and its "
            "planes are not unique"
        )
    r = h.to_rotation()
    pa = polar(r.a)
    pb = polar(r.b)
    first, second = invariant_planes(pa.axis, pb.axis)
    m1, m2 = _sum_plane_first(
        pa, pb, plane_rotation_angle(r, first), plane_rotation_angle(r, second)
    )
    return m1[0], m2[0], m1[1], m2[1]
