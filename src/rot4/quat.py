"""Quaternion arithmetic with polar and Gibbs (tangent-vector) forms.

A quaternion x = s + x1*i + x2*j + x3*k is stored as a scalar part plus a
3-vector part.  Its four components double as coordinates of a point of
Euclidean 4-space, ordered [s, x1, x2, x3] (scalar first) everywhere in
this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GibbsSingular, NotUnit

# Tolerance tiers: pure-algebra identities hold to rounding; unit-norm
# admission of user input is deliberately looser; the last two detect
# degeneracies (vanishing axis, Gibbs-chart breakdown).
EPS_ALG = 1e-12
EPS_UNIT = 1e-9
EPS_AXIS = 1e-9
EPS_GIBBS = 1e-9


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Vec3:
    """3-vector: the vector part of a quaternion, an axis, or a Gibbs vector."""

    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x1", _finite("x1", self.x1))
        object.__setattr__(self, "x2", _finite("x2", self.x2))
        object.__setattr__(self, "x3", _finite("x3", self.x3))

    def dot(self, other: "Vec3") -> float:
        return self.x1 * other.x1 + self.x2 * other.x2 + self.x3 * other.x3

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.x2 * other.x3 - self.x3 * other.x2,
            self.x3 * other.x1 - self.x1 * other.x3,
            self.x1 * other.x2 - self.x2 * other.x1,
        )

    def norm_sq(self) -> float:
        return self.dot(self)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def components(self) -> tuple[float, float, float]:
        return (self.x1, self.x2, self.x3)

    def as_array(self) -> np.ndarray:
        return np.array(self.components())

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x1 + other.x1, self.x2 + other.x2, self.x3 + other.x3)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x1 - other.x1, self.x2 - other.x2, self.x3 - other.x3)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x1, -self.x2, -self.x3)

    def __mul__(self, factor: float) -> "Vec3":
        return Vec3(self.x1 * factor, self.x2 * factor, self.x3 * factor)

    __rmul__ = __mul__

    def __truediv__(self, factor: float) -> "Vec3":
        return self * (1.0 / factor)


@dataclass(frozen=True)
class Quaternion:
    """Quaternion s + v, with v the 3-vector part."""

    s: float = 0.0
    v: Vec3 = Vec3()

    def __post_init__(self):
        object.__setattr__(self, "s", _finite("s", self.s))

    @classmethod
    def of(cls, s: float, x1: float, x2: float, x3: float) -> "Quaternion":
        return cls(s, Vec3(x1, x2, x3))

    @classmethod
    def from_array(cls, arr) -> "Quaternion":
        s, x1, x2, x3 = (float(c) for c in arr)
        return cls(s, Vec3(x1, x2, x3))

    def components(self) -> tuple[float, float, float, float]:
        return (self.s, self.v.x1, self.v.x2, self.v.x3)

    def as_array(self) -> np.ndarray:
        return np.array(self.components())

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.s + other.s, self.v + other.v)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.s - other.s, self.v - other.v)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.s, -self.v)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return mul(self, other)
        return Quaternion(self.s * other, self.v * other)

    def __rmul__(self, factor: float) -> "Quaternion":
        return Quaternion(self.s * factor, self.v * factor)

    def __truediv__(self, factor: float) -> "Quaternion":
        return self * (1.0 / factor)


ONE = Quaternion(1.0)
I = Quaternion(0.0, Vec3(1.0, 0.0, 0.0))
J = Quaternion(0.0, Vec3(0.0, 1.0, 0.0))
K = Quaternion(0.0, Vec3(0.0, 0.0, 1.0))


def pure(v: Vec3) -> Quaternion:
    """Quaternion with zero scalar part and vector part v."""
    return Quaternion(0.0, v)


def mul(x: Quaternion, y: Quaternion) -> Quaternion:
    """Quaternion product: scalar s1*s2 - v1.v2, vector s1*v2 + s2*v1 + v1 x v2."""
    s = x.s * y.s - x.v.dot(y.v)
    v = y.v * x.s + x.v * y.s + x.v.cross(y.v)
    return Quaternion(s, v)


def conj(x: Quaternion) -> Quaternion:
    """Conjugate: scalar part kept, vector part negated."""
    return Quaternion(x.s, -x.v)


def norm_sq(x: Quaternion) -> float:
    """Squared norm, the sum of the four squared components."""
    return x.s * x.s + x.v.norm_sq()


def norm(x: Quaternion) -> float:
    return math.sqrt(norm_sq(x))


def dot4(x: Quaternion, y: Quaternion) -> float:
    """Euclidean scalar product of the two 4-component points."""
    return x.s * y.s + x.v.dot(y.v)


def normalized(x: Quaternion) -> Quaternion:
    n = norm(x)
    if n <= EPS_AXIS:
        raise ValueError("cannot normalize a (near-)zero quaternion")
    return x / n


def require_unit(x: Quaternion, what: str = "quaternion") -> None:
    """Raise NotUnit unless |x| = 1 within the admission tolerance."""
    if abs(norm_sq(x) - 1.0) > EPS_UNIT:
        raise NotUnit(f"{what} has norm_sq {norm_sq(x)!r}, expected 1")


@dataclass(frozen=True)
class PolarForm:
    """Polar data of a unit quaternion: cos(half_angle) + axis*sin(half_angle).

    half_angle lies in [0, pi].  When the vector part vanishes the axis is
    arbitrary; it is then reported as i with axis_degenerate set, so callers
    never mistake the placeholder for a real axis.
    """

    half_angle: float
    axis: Vec3
    axis_degenerate: bool = False

    def to_quaternion(self) -> Quaternion:
        return Quaternion(math.cos(self.half_angle), self.axis * math.sin(self.half_angle))


def polar(a: Quaternion) -> PolarForm:
    """Polar form of a unit quaternion."""
    require_unit(a)
    vnorm = a.v.norm()
    if vnorm <= EPS_AXIS:
        return PolarForm(0.0 if a.s > 0.0 else math.pi, Vec3(1.0, 0.0, 0.0), True)
    return PolarForm(math.atan2(vnorm, a.s), a.v / vnorm)


def gibbs_from_unit(a: Quaternion) -> Vec3:
    """Gibbs vector of a unit quaternion: axis * tan(half_angle) = Va / Sa.

    Raises GibbsSingular at half-angle pi/2, where the chart blows up.
    """
    require_unit(a)
    if abs(a.s) <= EPS_GIBBS:
        raise GibbsSingular("scalar part vanishes; the Gibbs chart is singular here")
    return a.v / a.s


def unit_from_gibbs(g: Vec3) -> Quaternion:
    """Unit quaternion (1 + g)/sqrt(1 + |g|^2); scalar part always positive."""
    scale = 1.0 / math.sqrt(1.0 + g.norm_sq())
    return Quaternion(scale, g * scale)


def _gibbs_rule(g1: Vec3, g2: Vec3, singular: str) -> tuple[Vec3, float]:
    """The Gibbs composition rule 'g1 followed by g2':
    ((g2 + g1 + g2 x g1) / den, den) with den = 1 - g2.g1.

    Raises GibbsSingular with the message `singular` when den vanishes.
    """
    den = 1.0 - g2.dot(g1)
    if abs(den) <= EPS_GIBBS:
        raise GibbsSingular(singular)
    return (g2 + g1 + g2.cross(g1)) / den, den


def rodrigues_compose(g1: Vec3, g2: Vec3) -> Vec3:
    """Gibbs vector of the 3D rotation 'g1 followed by g2'.

    Composition rule (g2 + g1 + g2 x g1) / (1 - g2.g1); singular exactly
    when the composed rotation angle reaches pi.
    """
    return _gibbs_rule(
        g1, g2, "composed rotation angle is pi; no Gibbs vector exists"
    )[0]
