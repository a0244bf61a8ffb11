"""Quaternion arithmetic and every tolerance of the package.

A quaternion x = s + x1*i + x2*j + x3*k is stored as the tuple of its four
floats (s, x1, x2, x3), its vector part as (x1, x2, x3).  Its four
components double as coordinates of a point of Euclidean 4-space, ordered
[s, x1, x2, x3] (scalar first) everywhere in this package.

The Gibbs chart lives in rot4.compose, beside compose_gibbs, so that only a
process that composes compiles it; EPS_GIBBS stays in the block below.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .errors import NotUnit

# Every tolerance of the package.  Tiers: unit-norm admission of user input
# is deliberately looser than rounding; EPS_AXIS tells a factor +-1 and
# EPS_GIBBS a Gibbs-chart breakdown.  Then the default of every eps, the
# one cut of the kind rule and of the simplicity report, and the oracle's
# matrix admission.  The bounds the tests hold algebra and planes to live
# with the tests.
EPS_UNIT = 1e-9
EPS_AXIS = 1e-9
EPS_GIBBS = 1e-9
DEFAULT_EPS = 1e-8
EPS_MATRIX = 1e-8


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


_new = object.__new__
_tuple_new = tuple.__new__


def _unsupported(op: str, x, y):
    """Raise the TypeError Python gives for an operator that neither side
    supports.  The values raise it themselves where NotImplemented would let
    a plain tuple's concatenation answer for them."""
    names = f"{type(x).__name__!r} and {type(y).__name__!r}"
    raise TypeError(f"unsupported operand type(s) for {op}: {names}")


def _setters(cls) -> tuple:
    """The own setter of each of the record cls's slots, in field order: it
    writes the slot past _Value.__setattr__, and faster than
    object.__setattr__."""
    return tuple([vars(cls)[name].__set__ for name in cls.__slots__])


class _Value:
    """Immutable value, its fields in order in __match_args__: equality and
    hash by exact class, then the tuple of fields; no ordering and no
    concatenation, not even with a plain tuple; __reduce__ rebuilds through
    the constructor, so copy and pickle validate again.  A record holds its
    fields in __slots__, which name them; Vec3 and Quaternion are tuples of
    their floats, read through properties."""

    __slots__ = ()
    __array_ufunc__ = None  # numpy's operators defer to the value's own

    def __init_subclass__(cls):
        if "__match_args__" not in vars(cls):
            cls.__match_args__ = cls.__slots__
        names = cls.__match_args__
        if "__init__" not in vars(cls) and "__new__" not in vars(cls):
            # compiled once per class, as collections.namedtuple builds __new__:
            # a loop over the fields would double the cost of a construction
            body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
            namespace = {f"_set_{name}": setter for name, setter in zip(names, _setters(cls))}
            exec(f"def __init__({', '.join(('self',) + names)}):{body or ' pass'}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        # NotImplemented would let a plain tuple compare item by item
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __lt__(self, other):
        # not NotImplemented, which would hand the comparison to a plain tuple
        raise TypeError(f"no ordering between {type(self).__name__!r} and {type(other).__name__!r}")

    __le__ = __gt__ = __ge__ = __lt__

    def __radd__(self, other):
        _unsupported("+", other, self)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# _vec, _quat and pure build arithmetic results with one tuple.__new__ and
# skip the validating constructors.  The hot paths compute on plain floats,
# unpacking a Quaternion as (s, x1, x2, x3), through the kernels _mul4,
# _dot4, _unit4 and _cross3 here and rotation's _axes, _eigenvector and
# _kind_of, and build a value only for what they return.
class Vec3(_Value, tuple):
    """3-vector: the vector part of a quaternion, an axis, or a Gibbs vector."""

    __slots__ = ()
    __match_args__ = ("x1", "x2", "x3")
    x1, x2, x3 = property(itemgetter(0)), property(itemgetter(1)), property(itemgetter(2))

    def __new__(cls, x1: float = 0.0, x2: float = 0.0, x3: float = 0.0):
        return _tuple_new(cls, (_finite("x1", x1), _finite("x2", x2), _finite("x3", x3)))

    def dot(self, other: "Vec3") -> float:
        x1, x2, x3 = self
        y1, y2, y3 = other
        return x1 * y1 + x2 * y2 + x3 * y3

    def cross(self, other: "Vec3") -> "Vec3":
        return _vec(*_cross3(self, other))

    def norm_sq(self) -> float:
        return self.dot(self)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def components(self) -> tuple[float, float, float]:
        return self[:]  # a plain tuple

    def __add__(self, other: "Vec3") -> "Vec3":
        if other.__class__ is not Vec3:
            _unsupported("+", self, other)
        x1, x2, x3 = self
        y1, y2, y3 = other
        return _vec(x1 + y1, x2 + y2, x3 + y3)

    def __sub__(self, other: "Vec3") -> "Vec3":
        if other.__class__ is not Vec3:
            _unsupported("-", self, other)
        x1, x2, x3 = self
        y1, y2, y3 = other
        return _vec(x1 - y1, x2 - y2, x3 - y3)

    def __neg__(self) -> "Vec3":
        x1, x2, x3 = self
        return _vec(-x1, -x2, -x3)

    def __mul__(self, factor: float) -> "Vec3":
        f = float(factor)
        x1, x2, x3 = self
        return _vec(x1 * f, x2 * f, x3 * f)

    __rmul__ = __mul__

    def __truediv__(self, factor: float) -> "Vec3":
        return self * (1.0 / factor)


def _vec(x1: float, x2: float, x3: float) -> Vec3:
    """Vec3 of floats computed in this module.  x*0.0 is 0.0 exactly when x
    is finite, so one fused test admits all three; a failure goes through
    the public constructor, which names the bad component."""
    if x1 * 0.0 + x2 * 0.0 + x3 * 0.0 == 0.0:
        return _tuple_new(Vec3, (x1, x2, x3))
    return Vec3(x1, x2, x3)


class Quaternion(_Value, tuple):
    """Quaternion s + v, with v the 3-vector part."""

    __slots__ = ()
    __match_args__ = ("s", "v")
    s = property(itemgetter(0))

    def __new__(cls, s: float = 0.0, v: Vec3 = Vec3()):
        s = _finite("s", s)
        if not isinstance(v, Vec3):
            raise TypeError(f"v must be a Vec3, got {type(v).__name__}")
        return _tuple_new(cls, (s, *v))

    @property
    def v(self) -> Vec3:
        """The vector part, a new Vec3 on each access."""
        return _tuple_new(Vec3, self[1:])

    @classmethod
    def of(cls, s: float, x1: float, x2: float, x3: float) -> "Quaternion":
        """Quaternion(s, Vec3(x1, x2, x3)), admitted in one pass: the four
        floats are converted in that chain's order, x1, x2, x3, then s, and
        admitted by one fused finiteness test as in _quat.  Any failure goes
        through the chain itself, which raises the same error in its order."""
        try:
            x1, x2, x3, s = float(x1), float(x2), float(x3), float(s)
        except Exception:  # whatever float() raises, the chain raises again below
            pass
        else:
            if s * 0.0 + x1 * 0.0 + x2 * 0.0 + x3 * 0.0 == 0.0:
                return _tuple_new(Quaternion, (s, x1, x2, x3))
        return cls(s, Vec3(x1, x2, x3))

    @classmethod
    def from_array(cls, arr) -> "Quaternion":
        s, x1, x2, x3 = (float(c) for c in arr)
        return cls.of(s, x1, x2, x3)

    def components(self) -> tuple[float, float, float, float]:
        return self[:]  # a plain tuple

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if other.__class__ is not Quaternion:
            _unsupported("+", self, other)
        s, x1, x2, x3 = self
        t, y1, y2, y3 = other
        return _quat(s + t, x1 + y1, x2 + y2, x3 + y3)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if other.__class__ is not Quaternion:
            _unsupported("-", self, other)
        s, x1, x2, x3 = self
        t, y1, y2, y3 = other
        return _quat(s - t, x1 - y1, x2 - y2, x3 - y3)

    def __neg__(self) -> "Quaternion":
        s, x1, x2, x3 = self
        return _quat(-s, -x1, -x2, -x3)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return mul(self, other)
        f = float(other)
        s, x1, x2, x3 = self
        return _quat(s * f, x1 * f, x2 * f, x3 * f)

    def __rmul__(self, factor: float) -> "Quaternion":
        return self * factor

    def __truediv__(self, factor: float) -> "Quaternion":
        return self * (1.0 / factor)


def _quat(s: float, x1: float, x2: float, x3: float) -> Quaternion:
    """Quaternion of floats computed in this module, admitted by one fused
    finiteness test like _vec."""
    if s * 0.0 + x1 * 0.0 + x2 * 0.0 + x3 * 0.0 == 0.0:
        return _tuple_new(Quaternion, (s, x1, x2, x3))
    return Quaternion(s, Vec3(x1, x2, x3))


ONE = Quaternion(1.0)
I = Quaternion(0.0, Vec3(1.0, 0.0, 0.0))
J = Quaternion(0.0, Vec3(0.0, 1.0, 0.0))
K = Quaternion(0.0, Vec3(0.0, 0.0, 1.0))


def pure(v: Vec3) -> Quaternion:
    """Quaternion with zero scalar part and vector part v, built like _quat's results."""
    return _tuple_new(Quaternion, (0.0, *v))


def _mul4(x: tuple, y: tuple) -> tuple:
    """Quaternion product of component tuples: scalar s1*s2 - v1.v2, vector
    s1*v2 + s2*v1 + v1 x v2, each component summed in that order."""
    s1, a1, a2, a3 = x
    s2, b1, b2, b3 = y
    return (
        s1 * s2 - (a1 * b1 + a2 * b2 + a3 * b3),
        b1 * s1 + a1 * s2 + (a2 * b3 - a3 * b2),
        b2 * s1 + a2 * s2 + (a3 * b1 - a1 * b3),
        b3 * s1 + a3 * s2 + (a1 * b2 - a2 * b1),
    )


def _cross3(x: tuple, y: tuple) -> tuple:
    """Cross product of 3-component tuples."""
    x1, x2, x3 = x
    y1, y2, y3 = y
    return (x2 * y3 - x3 * y2, x3 * y1 - x1 * y3, x1 * y2 - x2 * y1)


def _dot4(x: tuple, y: tuple) -> float:
    """Scalar product of component tuples: s*t, then plus the vector parts'."""
    return x[0] * y[0] + (x[1] * y[1] + x[2] * y[2] + x[3] * y[3])


def _unit4(x: tuple) -> tuple:
    """x scaled by 1/|x|, refused when |x| <= EPS_AXIS.  Where the squares
    overflow, x is scaled by 1/max|x_i| first; a finite |x| skips that step."""
    s, x1, x2, x3 = x
    n = math.sqrt(s * s + (x1 * x1 + x2 * x2 + x3 * x3))
    if n == math.inf:
        f = 1.0 / max(abs(s), abs(x1), abs(x2), abs(x3))
        return _unit4((s * f, x1 * f, x2 * f, x3 * f))
    if n <= EPS_AXIS:
        raise ValueError("cannot normalize a (near-)zero quaternion")
    f = 1.0 / n
    return (s * f, x1 * f, x2 * f, x3 * f)


def mul(x: Quaternion, y: Quaternion) -> Quaternion:
    """Quaternion product, by _mul4."""
    return _quat(*_mul4(x, y))


def conj(x: Quaternion) -> Quaternion:
    """Conjugate: scalar part kept, vector part negated."""
    s, x1, x2, x3 = x
    return _quat(s, -x1, -x2, -x3)


def norm_sq(x: Quaternion) -> float:
    """Squared norm, the sum of the four squared components."""
    return _dot4(x, x)


def norm(x: Quaternion) -> float:
    return math.sqrt(norm_sq(x))


def _det4(rows) -> float:
    """4x4 determinant, by Laplace expansion along the 2x2 minors of rows 0, 1."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


def dot4(x: Quaternion, y: Quaternion) -> float:
    """Euclidean scalar product of the two 4-component points."""
    return _dot4(x, y)


def normalized(x: Quaternion) -> Quaternion:
    return _quat(*_unit4(x))


def require_unit(x: Quaternion, what: str = "quaternion") -> None:
    """Raise NotUnit unless |x| = 1 within the admission tolerance."""
    if abs(norm_sq(x) - 1.0) > EPS_UNIT:
        raise NotUnit(f"{what} has norm_sq {norm_sq(x)!r}, expected 1")
