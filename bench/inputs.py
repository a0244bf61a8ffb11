"""Seeded inputs for the benchmark, as plain float tuples.

A rotation is a pair (a, b) of component 4-tuples [s, x1, x2, x3]; rot4
objects are built from them inside each timed operation.  Every generator
takes a numpy Generator, so one seed gives one input set.

Inputs stay away from rot4's tolerance bands, whose known faults are listed
in CHANGES.md: a quantity that rot4 compares with a threshold is either
exactly at its degenerate value or at least MARGIN from it.  Candidates
inside a band are drawn again.
"""

from __future__ import annotations

import math

import numpy as np

from checks import ONE, qconj, qmul

MARGIN = 1e-3
# below this a quantity counts as exactly degenerate (rounding level)
EXACT = 1e-12


def _clear(x: float) -> bool:
    return x <= EXACT or x >= MARGIN


def _vnorm(q) -> float:
    return math.sqrt(q[1] * q[1] + q[2] * q[2] + q[3] * q[3])


def away_from_bands(a, b) -> bool:
    """True when every rot4 threshold test on (a, b) is decided by a margin:
    vector-part norms (isoclinic cases), |S(a) - S(b)| (simple or double),
    the distance of the axes from equal and opposite (degenerate invariant
    planes) and the scalar parts (Gibbs chart).  The margins on the vector
    parts and on |S(a) - S(b)| also keep every rotation angle that is not
    exactly 0 above about 1e-3."""
    va, vb = _vnorm(a), _vnorm(b)
    if not (_clear(va) and _clear(vb) and _clear(abs(a[0] - b[0]))):
        return False
    if not (_clear(abs(a[0])) and _clear(abs(b[0]))):
        return False
    if va >= MARGIN and vb >= MARGIN:
        p = np.array(a[1:]) / va
        q = np.array(b[1:]) / vb
        return _clear(float(np.linalg.norm(p - q))) and _clear(float(np.linalg.norm(p + q)))
    return True


def _tuple(v) -> tuple[float, ...]:
    return tuple(float(c) for c in v)


def unit4(rng) -> tuple[float, float, float, float]:
    v = rng.standard_normal(4)
    return _tuple(v / np.linalg.norm(v))


def unit4_orthogonal_to(rng, n) -> tuple[float, float, float, float]:
    v = rng.standard_normal(4)
    v -= np.dot(v, n) * np.asarray(n)
    return _tuple(v / np.linalg.norm(v))


def from_normals(y, z):
    """Reflection in y, then in z: factors (z conj(y), conj(y) z)."""
    return qmul(z, qconj(y)), qmul(qconj(y), z)


def _draw(make, rng):
    while True:
        rot = make(rng)
        if away_from_bands(*rot):
            return rot


def generic(rng):
    """Double rotation with independent uniform factors."""
    return _draw(lambda r: (unit4(r), unit4(r)), rng)


def simple(rng):
    """Simple rotation from two independent reflection normals."""
    return _draw(lambda r: from_normals(unit4(r), unit4(r)), rng)


def left_isoclinic(rng):
    return _draw(lambda r: (unit4(r), ONE), rng)


def right_isoclinic(rng):
    return _draw(lambda r: (ONE, unit4(r)), rng)


def gibbs_regular(rng):
    """Both factors turn by at most 60 degrees, so their cosines are >= 1/2."""

    def make(r):
        while True:
            a, b = unit4(r), unit4(r)
            if abs(a[0]) >= 0.5 and abs(b[0]) >= 0.5:
                return a, b

    return _draw(make, rng)


def quarter_turn_left(rng):
    """x -> a x with a pure unit quaternion: the left factor's cosine is 0,
    so the rotation has no Gibbs form."""

    def make(r):
        v = r.standard_normal(3)
        v /= np.linalg.norm(v)
        return (0.0, *_tuple(v)), ONE

    return _draw(make, rng)


def axis_double(rng, sign: float):
    """Double rotation whose factor axes are equal (sign 1) or opposite
    (sign -1): a = cos(ha) + p sin(ha), b = cos(hb) + sign p sin(hb)."""

    def make(r):
        p = r.standard_normal(3)
        p /= np.linalg.norm(p)
        ha, hb = r.uniform(0.0, math.pi, 2)
        a = (math.cos(ha), *_tuple(p * math.sin(ha)))
        b = (math.cos(hb), *_tuple(sign * p * math.sin(hb)))
        return a, b

    return _draw(make, rng)


def composed(f, g):
    """Factors of 'f followed by g'."""
    return qmul(g[0], f[0]), qmul(f[1], g[1])


def compose_pair(rng, make_f, make_g):
    """(f, g) with f, g and their composition all away from the bands."""
    while True:
        f, g = make_f(rng), make_g(rng)
        if away_from_bands(*composed(f, g)):
            return f, g


def s_condition(f, g) -> float:
    """The paper's residual Vc.Va - Vb.Vd for f = (a, b), g = (c, d)."""
    return float(np.dot(g[0][1:], f[0][1:]) - np.dot(f[1][1:], g[1][1:]))


def simple_pair_generic(rng):
    """Two simple rotations whose composition is not simple."""
    while True:
        f, g = compose_pair(rng, simple, simple)
        if abs(s_condition(f, g)) >= MARGIN:
            return f, g


def simple_pair_shared(rng):
    """Two simple rotations whose fixed planes share a vector v: all four
    reflection normals lie in v's orthogonal complement, so the composition
    is simple."""

    def make_pair(r):
        v = unit4(r)
        f = from_normals(unit4_orthogonal_to(r, v), unit4_orthogonal_to(r, v))
        g = from_normals(unit4_orthogonal_to(r, v), unit4_orthogonal_to(r, v))
        return f, g

    while True:
        f, g = make_pair(rng)
        if all(away_from_bands(*rot) for rot in (f, g, composed(f, g))):
            return f, g


def round_to_8_decimals(rot):
    """Both factors written at 8 decimals and renormalized, as a user
    pasting printed numbers would give them."""
    out = []
    for q in rot:
        v = np.round(np.asarray(q), 8)
        out.append(_tuple(v / np.linalg.norm(v)))
    return tuple(out)
