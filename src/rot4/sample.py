"""`rot4 random`: seeded random rotations of a requested kind.

rot4.cli imports this module when it dispatches random, or when a program
first reads rot4.cli.random_rotation.
"""

from __future__ import annotations

import json
import math
import random

from .cli import EXIT_DISCREPANCY, EXIT_OK, _KIND_NAMES, _KINDS, _CliError, doc_of_rotation
from .quat import Quaternion
from .rotation import DEFAULT_EPS, ReflectionNormal, Rotation4, classify
from .rotation import _leading_negative, from_reflections


def _random_unit(rng) -> Quaternion:
    """A uniform random unit quaternion: four Gaussian draws, normalised."""
    s, x1, x2, x3 = (rng.gauss(0.0, 1.0) for _ in range(4))
    norm = math.sqrt(s * s + x1 * x1 + x2 * x2 + x3 * x3)
    return Quaternion.of(s / norm, x1 / norm, x2 / norm, x3 / norm)


def random_rotation(rng, kind: str, eps: float = DEFAULT_EPS) -> Rotation4:
    """Deterministic (per state of the random.Random rng) rotation of the
    requested kind, one of cli._KINDS.  Draws candidates of that kind (two
    reflections for simple, (a, 1) with a signed by the sign rule for
    left-isoclinic, (1, b) for right-isoclinic, two unit factors otherwise)
    until classify(r, eps), by the one kind rule, names the kind; "any"
    takes the first."""
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    for _ in range(1000):
        if kind == "simple":
            r = from_reflections(
                ReflectionNormal(_random_unit(rng)), ReflectionNormal(_random_unit(rng))
            )
        elif kind == "left-isoclinic":
            a = _random_unit(rng)
            r = Rotation4(-a if _leading_negative(a) else a, Quaternion(1.0))
        elif kind == "right-isoclinic":
            r = Rotation4(Quaternion(1.0), _random_unit(rng))
        else:
            r = Rotation4(_random_unit(rng), _random_unit(rng))
        if kind == "any" or _KIND_NAMES[type(classify(r, eps))] == kind:
            return r
    raise RuntimeError(f"failed to generate a {kind} rotation")


def cmd_random(args) -> int:
    try:
        r = random_rotation(random.Random(args.seed), args.kind, args.eps)
    except RuntimeError as exc:
        raise _CliError(EXIT_DISCREPANCY, f"{exc} at eps = {args.eps:g}") from exc
    print(json.dumps(doc_of_rotation(r)))
    return EXIT_OK
