"""Command-line front end: classify, compose, verify, random, reflections.

Rotations travel as JSON documents {"a": [s, x1, x2, x3], "b": [...]}; planes
as {"u": [...], "w": [...]}.  Exit codes are a stable contract: 0 success,
1 verification discrepancy (or an input that is valid JSON but unusable for
the requested operation), 2 malformed input, 3 non-unit factors without
--normalize.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# rot4.compose and rot4.oracle as the package registers them: neither runs its
# code until a command first reads a name from it
from . import _compose, oracle
from .errors import GibbsSingular, NotSimple, NotUnit, PairingFailure
from .plane import Plane, _projector_rows, projector_distance
from .quat import RANDOM_AXIS_MARGIN, Quaternion, normalized
from .rotation import (
    DEFAULT_EPS,
    Double,
    Identity,
    LeftIsoclinic,
    ReflectionNormal,
    RightIsoclinic,
    Rotation4,
    Simple,
    _kind,
    _leading_negative,
    classify,
    from_reflections,
    simple_to_reflections,
    to_matrix,
)

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_MALFORMED = 2
EXIT_NOT_UNIT = 3


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# --- document I/O ----------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_MALFORMED, f"cannot read {path}: {exc}") from exc


def _reject_constant(token: str):
    raise _CliError(EXIT_MALFORMED, f"non-finite number {token!r} in document")


def parse_doc(text: str) -> tuple[Quaternion, Quaternion]:
    """Parse a rotation document into its raw (a, b) factors, unvalidated."""
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise _CliError(EXIT_MALFORMED, f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise _CliError(EXIT_MALFORMED, 'document must be an object with "a" and "b"')
    factors = []
    for key in ("a", "b"):
        arr = obj[key]
        if (
            not isinstance(arr, list)
            or len(arr) != 4
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in arr)
        ):
            raise _CliError(EXIT_MALFORMED, f'"{key}" must be an array of 4 numbers')
        try:
            factors.append(Quaternion.from_array(arr))
        except (ValueError, OverflowError) as exc:
            # json reads 1e400 as inf, and float() overflows on huge integers
            raise _CliError(EXIT_MALFORMED, f'"{key}": {exc}') from exc
    return factors[0], factors[1]


def _rotation_from_doc(text: str, normalize: bool) -> Rotation4:
    a, b = parse_doc(text)
    if normalize:
        try:
            a, b = normalized(a), normalized(b)
        except ValueError as exc:
            raise _CliError(EXIT_MALFORMED, str(exc)) from exc
    return Rotation4(a, b)


def doc_of_rotation(r: Rotation4) -> dict:
    return {"a": list(r.a), "b": list(r.b)}


def _plane_json(plane: Plane, with_projector: bool = False) -> dict:
    out = {"u": list(plane.u), "w": list(plane.w)}
    if with_projector:
        out["projector"] = _projector_rows(plane)
    return out


def _fmt_vec(values) -> str:
    return "[" + ", ".join(f"{v:.6g}" for v in values) + "]"


def _fmt_angle(angle: float) -> str:
    return f"{angle:.6g} rad ({math.degrees(angle):.6g} deg)"


# --- classify --------------------------------------------------------------


_KIND_NAMES = {
    Identity: "identity",
    LeftIsoclinic: "left-isoclinic",
    RightIsoclinic: "right-isoclinic",
    Simple: "simple",
    Double: "double",
}


def _classification_report(kind) -> dict:
    if isinstance(kind, Identity):
        angles, planes = [], []
    elif isinstance(kind, (LeftIsoclinic, RightIsoclinic)):
        angles, planes = [kind.angle], []
    elif isinstance(kind, Simple):
        angles = [kind.angle]
        planes = [("fixed", 0.0, kind.fixed_plane), ("rotation", kind.angle, kind.rotation_plane)]
    else:
        angles = [kind.angle1, kind.angle2]
        planes = [("plane1", kind.angle1, kind.plane1), ("plane2", kind.angle2, kind.plane2)]
    return {
        "kind": _KIND_NAMES[type(kind)],
        "angles": angles,
        "planes": [
            {"role": role, "angle": angle, "plane": _plane_json(plane, with_projector=True)}
            for role, angle, plane in planes
        ],
    }


def _print_classification(report: dict):
    print(f"kind: {report['kind']}")
    for angle in report["angles"]:
        print(f"angle: {_fmt_angle(angle)}")
    for entry in report["planes"]:
        plane = entry["plane"]
        print(f"{entry['role']} plane (angle {_fmt_angle(entry['angle'])}):")
        print(f"  u = {_fmt_vec(plane['u'])}")
        print(f"  w = {_fmt_vec(plane['w'])}")
        print("  projector:")
        for row in plane["projector"]:
            print(f"    {_fmt_vec(row)}")


def cmd_classify(args) -> int:
    r = _rotation_from_doc(_read_text(args.doc), args.normalize)
    report = _classification_report(classify(r, args.eps))
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_classification(report)
    return EXIT_OK


# --- compose ---------------------------------------------------------------


def cmd_compose(args) -> int:
    if args.f == args.g == "-":
        raise _CliError(EXIT_MALFORMED, "f and g cannot both be - (stdin holds one document)")
    f = _rotation_from_doc(_read_text(args.f), args.normalize)
    g = _rotation_from_doc(_read_text(args.g), args.normalize)
    h = _compose.compose(g, f)
    out = doc_of_rotation(h)
    if args.gibbs:
        from_rotation = _compose.GibbsPair.from_rotation
        try:
            gp = _compose.compose_gibbs(from_rotation(f), from_rotation(g))
            out["gibbs"] = {
                "p_tilde": list(gp.p_tilde),
                "q_tilde": list(gp.q_tilde),
                "cos_alpha": gp.cos_alpha,
                "cos_beta": gp.cos_beta,
            }
        except GibbsSingular as exc:
            out["gibbs"] = {"singular": str(exc)}
    if args.check_simple:
        try:
            report = _compose.is_composition_simple(f, g, args.eps)
        except NotSimple as exc:
            raise _CliError(EXIT_MALFORMED, f"--check-simple: {exc}") from exc
        out["simplicity"] = {name: getattr(report, name) for name in report.__match_args__}
    print(json.dumps(out))
    return EXIT_OK


# --- verify ----------------------------------------------------------------


def _formula_entries(kind) -> tuple:
    """(plane1, angle1, plane2, angle2) predicted by the closed-form side,
    plus a flag marking plane identities as non-unique (isoclinic-like)."""
    if isinstance(kind, Identity):
        return None, 0.0, None, 0.0, True
    if isinstance(kind, (LeftIsoclinic, RightIsoclinic)):
        return None, kind.angle, None, kind.angle, True
    if isinstance(kind, Simple):
        return kind.rotation_plane, kind.angle, kind.fixed_plane, 0.0, False
    return kind.plane1, kind.angle1, kind.plane2, kind.angle2, False


def _entry(plane: Plane | None, angle: float) -> dict:
    return {"angle": angle, "plane": None if plane is None else _plane_json(plane)}


def build_verify_report(r: Rotation4, eps: float = DEFAULT_EPS) -> dict:
    """Compare classify's planes/angles with the matrix oracle, which reads
    them off M + M^T and M - M^T of the same rotation in floats."""
    kind = classify(r, eps)
    fp1, fa1, fp2, fa2, planes_free = _formula_entries(kind)
    # eps governs the comparison verdict; the oracle's pairing test never needs
    # to be stricter than the default, or exact pairs would fail at rounding level
    found = oracle.planes_from_matrix(to_matrix(r), max(eps, DEFAULT_EPS))
    op1, oa1, op2, oa2 = found.plane1, found.angle1, found.plane2, found.angle2
    # two possible pairings; take the one with the smaller total angle gap
    if abs(fa1 - oa2) + abs(fa2 - oa1) < abs(fa1 - oa1) + abs(fa2 - oa2):
        op1, oa1, op2, oa2 = op2, oa2, op1, oa1
    max_angle = max(abs(fa1 - oa1), abs(fa2 - oa2))
    if planes_free or found.isoclinic:
        max_proj = 0.0
    else:
        max_proj = max(projector_distance(fp1, op1), projector_distance(fp2, op2))
    return {
        "kind": _KIND_NAMES[type(kind)],
        "formula": [_entry(fp1, fa1), _entry(fp2, fa2)],
        "oracle": [_entry(op1, oa1), _entry(op2, oa2)],
        "max_projector_distance": max_proj,
        "max_angle_difference": max_angle,
        "ok": bool(max_proj <= eps and max_angle <= eps),
    }


def cmd_verify(args) -> int:
    r = _rotation_from_doc(_read_text(args.doc), args.normalize)
    try:
        report = build_verify_report(r, args.eps)
    except (PairingFailure, ValueError) as exc:
        raise _CliError(EXIT_DISCREPANCY, f"oracle could not process the rotation: {exc}") from exc
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"kind: {report['kind']}")
        for label in ("formula", "oracle"):
            print(f"{label}:")
            for entry in report[label]:
                line = f"  angle {_fmt_angle(entry['angle'])}"
                if entry["plane"] is not None:
                    line += (
                        f"  u = {_fmt_vec(entry['plane']['u'])}"
                        f"  w = {_fmt_vec(entry['plane']['w'])}"
                    )
                print(line)
        print(f"max projector distance: {report['max_projector_distance']:.3e}")
        print(f"max angle difference:   {report['max_angle_difference']:.3e}")
        print("ok" if report["ok"] else "DISCREPANCY")
    return EXIT_OK if report["ok"] else EXIT_DISCREPANCY


# --- random ----------------------------------------------------------------


def _random_unit(rng) -> Quaternion:
    """A uniform random unit quaternion: four Gaussian draws, normalised."""
    s, x1, x2, x3 = (rng.gauss(0.0, 1.0) for _ in range(4))
    norm = math.sqrt(s * s + x1 * x1 + x2 * x2 + x3 * x3)
    return Quaternion.of(s / norm, x1 / norm, x2 / norm, x3 / norm)


def random_rotation(rng, kind: str, eps: float = DEFAULT_EPS) -> Rotation4:
    """Deterministic (per state of the random.Random rng) rotation of the
    requested kind."""
    for _ in range(1000):
        if kind == "any":
            return Rotation4(_random_unit(rng), _random_unit(rng))
        if kind == "simple":
            r = from_reflections(
                ReflectionNormal(_random_unit(rng)), ReflectionNormal(_random_unit(rng))
            )
            if _kind(r, eps) is Simple:
                return r
        elif kind == "double":
            r = Rotation4(_random_unit(rng), _random_unit(rng))
            if _kind(r, eps) is Double:
                return r
        elif kind == "left-isoclinic":
            a = _random_unit(rng)
            a = -a if _leading_negative(a) else a
            if a.v.norm() > RANDOM_AXIS_MARGIN:
                return Rotation4(a, Quaternion(1.0))
        elif kind == "right-isoclinic":
            b = _random_unit(rng)
            if b.v.norm() > RANDOM_AXIS_MARGIN:
                return Rotation4(Quaternion(1.0), b)
        else:
            raise ValueError(f"unknown kind {kind!r}")
    raise RuntimeError(f"failed to generate a {kind} rotation")


def cmd_random(args) -> int:
    import random

    try:
        r = random_rotation(random.Random(args.seed), args.kind, args.eps)
    except RuntimeError as exc:
        raise _CliError(EXIT_DISCREPANCY, f"{exc} at eps = {args.eps:g}") from exc
    print(json.dumps(doc_of_rotation(r)))
    return EXIT_OK


# --- reflections -----------------------------------------------------------


def cmd_reflections(args) -> int:
    r = _rotation_from_doc(_read_text(args.doc), args.normalize)
    try:
        ny, nz = simple_to_reflections(r, args.eps)
    except NotSimple as exc:
        raise _CliError(EXIT_DISCREPANCY, str(exc)) from exc
    print(json.dumps({"y": list(ny.q), "z": list(nz.q)}))
    return EXIT_OK


# --- entry point -----------------------------------------------------------


def _non_negative(convert):
    """An argparse type: convert(text), refused unless finite and >= 0.
    It keeps convert's name, so malformed text still reads "invalid float
    value"."""

    def parse(text: str):
        value = convert(text)
        if not 0 <= value < math.inf:  # false for NaN too
            raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


def _document_args(*docs):
    """An argument adder: the positionals docs, each a (name, help) pair,
    then --eps, --json and --normalize."""

    def add(p):
        for name, help_text in docs:
            p.add_argument(name, help=help_text)
        eps_help = "tolerance, finite and >= 0; a negative value must be written --eps=-1e-3"
        p.add_argument("--eps", type=_non_negative(float), default=DEFAULT_EPS, help=eps_help)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        normalize_help = "renormalize input factors instead of rejecting non-unit ones"
        p.add_argument("--normalize", action="store_true", help=normalize_help)

    return add


def _compose_args(p):
    first, second = "rotation applied first (path or -)", "rotation applied second (path or -)"
    _document_args(("f", first), ("g", second))(p)
    p.add_argument("--gibbs", action="store_true", help="also propagate Gibbs parameters")
    check_help = "report the simplicity verdict for two simple inputs"
    p.add_argument("--check-simple", action="store_true", help=check_help)


def _random_args(p):
    kinds = ["any", "simple", "double", "left-isoclinic", "right-isoclinic"]
    p.add_argument("--seed", type=_non_negative(int), default=0)
    p.add_argument("--kind", choices=kinds, default="any")
    p.add_argument("--eps", type=_non_negative(float), default=DEFAULT_EPS)
    p.add_argument("--json", action="store_true")


_one_doc = _document_args(("doc", "rotation document path, or - for stdin"))
# (name, help, handler, argument adder) of each command, in the order of the help
_COMMANDS = (
    ("classify", "classify a rotation document", cmd_classify, _one_doc),
    ("compose", "compose two rotations (first argument applied first)", cmd_compose, _compose_args),
    ("verify", "cross-check formula planes/angles against the matrix oracle", cmd_verify, _one_doc),
    ("random", "emit a seeded random rotation document", cmd_random, _random_args),
    (
        "reflections",
        "decompose a simple rotation into two reflection normals",
        cmd_reflections,
        _one_doc,
    ),
)
# the command argument as the full parser's usage line shows it
_ALL_COMMANDS = "{" + ",".join(name for name, *_ in _COMMANDS) + "}"


def _build_parser(head) -> argparse.ArgumentParser:
    """The parser for an argument list whose first item, if any, is head's.
    A head that names a command gets that command's subparser alone, since a
    process runs one; any other (none, an option, a typo) gets all five, so
    that the top-level help and argparse's errors list every command."""
    parser = argparse.ArgumentParser(
        prog="rot4",
        description="Classify, compose, and verify rotations of Euclidean "
        "4-space given as unit-quaternion pairs.",
    )
    chosen = [command for command in _COMMANDS if command[0] in head]
    # the usage line lists every command either way; a metavar would also
    # rename the argument in the errors that only the full parser raises
    sub = parser.add_subparsers(
        dest="command", required=True, metavar=_ALL_COMMANDS if chosen else None
    )
    for name, help_text, handler, add_arguments in chosen or _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[:1]).parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NotUnit as exc:
        print(f"error: {exc}; pass --normalize to renormalize", file=sys.stderr)
        return EXIT_NOT_UNIT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
