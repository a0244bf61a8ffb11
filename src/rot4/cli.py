"""Command-line front end: classify, compose, verify, random, reflections.

Rotations travel as JSON documents {"a": [s, x1, x2, x3], "b": [...]}; planes
as {"u": [...], "w": [...]}.  Exit codes are a stable contract: 0 success,
1 verification discrepancy (or an input that is valid JSON but unusable for
the requested operation), 2 malformed input, 3 non-unit factors without
--normalize, 141 stdout closed by its reader.

_COMMANDS declares every command.  A well-formed command line is read from
it without argparse, which parses any other, so all help, usage and error
text is argparse's.  verify and random run from rot4.verify and rot4.sample.
"""

from __future__ import annotations

import json
import math
import os
import sys
from importlib import import_module
from types import SimpleNamespace

# rot4.compose as the package registers it: it runs no code until a command
# first reads a name from it
from . import _compose
from .errors import GibbsSingular, NotSimple, NotUnit
from .plane import Plane, _projector_rows
from .quat import Quaternion, normalized
from .rotation import (
    DEFAULT_EPS,
    Double,
    Identity,
    LeftIsoclinic,
    RightIsoclinic,
    Rotation4,
    Simple,
    classify,
    simple_to_reflections,
)

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_MALFORMED = 2
EXIT_NOT_UNIT = 3
# 128 + SIGPIPE, as a shell reports a process that the signal ended
EXIT_BROKEN_PIPE = 141


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
            out["gibbs"] = {name: getattr(gp, name) for name in gp.__match_args__}
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


# --- reflections -----------------------------------------------------------


def cmd_reflections(args) -> int:
    r = _rotation_from_doc(_read_text(args.doc), args.normalize)
    try:
        ny, nz = simple_to_reflections(r, args.eps)
    except NotSimple as exc:
        raise _CliError(EXIT_DISCREPANCY, str(exc)) from exc
    print(json.dumps({"y": list(ny.q), "z": list(nz.q)}))
    return EXIT_OK


# --- verify and random, whose code is in rot4.verify and rot4.sample --------


def cmd_verify(args) -> int:
    from . import verify

    return verify.cmd_verify(args)


def cmd_random(args) -> int:
    from . import sample

    return sample.cmd_random(args)


# the names that moved to the module of the command that runs them; each
# becomes a plain global here on its first read
_MOVED = {"build_verify_report": ".verify", "random_rotation": ".sample"}


def __getattr__(name: str):
    try:
        module = _MOVED[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(module, __package__), name)
    return value


# --- the command table -----------------------------------------------------


def _non_negative(convert):
    """A converter: convert(text), refused unless finite and >= 0.  It keeps
    convert's name, so malformed text still reads "invalid float value"."""

    def parse(text: str):
        value = convert(text)
        if not 0 <= value < math.inf:  # false for NaN too
            import argparse

            raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


# Options map each flag to (converter, default, choices, help); a converter of
# None marks a switch, which stores True.
_EPS = _non_negative(float)
_FINITE = "finite and >= 0; a negative value must be written --eps=-1e-3"
_IGNORED = (None, False, None, "accepted and ignored: the output is always JSON")
_NORMALIZE = "renormalize input factors instead of rejecting non-unit ones"
_DOC_OPTIONS = {
    "--eps": (_EPS, DEFAULT_EPS, None, f"tolerance, {_FINITE}"),
    "--json": (None, False, None, "machine-readable output"),
    "--normalize": (None, False, None, _NORMALIZE),
}
_COMPOSE_OPTIONS = {
    **_DOC_OPTIONS,
    "--eps": (_EPS, DEFAULT_EPS, None, f"tolerance of --check-simple, {_FINITE}"),
    "--json": _IGNORED,
    "--gibbs": (None, False, None, "also propagate Gibbs parameters"),
    "--check-simple": (None, False, None, "report the simplicity verdict for two simple inputs"),
}
_DRAW_EPS = f"tolerance of the kind test for --kind simple or double, {_FINITE}"
_KINDS = ["any", "simple", "double", "left-isoclinic", "right-isoclinic"]
_RANDOM_OPTIONS = {
    "--seed": (_non_negative(int), 0, None, "seed of the random generator, an integer >= 0"),
    "--kind": (str, "any", _KINDS, "kind of rotation to draw"),
    "--eps": (_EPS, DEFAULT_EPS, None, _DRAW_EPS),
    "--json": _IGNORED,
}
_DOC = (("doc", "rotation document path, or - for stdin"),)
_F_G = (("f", "rotation applied first (path or -)"), ("g", "rotation applied second (path or -)"))
_COMPOSE_HELP = "compose two rotations (first argument applied first)"
_VERIFY_HELP = "cross-check formula planes/angles against the matrix oracle"
# name: (help, handler, positionals as (name, help) pairs, options), in the
# order of the help
_COMMANDS = {
    "classify": ("classify a rotation document", cmd_classify, _DOC, _DOC_OPTIONS),
    "compose": (_COMPOSE_HELP, cmd_compose, _F_G, _COMPOSE_OPTIONS),
    "verify": (_VERIFY_HELP, cmd_verify, _DOC, _DOC_OPTIONS),
    "random": ("emit a seeded random rotation document", cmd_random, (), _RANDOM_OPTIONS),
    "reflections": (
        "decompose a simple rotation into two reflection normals",
        cmd_reflections,
        _DOC,
        {**_DOC_OPTIONS, "--json": _IGNORED},
    ),
}


def _read_argv(argv):
    """The namespace argparse builds for argv, read from _COMMANDS alone when
    argv is a command, its positionals and its own options in any order, each
    flag whole and each value accepted; else None, and argparse parses argv:
    -h, an unknown or abbreviated flag, "--", a value or positional that
    starts with "-" (bar "-"), a refused value, a wrong count of positionals."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, positionals, options = _COMMANDS[argv[0]]
    values = {flag[2:].replace("-", "_"): option[1] for flag, option in options.items()}
    docs = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-" or token == "-":
            docs.append(token)
            continue
        flag, equals, text = token.partition("=")
        if flag not in options:
            return None
        convert, _, choices, _ = options[flag]
        if convert is None:
            if equals:
                return None
            value = True
        else:
            if not equals:
                text = next(tokens, "-")  # a missing value defers, as "-..." does
                if text[:1] == "-":
                    return None
            try:
                value = convert(text)
            except Exception:  # ValueError, or the refusal of _non_negative
                return None
            if choices is not None and value not in choices:
                return None
        values[flag[2:].replace("-", "_")] = value
    if len(docs) != len(positionals):
        return None
    values.update(zip((name for name, _ in positionals), docs))
    return SimpleNamespace(command=argv[0], func=handler, **values)


def _build_parser():
    """The argparse parser of every command in _COMMANDS, for the command
    lines that _read_argv leaves to it: help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rot4",
        description="Classify, compose, and verify rotations of Euclidean "
        "4-space given as unit-quaternion pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for positional, help_text in positionals:
            p.add_argument(positional, help=help_text)
        for flag, (convert, default, choices, help_text) in options.items():
            if convert is None:
                p.add_argument(flag, action="store_true", help=help_text)
            else:
                p.add_argument(flag, type=convert, default=default, choices=choices, help=help_text)
        p.set_defaults(func=handler)
    return parser


# --- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NotUnit as exc:
        print(f"error: {exc}; pass --normalize to renormalize", file=sys.stderr)
        return EXIT_NOT_UNIT


def entrypoint():
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
        sys.stdout.flush()  # now rather than at exit, where a failure is only reported
    except BrokenPipeError:
        # the reader of stdout has gone: as Python's note on SIGPIPE advises,
        # point stdout at devnull, so that the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    # rot4.verify and rot4.sample raise rot4.cli's _CliError, so run the entry
    # point of the module rot4.cli, not that of this __main__ copy
    import_module(__spec__.name).entrypoint()
