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

import numpy as np

from .compose import GibbsPair, compose, compose_gibbs, is_composition_simple
from .errors import GibbsSingular, NotSimple, NotUnit, PairingFailure
from .oracle import OraclePlanes, planes_from_matrix
from .plane import Plane, projector_distance
from .quat import EPS_UNIT, Quaternion, norm_sq, normalized
from .rotation import (
    DEFAULT_EPS,
    Double,
    Identity,
    LeftIsoclinic,
    ReflectionNormal,
    RightIsoclinic,
    Rotation4,
    Simple,
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
    except OSError as exc:
        raise _CliError(EXIT_MALFORMED, f"cannot read {path}: {exc}") from exc


def _reject_constant(token: str):
    raise _CliError(EXIT_MALFORMED, f"non-finite number {token!r} in document")


def parse_doc(text: str) -> tuple[Quaternion, Quaternion]:
    """Parse a rotation document into its raw (a, b) factors, unvalidated."""
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
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
        factors.append(Quaternion.from_array(arr))
    return factors[0], factors[1]


def _rotation_from_doc(text: str, normalize: bool) -> Rotation4:
    a, b = parse_doc(text)
    if normalize:
        try:
            a, b = normalized(a), normalized(b)
        except ValueError as exc:
            raise _CliError(EXIT_MALFORMED, str(exc)) from exc
    for name, factor in (("a", a), ("b", b)):
        if abs(norm_sq(factor) - 1.0) > EPS_UNIT:
            raise _CliError(
                EXIT_NOT_UNIT,
                f'factor "{name}" has norm_sq {norm_sq(factor)!r}; '
                "pass --normalize to renormalize",
            )
    return Rotation4(a, b)


def doc_of_rotation(r: Rotation4) -> dict:
    return {"a": list(r.a.components()), "b": list(r.b.components())}


def _plane_json(plane: Plane, with_projector: bool = False) -> dict:
    out = {"u": list(plane.u.components()), "w": list(plane.w.components())}
    if with_projector:
        out["projector"] = plane.projector().tolist()
    return out


def _fmt_vec(values) -> str:
    return "[" + ", ".join(f"{v:.6g}" for v in values) + "]"


def _fmt_angle(angle: float) -> str:
    return f"{angle:.6g} rad ({math.degrees(angle):.6g} deg)"


# --- classify --------------------------------------------------------------


def _classification_report(kind) -> dict:
    if isinstance(kind, Identity):
        return {"kind": "identity", "angles": [], "planes": []}
    if isinstance(kind, LeftIsoclinic):
        return {"kind": "left-isoclinic", "angles": [kind.angle], "planes": []}
    if isinstance(kind, RightIsoclinic):
        return {"kind": "right-isoclinic", "angles": [kind.angle], "planes": []}
    if isinstance(kind, Simple):
        return {
            "kind": "simple",
            "angles": [kind.angle],
            "planes": [
                {
                    "role": "fixed",
                    "angle": 0.0,
                    "plane": _plane_json(kind.fixed_plane, with_projector=True),
                },
                {
                    "role": "rotation",
                    "angle": kind.angle,
                    "plane": _plane_json(kind.rotation_plane, with_projector=True),
                },
            ],
        }
    assert isinstance(kind, Double)
    return {
        "kind": "double",
        "angles": [kind.angle1, kind.angle2],
        "planes": [
            {
                "role": "plane1",
                "angle": kind.angle1,
                "plane": _plane_json(kind.plane1, with_projector=True),
            },
            {
                "role": "plane2",
                "angle": kind.angle2,
                "plane": _plane_json(kind.plane2, with_projector=True),
            },
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
    f = _rotation_from_doc(_read_text(args.f), args.normalize)
    g = _rotation_from_doc(_read_text(args.g), args.normalize)
    h = compose(g, f)
    out = doc_of_rotation(h)
    if args.gibbs:
        try:
            gp = compose_gibbs(GibbsPair.from_rotation(f), GibbsPair.from_rotation(g))
            out["gibbs"] = {
                "p_tilde": list(gp.p_tilde.components()),
                "q_tilde": list(gp.q_tilde.components()),
                "cos_alpha": gp.cos_alpha,
                "cos_beta": gp.cos_beta,
            }
        except GibbsSingular as exc:
            out["gibbs"] = {"singular": str(exc)}
    if args.check_simple:
        try:
            report = is_composition_simple(f, g, args.eps)
        except NotSimple as exc:
            raise _CliError(EXIT_MALFORMED, f"--check-simple: {exc}") from exc
        out["simplicity"] = {
            "s_condition": report.s_condition,
            "det_normals": report.det_normals,
            "intersection_dim": report.intersection_dim,
            "is_simple": report.is_simple,
        }
    print(json.dumps(out))
    return EXIT_OK


# --- verify ----------------------------------------------------------------


def _formula_entries(kind) -> tuple[list[tuple[Plane | None, float]], bool]:
    """(plane, angle) pairs predicted by the closed-form side, plus a flag
    marking plane identities as non-unique (isoclinic-like)."""
    if isinstance(kind, Identity):
        return [(None, 0.0), (None, 0.0)], True
    if isinstance(kind, (LeftIsoclinic, RightIsoclinic)):
        return [(None, kind.angle), (None, kind.angle)], True
    if isinstance(kind, Simple):
        return [(kind.rotation_plane, kind.angle), (kind.fixed_plane, 0.0)], False
    return [(kind.plane1, kind.angle1), (kind.plane2, kind.angle2)], False


def build_verify_report(r: Rotation4, eps: float = DEFAULT_EPS) -> dict:
    """Compare classify's planes/angles with the matrix-eigendecomposition
    route on the same rotation."""
    kind = classify(r, eps)
    formula, planes_free = _formula_entries(kind)
    # eps governs the comparison verdict; eigenvalue pairing never needs to be
    # stricter than the default, or exact pairs would fail at rounding level
    oracle: OraclePlanes = planes_from_matrix(to_matrix(r), max(eps, DEFAULT_EPS))
    oracle_entries = [(oracle.plane1, oracle.angle1), (oracle.plane2, oracle.angle2)]

    # two possible pairings; take the one with the smaller total angle gap
    direct = abs(formula[0][1] - oracle_entries[0][1]) + abs(
        formula[1][1] - oracle_entries[1][1]
    )
    crossed = abs(formula[0][1] - oracle_entries[1][1]) + abs(
        formula[1][1] - oracle_entries[0][1]
    )
    if crossed < direct:
        oracle_entries.reverse()

    max_angle = max(
        abs(fe[1] - oe[1]) for fe, oe in zip(formula, oracle_entries)
    )
    if planes_free or oracle.isoclinic:
        max_proj = 0.0
    else:
        max_proj = max(
            projector_distance(fe[0], oe[0]) for fe, oe in zip(formula, oracle_entries)
        )

    report = _classification_report(kind)
    return {
        "kind": report["kind"],
        "formula": [
            {"angle": angle, "plane": None if plane is None else _plane_json(plane)}
            for plane, angle in formula
        ],
        "oracle": [
            {"angle": angle, "plane": _plane_json(plane)}
            for plane, angle in oracle_entries
        ],
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
    vec = rng.standard_normal(4)
    return Quaternion.from_array(vec / np.linalg.norm(vec))


def random_rotation(rng, kind: str, eps: float = DEFAULT_EPS) -> Rotation4:
    """Deterministic (per rng state) rotation of the requested kind."""
    for _ in range(1000):
        if kind == "any":
            return Rotation4(_random_unit(rng), _random_unit(rng))
        if kind == "simple":
            r = from_reflections(
                ReflectionNormal(_random_unit(rng)), ReflectionNormal(_random_unit(rng))
            )
            if isinstance(classify(r, eps), Simple):
                return r
        elif kind == "double":
            r = Rotation4(_random_unit(rng), _random_unit(rng))
            if isinstance(classify(r, eps), Double):
                return r
        elif kind == "left-isoclinic":
            a = _random_unit(rng)
            a = -a if _leading_negative(a) else a
            if a.v.norm() > 1e-6:
                return Rotation4(a, Quaternion(1.0))
        elif kind == "right-isoclinic":
            b = _random_unit(rng)
            if b.v.norm() > 1e-6:
                return Rotation4(Quaternion(1.0), b)
        else:
            raise ValueError(f"unknown kind {kind!r}")
    raise RuntimeError(f"failed to generate a {kind} rotation")


def cmd_random(args) -> int:
    rng = np.random.default_rng(args.seed)
    r = random_rotation(rng, args.kind, args.eps)
    print(json.dumps(doc_of_rotation(r)))
    return EXIT_OK


# --- reflections -----------------------------------------------------------


def cmd_reflections(args) -> int:
    r = _rotation_from_doc(_read_text(args.doc), args.normalize)
    try:
        ny, nz = simple_to_reflections(r, args.eps)
    except NotSimple as exc:
        raise _CliError(EXIT_DISCREPANCY, str(exc)) from exc
    print(
        json.dumps(
            {"y": list(ny.q.components()), "z": list(nz.q.components())}
        )
    )
    return EXIT_OK


# --- entry point -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rot4",
        description="Classify, compose, and verify rotations of Euclidean "
        "4-space given as unit-quaternion pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, docs):
        for name, help_text in docs:
            p.add_argument(name, help=help_text)
        p.add_argument("--eps", type=float, default=DEFAULT_EPS, help="tolerance")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--normalize",
            action="store_true",
            help="renormalize input factors instead of rejecting non-unit ones",
        )

    p_classify = sub.add_parser("classify", help="classify a rotation document")
    common(p_classify, [("doc", "rotation document path, or - for stdin")])
    p_classify.set_defaults(func=cmd_classify)

    p_compose = sub.add_parser(
        "compose", help="compose two rotations (first argument applied first)"
    )
    common(
        p_compose,
        [("f", "rotation applied first (path or -)"), ("g", "rotation applied second")],
    )
    p_compose.add_argument(
        "--gibbs", action="store_true", help="also propagate Gibbs parameters"
    )
    p_compose.add_argument(
        "--check-simple",
        action="store_true",
        help="report the simplicity verdict for two simple inputs",
    )
    p_compose.set_defaults(func=cmd_compose)

    p_verify = sub.add_parser(
        "verify", help="cross-check formula planes/angles against the matrix oracle"
    )
    common(p_verify, [("doc", "rotation document path, or - for stdin")])
    p_verify.set_defaults(func=cmd_verify)

    p_random = sub.add_parser("random", help="emit a seeded random rotation document")
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument(
        "--kind",
        choices=["any", "simple", "double", "left-isoclinic", "right-isoclinic"],
        default="any",
    )
    p_random.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p_random.add_argument("--json", action="store_true")
    p_random.set_defaults(func=cmd_random)

    p_refl = sub.add_parser(
        "reflections", help="decompose a simple rotation into two reflection normals"
    )
    common(p_refl, [("doc", "rotation document path, or - for stdin")])
    p_refl.set_defaults(func=cmd_reflections)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NotUnit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_UNIT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
