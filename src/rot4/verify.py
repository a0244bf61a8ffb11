"""`rot4 verify`: classify's planes and angles against the matrix oracle.

rot4.cli imports this module when it dispatches verify, or when a program
first reads rot4.cli.build_verify_report.
"""

from __future__ import annotations

import json

from . import oracle
from .cli import EXIT_DISCREPANCY, EXIT_OK, _KIND_NAMES, _CliError, _fmt_angle, _fmt_vec
from .cli import _plane_json, _read_text, _rotation_from_doc
from .errors import PairingFailure
from .plane import Plane, projector_distance
from .rotation import DEFAULT_EPS, Rotation4, _planes_of, classify, to_matrix


def _entry(plane: Plane | None, angle: float) -> dict:
    return {"angle": angle, "plane": None if plane is None else _plane_json(plane)}


def build_verify_report(r: Rotation4, eps: float = DEFAULT_EPS) -> dict:
    """Compare classify's planes/angles with the matrix oracle, which reads
    them off M + M^T and M - M^T of the same rotation in floats."""
    kind = classify(r, eps)
    fp1, fa1, fp2, fa2 = _planes_of(kind)
    # eps governs the comparison verdict; the oracle's pairing test never needs
    # to be stricter than the default, or exact pairs would fail at rounding level
    found = oracle.planes_from_matrix(to_matrix(r), max(eps, DEFAULT_EPS))
    op1, oa1, op2, oa2 = found.plane1, found.angle1, found.plane2, found.angle2
    # two possible pairings; take the one with the smaller total angle gap
    if abs(fa1 - oa2) + abs(fa2 - oa1) < abs(fa1 - oa1) + abs(fa2 - oa2):
        op1, oa1, op2, oa2 = op2, oa2, op1, oa1
    max_angle = max(abs(fa1 - oa1), abs(fa2 - oa2))
    if fp1 is None or found.isoclinic:  # isoclinic-like: the planes are not unique
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
