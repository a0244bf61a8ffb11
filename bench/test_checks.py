"""The benchmark's checker must reject wrong outputs.

Each test builds a correct rot4 output, confirms the checker accepts it, then
corrupts it and expects CheckFailed.  Run with:

    python3 -m pytest bench/test_checks.py
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src on sys.path)
import rot4  # noqa: E402
import rot4.cli  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _classified(rot):
    return run.kind_report(rot4.classify(run._rotation(*rot)))


def _perturb_plane(plane: dict, delta: float = 1e-5) -> None:
    """Tilt u towards the orthogonal complement of the plane, keeping it unit."""
    u = np.asarray(plane["u"])
    w = np.asarray(plane["w"])
    out = np.linalg.svd(np.vstack([u, w]))[2][2]
    tilted = u + delta * out
    plane["u"] = list(tilted / np.linalg.norm(tilted))
    plane.pop("projector", None)


def _rejected(check, *args) -> None:
    with pytest.raises(checks.CheckFailed):
        check(*args)


@pytest.mark.parametrize("make", [inputs.generic, inputs.simple])
def test_classification_perturbed_plane(rng, make):
    rot = make(rng)
    m = run._matrix(rot)
    report = _classified(rot)
    checks.check_classification(m, report)
    for k in range(2):
        bad = copy.deepcopy(report)
        _perturb_plane(bad["planes"][k]["plane"])
        _rejected(checks.check_classification, m, bad)


def test_classification_swapped_angles(rng):
    rot = inputs.generic(rng)
    m = run._matrix(rot)
    bad = _classified(rot)
    first, second = bad["planes"]
    first["angle"], second["angle"] = second["angle"], first["angle"]
    _rejected(checks.check_classification, m, bad)


def test_classification_wrong_kind(rng):
    rot = inputs.left_isoclinic(rng)
    m = run._matrix(rot)
    report = _classified(rot)
    checks.check_classification(m, report)
    _rejected(checks.check_classification, m, dict(report, kind="right-isoclinic"))


def test_verify_report_corruptions(rng):
    rot = inputs.generic(rng)
    m = run._matrix(rot)
    report = run.op_verify(*rot)
    checks.check_verify_report(m, report)
    for side in ("formula", "oracle"):
        swapped = copy.deepcopy(report)
        first, second = swapped[side]
        first["angle"], second["angle"] = second["angle"], first["angle"]
        _rejected(checks.check_verify_report, m, swapped)
        tilted = copy.deepcopy(report)
        _perturb_plane(tilted[side][0]["plane"])
        _rejected(checks.check_verify_report, m, tilted)
    _rejected(checks.check_verify_report, m, dict(report, ok=False))


def test_simplicity_flipped_verdict(rng):
    for make, expected in (
        (inputs.simple_pair_generic, False),
        (inputs.simple_pair_shared, True),
    ):
        f, g = make(rng)
        m_h = run._matrix(inputs.composed(f, g))
        report = run.simplicity_report(run.op_simplicity(*f, *g))
        checks.check_simplicity(m_h, report, expected)
        _rejected(checks.check_simplicity, m_h, dict(report, is_simple=not expected), expected)
        _rejected(checks.check_simplicity, m_h, report, not expected)
        _rejected(
            checks.check_simplicity,
            m_h,
            dict(report, det_normals=-report["det_normals"] + 0.1),
            expected,
        )


def test_compose_wrong_order_and_gibbs(rng):
    f, g = inputs.compose_pair(rng, inputs.generic, inputs.generic)
    h, gibbs, kind = run.op_compose(*f, *g)
    m_h = checks.rotation_matrix(h.a.components(), h.b.components())
    m_f, m_g = run._matrix(f), run._matrix(g)
    checks.check_product(m_h, m_g, m_f, "compose")
    _rejected(checks.check_product, m_h, m_f, m_g, "compose")
    good = run.gibbs_report(gibbs)
    checks.check_gibbs(m_h, good, (*f, *g))
    bad = dict(good, p_tilde=[c + 1e-6 for c in good["p_tilde"]])
    _rejected(checks.check_gibbs, m_h, bad, (*f, *g))
    _rejected(checks.check_gibbs, m_h, {"singular": "claimed"}, (*f, *g))


def test_reflections_wrong_order(rng):
    rot = inputs.simple(rng)
    m = run._matrix(rot)
    y, z = rot4.simple_to_reflections(run._rotation(*rot))
    normals = {"y": list(y.q.components()), "z": list(z.q.components())}
    checks.check_reflections(m, normals)
    _rejected(checks.check_reflections, m, {"y": normals["z"], "z": normals["y"]})


def test_eigen_angles_of_a_known_rotation():
    # a turn by 0.3 in the (1, i) plane and by 1.1 in the (j, k) plane
    m = np.eye(4)
    for (p, q), t in (((0, 1), 0.3), ((2, 3), 1.1)):
        m[p, p] = m[q, q] = math.cos(t)
        m[q, p], m[p, q] = math.sin(t), -math.sin(t)
    t1, t2 = checks.eigen_angles(m)
    assert abs(t1 - 0.3) < 1e-12 and abs(t2 - 1.1) < 1e-12
