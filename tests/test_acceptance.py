"""End-to-end acceptance checks, each at its stated tolerance.

Every test prints one `criterion NN PASS/FAIL` line; run with `pytest -s`
to see them all.  The whole module is expected to finish well under a
minute on an ordinary laptop.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rot4 import (
    Double,
    GibbsPair,
    GibbsSingular,
    Identity,
    ONE,
    Plane,
    Quaternion,
    ReflectionNormal,
    Rotation4,
    Simple,
    Vec3,
    apply,
    classify,
    compose,
    compose_gibbs,
    conj,
    dot4,
    from_reflections,
    gibbs_from_unit,
    is_composition_simple,
    mul,
    normalized,
    planes_from_matrix,
    projector_distance,
    pure,
    rodrigues_compose,
    simple_to_reflections,
    to_matrix,
    unit_from_gibbs,
)
from conftest import (
    GOLDEN_F,
    GOLDEN_G,
    comp_diff,
    matrix_of,
    numpy_projector,
    rand_rotation,
    rand_simple,
    rand_unit_quat,
    rand_unit_vec3,
)


@contextmanager
def report(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    print(f"criterion {number:2d} PASS  {label}")


def test_01_golden_composition():
    with report(1, "golden composition factors (<= 1e-12, up to global sign)"):
        h = compose(GOLDEN_G, GOLDEN_F)
        want_a = Quaternion.of(0.5, 0.5, 0.5, -0.5)
        want_b = Quaternion.of(0.5, 0.5, 0.5, 0.5)
        direct = max(comp_diff(h.a, want_a), comp_diff(h.b, want_b))
        flipped = max(comp_diff(h.a, -want_a), comp_diff(h.b, -want_b))
        assert min(direct, flipped) <= 1e-12


def test_02_golden_parameters():
    with report(2, "golden Gibbs parameters (cos 1/2, vectors <= 1e-12)"):
        gh = compose_gibbs(
            GibbsPair.from_rotation(GOLDEN_F), GibbsPair.from_rotation(GOLDEN_G)
        )
        assert abs(gh.cos_alpha - 0.5) <= 1e-12
        assert comp_diff(pure(gh.p_tilde), Quaternion.of(0, 1, 1, -1)) <= 1e-12
        assert comp_diff(pure(gh.q_tilde), Quaternion.of(0, 1, 1, 1)) <= 1e-12
        # same numbers from the quaternion-product route
        extracted = GibbsPair.from_rotation(compose(GOLDEN_G, GOLDEN_F))
        assert abs(extracted.cos_alpha - 0.5) <= 1e-12
        assert comp_diff(pure(extracted.p_tilde), pure(gh.p_tilde)) <= 1e-12
        assert comp_diff(pure(extracted.q_tilde), pure(gh.q_tilde)) <= 1e-12


def test_03_golden_planes():
    with report(3, "golden fixed planes of f and g (projector <= 1e-10)"):
        kind_f = classify(GOLDEN_F)
        assert isinstance(kind_f, Simple)
        span_f = Plane(
            normalized(Quaternion.of(0, 1, -1, 0)), normalized(Quaternion.of(1, 0, 0, 1))
        )
        assert projector_distance(kind_f.fixed_plane, span_f) <= 1e-10

        kind_g = classify(GOLDEN_G)
        assert isinstance(kind_g, Simple)
        span_g = Plane(
            normalized(Quaternion.of(0, 0, 1, -1)), normalized(Quaternion.of(1, 1, 0, 0))
        )
        assert projector_distance(kind_g.fixed_plane, span_g) <= 1e-10


def test_04_matrix_homomorphism():
    with report(4, "matrix homomorphism on 10,000 pairs (<= 1e-12, under 5 s)"):
        rng = np.random.default_rng(4)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(10_000):
            f, g = rand_rotation(rng), rand_rotation(rng)
            diff = np.abs(matrix_of(compose(g, f)) - matrix_of(g) @ matrix_of(f)).max()
            worst = max(worst, diff)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-12, f"worst entry difference {worst:.3e}"
        assert elapsed <= 5.0, f"took {elapsed:.2f} s"


def test_05_determinant_identity():
    with report(5, "normals determinant identity on 10,000 frames (<= 1e-9)"):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10_000):
            y, z, u, w = (rand_unit_quat(rng) for _ in range(4))
            a, b = mul(z, conj(y)), mul(conj(y), z)
            c, d = mul(w, conj(u)), mul(conj(u), w)
            s_condition = c.v.dot(a.v) - b.v.dot(d.v)
            det = np.linalg.det(
                np.column_stack([[q.v.x1, q.v.x2, q.v.x3, q.s] for q in (y, z, u, w)])
            )
            worst = max(worst, abs(s_condition + 2.0 * det))
        assert worst <= 1e-9, f"worst residual {worst:.3e}"


def _normal_orthogonal_to(rng, v: Quaternion) -> ReflectionNormal:
    while True:
        cand = rng.standard_normal(4)
        vs = np.array(v.components())
        cand -= (cand @ vs) * vs
        n = np.linalg.norm(cand)
        if n > 1e-6:
            return ReflectionNormal(Quaternion.from_array(cand / n))


def test_06_simplicity_three_way_agreement():
    with report(6, "three-way simplicity agreement on 2,000 pairs (eps 1e-8)"):
        rng = np.random.default_rng(6)
        disagreements = 0
        random_simple = 0
        for case in range(2_000):
            if case < 1_000:
                f, g = rand_simple(rng), rand_simple(rng)
                expect_simple = False  # generic pairs: non-simple compositions
            else:
                shared = rand_unit_quat(rng)
                f = from_reflections(
                    _normal_orthogonal_to(rng, shared), _normal_orthogonal_to(rng, shared)
                )
                g = from_reflections(
                    _normal_orthogonal_to(rng, shared), _normal_orthogonal_to(rng, shared)
                )
                expect_simple = True
            rep = is_composition_simple(f, g, eps=1e-8)
            verdicts = (
                rep.is_simple,
                abs(2.0 * rep.det_normals) <= 1e-8,
                rep.intersection_dim >= 1,
                isinstance(classify(compose(g, f), 1e-8), (Simple, Identity)),
            )
            if len(set(verdicts)) != 1:
                disagreements += 1
            if expect_simple:
                assert rep.is_simple, "constructed shared-vector pair must be simple"
            elif rep.is_simple:
                random_simple += 1
        assert disagreements == 0, f"{disagreements} disagreements"
        assert random_simple == 0  # deterministic seed; no chance collisions


def _random_double_data(rng, degenerate: int = 0):
    """(half-angle, axis) pairs with separated, well-conditioned angles.

    degenerate: 0 for independent axes, +1 for q = p, -1 for q = -p."""
    while True:
        alpha = rng.uniform(0.05, math.pi - 0.05)
        beta = rng.uniform(0.05, math.pi - 0.05)
        theta_sum = alpha + beta
        theta_sum = theta_sum if theta_sum <= math.pi else 2 * math.pi - theta_sum
        theta_diff = abs(alpha - beta)
        if not (0.08 <= theta_sum <= math.pi - 0.08):
            continue
        if theta_diff < 0.08:
            continue
        if abs(math.cos(theta_sum) - math.cos(theta_diff)) < 0.01:
            continue
        p = rand_unit_vec3(rng)
        if degenerate == 0:
            q = rand_unit_vec3(rng)
            if min((p - q).norm(), (p + q).norm()) < 1e-3:
                continue
        else:
            q = p * float(degenerate)
        return alpha, p, beta, q


def test_07_oracle_equivalence():
    with report(7, "oracle vs formula planes/angles (proj 1e-8, angle 1e-9)"):
        rng = np.random.default_rng(7)
        cases = [_random_double_data(rng) for _ in range(1_000)]
        cases += [_random_double_data(rng, degenerate=+1) for _ in range(50)]
        cases += [_random_double_data(rng, degenerate=-1) for _ in range(50)]
        worst_proj = worst_angle = 0.0
        for alpha, p, beta, q in cases:
            a = Quaternion(math.cos(alpha), p * math.sin(alpha))
            b = Quaternion(math.cos(beta), q * math.sin(beta))
            r = Rotation4(a, b)
            kind = classify(r)
            assert isinstance(kind, Double)
            formula = [(kind.plane1, kind.angle1), (kind.plane2, kind.angle2)]
            oracle = planes_from_matrix(to_matrix(r))
            oracle_entries = [(oracle.plane1, oracle.angle1), (oracle.plane2, oracle.angle2)]
            if abs(formula[0][1] - oracle_entries[0][1]) + abs(
                formula[1][1] - oracle_entries[1][1]
            ) > abs(formula[0][1] - oracle_entries[1][1]) + abs(
                formula[1][1] - oracle_entries[0][1]
            ):
                oracle_entries.reverse()
            for (fp, fa), (op, oa) in zip(formula, oracle_entries):
                worst_proj = max(worst_proj, projector_distance(fp, op))
                worst_angle = max(worst_angle, abs(fa - oa))
        assert worst_proj <= 1e-8, f"worst projector distance {worst_proj:.3e}"
        assert worst_angle <= 1e-9, f"worst angle difference {worst_angle:.3e}"


def test_08_clifford_translation_property():
    with report(8, "left-translation angle and invariant planes (<= 1e-10)"):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rand_unit_quat(rng)
            p = a.v / a.v.norm()
            for _ in range(100):
                x = rand_unit_quat(rng)
                ax = mul(a, x)
                assert abs(dot4(ax, x) - a.s) <= 1e-10
            x = rand_unit_quat(rng)
            proj = numpy_projector(Plane(x, mul(pure(p), x)))
            image = np.array(mul(a, x).components())
            assert np.abs(proj @ image - image).max() <= 1e-10


def test_09_gibbs_composition_rules():
    with report(9, "Gibbs composition vs quaternion route on 1,000 pairs (<= 1e-10)"):
        rng = np.random.default_rng(9)

        def rand_gibbs_rotation():
            half_a = rng.uniform(0.05, 1.45)
            half_b = rng.uniform(0.05, 1.45)
            a = Quaternion(math.cos(half_a), rand_unit_vec3(rng) * math.sin(half_a))
            b = Quaternion(math.cos(half_b), rand_unit_vec3(rng) * math.sin(half_b))
            return Rotation4(a, b)

        done = 0
        while done < 1_000:
            f, g = rand_gibbs_rotation(), rand_gibbs_rotation()
            gf, gg = GibbsPair.from_rotation(f), GibbsPair.from_rotation(g)
            if abs(1.0 - gg.p_tilde.dot(gf.p_tilde)) <= 0.1:
                continue
            if abs(1.0 - gf.q_tilde.dot(gg.q_tilde)) <= 0.1:
                continue
            done += 1
            via_rules = compose_gibbs(gf, gg)
            extracted = GibbsPair.from_rotation(compose(g, f))
            sign = 1.0 if via_rules.cos_alpha * extracted.cos_alpha > 0 else -1.0
            assert comp_diff(pure(via_rules.p_tilde), pure(extracted.p_tilde)) <= 1e-10
            assert comp_diff(pure(via_rules.q_tilde), pure(extracted.q_tilde)) <= 1e-10
            assert abs(via_rules.cos_alpha - sign * extracted.cos_alpha) <= 1e-10
            assert abs(via_rules.cos_beta - sign * extracted.cos_beta) <= 1e-10

        # constructed singular denominator: p2.p1 = 1
        f = Rotation4(unit_from_gibbs(Vec3(1, 0, 0)), unit_from_gibbs(Vec3(0, 1, 0)))
        g = Rotation4(unit_from_gibbs(Vec3(1, 0, 0)), unit_from_gibbs(Vec3(0, 0, 1)))
        with pytest.raises(GibbsSingular):
            compose_gibbs(GibbsPair.from_rotation(f), GibbsPair.from_rotation(g))


def test_10_rodrigues_cross_check():
    with report(10, "3D composition vs quaternion product on 1,000 pairs (<= 1e-10)"):
        rng = np.random.default_rng(10)
        done = 0
        while done < 1_000:
            g1 = Vec3(*rng.standard_normal(3))
            g2 = Vec3(*rng.standard_normal(3))
            if abs(1.0 - g2.dot(g1)) <= 0.1:
                continue
            done += 1
            composed = rodrigues_compose(g1, g2)
            oracle = gibbs_from_unit(mul(unit_from_gibbs(g2), unit_from_gibbs(g1)))
            assert comp_diff(pure(composed), pure(oracle)) <= 1e-10


def test_11_reflection_round_trip():
    with report(11, "reflection decomposition round trip on 1,000 rotations (<= 1e-9)"):
        rng = np.random.default_rng(11)
        basis = [ONE, Quaternion.of(0, 1, 0, 0), Quaternion.of(0, 0, 1, 0), Quaternion.of(0, 0, 0, 1)]
        for _ in range(1_000):
            r = rand_simple(rng)
            ny, nz = simple_to_reflections(r)
            back = from_reflections(ny, nz)
            for e in basis:
                assert comp_diff(apply(back, e), apply(r, e)) <= 1e-9
