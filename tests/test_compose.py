import math

import numpy as np
import pytest

from rot4 import (
    DegenerateAxis,
    Double,
    GibbsPair,
    GibbsSingular,
    Identity,
    NotSimple,
    ONE,
    Quaternion,
    ReflectionNormal,
    Rotation4,
    Simple,
    Vec3,
    apply,
    classify,
    compose,
    compose_gibbs,
    compose_left_clifford,
    composed_planes_from_gibbs,
    conj,
    from_reflections,
    gibbs_from_unit,
    is_composition_simple,
    mul,
    plane_from_span,
    planes_from_matrix,
    projector_distance,
    pure,
    rodrigues_compose,
    same_plane,
    to_matrix,
    unit_from_gibbs,
)
from conftest import comp_diff, rand_unit_quat, rand_unit_vec3

R2 = 1.0 / math.sqrt(2.0)

GOLDEN_F = Rotation4(Quaternion.of(R2, R2, 0, 0), Quaternion.of(R2, 0, R2, 0))
GOLDEN_G = Rotation4(Quaternion.of(R2, 0, R2, 0), Quaternion.of(R2, 0, 0, R2))


def rand_rotation(rng) -> Rotation4:
    return Rotation4(rand_unit_quat(rng), rand_unit_quat(rng))


def rand_simple(rng) -> Rotation4:
    return from_reflections(
        ReflectionNormal(rand_unit_quat(rng)), ReflectionNormal(rand_unit_quat(rng))
    )


def rand_gibbs_rotation(rng) -> Rotation4:
    """Random rotation whose factors keep safely nonzero scalar parts."""
    half_a = rng.uniform(0.05, 1.45)
    half_b = rng.uniform(0.05, 1.45)
    a = Quaternion(math.cos(half_a), rand_unit_vec3(rng) * math.sin(half_a))
    b = Quaternion(math.cos(half_b), rand_unit_vec3(rng) * math.sin(half_b))
    return Rotation4(a, b)


class TestCompose:
    def test_golden(self):
        h = compose(GOLDEN_G, GOLDEN_F)
        assert comp_diff(h.a, Quaternion.of(0.5, 0.5, 0.5, -0.5)) <= 1e-12
        assert comp_diff(h.b, Quaternion.of(0.5, 0.5, 0.5, 0.5)) <= 1e-12

    def test_identity_neutral(self, rng):
        f = rand_rotation(rng)
        assert comp_diff(compose(Rotation4.identity(), f).a, f.a) <= 1e-15
        assert comp_diff(compose(f, Rotation4.identity()).b, f.b) <= 1e-15

    def test_pointwise(self, rng):
        for _ in range(200):
            f, g = rand_rotation(rng), rand_rotation(rng)
            x = Quaternion.from_array(rng.standard_normal(4))
            assert comp_diff(apply(compose(g, f), x), apply(g, apply(f, x))) <= 1e-12

    def test_matrix_homomorphism(self, rng):
        for _ in range(500):
            f, g = rand_rotation(rng), rand_rotation(rng)
            lhs = to_matrix(compose(g, f))
            rhs = to_matrix(g) @ to_matrix(f)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_angles_independent_of_order(self, rng):
        for _ in range(50):
            f, g = rand_rotation(rng), rand_rotation(rng)
            k1 = classify(compose(g, f))
            k2 = classify(compose(f, g))
            if not (isinstance(k1, Double) and isinstance(k2, Double)):
                continue
            assert abs(sorted([k1.angle1, k1.angle2])[0] - sorted([k2.angle1, k2.angle2])[0]) <= 1e-9
            assert abs(sorted([k1.angle1, k1.angle2])[1] - sorted([k2.angle1, k2.angle2])[1]) <= 1e-9


class TestSimplicity:
    def test_golden_pair_is_simple(self):
        report = is_composition_simple(GOLDEN_F, GOLDEN_G)
        assert report.is_simple
        assert report.intersection_dim >= 1
        assert abs(report.s_condition) <= 1e-12
        assert abs(report.s_condition + 2 * report.det_normals) <= 1e-9

    def test_rotation_with_itself(self, rng):
        f = rand_simple(rng)
        report = is_composition_simple(f, f)
        assert report.is_simple
        assert report.intersection_dim == 2

    def test_generic_pair_not_simple(self, rng):
        count_double = 0
        for _ in range(100):
            f, g = rand_simple(rng), rand_simple(rng)
            report = is_composition_simple(f, g)
            composed_kind = classify(compose(g, f))
            if report.is_simple:
                assert isinstance(composed_kind, (Simple, Identity))
            else:
                assert isinstance(composed_kind, Double)
                count_double += 1
        assert count_double >= 95  # generic pairs compose to double rotations

    def test_determinant_identity(self, rng):
        # columns ordered vector-components-first; with scalar-first columns
        # the same identity holds with +2 instead of -2
        for _ in range(500):
            y, z, u, w = (rand_unit_quat(rng) for _ in range(4))
            a, b = mul(z, conj(y)), mul(conj(y), z)
            c, d = mul(w, conj(u)), mul(conj(u), w)
            s_condition = c.v.dot(a.v) - b.v.dot(d.v)
            det = np.linalg.det(
                np.column_stack(
                    [[q.v.x1, q.v.x2, q.v.x3, q.s] for q in (y, z, u, w)]
                )
            )
            assert abs(s_condition + 2 * det) <= 1e-9

    def test_condition_matches_scalar_part_defect(self, rng):
        # S(ca) - S(bd) equals minus the simplicity residual for simple inputs
        for _ in range(100):
            f, g = rand_simple(rng), rand_simple(rng)
            report = is_composition_simple(f, g)
            h = compose(g, f)
            assert abs(abs(h.a.s - h.b.s) - abs(report.s_condition)) <= 1e-12

    def test_rejects_double_input(self, rng):
        while True:
            r = rand_rotation(rng)
            if isinstance(classify(r), Double):
                break
        with pytest.raises(NotSimple):
            is_composition_simple(r, rand_simple(rng))


class TestComposeGibbs:
    def test_golden_parameters(self):
        gf = GibbsPair.from_rotation(GOLDEN_F)
        gg = GibbsPair.from_rotation(GOLDEN_G)
        gh = compose_gibbs(gf, gg)
        assert comp_diff(pure(gh.p_tilde), Quaternion.of(0, 1, 1, -1)) <= 1e-12
        assert comp_diff(pure(gh.q_tilde), Quaternion.of(0, 1, 1, 1)) <= 1e-12
        assert abs(gh.cos_alpha - 0.5) <= 1e-12
        assert abs(gh.cos_beta - 0.5) <= 1e-12

    def test_matches_quaternion_route(self, rng):
        done = 0
        while done < 300:
            f = rand_gibbs_rotation(rng)
            g = rand_gibbs_rotation(rng)
            gf, gg = GibbsPair.from_rotation(f), GibbsPair.from_rotation(g)
            if abs(1 - gg.p_tilde.dot(gf.p_tilde)) < 0.1:
                continue
            if abs(1 - gf.q_tilde.dot(gg.q_tilde)) < 0.1:
                continue
            done += 1
            via_rules = compose_gibbs(gf, gg)
            extracted = GibbsPair.from_rotation(compose(g, f))
            assert comp_diff(pure(via_rules.p_tilde), pure(extracted.p_tilde)) <= 1e-10
            assert comp_diff(pure(via_rules.q_tilde), pure(extracted.q_tilde)) <= 1e-10
            sign = 1.0 if via_rules.cos_alpha * extracted.cos_alpha > 0 else -1.0
            assert abs(via_rules.cos_alpha - sign * extracted.cos_alpha) <= 1e-10
            assert abs(via_rules.cos_beta - sign * extracted.cos_beta) <= 1e-10

    def test_sides_are_the_3d_rule_in_opposite_orders(self, rng):
        for _ in range(200):
            gf = GibbsPair.from_rotation(rand_gibbs_rotation(rng))
            gg = GibbsPair.from_rotation(rand_gibbs_rotation(rng))
            try:
                gh = compose_gibbs(gf, gg)
            except GibbsSingular:
                continue
            assert gh.p_tilde == rodrigues_compose(gf.p_tilde, gg.p_tilde)
            assert gh.q_tilde == rodrigues_compose(gg.q_tilde, gf.q_tilde)

    def test_singular_denominator(self):
        f = Rotation4(unit_from_gibbs(Vec3(1, 0, 0)), unit_from_gibbs(Vec3(0, 1, 0)))
        g = Rotation4(unit_from_gibbs(Vec3(1, 0, 0)), unit_from_gibbs(Vec3(0, 0, 1)))
        with pytest.raises(GibbsSingular):
            compose_gibbs(GibbsPair.from_rotation(f), GibbsPair.from_rotation(g))
        # the quaternion chart keeps working where the Gibbs chart fails
        h = compose(g, f)
        assert isinstance(classify(h), (Simple, Double, Identity))

    def test_from_rotation_rejects_pure_factor(self):
        r = Rotation4(Quaternion.of(0, 1, 0, 0), ONE)
        with pytest.raises(GibbsSingular):
            GibbsPair.from_rotation(r)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            GibbsPair(Vec3(1, 0, 0), Vec3(), 0.9, 1.0)


class TestComposeLeftClifford:
    def test_identity_neutral(self, rng):
        g1 = Vec3(*rng.standard_normal(3))
        cos1 = 1.0 / math.sqrt(1.0 + g1.norm_sq())
        vec, cos_out = compose_left_clifford(g1, cos1, Vec3(), 1.0)
        assert comp_diff(pure(vec), pure(g1)) == 0.0
        assert cos_out == cos1

    def test_quarter_turns(self):
        vec, cos_out = compose_left_clifford(Vec3(1, 0, 0), R2, Vec3(0, 1, 0), R2)
        assert comp_diff(pure(vec), Quaternion.of(0, 1, 1, -1)) <= 1e-15
        assert abs(cos_out - 0.5) <= 1e-15

    def test_inverse_pair(self):
        vec, cos_out = compose_left_clifford(Vec3(1, 0, 0), R2, Vec3(-1, 0, 0), R2)
        assert vec.components() == (0, 0, 0)
        assert abs(cos_out - 1.0) <= 1e-15

    def test_matches_quaternion_product(self, rng):
        done = 0
        while done < 200:
            g1 = Vec3(*rng.standard_normal(3))
            g2 = Vec3(*rng.standard_normal(3))
            if abs(1.0 - g1.dot(g2)) <= 0.1:
                continue
            done += 1
            a, b = unit_from_gibbs(g1), unit_from_gibbs(g2)
            cos1, cos2 = a.s, b.s
            vec, cos_out = compose_left_clifford(g1, cos1, g2, cos2)
            product = mul(b, a)
            assert comp_diff(pure(vec), pure(gibbs_from_unit(product))) <= 1e-10
            assert abs(abs(cos_out) - abs(product.s)) <= 1e-12


class TestComposedPlanes:
    def test_golden_composition(self):
        gh = compose_gibbs(
            GibbsPair.from_rotation(GOLDEN_F), GibbsPair.from_rotation(GOLDEN_G)
        )
        plane1, plane2, angle1, angle2 = composed_planes_from_gibbs(gh)
        kind = classify(compose(GOLDEN_G, GOLDEN_F))
        assert isinstance(kind, Simple)
        assert abs(angle1 - kind.angle) <= 1e-12
        assert angle2 <= 1e-12
        assert projector_distance(plane1, kind.rotation_plane) <= 1e-10
        assert projector_distance(plane2, kind.fixed_plane) <= 1e-10

    def test_equal_gibbs_vectors_give_axis_plane(self):
        pair = GibbsPair(Vec3(1, 0, 0), Vec3(1, 0, 0), R2, R2)
        plane1, plane2, angle1, angle2 = composed_planes_from_gibbs(pair)
        axis_plane = plane_from_span(ONE, Quaternion.of(0, 1, 0, 0))
        assert same_plane(plane1, axis_plane, 1e-12)
        assert abs(angle1 - math.pi / 2) <= 1e-12
        assert angle2 <= 1e-12

    def test_matches_matrix_oracle(self, rng):
        for _ in range(100):
            r = rand_gibbs_rotation(rng)
            pair = GibbsPair.from_rotation(r)
            try:
                plane1, plane2, angle1, angle2 = composed_planes_from_gibbs(pair)
            except DegenerateAxis:
                continue
            oracle = planes_from_matrix(to_matrix(r))
            if oracle.isoclinic or abs(angle1 - angle2) < 1e-6:
                continue
            entries = {round(angle1, 6): plane1, round(angle2, 6): plane2}
            for oracle_plane, oracle_angle in (
                (oracle.plane1, oracle.angle1),
                (oracle.plane2, oracle.angle2),
            ):
                best = min(entries, key=lambda ang: abs(ang - oracle_angle))
                assert abs(best - oracle_angle) <= 1e-6
                assert projector_distance(entries[best], oracle_plane) <= 1e-8

    def test_degenerate_axis(self):
        pair = GibbsPair(Vec3(), Vec3(1, 0, 0), 1.0, R2)
        with pytest.raises(DegenerateAxis):
            composed_planes_from_gibbs(pair)
