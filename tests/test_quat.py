import copy
import math
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rot4 import (
    Double,
    GibbsPair,
    GibbsSingular,
    I,
    Identity,
    J,
    K,
    LeftIsoclinic,
    ONE,
    OraclePlanes,
    Plane,
    Quaternion,
    ReflectionNormal,
    RightIsoclinic,
    Rotation4,
    Simple,
    SimplicityReport,
    Vec3,
    classify,
    conj,
    dot4,
    gibbs_from_unit,
    mul,
    norm_sq,
    normalized,
    planes_from_matrix,
    pure,
    rodrigues_compose,
    to_matrix,
    unit_from_gibbs,
)
import rot4.quat as quat_module
from conftest import EPS_ALG, R2, comp_diff, comp_diff_up_to_sign, rand_unit_quat

_COORD = st.floats(-1e6, 1e6)
_QUAT = st.tuples(_COORD, _COORD, _COORD, _COORD)


class TestMul:
    def test_table(self):
        assert mul(I, J).components() == (0, 0, 0, 1)
        assert mul(J, I).components() == (0, 0, 0, -1)
        assert mul(J, K).components() == (0, 1, 0, 0)
        assert mul(K, I).components() == (0, 0, 1, 0)
        for e in (I, J, K):
            assert mul(e, e).components() == (-1, 0, 0, 0)

    def test_identity(self, rng):
        for _ in range(20):
            x = rand_unit_quat(rng)
            assert comp_diff(mul(x, ONE), x) == 0.0
            assert comp_diff(mul(ONE, x), x) == 0.0

    def test_left_factor_of_worked_composition(self):
        # (1+j)/sqrt2 * (1+i)/sqrt2 = (1+i+j-k)/2
        got = mul(Quaternion.of(R2, 0, R2, 0), Quaternion.of(R2, R2, 0, 0))
        expected = Quaternion.of(0.5, 0.5, 0.5, -0.5)
        assert comp_diff(got, expected) < 1e-15

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(x=_QUAT, y=_QUAT)
    def test_bit_equal_to_textbook_product(self, x, y):
        x, y = Quaternion.of(*x), Quaternion.of(*y)
        s = x.s * y.s - x.v.dot(y.v)
        v = y.v * x.s + x.v * y.s + x.v.cross(y.v)
        got = [c.hex() for c in mul(x, y).components()]
        assert got == [c.hex() for c in (s, *v.components())]


class TestConjNorm:
    def test_conj_examples(self):
        assert conj(Quaternion.of(1, 1, 0, 0)).components() == (1, -1, 0, 0)
        assert conj(Quaternion(5.0)).components() == (5, 0, 0, 0)

    def test_conj_involution_and_antihomomorphism(self, rng):
        for _ in range(200):
            x = Quaternion.from_array(rng.standard_normal(4))
            y = Quaternion.from_array(rng.standard_normal(4))
            assert comp_diff(conj(conj(x)), x) == 0.0
            assert comp_diff(conj(mul(x, y)), mul(conj(y), conj(x))) <= EPS_ALG * 10

    def test_norm_sq_examples(self):
        assert norm_sq(Quaternion.of(1, 1, 1, 1)) == 4.0
        assert abs(norm_sq(Quaternion.of(R2, R2, 0, 0)) - 1.0) < 1e-15

    def test_norm_multiplicative(self, rng):
        for _ in range(1000):
            x = Quaternion.from_array(rng.standard_normal(4))
            y = Quaternion.from_array(rng.standard_normal(4))
            bound = EPS_ALG * (1 + norm_sq(x)) * (1 + norm_sq(y))
            assert abs(norm_sq(mul(x, y)) - norm_sq(x) * norm_sq(y)) <= bound

    def test_associativity(self, rng):
        for _ in range(1000):
            x, y, z = (Quaternion.from_array(rng.standard_normal(4)) for _ in range(3))
            lhs = mul(mul(x, y), z)
            rhs = mul(x, mul(y, z))
            scale = max(1.0, math.sqrt(norm_sq(x) * norm_sq(y) * norm_sq(z)))
            assert comp_diff(lhs, rhs) <= EPS_ALG * scale


class TestNormalized:
    def test_finite_norm_as_written(self):
        # just below the overflow of the squared norm, x * (1/|x|) as written
        x = Quaternion.of(1e154, -3.0, 0.5, 1e153)
        f = 1.0 / math.sqrt(1e154 * 1e154 + (9.0 + 0.25 + 1e153 * 1e153))
        assert normalized(x).components() == (1e154 * f, -3.0 * f, 0.5 * f, 1e153 * f)

    def test_examples_where_the_squared_norm_overflows(self):
        assert comp_diff(normalized(Quaternion.of(1e200, 0, 0, 0)), ONE) <= EPS_ALG
        got = normalized(Quaternion.of(1e308, 1e308, 0, 0))
        assert comp_diff(got, Quaternion.of(R2, R2, 0, 0)) <= EPS_ALG
        got = normalized(Quaternion.of(-1.7e308, 1.7e308, 1.7e308, -1.7e308))
        assert comp_diff(got, Quaternion.of(-0.5, 0.5, 0.5, -0.5)) <= EPS_ALG

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300, 1.7e308])
    def test_where_the_squared_norm_overflows(self, rng, scale):
        # |x|^2 is inf, yet x/|x| is the unit quaternion along x
        for _ in range(50):
            a = rand_unit_quat(rng)
            got = normalized(a * scale)
            assert abs(norm_sq(got) - 1.0) <= EPS_ALG
            assert comp_diff(got, a) <= EPS_ALG


class TestDot4:
    def test_orthogonal_basis(self):
        assert dot4(ONE, I) == 0.0

    def test_fixed_plane_spanners_orthogonal(self):
        assert dot4(Quaternion.of(0, 1, -1, 0), Quaternion.of(1, 0, 0, 1)) == 0.0

    def test_equals_scalar_of_product_with_conjugate(self, rng):
        for _ in range(200):
            x = Quaternion.from_array(rng.standard_normal(4))
            y = Quaternion.from_array(rng.standard_normal(4))
            assert abs(dot4(x, y) - mul(x, conj(y)).s) <= EPS_ALG * 100
            assert dot4(x, y) == dot4(y, x)
        x = rand_unit_quat(rng)
        assert abs(dot4(x, x) - norm_sq(x)) < 1e-15


class TestPure:
    def test_keeps_the_admitted_vector_without_validating_again(self, monkeypatch):
        v = Vec3(0.6, 0.0, -0.8)
        calls = []

        def counting(name, value):
            calls.append(name)
            return float(value)

        monkeypatch.setattr(quat_module, "_finite", counting)
        q = pure(v)
        assert q.v == v
        assert calls == []
        assert q.s == 0.0 and type(q.s) is float
        validated = Quaternion(0.0, v)  # the public constructor checks s
        assert calls == ["s"]
        assert q == validated and hash(q) == hash(validated)


class TestGibbs:
    def test_examples(self):
        assert comp_diff(Quaternion(0, gibbs_from_unit(Quaternion.of(R2, R2, 0, 0))), I) < 1e-15
        assert gibbs_from_unit(ONE).components() == (0, 0, 0)
        with pytest.raises(GibbsSingular):
            gibbs_from_unit(I)

    def test_unit_from_gibbs(self):
        assert comp_diff(unit_from_gibbs(Vec3()), ONE) == 0.0
        assert comp_diff(unit_from_gibbs(Vec3(1, 0, 0)), Quaternion.of(R2, R2, 0, 0)) < 1e-15
        got = unit_from_gibbs(Vec3(1, 1, -1))
        assert comp_diff(got, Quaternion.of(0.5, 0.5, 0.5, -0.5)) < 1e-15
        # just below the overflow of 1 + |g|^2, the formula as written
        g = Vec3(1e154, -3.0, 0.5)
        scale = 1.0 / math.sqrt(1.0 + g.norm_sq())
        assert unit_from_gibbs(g).components() == (scale, 1e154 * scale, -3.0 * scale, 0.5 * scale)

    @pytest.mark.parametrize(
        "g, want",
        [
            (Vec3(1e200, 0, 0), (1e-200, 1.0, 0.0, 0.0)),
            (Vec3(0, -1e300, 1e300), (R2 * 1e-300, 0.0, -R2, R2)),
            (Vec3(1.7e308, 1.7e308, 1.7e308), (1.0 / (1.7e308 * 3**0.5),) + (3**-0.5,) * 3),
        ],
        ids=["1e200", "1e300", "max"],
    )
    def test_unit_from_gibbs_where_the_norm_overflows(self, g, want):
        # 1 + |g|^2 is inf, yet (1 + g)/|1 + g| is a unit quaternion
        got = unit_from_gibbs(g)
        assert abs(norm_sq(got) - 1.0) <= EPS_ALG
        assert comp_diff(got, Quaternion.of(*want)) <= EPS_ALG
        assert got.s == pytest.approx(want[0], rel=1e-15)

    def test_round_trip(self, rng):
        count = 0
        while count < 300:
            a = rand_unit_quat(rng)
            if abs(a.s) <= 10e-9:
                continue
            count += 1
            back = unit_from_gibbs(gibbs_from_unit(a))
            assert comp_diff_up_to_sign(back, a) <= 1e-12


class TestRodrigues:
    def test_identity(self, rng):
        g = Vec3(*rng.standard_normal(3))
        assert comp_diff(Quaternion(0, rodrigues_compose(Vec3(), g)), Quaternion(0, g)) == 0.0

    def test_quarter_turns(self):
        # oracle: (1+j)(1+i)/2 = (1+i+j-k)/2, whose Gibbs vector is i+j-k
        got = rodrigues_compose(Vec3(1, 0, 0), Vec3(0, 1, 0))
        assert got.components() == (1.0, 1.0, -1.0)

    def test_half_turn_is_singular(self):
        with pytest.raises(GibbsSingular):
            rodrigues_compose(Vec3(0, 0, 1), Vec3(0, 0, 1))

    def test_matches_quaternion_product(self, rng):
        done = 0
        while done < 1000:
            g1 = Vec3(*rng.standard_normal(3))
            g2 = Vec3(*rng.standard_normal(3))
            if abs(1.0 - g2.dot(g1)) <= 0.1:
                continue
            done += 1
            composed = rodrigues_compose(g1, g2)
            oracle = gibbs_from_unit(mul(unit_from_gibbs(g2), unit_from_gibbs(g1)))
            assert comp_diff(Quaternion(0, composed), Quaternion(0, oracle)) <= 1e-10


def _floats_of(value) -> tuple:
    """Every stored float of a Vec3, Quaternion, Plane or OraclePlanes."""
    if isinstance(value, (Vec3, Quaternion)):
        return value.components()
    if hasattr(value, "plane1"):
        return _floats_of(value.plane1) + _floats_of(value.plane2)
    return _floats_of(value.u) + _floats_of(value.w)


_BIG = Quaternion.of(1e200, 0, 0, 0)
_HUGE = Quaternion.of(1e308, 0, 0, 0)
_SIMPLE = Rotation4(Quaternion.of(R2, R2, 0, 0), Quaternion.of(R2, 0, R2, 0))


class TestConstructors:
    # each maker either raises ValueError or returns values that hold only
    # finite Python floats
    @pytest.mark.parametrize(
        "make, rejected",
        [
            pytest.param(lambda: Vec3(float("nan"), 0, 0), True, id="vec3-nan"),
            pytest.param(lambda: Quaternion(float("inf")), True, id="quaternion-inf"),
            pytest.param(lambda: mul(_BIG, _BIG), True, id="mul-overflow"),
            pytest.param(lambda: Vec3(1e300, 0, 0) * 1e300, True, id="scale-overflow"),
            pytest.param(lambda: _HUGE + _HUGE, True, id="sum-overflow"),
            pytest.param(lambda: Vec3(1, 2, 3) * np.float64(2.0), False, id="numpy-factor"),
            pytest.param(lambda: Quaternion(np.float64(1)), False, id="numpy-scalar"),
            pytest.param(
                lambda: planes_from_matrix(to_matrix(_SIMPLE)), False, id="planes-from-matrix"
            ),
        ],
    )
    def test_reject_non_finite(self, make, rejected):
        if rejected:
            with pytest.raises(ValueError, match="must be finite"):
                make()
        else:
            for x in _floats_of(make()):
                assert type(x) is float and math.isfinite(x)

    @pytest.mark.parametrize("v", [(0.0, 0.0, 0.0), None, ONE], ids=["tuple", "none", "quaternion"])
    def test_vector_part_must_be_vec3(self, v):
        with pytest.raises(TypeError, match="v must be a Vec3"):
            Quaternion(1.0, v)

    def test_operator_sugar_matches_functions(self, rng):
        x = rand_unit_quat(rng)
        y = rand_unit_quat(rng)
        assert comp_diff(x * y, mul(x, y)) == 0.0
        assert comp_diff(2.0 * x, x * 2.0) == 0.0
        assert comp_diff((x + y) - y, x) <= 1e-15


def _outcome(make, *args) -> str:
    """repr and component types of the result, or the error's type and message."""
    try:
        q = make(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{q!r} {[type(c).__name__ for c in q.components()]}"


def _chain_of(s, x1, x2, x3) -> Quaternion:
    return Quaternion(s, Vec3(x1, x2, x3))


def _chain_from_array(arr) -> Quaternion:
    s, x1, x2, x3 = (float(c) for c in arr)
    return Quaternion(s, Vec3(x1, x2, x3))


_UNIT = [0.5, 0.5, -0.5, 0.5]  # s, x1, x2, x3


class TestAdmission:
    """Quaternion.of and from_array admit in one pass; every result and
    every refusal is that of the chain Quaternion(s, Vec3(x1, x2, x3)),
    which converts x1, x2, x3, then s, and refuses the first non-finite."""

    @pytest.mark.parametrize(
        "value",
        [np.float64(0.25), np.float32(0.5), np.int64(-1), 3, 2**60, True, False],
        ids=["float64", "float32", "int64", "int", "big-int", "true", "false"],
    )
    @pytest.mark.parametrize("position", range(4))
    def test_numbers_become_exact_floats(self, position, value):
        c = list(_UNIT)
        c[position] = value
        q = Quaternion.of(*c)
        assert all(type(x) is float for x in q.components())
        assert q.components() == tuple(float(x) for x in c)
        for make, args in ((Quaternion.of, c), (Quaternion.from_array, [c])):
            assert _outcome(make, *args) == _outcome(_chain_of, *c)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_names_the_component(self, position, bad):
        c = list(_UNIT)
        c[position] = bad
        name = ("s", "x1", "x2", "x3")[position]
        with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
            Quaternion.of(*c)
        assert _outcome(Quaternion.of, *c) == _outcome(_chain_of, *c)
        assert _outcome(Quaternion.from_array, c) == _outcome(_chain_from_array, c)

    def test_x1_is_named_before_s(self):
        c = [math.inf, math.nan, 0.0, 0.0]
        assert _outcome(Quaternion.of, *c) == "ValueError: x1 must be finite, got nan"
        assert _outcome(Quaternion.from_array, c) == "ValueError: x1 must be finite, got nan"

    @pytest.mark.parametrize(
        "bad", ["x", None, [1.0], 10**400, 1j], ids=["str", "none", "list", "huge-int", "complex"]
    )
    @pytest.mark.parametrize("earlier", [None, math.nan], ids=["finite", "nan-first"])
    @pytest.mark.parametrize("position", range(4))
    def test_unconvertible_raises_as_the_chain(self, position, earlier, bad):
        # of converts x1, x2, x3, then s; from_array converts s first
        c = list(_UNIT)
        c[position] = bad
        if earlier is not None:
            c[(position + 2) % 4] = earlier
        assert _outcome(Quaternion.of, *c) == _outcome(_chain_of, *c)
        assert _outcome(Quaternion.from_array, c) == _outcome(_chain_from_array, c)
        with pytest.raises((TypeError, ValueError, OverflowError)):
            Quaternion.of(*c)

    @pytest.mark.parametrize(
        "arr", [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0], "abcd", 5, np.eye(2)],
        ids=["short", "long", "str", "scalar", "matrix"],
    )
    def test_from_array_shape(self, arr):
        assert _outcome(Quaternion.from_array, arr) == _outcome(_chain_from_array, arr)


class TestValueSemantics:
    def test_equality_and_hash(self):
        assert Quaternion.of(1, 0, 0, 0) == ONE
        assert hash(Quaternion.of(1, 0, 0, 0)) == hash(ONE)
        assert mul(I, J) == K and hash(mul(I, J)) == hash(K)
        assert Vec3(1, 2, 3) == Vec3(1.0, 2.0, 3.0)
        assert Vec3(1, 2, 3) != Vec3(1, 2, 4)
        assert Quaternion() != Vec3()
        assert len({ONE, Quaternion(1.0), I}) == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ONE.s = 2.0
        with pytest.raises(AttributeError):
            ONE.v.x1 = 2.0
        with pytest.raises(AttributeError):
            del ONE.s
        assert ONE.s == 1.0

    def test_repr(self):
        assert repr(Vec3(1, 2, 3)) == "Vec3(x1=1.0, x2=2.0, x3=3.0)"
        assert repr(ONE) == "Quaternion(s=1.0, v=Vec3(x1=0.0, x2=0.0, x3=0.0))"

    def test_defaults(self):
        assert Vec3().components() == (0.0, 0.0, 0.0)
        assert Quaternion().components() == (0.0, 0.0, 0.0, 0.0)
        assert Quaternion(1.0) == ONE

    def test_match_args_and_frozen(self):
        assert Vec3.__match_args__ == ("x1", "x2", "x3")
        assert Quaternion.__match_args__ == ("s", "v")
        with pytest.raises(AttributeError, match="cannot assign to field 's'"):
            ONE.s = 2.0
        with pytest.raises(AttributeError, match="cannot assign to field 'x3'"):
            ONE.v.x3 = 2.0

    def test_copy_pickle_and_match(self):
        x = Quaternion.of(0.5, 0.5, 0.5, -0.5)
        assert copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x
        match x:
            case Quaternion(s, Vec3(x1, x2, x3)):
                assert (s, x1, x2, x3) == x.components()

    def test_unequal_to_a_plain_tuple(self):
        plain = (1.0, 0.0, 0.0, 0.0)
        q = Quaternion.of(1, 0, 0, 0)
        assert q != plain and plain != q
        assert not q == plain and not plain == q
        assert Vec3(1, 2, 3) != (1.0, 2.0, 3.0) and (1.0, 2.0, 3.0) != Vec3(1, 2, 3)
        assert type(q.components()) is tuple and q.components() == plain

    @pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
    @pytest.mark.parametrize(
        "x, y",
        [
            (ONE, I),
            (Vec3(1, 2, 3), Vec3(1, 2, 4)),
            # NotImplemented would hand these to the plain tuple's ordering
            (Vec3(1, 2, 3), (2.0, 0.0, 0.0)),
            ((2.0, 0.0, 0.0), Vec3(1, 2, 3)),
            (ONE, (0.0, 0.0, 0.0, 1.0)),
            ((0.0, 0.0, 0.0, 1.0), ONE),
        ],
        ids=["q", "v", "v-tuple", "tuple-v", "q-tuple", "tuple-q"],
    )
    def test_no_ordering(self, compare, x, y):
        with pytest.raises(TypeError):
            compare(x, y)

    @pytest.mark.parametrize(
        "value, other",
        [
            (Vec3(1, 2, 3), (1.0, 2.0, 3.0)),
            (Quaternion.of(1, 0, 0, 0), (0.0, 0.0, 0.0, 1.0)),
            (Quaternion.of(1, 0, 0, 0), Vec3(1, 2, 3)),
            (Vec3(1, 2, 3), Quaternion.of(1, 0, 0, 0)),
        ],
        ids=["v-tuple", "q-tuple", "q-v", "v-q"],
    )
    def test_add_and_subtract_take_the_same_class(self, value, other):
        name = f"{type(value).__name__!r} and {type(other).__name__!r}"
        for op, symbol in ((operator.add, "+"), (operator.sub, "-"), (operator.iadd, "+")):
            with pytest.raises(TypeError, match=f"for \\{symbol}: {name}$"):
                op(value, other)
        assert value + value == 2.0 * value and value - value == 0.0 * value

    @pytest.mark.parametrize("value", [Vec3(1, 2, 3), Quaternion.of(1, 0, 0, 0)], ids=["v", "q"])
    def test_no_concatenation_after_a_plain_tuple(self, value):
        with pytest.raises(TypeError, match=f"for \\+: 'tuple' and {type(value).__name__!r}$"):
            (1.0,) + value
        plain = (1.0,)
        with pytest.raises(TypeError):
            plain += value

    def test_sequence_and_numpy(self):
        q = Quaternion.of(0.5, 0.5, 0.5, -0.5)
        assert len(q) == 4 and list(q) == [0.5, 0.5, 0.5, -0.5] and q[3] == -0.5
        assert len(q.v) == 3 and q.v == q.v and q.v is not q.v
        array = np.array(q)
        assert array.dtype == np.float64 and array.tolist() == list(q.components())
        assert type(np.float64(2.0) * q) is Quaternion and type(np.float64(2.0) * q.v) is Vec3

    def test_rotation_refuses_a_plain_tuple(self):
        with pytest.raises(TypeError, match="^a must be a Quaternion, got tuple$"):
            Rotation4((1.0, 0.0, 0.0, 0.0), ONE)
        with pytest.raises(TypeError, match="^b must be a Quaternion, got tuple$"):
            Rotation4(ONE, (1.0, 0.0, 0.0, 0.0))


# One value of every other value class, with the repr the frozen dataclasses
# that these classes replaced gave it.
_PLANE_R = (
    "Plane(u=Quaternion(s=1.0, v=Vec3(x1=0.0, x2=0.0, x3=0.0)), "
    "w=Quaternion(s=0.0, v=Vec3(x1=1.0, x2=0.0, x3=0.0)))"
)
_PLANE2_R = (
    "Plane(u=Quaternion(s=0.0, v=Vec3(x1=0.0, x2=1.0, x3=0.0)), "
    "w=Quaternion(s=0.0, v=Vec3(x1=0.0, x2=0.0, x3=1.0)))"
)
_ONE_R = "Quaternion(s=1.0, v=Vec3(x1=0.0, x2=0.0, x3=0.0))"
_ZERO3_R = "Vec3(x1=0.0, x2=0.0, x3=0.0)"
_P, _Q = Plane(ONE, I), Plane(J, K)
_VALUES = [
    (_P, _PLANE_R),
    (Rotation4(ONE, ONE), f"Rotation4(a={_ONE_R}, b={_ONE_R})"),
    (
        ReflectionNormal(J),
        "ReflectionNormal(q=Quaternion(s=0.0, v=Vec3(x1=0.0, x2=1.0, x3=0.0)))",
    ),
    (Identity(), "Identity()"),
    (
        Simple(0.5, _P, _Q),
        f"Simple(angle=0.5, fixed_plane={_PLANE_R}, rotation_plane={_PLANE2_R})",
    ),
    (LeftIsoclinic(0.5), "LeftIsoclinic(angle=0.5)"),
    (RightIsoclinic(0.5), "RightIsoclinic(angle=0.5)"),
    (
        Double(_P, 0.25, _Q, 0.75),
        f"Double(plane1={_PLANE_R}, angle1=0.25, plane2={_PLANE2_R}, angle2=0.75)",
    ),
    (
        GibbsPair(Vec3(), Vec3(), 1.0, 1.0),
        f"GibbsPair(p_tilde={_ZERO3_R}, q_tilde={_ZERO3_R}, cos_alpha=1.0, cos_beta=1.0)",
    ),
    (
        SimplicityReport(0.0, 0.0, 1, True),
        "SimplicityReport(s_condition=0.0, det_normals=0.0, intersection_dim=1, is_simple=True)",
    ),
    (
        OraclePlanes(_P, 0.25, _Q, 0.75, False),
        f"OraclePlanes(plane1={_PLANE_R}, angle1=0.25, plane2={_PLANE2_R}, angle2=0.75, "
        "isoclinic=False)",
    ),
]
_IDS = [type(value).__name__ for value, _ in _VALUES]


class TestValueClasses:
    """Value semantics of every value class besides Vec3 and Quaternion."""

    @pytest.mark.parametrize("value, text", _VALUES, ids=_IDS)
    def test_repr(self, value, text):
        assert repr(value) == text

    @pytest.mark.parametrize("value, text", _VALUES, ids=_IDS)
    def test_equality_hash_and_rebuild(self, value, text):
        fields = [getattr(value, name) for name in type(value).__match_args__]
        twin = type(value)(*fields)
        assert twin == value and hash(twin) == hash(value) and twin is not value
        assert value != fields and len({value, twin}) == 1

    def test_equality_by_class(self):
        assert LeftIsoclinic(0.5) != RightIsoclinic(0.5)
        assert Identity() == Identity() and hash(Identity()) == hash(Identity())
        assert Double(_P, 0.25, _Q, 0.75) != Double(_P, 0.25, _Q, 0.5)
        assert Double(_P, 0.25, _Q, 0.75) != OraclePlanes(_P, 0.25, _Q, 0.75, False)

    @pytest.mark.parametrize("value, text", _VALUES, ids=_IDS)
    def test_frozen(self, value, text):
        for name in (*type(value).__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0.0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text

    @pytest.mark.parametrize("value, text", _VALUES, ids=_IDS)
    def test_copy_and_pickle(self, value, text):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value

    def test_pickle_keeps_the_canonical_sign(self):
        a, b = Quaternion.of(0.6, -0.8, 0, 0), Quaternion.of(0, 0, 0.6, 0.8)
        r = Rotation4(-a, -b)
        assert r.a == a and r.b == b
        for twin in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert twin.a == a and twin.b == b

    def test_unpickling_validates(self):
        bad = object.__new__(Plane)
        object.__setattr__(bad, "u", ONE)
        object.__setattr__(bad, "w", ONE)
        data = pickle.dumps(bad)
        with pytest.raises(ValueError, match="not orthonormal"):
            pickle.loads(data)
        with pytest.raises(ValueError, match="not orthonormal"):
            copy.deepcopy(bad)

    def test_positional_match(self):
        match classify(Rotation4(Quaternion.of(R2, R2, 0, 0), Quaternion.of(R2, 0, R2, 0))):
            case Simple(angle, Plane(u, w), Plane()):
                assert angle == pytest.approx(math.pi / 2)
                assert abs(dot4(u, w)) <= EPS_ALG
            case _:
                pytest.fail("not matched as Simple")
        match Double(_P, 0.25, _Q, 0.75):
            case Double(p1, a1, p2, a2):
                assert (p1, a1, p2, a2) == (_P, 0.25, _Q, 0.75)
        match OraclePlanes(_P, 0.25, _Q, 0.75, False):
            case OraclePlanes(_, _, _, _, isoclinic):
                assert isoclinic is False
        assert Simple.__match_args__ == ("angle", "fixed_plane", "rotation_plane")
        assert SimplicityReport.__match_args__ == (
            "s_condition",
            "det_normals",
            "intersection_dim",
            "is_simple",
        )

    def test_keyword_construction(self):
        assert Simple(angle=0.5, fixed_plane=_P, rotation_plane=_Q) == Simple(0.5, _P, _Q)
        assert Double(_P, 0.25, angle2=0.75, plane2=_Q) == Double(_P, 0.25, _Q, 0.75)
        assert LeftIsoclinic(angle=0.5) == LeftIsoclinic(0.5)
        assert SimplicityReport(
            s_condition=0.0, det_normals=0.0, intersection_dim=1, is_simple=True
        ) == SimplicityReport(0.0, 0.0, 1, True)
        assert Plane(w=I, u=ONE) == _P
        assert Rotation4(a=ONE, b=ONE) == Rotation4.identity()
        assert ReflectionNormal(q=J) == ReflectionNormal(J)
        assert GibbsPair(
            p_tilde=Vec3(), q_tilde=Vec3(), cos_alpha=1.0, cos_beta=1.0
        ) == GibbsPair(Vec3(), Vec3(), 1.0, 1.0)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: Simple(0.5, _P), id="too-few"),
            pytest.param(lambda: LeftIsoclinic(0.5, 0.6), id="too-many"),
            pytest.param(lambda: Identity(0.5), id="identity-argument"),
            pytest.param(lambda: LeftIsoclinic(theta=0.5), id="unknown-field"),
            pytest.param(lambda: Simple(0.5, _P, _Q, angle=0.5), id="repeated-field"),
            pytest.param(lambda: Plane(ONE), id="plane-too-few"),
            pytest.param(lambda: Rotation4(ONE, ONE, ONE), id="rotation-too-many"),
            pytest.param(lambda: GibbsPair(Vec3(), Vec3(), 1.0, cos=1.0), id="gibbs-unknown"),
        ],
    )
    def test_wrong_arguments(self, make):
        with pytest.raises(TypeError):
            make()
