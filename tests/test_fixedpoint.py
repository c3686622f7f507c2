import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vproc.fixedpoint as fx
from vproc.fixedpoint import ArithFlags, Fixed64, RAW_MAX, RAW_MIN, SCALE

from conftest import ref_add, ref_div, ref_from_real, ref_mul, ref_sub

raws = st.integers(min_value=RAW_MIN, max_value=RAW_MAX)


class TestConversions:
    def test_from_real_exact_dyadic(self):
        assert fx.from_real(1.5).raw == 0x0000000180000000

    def test_from_real_negative(self):
        assert fx.from_real(-0.25).raw == -(0.25 * SCALE)
        # two's-complement view
        assert fx.from_real(-0.25).raw & (2**64 - 1) == 0xFFFFFFFFC0000000

    def test_from_real_clamps(self):
        assert fx.from_real(2.0**40).raw == RAW_MAX
        assert fx.from_real(-(2.0**40)).raw == RAW_MIN

    def test_from_real_sets_overflow_flag_on_clamp(self):
        flags = ArithFlags()
        fx.from_real(2.0**40, flags)
        assert flags.overflow

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_from_real_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            fx.from_real(bad)

    def test_raw_outside_word_rejected(self):
        with pytest.raises(ValueError, match="outside 64-bit range"):
            Fixed64(RAW_MAX + 1)

    @pytest.mark.parametrize("raw", [1.5, 2.0, None, "1"])
    def test_non_int_raw_rejected(self, raw):
        with pytest.raises(TypeError, match=f"^raw value {raw!r} is not an int$"):
            Fixed64(raw)

    def test_to_real(self):
        assert fx.to_real(Fixed64(0x0000000180000000)) == 1.5
        assert fx.to_real(Fixed64(1)) == 2.0**-32
        assert fx.to_real(Fixed64(RAW_MIN)) == -(2.0**31)

    @given(st.integers(min_value=-(2**21) * SCALE, max_value=2**21 * SCALE))
    def test_roundtrip_exact_below_53_bits(self, raw):
        x = fx.to_real(Fixed64(raw))
        assert fx.from_real(x).raw == raw


def assert_from_real_matches_reference(x):
    flags, ref_flags = ArithFlags(), {"overflow": False}
    assert fx.from_real(x, flags).raw == ref_from_real(x, ref_flags)
    assert flags.overflow == ref_flags["overflow"]   # set iff it clamped


class TestFromRealAgainstReference:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_all_finite_floats(self, x):
        assert_from_real_matches_reference(x)

    @pytest.mark.parametrize("x", [
        1e300, -1e300, sys.float_info.max, -sys.float_info.max,
        5e-324, -5e-324, 3 * 2.0**-33, -3 * 2.0**-33, 2.0**-33,
        2.0**31 - 2.0**-33, 2.0**31 - 2.0**-22, 2.0**31, -(2.0**31),
        -(2.0**31) - 2.0**-21, 0.0, -0.0])
    def test_edge_cases(self, x):
        assert_from_real_matches_reference(x)


EDGES = [2.0**31, -(2.0**31), 2.0**31 - 2.0**-22, -(2.0**31) - 2.0**-21,
         2.0**32, -(2.0**32), 2.0**32 + 2.0**-20, 2.0**40, -1e300,
         sys.float_info.max, -sys.float_info.max, 5e-324, -5e-324,
         sys.float_info.min, 0.0, -0.0, 2.0**-33, 3 * 2.0**-33, -3 * 2.0**-33,
         5 * 2.0**-33]
columns = st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                             st.sampled_from(EDGES)), max_size=40)


class TestFromRealsAgainstReference:
    """The column converter against the exact Fraction reference: the same
    words, and overflow set iff some word clamped."""

    @given(columns)
    @example([])
    def test_words_and_flag(self, xs):
        flags, ref_flags = ArithFlags(), {"overflow": False}
        assert fx.from_reals(xs, flags) == [ref_from_real(x, ref_flags)
                                            for x in xs]
        assert flags.overflow == ref_flags["overflow"]

    @given(columns, st.sampled_from([math.inf, -math.inf, math.nan]),
           st.data())
    def test_first_non_finite_raises_from_real_text(self, xs, bad, data):
        xs.insert(data.draw(st.integers(0, len(xs))), bad)
        xs.append(-bad)         # a later non-finite value is not the one named
        with pytest.raises(ValueError) as want:
            fx.from_real(bad)
        with pytest.raises(ValueError) as got:
            fx.from_reals(xs)
        assert str(got.value) == str(want.value) == \
            f"cannot convert non-finite value {bad!r}"

    @pytest.mark.parametrize("xs", [[1.0, math.nan], [math.nan, 1.0], [2.0, math.nan, 0.5]])
    def test_nan_that_min_and_max_skip_raises(self, xs):
        with pytest.raises(ValueError, match="^cannot convert non-finite value nan$"):
            fx.from_reals(xs)

    @pytest.mark.parametrize("x,word", [(10**400, RAW_MAX), (-10**400, RAW_MIN)],
                             ids=["positive", "negative"])
    def test_int_past_float_range_clamps(self, x, word):
        """Such an int is a finite real beyond the word range."""
        flags = ArithFlags()
        assert fx.from_reals([x, 1.0], flags) == [word, SCALE]
        assert flags.overflow


class TestArithmetic:
    def test_add(self):
        assert fx.fx_add(fx.from_real(1.5), fx.from_real(0.25)) == fx.from_real(1.75)

    def test_add_saturates(self):
        flags = ArithFlags()
        r = fx.fx_add(Fixed64(RAW_MAX), fx.from_real(1.0), flags)
        assert r.raw == RAW_MAX and flags.overflow

    def test_sub(self):
        assert fx.fx_sub(fx.from_real(3.0), fx.from_real(5.0)) == fx.from_real(-2.0)

    def test_mul(self):
        assert fx.fx_mul(fx.from_real(3.0), fx.from_real(0.5)) == fx.from_real(1.5)

    def test_mul_floor_truncation(self):
        third = fx.from_real(1.0 / 3.0)
        r = fx.fx_mul(third, fx.from_real(3.0))
        # frozen from the 128-bit reference: floor((round(2^32/3)*3*2^32)/2^32)
        assert r.raw == ref_mul(third.raw, 3 * SCALE) == 0x00000000FFFFFFFF

    def test_mul_saturates(self):
        flags = ArithFlags()
        r = fx.fx_mul(fx.from_real(2.0**20), fx.from_real(2.0**20), flags)
        assert r.raw == RAW_MAX and flags.overflow

    def test_div_one_third(self):
        r = fx.fx_div(fx.from_real(1.0), fx.from_real(3.0))
        assert r.raw == 0x0000000055555555 == (1 << 32) // 3

    def test_inv(self):
        assert fx.fx_div(fx.ONE, fx.from_real(2.0)) == fx.from_real(0.5)

    def test_div_by_zero(self):
        flags = ArithFlags()
        r = fx.fx_div(fx.from_real(1.0), fx.ZERO, flags)
        assert r.raw == RAW_MAX and flags.div_by_zero
        r = fx.fx_div(fx.from_real(-1.0), fx.ZERO, flags)
        assert r.raw == RAW_MIN

    @pytest.mark.parametrize("fn,a,b", [(fx.add, RAW_MIN + 1, -1), (fx.sub, RAW_MIN + 1, 1),
                                        (fx.mul, RAW_MIN, SCALE), (fx.div, RAW_MIN, SCALE)])
    def test_exact_raw_min_sets_no_flag(self, fn, a, b):
        flags = ArithFlags()
        assert fn(a, b, flags) == RAW_MIN
        assert flags == ArithFlags()

    def test_flags_are_sticky(self):
        flags = ArithFlags()
        fx.fx_add(Fixed64(RAW_MAX), fx.ONE, flags)
        fx.fx_add(fx.ONE, fx.ONE, flags)   # non-saturating op must not clear
        assert flags.overflow


class TestAgainstReference:
    @given(raws, raws)
    def test_add_matches(self, a, b):
        assert fx.fx_add(Fixed64(a), Fixed64(b)).raw == ref_add(a, b)

    @given(raws, raws)
    def test_sub_matches(self, a, b):
        assert fx.fx_sub(Fixed64(a), Fixed64(b)).raw == ref_sub(a, b)

    @given(raws, raws)
    def test_mul_matches(self, a, b):
        assert fx.fx_mul(Fixed64(a), Fixed64(b)).raw == ref_mul(a, b)

    @given(raws, raws)
    def test_div_matches(self, a, b):
        assert fx.fx_div(Fixed64(a), Fixed64(b)).raw == ref_div(a, b)

    @given(raws, raws)
    def test_commutativity(self, a, b):
        x, y = Fixed64(a), Fixed64(b)
        assert fx.fx_add(x, y) == fx.fx_add(y, x)
        assert fx.fx_mul(x, y) == fx.fx_mul(y, x)

    @given(raws, raws)
    def test_saturation_monotone(self, a, b):
        exact = a + b
        got = fx.fx_add(Fixed64(a), Fixed64(b)).raw
        if exact > RAW_MAX:
            assert got == RAW_MAX
        elif exact < RAW_MIN:
            assert got == RAW_MIN
        else:
            assert got == exact


# Words where saturation, rounding and division change behaviour, a few ints
# outside the word range (library callers may pass them), and random words.
_EDGE = [0, 1, -1, SCALE, -SCALE, RAW_MIN, RAW_MAX, 1 << 40, -(1 << 40),
         RAW_MAX + 1, RAW_MIN - 1, 1 << 80]
_LANE = st.sampled_from(_EDGE) | raws | st.integers(-4 * SCALE, 4 * SCALE)


@st.composite
def lane_lists(draw):
    """Two operand lists of one length in 1..30; in half the cases every
    word is non-negative, where vdiv takes its whole-list route."""
    W = draw(st.integers(1, 30))
    lane = _LANE.map(abs) if draw(st.booleans()) else _LANE
    return draw(st.lists(lane, min_size=W, max_size=W)), \
        draw(st.lists(lane, min_size=W, max_size=W))


class TestListFunctionsMatchPerLane:
    """Each whole-list function gives the words and flags of its per-lane
    function applied lane by lane."""

    @settings(max_examples=400)
    @given(st.sampled_from([(fx.vadd, fx.add), (fx.vsub, fx.sub),
                            (fx.vmul, fx.mul), (fx.vdiv, fx.div)]), lane_lists())
    def test_words_and_flags(self, fns, operands):
        whole, lane = fns
        xs, ys = operands
        flags, lane_flags = ArithFlags(), ArithFlags()
        got = whole(xs, ys, flags)
        assert got == [lane(x, y, lane_flags) for x, y in zip(xs, ys)]
        assert flags == lane_flags
        assert got is not xs and got is not ys
        assert whole(xs, ys) == got

    @pytest.mark.parametrize("divisor", [0, -SCALE])
    def test_zero_and_negative_divisors(self, divisor):
        xs, ys = [SCALE, 3 * SCALE, 0], [SCALE, divisor, 2 * SCALE]
        flags, lane_flags = ArithFlags(), ArithFlags()
        assert fx.vdiv(xs, ys, flags) == [fx.div(x, y, lane_flags)
                                          for x, y in zip(xs, ys)]
        assert flags == lane_flags and flags.div_by_zero == (divisor == 0)

    def test_in_range_lists_take_no_per_lane_call(self, monkeypatch):
        for name in ("add", "sub", "mul", "div", "saturate"):
            monkeypatch.setattr(fx, name, None)
        xs, ys = [0, 6 * SCALE, 5], [SCALE, -2 * SCALE, 3]
        assert fx.vadd(xs, ys) == [SCALE, 4 * SCALE, 8]
        assert fx.vsub(xs, ys) == [-SCALE, 8 * SCALE, 2]
        assert fx.vmul(xs, ys) == [0, -12 * SCALE, 0]
        assert fx.vdiv(xs, [SCALE, 2 * SCALE, 3]) == [0, 3 * SCALE, (5 << 32) // 3]

    def test_empty_lists(self):
        assert [f([], []) for f in (fx.vadd, fx.vsub, fx.vmul, fx.vdiv)] == [[]] * 4
