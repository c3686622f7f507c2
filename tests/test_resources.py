import dataclasses
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from vproc import kernel
from vproc.core import CoreConfig
from vproc.isa import OpClass, ValidationError
from vproc.resources import (Calibration, calibrate, estimate_sequential,
                             estimate_tiled, estimate_vector, unit_slices)

CFG = CoreConfig(enable_converter=False)


def formula(base, n_add, n_mul, n_div, cal, converter=False):
    """base + units × unit cost per class (+ converter), each term rounded."""
    return (round(base) + round(n_add * cal.c_add) + round(n_mul * cal.c_mul)
            + round(n_div * cal.c_div) + (round(cal.c_convert) if converter else 0))


class TestVectorEstimate:
    def test_1_1_1(self):
        assert estimate_vector(CFG.with_mix(1, 1, 1)).slices == 15300

    def test_symmetric_ratio(self):
        lo = estimate_vector(CFG.with_mix(1, 1, 1)).slices
        hi = estimate_vector(CFG.with_mix(24, 24, 24)).slices
        assert hi == 61300
        assert 3.8 <= hi / lo <= 4.2

    def test_asymmetric_ratio(self):
        s888 = estimate_vector(CFG.with_mix(8, 8, 8)).slices
        s8824 = estimate_vector(CFG.with_mix(8, 8, 24)).slices
        assert (s888, s8824) == (29300, 41300)
        assert 1.35 <= s8824 / s888 <= 1.45

    def test_converter_term(self):
        with_conv = estimate_vector(CoreConfig(enable_converter=True))
        without = estimate_vector(CFG)
        assert with_conv.slices - without.slices == 800
        assert without.slices == 13300 + 8 * (350 + 900 + 750)

    def test_breakdown_sums_to_total(self):
        est = estimate_vector(CoreConfig(n_add=3, n_mul=7, n_div=11))
        assert est.slices == 13300 + 3 * 350 + 7 * 900 + 11 * 750 + 800


class TestSequentialEstimate:
    def test_default(self):
        est = estimate_sequential()     # one unit per class, no converter
        assert est.slices == 16520 == 14520 + 350 + 900 + 750

    def test_vector_over_sequential_ratio(self):
        vec = estimate_vector(CFG.with_mix(8, 8, 24)).slices
        assert vec / estimate_sequential().slices == pytest.approx(2.50)


class TestTiledEstimate:
    def test_benchmark_graph(self):
        assert estimate_tiled(kernel.KERNEL, 24).slices == 200800

    def test_single_replica(self):
        assert estimate_tiled(kernel.KERNEL, 1).slices == 8750

    @pytest.mark.parametrize("replication", [0, -3])
    def test_replication_below_one_rejected(self, replication):
        with pytest.raises(ValueError, match="replication"):
            estimate_tiled(kernel.KERNEL, replication)

    def test_ratio_to_sequential(self):
        ratio = estimate_tiled(kernel.KERNEL, 24).slices / estimate_sequential().slices
        assert ratio == pytest.approx(12.2, abs=0.1)


CALIBRATIONS = st.builds(
    lambda costs, rest: Calibration(*costs, *rest),
    # c_add < c_div < c_mul, as Calibration requires
    st.lists(st.floats(0, 1e6), min_size=3, max_size=3, unique=True)
    .map(sorted).map(lambda c: (c[0], c[2], c[1])),
    st.tuples(*[st.floats(0, 1e6)] * 4))
COUNTS = st.integers(0, 10**6)


class TestAgainstFormula:
    """Every estimator is base + Σ round(units × unit cost), written out."""

    @settings(max_examples=200, deadline=None)
    @given(CALIBRATIONS, st.tuples(COUNTS, COUNTS, COUNTS), st.booleans())
    def test_vector(self, cal, mix, converter):
        cfg = CoreConfig(enable_converter=converter).with_mix(*mix)
        assert estimate_vector(cfg, cal).slices \
            == formula(cal.base_vector, *mix, cal, converter)

    @settings(max_examples=100, deadline=None)
    @given(CALIBRATIONS)
    def test_sequential(self, cal):
        assert estimate_sequential(cal).slices \
            == formula(cal.base_seq, 1, 1, 1, cal)

    @settings(max_examples=200, deadline=None)
    @given(CALIBRATIONS, st.lists(st.sampled_from(sorted(kernel.OPS))),
           st.integers(1, 10**4))
    def test_tiled(self, cal, ops, replication):
        stmts = [(f"r{i}", op, "a", "b") for i, op in enumerate(ops)]
        classes = [kernel.OPS[op][0].value for op in ops]
        assert estimate_tiled(stmts, replication, cal).slices \
            == formula(cal.c_tiled_barrier,
                       *(replication * classes.count(c) for c in ("add", "mul", "div")),
                       cal)

    @pytest.mark.parametrize("mix,cal,component", [
        ((8, 8, 8), Calibration(c_mul=1e308, c_div=1e307), "mul_units"),
        ((1, 1, 10**400), Calibration(), "div_units"),      # int beyond float
        ((10**306, 1, 1), Calibration(), "add_units"),      # product beyond float
    ])
    def test_non_finite_term_named(self, mix, cal, component):
        with pytest.raises(ValidationError,
                           match=f"slice count of '{component}' is not finite"):
            estimate_vector(CFG.with_mix(*mix), cal)

    def test_largest_float_count_priced(self):
        """A count equal to the largest finite float is a float's worth of
        units: below 1 slice each, its term is finite."""
        n = int(sys.float_info.max)
        assert unit_slices(OpClass.ADD_CLASS, n, Calibration(c_add=0.5)) == round(n * 0.5)

    def test_largest_float_term_priced(self):
        """A term equal to the largest finite float still fits a float."""
        assert unit_slices(OpClass.MUL_CLASS, 1, Calibration(c_mul=sys.float_info.max)) \
            == round(sys.float_info.max)

    def test_non_finite_tiled_term_named(self):
        with pytest.raises(ValidationError, match="'add_units' is not finite"):
            estimate_tiled(kernel.KERNEL, 10**400)


class TestCalibration:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Calibration(c_add=900.0, c_mul=350.0, c_div=750.0)

    @pytest.mark.parametrize("costs", [{"c_div": 900.0}, {"c_div": 350.0}])
    def test_ordering_strict(self, costs):
        """c_div equal to c_mul, or to c_add, breaks the strict order."""
        with pytest.raises(ValidationError) as exc:
            Calibration(**costs)
        assert exc.value.diagnostics == ["calibration requires c_mul > c_div > c_add"]

    @pytest.mark.parametrize("field,value", [
        ("c_mul", math.inf), ("base_seq", math.inf), ("base_seq", math.nan),
        ("c_convert", math.nan)])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            dataclasses.replace(Calibration(), **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("c_add", "350"), ("c_mul", None), ("base_seq", True)])
    def test_mistyped_rejected(self, field, value):
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(Calibration(), **{field: value})
        assert exc.value.diagnostics == [f"{field} must be finite and non-negative, "
                                         f"got {value!r}: not an int or float"]

    def test_calibrate_reproduces_defaults(self):
        assert calibrate() == Calibration()

    def test_residuals_documented(self):
        cal = Calibration()
        s = cal.c_add + cal.c_mul + cal.c_div
        assert abs(20 * s - 3 * cal.base_vector) / (3 * cal.base_vector) < 0.003
        assert abs(16 * cal.c_div - (0.4 * cal.base_vector + 3.2 * s)) \
            / (0.4 * cal.base_vector + 3.2 * s) < 0.03


class TestMonotonicity:
    def test_strictly_increasing_in_unit_counts(self):
        prev = 0
        for n in range(1, 25):
            s = estimate_vector(CFG.with_mix(n, n, n)).slices
            assert s > prev
            prev = s

    def test_increasing_in_coefficients(self):
        base = estimate_vector(CFG)
        for fname in ("c_add", "c_mul", "c_div", "base_vector"):
            cal = dataclasses.replace(Calibration(), **{fname: getattr(Calibration(), fname) + 100})
            assert estimate_vector(CFG, cal).slices > base.slices
