import dataclasses
import math

import pytest

from vproc import kernel
from vproc.core import CoreConfig
from vproc.resources import (Calibration, calibrate, estimate_sequential,
                             estimate_tiled, estimate_vector)

CFG = CoreConfig(enable_converter=False)


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
        assert "converter" in with_conv.breakdown
        assert "converter" not in without.breakdown

    def test_breakdown_sums_to_total(self):
        est = estimate_vector(CoreConfig(n_add=3, n_mul=7, n_div=11))
        assert sum(est.breakdown.values()) == est.slices


class TestSequentialEstimate:
    def test_default(self):
        est = estimate_sequential()
        assert est.slices == 16520
        assert "convert" not in " ".join(est.breakdown)

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


class TestCalibration:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Calibration(c_add=900.0, c_mul=350.0, c_div=750.0)

    @pytest.mark.parametrize("field,value", [
        ("c_mul", math.inf), ("base_seq", math.inf), ("base_seq", math.nan),
        ("c_convert", math.nan)])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            dataclasses.replace(Calibration(), **{field: value})

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
