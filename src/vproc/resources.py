"""Linear slice-count model for all three architectures.

Every estimate is a sum of per-component costs from a Calibration.  The
default calibration is fitted to published resource ratios between the
symmetric, asymmetric and sequential configurations; the fitting procedure
is reproduced by calibrate().
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .core import CoreConfig
from .isa import OpClass
from .kernel import OPS


@dataclass(frozen=True)
class Calibration:
    """Slice cost per component.  Ordering c_mul > c_div > c_add is required."""

    c_add: float = 350.0
    c_mul: float = 900.0
    c_div: float = 750.0
    c_convert: float = 800.0
    base_vector: float = 13300.0   # controller + register banks + wrappers
    base_seq: float = 14520.0      # per-unit controller overhead included
    c_tiled_barrier: float = 400.0

    def __post_init__(self) -> None:
        if not (self.c_mul > self.c_div > self.c_add):
            raise ValueError("calibration requires c_mul > c_div > c_add")
        for name in ("c_add", "c_mul", "c_div", "c_convert",
                     "base_vector", "base_seq", "c_tiled_barrier"):
            if not 0 <= getattr(self, name) < math.inf:     # also nan
                raise ValueError(f"{name} must be finite and non-negative")


DEFAULT_CALIBRATION = Calibration()


@dataclass(frozen=True)
class ResourceEstimate:
    slices: int
    breakdown: dict[str, int]


class CalibrationError(Exception):
    pass


def _estimate(breakdown: dict[str, float]) -> ResourceEstimate:
    for name, slices in breakdown.items():
        if not math.isfinite(slices):   # finite costs whose product overflows
            raise CalibrationError(f"slice count of '{name}' is not finite: "
                                   f"calibration values too large")
    rounded = {k: round(v) for k, v in breakdown.items() if v}
    return ResourceEstimate(slices=sum(rounded.values()), breakdown=rounded)


def estimate_vector(cfg: CoreConfig, cal: Calibration = DEFAULT_CALIBRATION) -> ResourceEstimate:
    breakdown = {
        "base": cal.base_vector,
        "adders": cfg.n_add * cal.c_add,
        "multipliers": cfg.n_mul * cal.c_mul,
        "dividers": cfg.n_div * cal.c_div,
    }
    if cfg.enable_converter:
        breakdown["converter"] = cal.c_convert
    return _estimate(breakdown)


def estimate_sequential(cal: Calibration = DEFAULT_CALIBRATION) -> ResourceEstimate:
    return _estimate({
        "base": cal.base_seq,
        "adder": cal.c_add,
        "multiplier": cal.c_mul,
        "divider": cal.c_div,
    })


def estimate_tiled(stmts: Iterable[tuple[str, ...]], replication: int,
                   cal: Calibration = DEFAULT_CALIBRATION) -> ResourceEstimate:
    """One unit per statement per replica, by class in first-appearance order."""
    if replication < 1:
        raise ValueError(f"replication {replication} must be >= 1")
    cost = {OpClass.ADD_CLASS: cal.c_add, OpClass.MUL_CLASS: cal.c_mul,
            OpClass.DIV_CLASS: cal.c_div}
    breakdown: dict[str, float] = {"barrier": cal.c_tiled_barrier}
    for cls, count in Counter(OPS[op][0] for _, op, *_ in stmts).items():
        breakdown[cls.value + "_units"] = replication * count * cost[cls]
    return _estimate(breakdown)


def calibrate(sym_resource_ratio: float = 4.0,
              asym_resource_ratio: float = 1.4,
              seq_resource_ratio: float = 2.5,
              scale: float = 2000.0,
              split: tuple[float, float, float] = (350.0, 900.0, 750.0),
              vec_len: int = 24,
              max_residual: float = 0.03) -> Calibration:
    """Fit the linear model to the published resource ratios.

    Constraints, with s = c_add + c_mul + c_div:
      (base_vector + W*s) / (base_vector + s)            = sym_resource_ratio
      (base_vector + 8s + (W-8)*c_div) / (base_vector + 8s) = asym_resource_ratio
      (base_vector + 8s + (W-8)*c_div) / (base_seq + s)  = seq_resource_ratio

    The caller chooses the scale s and its split; base_vector follows from
    the symmetric constraint (rounded to a 100-slice grid), base_seq from
    the sequential one.  Residuals above max_residual are rejected.
    """
    c_add, c_mul, c_div = split
    if not (c_mul > c_div > c_add > 0):
        raise CalibrationError("split must satisfy c_mul > c_div > c_add > 0")
    if abs((c_add + c_mul + c_div) - scale) > 1e-9:
        raise CalibrationError("split must sum to the chosen scale")
    if sym_resource_ratio <= 1 or sym_resource_ratio >= vec_len:
        raise CalibrationError("symmetric ratio outside the feasible interval")

    base_vector = scale * (vec_len - sym_resource_ratio) / (sym_resource_ratio - 1)
    base_vector = round(base_vector / 100) * 100

    asym_top = base_vector + 8 * scale + (vec_len - 8) * c_div
    sym_res = abs((base_vector + vec_len * scale) / (base_vector + scale)
                  - sym_resource_ratio) / sym_resource_ratio
    asym_res = abs(asym_top / (base_vector + 8 * scale)
                   - asym_resource_ratio) / asym_resource_ratio
    if sym_res > max_residual or asym_res > max_residual:
        raise CalibrationError(
            f"residuals too large (sym {sym_res:.3%}, asym {asym_res:.3%})")

    base_seq = asym_top / seq_resource_ratio - scale
    if base_seq <= 0:
        raise CalibrationError("sequential base infeasible for these targets")
    return Calibration(c_add=c_add, c_mul=c_mul, c_div=c_div,
                       base_vector=float(base_vector), base_seq=base_seq)
