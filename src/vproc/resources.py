"""Linear slice-count model for all three architectures.

Every estimate is a sum of per-component costs from a Calibration.  The
default calibration is fitted to published resource ratios between the
symmetric, asymmetric and sequential configurations; calibrate() reproduces
that fit, whose targets are fixed.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace

from .core import CoreConfig
from .isa import OpClass, ValidationError
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
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:   # also nan
                raise ValueError(f"{f.name} must be finite and non-negative")


DEFAULT_CALIBRATION = Calibration()


@dataclass(frozen=True)
class ResourceEstimate:
    slices: int
    breakdown: dict[str, int]


def _estimate(breakdown: dict[str, float]) -> ResourceEstimate:
    for name, slices in breakdown.items():
        if not math.isfinite(slices):   # finite costs whose product overflows
            raise ValidationError(f"slice count of '{name}' is not finite: "
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


def calibrate() -> Calibration:
    """The default calibration, fitted to the published resource ratios.

    The targets are fixed: with W = CoreConfig.vec_len, the default unit
    costs and s = c_add + c_mul + c_div,
      (base_vector + W*s) / (base_vector + s)               = 4.0
      (base_vector + 8s + (W-8)*c_div) / (base_vector + 8s) = 1.4
      (base_vector + 8s + (W-8)*c_div) / (base_seq + s)     = 2.5

    base_vector follows from the symmetric constraint (rounded to a
    100-slice grid), base_seq from the sequential one.  The symmetric and
    asymmetric ratios are then met to within 0.16% and 0.68%.
    """
    cal, w = Calibration(), CoreConfig.vec_len
    s = cal.c_add + cal.c_mul + cal.c_div
    base_vector = round(s * (w - 4.0) / (4.0 - 1) / 100) * 100
    base_seq = (base_vector + 8 * s + (w - 8) * cal.c_div) / 2.5 - s
    return replace(cal, base_vector=float(base_vector), base_seq=base_seq)
