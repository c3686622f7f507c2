"""Linear slice-count model for all three architectures.

One formula prices them all: a base plus, per arithmetic class, units ×
that class's unit cost from a Calibration, each term rounded.  The default
calibration is fitted to published resource ratios between the symmetric,
asymmetric and sequential configurations; calibrate() reproduces that fit,
whose targets are fixed.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace

from .core import CoreConfig
from .isa import CLASS_UNITS, REAL, OpClass, ValidationError, _shown
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
        for f in fields(self):
            if type(value := getattr(self, f.name)) not in REAL:
                raise ValidationError(f"{f.name} must be finite and non-negative"
                                      f"{_shown(', got {!r}', value)}: not an int or float")
        if not (self.c_mul > self.c_div > self.c_add):
            raise ValidationError("calibration requires c_mul > c_div > c_add")
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:   # also nan
                raise ValidationError(f"{f.name} must be finite and non-negative")


DEFAULT_CALIBRATION = Calibration()


@dataclass(frozen=True)
class ResourceEstimate:
    slices: int


def unit_slices(cls: OpClass, n: int, cal: Calibration) -> int:
    """round(n × c_<class>): one unit class's term of every slice count."""
    cost = getattr(cal, "c_" + cls.value)
    term = n * cost if n <= sys.float_info.max else math.inf
    if not term <= sys.float_info.max:
        raise ValidationError(f"slice count of '{cls.value}_units' is not finite: the unit "
                              f"count or its product with c_{cls.value} overflows a float")
    return round(term)


def _estimate(base: float, units: Iterable[int], cal: Calibration,
              converter: bool = False) -> ResourceEstimate:
    """round(base) + Σ unit_slices + round(c_convert) if present."""
    return ResourceEstimate(round(base) + (round(cal.c_convert) if converter else 0)
                            + sum(unit_slices(cls, n, cal)
                                  for cls, n in zip(CLASS_UNITS, units)))


def estimate_vector(cfg: CoreConfig, cal: Calibration = DEFAULT_CALIBRATION) -> ResourceEstimate:
    return _estimate(cal.base_vector, cfg.mix, cal, cfg.enable_converter)


def estimate_sequential(cal: Calibration = DEFAULT_CALIBRATION) -> ResourceEstimate:
    return _estimate(cal.base_seq, (1, 1, 1), cal)


def estimate_tiled(stmts: Iterable[tuple[str, ...]], replication: int,
                   cal: Calibration = DEFAULT_CALIBRATION) -> ResourceEstimate:
    """The barrier plus one unit per statement per replica, by class."""
    if type(replication) not in REAL or not replication >= 1:
        raise ValidationError(f"replication{_shown(' {!r}', replication)} must be >= 1")
    counts = Counter(OPS[op][0] for _, op, *_ in stmts)
    return _estimate(cal.c_tiled_barrier,
                     (replication * counts[cls] for cls in CLASS_UNITS), cal)


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
