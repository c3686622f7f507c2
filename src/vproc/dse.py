"""Design-space exploration: sweeps, Pareto filtering and projections."""

from __future__ import annotations

import contextlib
import math
from typing import NamedTuple

from . import core, isa, resources
from .core import CoreConfig
from .isa import CLASS_UNITS, REAL, OpClass, Program, ValidationError
from .resources import Calibration, DEFAULT_CALIBRATION


class DesignPoint(NamedTuple):
    label: str
    n_add: int
    n_mul: int
    n_div: int
    latency_cycles: int
    slices: int


class Projection(NamedTuple):
    cores: int
    calls_per_second: float


def sweep(p: Program, cfg: CoreConfig, mixes: list[tuple[int, int, int]],
          cal: Calibration = DEFAULT_CALIBRATION,
          inputs: list[tuple[int, list[int]]] | None = None,
          max_cycles: int = core.MAX_CYCLES) -> list[DesignPoint]:
    """One design point per (n_add, n_mul, n_div) mix of core cfg, in input
    order; cfg's own mix is ignored.

    Values and control flow do not depend on the unit mix, so the program
    is simulated once, with the first mix (one pass, many configurations:
    Mattson et al., IBM Syst. J., 1970).  An instruction's cost depends
    only on its own class's unit count k_c, and each slice term on one
    class, so a mix costs

        cycles = F + Σ_c T_c(k_c)       slices = B + Σ_c round(k_c × c_c)

    where F is the cycles of the CONTROL, MEM and CONVERT ops and B the
    slices of the core with no units.  Per class, a table maps each unit
    count to its (cycles, slices) terms, priced from the retire counts and
    core.cost_table.  After the first mix's run, each new count k is priced
    once, on the core k-k-k that has k units in every class (six cores for
    the 6³ grid), and a count that core rejects at its own mix.  The first
    failing mix, in input order, raises the error its own run would; one
    over max_cycles is run again.
    """
    classes = isa.unit_classes(p)
    base = resources.estimate_vector(cfg.with_mix(0, 0, 0), cal).slices
    counts = None
    # Per class, unit count -> (cycles term, slices term, text); ADD's cycles
    # hold F.  Only exact ints are looked up: True and 1.0 hash as 1 but are
    # not unit counts, so any other count is priced, and CoreConfig judges it.
    adds, muls, divs = {}, {}, {}

    def price(a, m, d) -> tuple[int, int, int]:
        """Each class's cycles term under mix a-m-d; the first call runs p."""
        nonlocal counts
        c = cfg.with_mix(a, m, d)
        try:
            if counts is None:
                counts = core.run(p, c, inputs=inputs,
                                  max_cycles=max_cycles).counts
            elif diags := isa.validate_units(classes, c):
                raise ValidationError(*diags)
            table = core.cost_table(c, counts)
        except ValidationError as exc:
            raise ValidationError(
                *(f"config {a}-{m}-{d}: {msg}" for msg in exc.diagnostics))
        split = dict.fromkeys(OpClass, 0)
        for op, n in counts.items():
            split[table[op][0]] += n * table[op][1]
        ca, cm, cd = map(split.pop, CLASS_UNITS)
        return ca + sum(split.values()), cm, cd

    points, new = [], tuple.__new__     # a DesignPoint, less NamedTuple's own __new__
    for i, mix in enumerate(mixes):
        if len(mix) != 3:   # named by its index if a count is past the digit limit
            raise ValidationError(isa._shown("mix {!r} is not three unit counts", mix)
                                  or f"mix {i}: not three unit counts")
        a, m, d = mix
        sa = None
        if type(a) is type(m) is type(d) is int:
            try:
                (ca, sa, la), (cm, sm, lm), (cd, sd, ld) = adds[a], muls[m], divs[d]
            except KeyError:    # a count not yet priced
                if counts is not None:  # p has run: price each new count k on core k-k-k
                    with contextlib.suppress(ValueError):   # k-k-k or str(k) rejects k
                        for k, table in zip(mix, (adds, muls, divs)):
                            if k not in table:
                                adds[k], muls[k], divs[k] = zip(price(k, k, k), map(
                                    resources.unit_slices, CLASS_UNITS, [k] * 3, [cal] * 3),
                                    [str(k)] * 3)
                        (ca, sa, la), (cm, sm, lm), (cd, sd, ld) = adds[a], muls[m], divs[d]
        if sa is None:          # price this mix
            if not isa._shown("{}-{}-{}", *mix):     # a priced count is printable
                raise ValidationError(f"mix {i}: a count too long to print")
            la, lm, ld = map(str, mix)
            ca, cm, cd = price(a, m, d)
        total = ca + cm + cd
        if total > max_cycles:      # for this mix's own timeout
            total = core.run(p, cfg.with_mix(a, m, d), inputs=inputs,
                             max_cycles=max_cycles).total_cycles
        if sa is None:
            sa, sm, sd = map(resources.unit_slices, CLASS_UNITS, mix, [cal] * 3)
            adds[a], muls[m], divs[d] = (ca, sa, la), (cm, sm, lm), (cd, sd, ld)
        points.append(new(DesignPoint, (f"{la}-{lm}-{ld}", a, m, d, total, base + sa + sm + sd)))
    return points


def pareto(points: list[DesignPoint]) -> list[DesignPoint]:
    """Non-dominated subset in (latency, slices), in input order; exact ties kept.

    Sort-and-scan, O(n log n): a point is dominated iff a strictly cheaper
    point is at least as fast, or an equally cheap point is strictly faster.
    """
    best: dict[int, int] = {}   # slices -> fastest latency at that count
    for p in points:
        best[p.slices] = min(p.latency_cycles, best.get(p.slices, math.inf))
    running = math.inf          # fastest latency at fewer slices
    for s in sorted(best):      # keep the counts faster than every cheaper one
        if best[s] < running:
            running = best[s]
        else:
            del best[s]
    return [p for p in points if best.get(p.slices) == p.latency_cycles]


def throughput_projection(latency_cycles: int, slices: int, slices_budget: int,
                          clock_mhz: float) -> Projection:
    """Replicate independent cores under a slice budget."""
    if not (type(latency_cycles) in REAL and type(slices) in REAL
            and latency_cycles >= 1 and slices >= 1):
        raise ValidationError(isa._shown("latency ({!r}) and slices ({!r}) must be >= 1",
                                         latency_cycles, slices)
                              or "latency and slices must be >= 1")
    if type(clock_mhz) not in REAL or not 0 < clock_mhz < math.inf:    # also nan
        raise ValidationError(f"clock{isa._shown(' {!r}', clock_mhz)} MHz must be finite and > 0")
    if type(slices_budget) not in REAL or not slices_budget >= slices:
        raise ValidationError(isa._shown("budget {!r} below one core ({} slices)",
                                         slices_budget, slices)
                              or "budget below one core")
    cores = slices_budget // slices
    try:
        calls = cores * clock_mhz * 1e6 / latency_cycles
    except OverflowError:       # an int beyond the float range
        calls = math.inf
    if not calls < math.inf:
        raise ValidationError("latency, core count, clock or call rate exceeds the float range")
    return Projection(cores=cores, calls_per_second=calls)


def amdahl(fraction: float, kernel_speedup: float) -> float:
    """Whole-application speedup when `fraction` of time is accelerated."""
    if type(fraction) not in REAL or not 0.0 <= fraction <= 1.0:
        raise ValidationError("fraction must be in [0, 1]")
    if type(kernel_speedup) not in REAL or not kernel_speedup >= 1.0:    # also rejects nan
        raise ValidationError("kernel speedup must be >= 1")
    try:
        time = (1.0 - fraction) + fraction / kernel_speedup    # f / inf is 0.0
    except OverflowError:       # an int speedup past the float range: f / s rounds to 0.0
        time = 1.0 - fraction
    if time == 0.0 and kernel_speedup == math.inf:  # all of it accelerated infinitely
        raise ValidationError("unbounded speedup of the whole application is undefined")
    if time == 0.0 or (speedup := 1.0 / time) == math.inf:     # time is 0 or subnormal
        raise ValidationError("overall speedup exceeds the float range")
    return speedup
