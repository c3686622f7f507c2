"""Analytic models of the two baseline architectures.

The fully tiled option maps every statement of a straight-line kernel (in
`kernel.KERNEL`'s three-address form) to its own hardware unit, so latency
is the kernel's critical path plus a final synchronisation barrier.  The
fully sequential option is the degenerate vector core with one unit per
arithmetic class.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import CoreConfig
from .isa import CLASS_LAT, REAL, ValidationError, _shown
from .kernel import OPS


def tiled_latency(stmts: Iterable[tuple[str, ...]], cfg: CoreConfig,
                  barrier_cost: int = 1) -> int:
    """Critical-path latency of the fully tiled circuit.

    Statement order is a dependency order, so one pass finds each result's
    finish time; an operand that is not an earlier result is an input,
    ready at time 0.  Replicas run in parallel and the circuit has no
    controller, so neither replication nor issue cost appears.
    """
    if type(barrier_cost) not in REAL or not barrier_cost >= 0:
        raise ValidationError(f"barrier cost{_shown(' {!r}', barrier_cost)} must be >= 0")
    finish: dict[str, int] = {}
    for dest, op, *args in stmts:
        finish[dest] = (getattr(cfg, CLASS_LAT[OPS[op][0]])
                        + max(finish.get(x, 0) for x in args))
    return max(finish.values()) + barrier_cost


def sequential_config(base: CoreConfig) -> CoreConfig:
    """The fully sequential architecture: one unit per arithmetic class."""
    return base.with_mix(1, 1, 1)
