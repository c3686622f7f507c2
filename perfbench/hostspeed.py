"""Host-speed normalisation of measured times.

The CPU speed of a small shared host drifts by up to 1.6x over seconds to
minutes, while CPU time tracks wall time, so the cause is the processor's
speed and not time stolen from the process.  Raw host seconds of two runs
minutes apart therefore differ by more than any useful regression bound.

The benchmark times a fixed piece of pure-Python work, `reference_work`,
between consecutive jobs, around every set-up pass and around every
microbenchmark repeat.  A measured interval
is multiplied by REF_S / (the reference time just before and after it),
giving seconds on a host whose reference work takes exactly REF_S.  Speed
changes within a second, so only the adjacent samples follow it; a wider
window of samples leaves the tail of job times twice as noisy.  This work
is part of the benchmark and never vproc code, so a change to vproc cannot
move it.
"""

from __future__ import annotations

import time

#: Reference speed: reference_work() takes this many seconds.
REF_S = 1e-3
#: Reference samples on each side of a set-up pass.
SAMPLES = 20

#: Rounds of reference_work(): about REF_S on a fast spell of a 2-vCPU Xeon VM.
ROUNDS = 28
_MASK = (1 << 48) - 1
_TABLE = {"VMUL": 3, "v10": 10, "v11": 11}


class _Word:
    __slots__ = ("raw",)

    def __init__(self, raw: int) -> None:
        self.raw = raw


def _mul(a: _Word, b: _Word) -> _Word:
    return _Word((((a.raw | 1) * (b.raw | 1)) >> 16) & _MASK)


def reference_work() -> int:
    """Fixed work in the simulator's style: small-object allocation, calls,
    wide integer products, dict lookups and string splitting."""
    words = [_Word((i * 2654435761) & _MASK) for i in range(64)]
    acc = 0
    for _ in range(ROUNDS):
        words = [_mul(a, b) for a, b in zip(words, words[1:] + words[:1])]
        for tok in "VMUL v10, v10, v11".replace(",", " ").split():
            acc += _TABLE.get(tok, 1)
    return acc + words[0].raw


def reference_s() -> float:
    """Host seconds of one reference_work() call, now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Scale from host seconds to reference seconds for these samples.

    The median is taken by hand: setup_pass.py loads this module before its
    clock starts, and `statistics` would preload modules that vproc needs.
    """
    ordered = sorted(samples)
    mid = len(ordered) // 2
    return 2 * REF_S / (ordered[mid] + ordered[~mid])
