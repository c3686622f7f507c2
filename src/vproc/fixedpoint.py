"""Signed Q32.32 fixed-point arithmetic with saturating, hardware-like semantics.

Values are stored as 64-bit two's-complement integers scaled by 2^32.
Every operation saturates to the representable range instead of wrapping,
and records saturation / zero-divisor events in a sticky flag set, the way
a hardware status register would.  The simulator works on raw words: a lane
with `add`/`sub`/`mul`/`div`, a list with `vadd`/`vsub`/`vmul`/`vdiv`, which
compute the whole list flag-free and map the per-lane function, the one home
of the flag rules, only where flags may be set.  `from_reals` converts
columns of reals, clamping any beyond the word range (an int past the float
range too); `Fixed64`, `from_real` and `fx_*` are the single-value API.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
import math
import operator

FRAC_BITS = 32
WORD_BITS = 64
SCALE = 1 << FRAC_BITS

RAW_MIN = -(1 << (WORD_BITS - 1))
RAW_MAX = (1 << (WORD_BITS - 1)) - 1

# Every real in [REAL_LO, REAL_HI) converts to a word without saturating.
REAL_LO = RAW_MIN / SCALE
REAL_HI = -REAL_LO


@dataclass
class ArithFlags:
    """Sticky arithmetic status flags."""

    overflow: bool = False
    div_by_zero: bool = False


@dataclass(frozen=True)
class Fixed64:
    """A Q32.32 scalar: value = raw / 2^32."""

    raw: int

    def __post_init__(self) -> None:
        if not isinstance(self.raw, int):
            raise TypeError(f"raw value {self.raw!r} is not an int")
        if not (RAW_MIN <= self.raw <= RAW_MAX):
            raise ValueError(f"raw value {self.raw:#x} outside 64-bit range")


ZERO = Fixed64(0)
ONE = Fixed64(SCALE)


def saturate(raw: int, flags: ArithFlags | None = None) -> int:
    """Clamp an exact result to the word range; clamping sets overflow."""
    if RAW_MIN <= raw <= RAW_MAX:
        return raw
    if flags is not None:
        flags.overflow = True
    return RAW_MAX if raw > 0 else RAW_MIN


def add(a: int, b: int, flags: ArithFlags | None = None) -> int:
    return saturate(a + b, flags)


def sub(a: int, b: int, flags: ArithFlags | None = None) -> int:
    return saturate(a - b, flags)


def mul(a: int, b: int, flags: ArithFlags | None = None) -> int:
    # Full 128-bit product, arithmetic right shift: floor rounding.
    return saturate((a * b) >> FRAC_BITS, flags)


def div(a: int, b: int, flags: ArithFlags | None = None) -> int:
    """Quotient with truncation toward zero; zero divisor saturates."""
    if b == 0:
        if flags is not None:
            flags.div_by_zero = True
        return RAW_MAX if a >= 0 else RAW_MIN
    num = a << FRAC_BITS
    q = abs(num) // abs(b)
    if (num < 0) != (b < 0):
        q = -q
    return saturate(q, flags)


def _checked(words: list[int], lane, xs, ys, flags) -> list[int]:
    """`words` if every one is in range; else `lane` over the lanes, with flags."""
    if RAW_MIN <= min(words, default=0) and max(words, default=0) <= RAW_MAX:
        return words
    return list(map(lane, xs, ys, repeat(flags)))


def vadd(xs: list[int], ys: list[int], flags: ArithFlags | None = None) -> list[int]:
    return _checked(list(map(operator.add, xs, ys)), add, xs, ys, flags)


def vsub(xs: list[int], ys: list[int], flags: ArithFlags | None = None) -> list[int]:
    return _checked(list(map(operator.sub, xs, ys)), sub, xs, ys, flags)


def vmul(xs: list[int], ys: list[int], flags: ArithFlags | None = None) -> list[int]:
    return _checked([(x * y) >> FRAC_BITS for x, y in zip(xs, ys)], mul, xs, ys, flags)


def vdiv(xs: list[int], ys: list[int], flags: ArithFlags | None = None) -> list[int]:
    # With every x >= 0 and y > 0, floor division truncates and no divisor is 0.
    if min(xs, default=0) >= 0 and min(ys, default=1) > 0:
        return _checked([(x << FRAC_BITS) // y for x, y in zip(xs, ys)], div, xs, ys, flags)
    return list(map(div, xs, ys, repeat(flags)))


def from_reals(xs: Sequence[float], flags: ArithFlags | None = None) -> list[int]:
    """Raw words of a column of finite reals: nearest Q32.32 value, ties to
    even.

    Out-of-range inputs (ints past the float range too) clamp to the nearest
    bound; only they set overflow.  The first non-finite input raises.
    """
    scale = float(SCALE)
    # min and max skip a NaN that is not first; the sum does not.  Scaling by
    # 2^32 is exact; float.__round__ rounds ties-to-even.  No word saturates:
    # the largest double below 2^31 scales to 2^63 - 2^10.
    if xs and REAL_LO <= min(xs) and max(xs) < REAL_HI and not math.isnan(sum(xs)):
        return list(map(float.__round__, map(operator.mul, xs, repeat(scale))))
    if bad := [x for x in xs if not -math.inf < x < math.inf]:
        raise ValueError(f"cannot convert non-finite value {bad[0]!r}")
    # Every real beyond 2^32 saturates: clamping to it keeps the scaling exact.
    return [saturate(round(min(max(x, -scale), scale) * SCALE), flags) for x in xs]


def from_real(x: float, flags: ArithFlags | None = None) -> Fixed64:
    """Convert one finite real to the nearest Q32.32 value (see from_reals)."""
    return Fixed64(from_reals([x], flags)[0])


def to_real(a: Fixed64) -> float:
    """Nearest double to raw / 2^32 (may round: Q32.32 has 63 value bits)."""
    return a.raw / SCALE


def fx_add(a: Fixed64, b: Fixed64, flags: ArithFlags | None = None) -> Fixed64:
    return Fixed64(add(a.raw, b.raw, flags))


def fx_sub(a: Fixed64, b: Fixed64, flags: ArithFlags | None = None) -> Fixed64:
    return Fixed64(sub(a.raw, b.raw, flags))


def fx_mul(a: Fixed64, b: Fixed64, flags: ArithFlags | None = None) -> Fixed64:
    return Fixed64(mul(a.raw, b.raw, flags))


def fx_div(a: Fixed64, b: Fixed64, flags: ArithFlags | None = None) -> Fixed64:
    return Fixed64(div(a.raw, b.raw, flags))
