"""Synthetic benchmark kernel with a fixed per-element operation mix.

`KERNEL` is the one definition of the kernel, and its inputs are read off it.
One emitter compiles it to the vector program and to an unrolled scalar
transcription, a double-precision oracle evaluates it, and the tiled models
in `archmodels` and `resources` read it as is.  Seeded inputs are made here.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from . import fixedpoint as fx
from .core import CoreConfig
from .isa import REAL, Instruction, OpClass, Program, ValidationError, _shown, opclass

# (result, op, operands...) per element, in evaluation order, over the input
# vectors and the scalar constant sk; the last result is stored.
KERNEL = (("t1", "*", "a", "b"), ("t2", "*", "t1", "c"), ("t3", "*", "d", "e"),
          ("t4", "+", "t2", "t3"), ("t5", "*", "t4", "f"), ("t6", "*", "g", "h"),
          ("t7", "+", "t6", "sk"), ("t8", "*", "t5", "t7"), ("t9", "/", "t8", "p"),
          ("t10", "/", "t9", "q"), ("out", "1/", "t10"))

# The input vectors: each operand that is no statement's result, in order of
# first use, except the constant sk.
INPUT_NAMES = tuple(dict.fromkeys(
    x for _, _, *args in KERNEL for x in args
    if x != "sk" and x not in {dest for dest, *_ in KERNEL}))

# op -> (class, mnemonic stem, double-precision function)
OPS = {op: (opclass("S" + stem), stem, fn) for op, stem, fn in (
    ("*", "MUL", operator.mul), ("+", "ADD", operator.add),
    ("/", "DIV", operator.truediv), ("1/", "INV", (1.0).__truediv__))}

INPUT_LO = 0.5
INPUT_HI = 2.0
DIVISOR_BOUND = 0.25
GUARDED = ("p", "q", "t7")    # the oracle rejects inputs where these are small


@dataclass(frozen=True)
class KernelInputs:
    vectors: dict[str, list[float]]   # one entry per INPUT_NAMES, length W
    s_k: float

    @property
    def vec_len(self) -> int:
        return len(self.vectors[INPUT_NAMES[0]])


def default_layout(vec_len: int) -> dict[str, int]:
    """Contiguous W-word regions, W >= 1: inputs in order, then the output."""
    if type(vec_len) not in REAL or not vec_len >= 1:
        raise ValidationError(f"vector length{_shown(' {!r}', vec_len)} must be >= 1")
    return {name: i * vec_len for i, name in enumerate((*INPUT_NAMES, "out"))}


def checked_layout(vec_len: int, dmem_words: int) -> None:
    """ValidationError unless the default layout fits in dmem_words words."""
    end = default_layout(vec_len)["out"] + vec_len
    if type(dmem_words) not in REAL or not end <= dmem_words:
        raise ValidationError(_shown("layout needs {} words, memory has {!r}", end, dmem_words)
                              or "layout needs more words than memory has")


def _allocate(stmts: tuple[tuple[str, ...], ...], first: int) -> dict[str, int]:
    """Linear scan: each result takes the lowest register from `first` up
    that is not live once its operands are read for the last time."""
    last = {}           # name -> index of its last definition or read
    for i, (dest, _, *args) in enumerate(stmts):
        last.update(dict.fromkeys((dest, *args), i))
    regs, live = {}, set()  # live: registers whose value is still to be read
    for i, (dest, _, *args) in enumerate(stmts):
        live.difference_update(regs[x] for x in args if x in regs and last[x] == i)
        regs[dest] = reg = min(set(range(first, first + len(live) + 1)) - live)
        if last[dest] > i:
            live.add(reg)
    return regs


_OUT = KERNEL[-1][0]
_FIRST_DIVISION = next(i for i, (_, op, *_) in enumerate(KERNEL)
                       if OPS[op][0] is OpClass.DIV_CLASS)


def _emit(prefix: str, lanes: range, vec_len: int, s_k: float) -> Program:
    """KERNEL in `prefix` ("V" or "S") mnemonics: the constant's LDI, then, per
    lane offset, the input loads, the statements and the result's store.
    Registers: inputs from v0 (S: s1; s0 is zero), results after them, and
    sk in s1 (S: s15); a V op on sk is vector-scalar."""
    layout = default_layout(vec_len)
    first = int(prefix == "S")
    reg = {**{name: first + i for i, name in enumerate(INPUT_NAMES)},
           "sk": 15 if first else 1,
           **_allocate(KERNEL, first + len(INPUT_NAMES))}
    body = [Instruction(prefix + OPS[op][1] + "S" * (not first and args[-1] == "sk"),
                        reg[dest], *(reg[x] for x in args))
            for dest, op, *args in KERNEL]
    ins = [Instruction("LDI", d=reg["sk"], imm=fx.from_real(s_k))]
    for lane in lanes:
        ins += [Instruction(prefix + "LD", d=reg[name], addr=layout[name] + lane)
                for name in INPUT_NAMES]
        ins += body
        ins.append(Instruction(prefix + "ST", addr=layout["out"] + lane, a=reg[_OUT]))
    ins.append(Instruction("HALT"))
    return Program(instructions=ins)


def emit_program(vec_len: int = CoreConfig.vec_len, s_k: float = 1.0) -> Program:
    """Straight-line vector realization; 24 instructions including the LDI.
    It names no memory size: `isa.validate` decides which cores hold it."""
    return _emit("V", range(1), vec_len, s_k)


def emit_scalar_program(vec_len: int = CoreConfig.vec_len,
                        s_k: float = 1.0) -> Program:
    """Per-element scalar transcription, same operation order within a lane.

    The ISA has no indexed addressing, so the element loop is unrolled into
    22 * W + 2 instructions.  Like `emit_program`, it names no memory size.
    """
    return _emit("S", range(vec_len), vec_len, s_k)


def oracle(inputs: KernelInputs) -> list[float]:
    """Double-precision evaluation of KERNEL, one statement over whole
    columns at a time; inputs with a small GUARDED value or a zero divisor
    are rejected."""
    env = {**inputs.vectors, "sk": [inputs.s_k] * inputs.vec_len}
    for i, (dest, op, *args) in enumerate(KERNEL):
        if i == _FIRST_DIVISION:
            for lane, values in enumerate(zip(*(env[n] for n in GUARDED))):
                for name, divisor in zip(GUARDED, values):
                    if abs(divisor) < DIVISOR_BOUND:
                        raise ValidationError(f"lane {lane}: divisor {name}={divisor} below"
                                              f" bound {DIVISOR_BOUND}; inputs rejected")
        try:
            env[dest] = list(map(OPS[op][2], *(env[x] for x in args)))
        except ZeroDivisionError:
            divisor = env[args[-1]]
            lane = divisor.index(0.0)
            raise ValidationError(f"lane {lane}: divisor {args[-1]}={divisor[lane]} is"
                                  f" zero; inputs rejected") from None
    return env[_OUT]


def generate_inputs(vec_len: int, seed: int) -> KernelInputs:
    """Deterministic well-conditioned inputs, all values in [0.5, 2.0]."""
    rng = random.Random(seed)
    vectors = {name: [rng.uniform(INPUT_LO, INPUT_HI) for _ in range(vec_len)]
               for name in INPUT_NAMES}
    return KernelInputs(vectors=vectors, s_k=rng.uniform(INPUT_LO, INPUT_HI))


def data_initializers(inputs: KernelInputs) -> list[tuple[int, list[int]]]:
    """Memory initializers placing the input vectors, as raw words, at their
    default layout bases."""
    layout = default_layout(inputs.vec_len)
    return [(layout[name], fx.from_reals(inputs.vectors[name]))
            for name in INPUT_NAMES]
