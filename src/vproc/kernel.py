"""Synthetic benchmark kernel with a fixed per-element operation mix.

Per element: 6 multiplications, 2 additions, 2 divisions and 1 inversion
over ten input vectors and one scalar constant:

    t1 = a*b;  t2 = t1*c;  t3 = d*e;   t4 = t2+t3;  t5 = t4*f
    t6 = g*h;  t7 = t6+sk; t8 = t5*t7; t9 = t8/p;   t10 = t9/q
    out = 1/t10

The module emits the vector program, an unrolled scalar transcription, the
dataflow graph for the tiled model, a double-precision oracle and seeded
well-conditioned inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import fixedpoint as fx
from .archmodels import DataflowKernel
from .core import CoreConfig
from .isa import Instruction, OpClass, Program

INPUT_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h", "p", "q")

INPUT_LO = 0.5
INPUT_HI = 2.0
DIVISOR_BOUND = 0.25


@dataclass(frozen=True)
class KernelInputs:
    vectors: dict[str, list[float]]   # one entry per INPUT_NAMES, length W
    s_k: float

    @property
    def vec_len(self) -> int:
        return len(self.vectors[INPUT_NAMES[0]])


class LayoutError(Exception):
    pass


def default_layout(vec_len: int) -> dict[str, int]:
    """Contiguous W-word regions: inputs in order, then the output."""
    layout = {name: i * vec_len for i, name in enumerate(INPUT_NAMES)}
    layout["out"] = len(INPUT_NAMES) * vec_len
    return layout


def _check_layout(layout: dict[str, int], vec_len: int,
                  dmem_words: int) -> None:
    if vec_len < 1:
        raise LayoutError(f"vector length {vec_len} must be >= 1")
    regions = sorted((layout[name], name) for name in list(INPUT_NAMES) + ["out"])
    prev_end = 0
    for base, name in regions:
        if base < prev_end:
            raise LayoutError(f"region '{name}' at {base} overlaps the previous one")
        prev_end = base + vec_len
    if prev_end > dmem_words:
        raise LayoutError(f"layout needs {prev_end} words, memory has {dmem_words}")


def emit_program(vec_len: int = 24, layout: dict[str, int] | None = None,
                 s_k: float = 1.0,
                 dmem_words: int = CoreConfig.dmem_words) -> Program:
    """Straight-line vector realization; 24 instructions including the LDI."""
    layout = layout if layout is not None else default_layout(vec_len)
    _check_layout(layout, vec_len, dmem_words)
    ins: list[Instruction] = [Instruction("LDI", d=1, imm=fx.from_real(s_k))]
    for i, name in enumerate(INPUT_NAMES):
        ins.append(Instruction("VLD", d=i, addr=layout[name]))
    # v0..v9 = a..q, v10/v11 are temporaries, s1 holds the constant.
    ins += [
        Instruction("VMUL", d=10, a=0, b=1),    # t1 = a*b
        Instruction("VMUL", d=10, a=10, b=2),   # t2 = t1*c
        Instruction("VMUL", d=11, a=3, b=4),    # t3 = d*e
        Instruction("VADD", d=10, a=10, b=11),  # t4 = t2+t3
        Instruction("VMUL", d=10, a=10, b=5),   # t5 = t4*f
        Instruction("VMUL", d=11, a=6, b=7),    # t6 = g*h
        Instruction("VADDS", d=11, a=11, b=1),  # t7 = t6+sk
        Instruction("VMUL", d=10, a=10, b=11),  # t8 = t5*t7
        Instruction("VDIV", d=10, a=10, b=8),   # t9 = t8/p
        Instruction("VDIV", d=10, a=10, b=9),   # t10 = t9/q
        Instruction("VINV", d=10, a=10),        # out = 1/t10
        Instruction("VST", addr=layout["out"], a=10),
        Instruction("HALT"),
    ]
    return Program(instructions=ins)


def emit_scalar_program(vec_len: int = 24, layout: dict[str, int] | None = None,
                        s_k: float = 1.0) -> Program:
    """Per-element scalar transcription, same operation order within a lane.

    The ISA has no indexed addressing, so the element loop is fully
    unrolled; the static instruction count grows linearly in W.
    """
    layout = layout if layout is not None else default_layout(vec_len)
    _check_layout(layout, vec_len, CoreConfig.dmem_words)
    ins: list[Instruction] = [Instruction("LDI", d=15, imm=fx.from_real(s_k))]
    for lane in range(vec_len):
        for i, name in enumerate(INPUT_NAMES):
            ins.append(Instruction("SLD", d=1 + i, addr=layout[name] + lane))
        # s1..s10 = a..q, s11/s12 temporaries, s15 holds the constant.
        ins += [
            Instruction("SMUL", d=11, a=1, b=2),
            Instruction("SMUL", d=11, a=11, b=3),
            Instruction("SMUL", d=12, a=4, b=5),
            Instruction("SADD", d=11, a=11, b=12),
            Instruction("SMUL", d=11, a=11, b=6),
            Instruction("SMUL", d=12, a=7, b=8),
            Instruction("SADD", d=12, a=12, b=15),
            Instruction("SMUL", d=11, a=11, b=12),
            Instruction("SDIV", d=11, a=11, b=9),
            Instruction("SDIV", d=11, a=11, b=10),
            Instruction("SINV", d=11, a=11),
            Instruction("SST", addr=layout["out"] + lane, a=11),
        ]
    ins.append(Instruction("HALT"))
    return Program(instructions=ins)


def dataflow_graph(replication: int = 24) -> DataflowKernel:
    """Per-iteration expression DAG for the tiled architecture model."""
    MUL, ADD, DIV = OpClass.MUL_CLASS, OpClass.ADD_CLASS, OpClass.DIV_CLASS
    nodes = [("t1", MUL), ("t2", MUL), ("t3", MUL), ("t4", ADD), ("t5", MUL),
             ("t6", MUL), ("t7", ADD), ("t8", MUL), ("t9", DIV), ("t10", DIV),
             ("out", DIV)]
    edges = [("t1", "t2"), ("t2", "t4"), ("t3", "t4"), ("t4", "t5"),
             ("t5", "t8"), ("t6", "t7"), ("t7", "t8"), ("t8", "t9"),
             ("t9", "t10"), ("t10", "out")]
    return DataflowKernel(nodes=nodes, edges=edges, replication=replication)


def oracle(inputs: KernelInputs) -> list[float]:
    """Elementwise double-precision evaluation of the kernel expression."""
    v = inputs.vectors
    out = []
    for i in range(inputs.vec_len):
        a, b, c, d, e = v["a"][i], v["b"][i], v["c"][i], v["d"][i], v["e"][i]
        f, g, h, p, q = v["f"][i], v["g"][i], v["h"][i], v["p"][i], v["q"][i]
        t7 = g * h + inputs.s_k
        for name, divisor in (("p", p), ("q", q), ("t7", t7)):
            if abs(divisor) < DIVISOR_BOUND:
                raise ValueError(
                    f"lane {i}: divisor {name}={divisor} below bound "
                    f"{DIVISOR_BOUND}; inputs rejected")
        t5 = (a * b * c + d * e) * f
        out.append(1.0 / (t5 * t7 / p / q))
    return out


def generate_inputs(vec_len: int, seed: int) -> KernelInputs:
    """Deterministic well-conditioned inputs, all values in [0.5, 2.0]."""
    rng = random.Random(seed)
    vectors = {name: [rng.uniform(INPUT_LO, INPUT_HI) for _ in range(vec_len)]
               for name in INPUT_NAMES}
    return KernelInputs(vectors=vectors, s_k=rng.uniform(INPUT_LO, INPUT_HI))


def data_initializers(inputs: KernelInputs,
                      layout: dict[str, int] | None = None
                      ) -> list[tuple[int, list[int]]]:
    """Memory initializers placing the input vectors, as raw words, at their
    layout bases."""
    layout = layout if layout is not None else default_layout(inputs.vec_len)
    return [(layout[name], fx.from_reals(inputs.vectors[name]))
            for name in INPUT_NAMES]
