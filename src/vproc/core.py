"""Cycle-accurate model of the configurable vector core.

Execution is single-issue and in-order with no overlap between instructions,
so the cycle count of a run is exactly the sum of per-instruction analytic
costs.  Vector operations are sequenced in waves of up to K elements across
the K functional units of the relevant class.  A vector op computes the
whole register at once (`fixedpoint.vadd`, ...), lane by lane only where
flags may be set.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

from . import fixedpoint as fx
from .fixedpoint import ArithFlags, Fixed64
from . import isa
from .isa import (CLASS_LAT, CLASS_UNITS, REAL, Instruction, OpClass, Program,
                  ValidationError)

MAX_CYCLES = 10_000_000     # default cycle budget of one run
MAX_STATE_WORDS = 1 << 20   # bound on dmem_words + n_vregs * vec_len + n_sregs
_INT_LEAST = {"vec_len": 1, "mem_port_width": 1, **dict.fromkeys((
    "n_add", "n_mul", "n_div", "lat_add", "lat_mul", "lat_div", "issue_cost",
    "lat_convert", "n_sregs", "n_vregs"), 0), "dmem_words": 1}


@dataclass(frozen=True)
class CoreConfig:
    """Compile-time parameters of one core instance."""

    vec_len: int = 24          # lanes per vector register
    n_vregs: int = 16
    n_sregs: int = 16
    n_add: int = 8             # functional units per class
    n_mul: int = 8
    n_div: int = 8
    lat_add: int = 1           # cycles per wave, combinational-registered
    lat_mul: int = 1
    lat_div: int = 64          # sequential divider: one quotient bit/cycle
    issue_cost: int = 2        # fetch + decode per instruction
    mem_port_width: int | None = None   # lanes per memory wave; None = vec_len
    enable_converter: bool = True
    lat_convert: int = 2
    dmem_words: int = 4096
    clock_mhz: float = 100.0   # read by no model; default of `vproc project --clock`

    def __post_init__(self) -> None:
        for name, least in _INT_LEAST.items():
            if type(value := getattr(self, name)) is not int or value < least:
                if value is None and name == "mem_port_width":
                    continue
                raise ValidationError(f"{name} must be >= {least}" + (
                    "" if type(value) is int else isa._shown(", got {!r}", value) + ": not an int"))
        if type(converter := self.enable_converter) is not bool:
            raise ValidationError(f"enable_converter must be a bool"
                                  f"{isa._shown(', got {!r}', converter)}")
        if self.dmem_words + self.n_vregs * self.vec_len + self.n_sregs > MAX_STATE_WORDS:
            raise ValidationError(f"dmem_words + n_vregs * vec_len + n_sregs must "
                                  f"be <= {MAX_STATE_WORDS} words")
        if type(clock := self.clock_mhz) not in REAL or not 0 < clock < math.inf:
            raise ValidationError(f"clock_mhz must be finite and > 0{isa._shown(', got {!r}', clock)}"
                                  + ("" if type(clock) in REAL else ": not an int or float"))

    def with_mix(self, n_add: int, n_mul: int, n_div: int) -> "CoreConfig":
        new = object.__new__(type(self))    # dataclasses.replace at a third of its cost
        vars(new).update(vars(self), n_add=n_add, n_mul=n_mul, n_div=n_div)
        new.__post_init__()                 # the checks of __init__
        return new

    @property
    def mix(self) -> tuple[int, int, int]:
        return self.n_add, self.n_mul, self.n_div


@dataclass(frozen=True)
class ExecReport:
    total_cycles: int
    instr_count: int
    busy_cycles: dict[OpClass, int]
    utilization: dict[OpClass, float]
    flags: ArithFlags
    memory: list[Fixed64]
    counts: dict[str, int]  # times each opcode retired; not reported


class SimulationFault(Exception):
    """Control flow leaving the program, or a vector span resizing memory."""

    def __init__(self, instr_index: int, message: str):
        super().__init__(f"fault at instruction {instr_index}: {message}")


class SimulationTimeout(Exception):
    """max_cycles exceeded; .report carries the partial state."""

    def __init__(self, report: ExecReport):
        super().__init__("max_cycles exceeded"
                         + isa._shown(" after {} cycles", report.total_cycles))
        self.report = report


def waves(v: int, k: int) -> int:
    """Scheduling rounds to push V elements through K units."""
    if not (type(v) in REAL and type(k) in REAL and v >= 1 and k >= 1):
        raise ValidationError("waves() requires positive element and unit counts")
    return -(-v // k)


def cost_table(cfg: CoreConfig, ops) -> dict[str, tuple[OpClass, int, int]]:
    """(class, cycles, busy unit-cycles) of each opcode in `ops` under cfg:
    the one analytic cost model of the simulator, the sweep and instr_cost."""
    table = {}
    port = cfg.vec_len if cfg.mem_port_width is None else cfg.mem_port_width
    for op in ops:
        cls = isa.opclass(op)
        vector = isa.is_vector(op)
        if cls is OpClass.CONTROL:
            work = busy = 0
        elif cls is OpClass.CONVERT:
            work = busy = cfg.lat_convert
        elif cls is OpClass.MEM:
            work = busy = waves(cfg.vec_len, port) if vector else 1
        else:
            lat = getattr(cfg, CLASS_LAT[cls])
            if vector:
                units = getattr(cfg, CLASS_UNITS[cls])
                work, busy = waves(cfg.vec_len, units) * lat, cfg.vec_len * lat
            else:
                work = busy = lat
        table[op] = (cls, cfg.issue_cost + work, busy)
    return table


def instr_cost(i: Instruction, cfg: CoreConfig) -> int:
    """Analytic cycle cost of one instruction under a configuration."""
    return cost_table(cfg, (i.op,))[i.op][1]


def _convert_f2x(word: int, flags: ArithFlags) -> int:
    """Reinterpret the register as an IEEE binary64 pattern and convert."""
    x = struct.unpack("<d", struct.pack("<q", word))[0]
    if x != x:                  # NaN: no meaningful value, flag and zero
        flags.overflow = True
        return 0
    if math.isinf(x):           # out of range: from_reals saturates and flags
        x = math.copysign(fx.SCALE, x)
    return fx.from_reals([x], flags)[0]


# Ops that write a register from registers, keyed by their first four letters
# -> (function of words, or of register lists giving a new list; operand shape
# after the destination: "ss", "si", "vv", "vs", or unary "s", "v": f(x, flags)).
_FUNCS = {"SADD": fx.add, "SSUB": fx.sub, "SMUL": fx.mul, "SDIV": fx.div,
          "SMOV": lambda x, flags: x, "SINV": lambda x, flags: fx.div(fx.SCALE, x, flags),
          "VADD": fx.vadd, "VSUB": fx.vsub, "VMUL": fx.vmul, "VDIV": fx.vdiv,
          "VMOV": lambda xs, flags: xs[:], "F2X": _convert_f2x,
          "VINV": lambda xs, flags: fx.vdiv([fx.SCALE] * len(xs), xs, flags),
          "X2F": lambda x, flags: struct.unpack("<q", struct.pack("<d", x / fx.SCALE))[0]}
_ALU = {op: (_FUNCS[op[:4]], "".join(kind[0] for kind in sig[1:]))
        for op, (_, sig) in isa.OPCODES.items() if op[:4] in _FUNCS}


def run(p: Program, cfg: CoreConfig,
        inputs: list[tuple[int, list[int]]] | None = None,
        observe: tuple[int, int] | None = None,
        max_cycles: int = MAX_CYCLES) -> ExecReport:
    """Execute a program to HALT and report cycles, utilization, memory and
    per-opcode retire counts.  Times out past max_cycles cycles, or when one
    branch retires more than max_cycles times: every loop retires a branch on
    each pass, so this also ends loops of zero-cost instructions.  One
    ValidationError names every bad input before the run starts.

    `Fixed64` carries single values a user reads or writes: the program's
    immediates and `.data` values, and the observed `ExecReport.memory`.
    Memory images passed to the simulator are raw words: each of `inputs`
    is (base address, list of raw Q32.32 ints), as `kernel.data_initializers`
    and `fixedpoint.from_reals` produce them."""
    diags = isa.validate(p, cfg)
    lo, length = (observe if isinstance(observe, tuple | list) and len(observe) == 2
                  else (0, 0) if observe is None else (None, None))
    if not (isinstance(lo, int) and isinstance(length, int)):
        diags.append(f"observe range{isa._shown(' {!r}', observe)} is not two ints")
    elif not 0 <= lo <= lo + length <= cfg.dmem_words:
        diags.append("observe range" + isa._shown(" '{}:{}'", lo, length)
                     + f" outside data memory of {cfg.dmem_words} words")
    if not isinstance(max_cycles, int):
        diags.append(f"max_cycles{isa._shown(' {!r}', max_cycles)} is not an int")
    if not isinstance(inputs, tuple | list | None):
        diags.append(f"inputs{isa._shown(' {!r}', inputs)} is not a list of (address, words) pairs")
    for entry in inputs if isinstance(inputs, tuple | list) else ():
        if not (isinstance(entry, tuple | list) and len(entry) == 2):
            diags.append(f"initializer{isa._shown(' {!r}', entry)} is not an (address, words) pair")
            continue
        addr, words = entry
        if not isinstance(addr, int):
            diags.append(f"initializer{isa._shown(' at {!r}', addr)}: address is not an int")
        elif not isinstance(words, list | tuple):
            diags.append(f"initializer{isa._shown(' at {}', addr)}: words are not a list or tuple")
        elif addr < 0 or addr + len(words) > cfg.dmem_words:
            diags.append(f"initializer{isa._shown(' at {}', addr)} outside data memory")
    if diags:
        raise ValidationError(*diags)

    W = cfg.vec_len
    # s0, the hardwired zero, is held even when no scalar register is
    # addressable (n_sregs = 0), because the loop re-zeroes it every step.
    s = [0] * max(cfg.n_sregs, 1)
    v = [[0] * W for _ in range(cfg.n_vregs)]
    mem = [0] * cfg.dmem_words
    flags = ArithFlags()
    data_init = [(addr, [w.raw for w in values]) for addr, values in p.data_init]
    for addr, words in [*data_init, *(inputs or ())]:
        mem[addr:addr + len(words)] = words

    ops = list(map(operator.itemgetter(0), p.instructions))
    table = cost_table(cfg, dict.fromkeys(ops))     # ops in order of first use
    # An end marker (an op no table knows) spares the loop a pc range test.
    code = [*p.instructions, Instruction("")]
    pc_cycles = [*map({op: c for op, (_, c, _) in table.items()}.__getitem__, ops), 0]
    retired = [0] * len(code)

    def report(cycles: int, pc: int) -> ExecReport:
        if len(mem) != cfg.dmem_words:      # isa.validate keeps vector spans in memory
            raise SimulationFault(pc, f"a vector span resized data memory to {len(mem)} words")
        counts = dict.fromkeys(table, 0)
        for op, n in zip(ops, retired):
            counts[op] += n
        busy = dict.fromkeys(OpClass, 0)
        for op, n in counts.items():
            busy[table[op][0]] += n * table[op][2]
        util = {}
        for cls in OpClass:
            denom = cycles * (getattr(cfg, CLASS_UNITS[cls]) if cls in CLASS_UNITS else 1)
            util[cls] = busy[cls] / denom if denom else 0.0
        return ExecReport(total_cycles=cycles, instr_count=sum(counts.values()),
                          busy_cycles=busy, utilization=util, flags=flags,
                          memory=[Fixed64(w) for w in mem[lo:lo + length]],
                          counts=counts)

    pc = cycles = 0
    while True:
        op, d, a, b, imm, addr, target = code[pc]
        cycles += pc_cycles[pc]
        retired[pc] += 1
        if cycles > max_cycles:
            raise SimulationTimeout(report(cycles, pc))

        next_pc = pc + 1
        if op in _ALU:
            fn, shape = _ALU[op]
            if shape == "vv":
                v[d] = fn(v[a], v[b], flags)
            elif shape == "vs":
                v[d] = fn(v[a], [s[b]] * W, flags)
            elif shape == "v":
                v[d] = fn(v[a], flags)
            elif shape == "ss":
                s[d] = fn(s[a], s[b], flags)
            elif shape == "si":
                s[d] = fn(s[a], imm.raw, flags)
            else:
                s[d] = fn(s[a], flags)
        elif op == "SLD":
            s[d] = mem[addr]
        elif op == "SST":
            mem[addr] = s[a]
        elif op == "LDI":
            s[d] = imm.raw
        elif op == "VLD":
            v[d] = mem[addr:addr + W]
        elif op == "VST":
            mem[addr:addr + W] = v[a]
        elif op in ("JMP", "BZ", "BNZ"):
            if retired[pc] > max_cycles:
                raise SimulationTimeout(report(cycles, pc))
            if op == "JMP" or (s[a] == 0) == (op == "BZ"):
                next_pc = target
        elif op == "HALT":
            break
        else:                   # the end marker
            raise SimulationFault(pc, "program counter out of range (missing HALT?)")
        s[0] = 0                # s0 is a hardwired zero; writes are ignored
        pc = next_pc

    return report(cycles, pc)
