"""Cycle-accurate model of the configurable vector core.

Execution is single-issue and in-order with no overlap between instructions,
so the cycle count of a run is exactly the sum of per-instruction analytic
costs.  Vector operations are sequenced in waves of up to K elements across
the K functional units of the relevant class.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

from . import fixedpoint as fx
from .fixedpoint import ArithFlags, Fixed64
from . import isa
from .isa import CLASS_LAT, CLASS_UNITS, Instruction, OpClass, Program

MAX_CYCLES = 10_000_000     # default cycle budget of one run


@dataclass
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
    clock_mhz: float = 100.0   # used only for throughput projection

    def __post_init__(self) -> None:
        if self.vec_len < 1:
            raise ValueError("vec_len must be >= 1")
        if self.mem_port_width is None:
            self.mem_port_width = self.vec_len
        if self.mem_port_width < 1:
            raise ValueError("mem_port_width must be >= 1")
        for name in ("n_add", "n_mul", "n_div", "lat_add", "lat_mul",
                     "lat_div", "issue_cost", "lat_convert"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def with_mix(self, n_add: int, n_mul: int, n_div: int) -> "CoreConfig":
        return replace(self, n_add=n_add, n_mul=n_mul, n_div=n_div)

    @property
    def mix_label(self) -> str:
        return f"{self.n_add}-{self.n_mul}-{self.n_div}"


@dataclass
class MachineState:
    sregs: list[Fixed64]
    vregs: list[list[Fixed64]]
    mem: list[Fixed64]
    pc: int = 0
    flags: ArithFlags = field(default_factory=ArithFlags)
    cycles: int = 0


@dataclass(frozen=True)
class ExecReport:
    total_cycles: int
    instr_count: int
    busy_cycles: dict[OpClass, int]
    utilization: dict[OpClass, float]
    flags: ArithFlags
    memory: list[Fixed64]
    halted: bool
    retired: list[int]      # times each instruction retired, by PC; not reported


class SimulationFault(Exception):
    """Illegal access or control flow during execution."""

    def __init__(self, instr_index: int, message: str):
        super().__init__(f"fault at instruction {instr_index}: {message}")
        self.instr_index = instr_index


class SimulationTimeout(Exception):
    """max_cycles exceeded; .report carries the partial state."""

    def __init__(self, report: ExecReport):
        super().__init__(f"max_cycles exceeded after {report.total_cycles} cycles")
        self.report = report


class ValidationError(Exception):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


def waves(v: int, k: int) -> int:
    """Scheduling rounds to push V elements through K units."""
    if v < 1 or k < 1:
        raise ValueError("waves() requires positive element and unit counts")
    return -(-v // k)


def cost_table(cfg: CoreConfig, ops) -> dict[str, tuple[OpClass, int, int]]:
    """(class, cycles, busy unit-cycles) of each opcode in `ops` under cfg:
    the one analytic cost model of the simulator, the sweep and instr_cost."""
    table = {}
    for op in ops:
        cls = isa.opclass(op)
        vector = isa.is_vector(op)
        if cls is OpClass.CONTROL:
            work = busy = 0
        elif cls is OpClass.CONVERT:
            work = busy = cfg.lat_convert
        elif cls is OpClass.MEM:
            work = busy = waves(cfg.vec_len, cfg.mem_port_width) if vector else 1
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


def opcode_counts(p: Program, retired: list[int]) -> dict[str, int]:
    """Retire counts by PC, summed by opcode."""
    counts: dict[str, int] = {}
    for i, n in zip(p.instructions, retired):
        counts[i.op] = counts.get(i.op, 0) + n
    return counts


def price(counts: dict[str, int], table) -> tuple[int, dict[OpClass, int]]:
    """Total cycles and per-class busy unit-cycles of retiring counts[op]
    instructions of each opcode, priced from a cost table."""
    total = 0
    busy = dict.fromkeys(OpClass, 0)
    for op, n in counts.items():
        cls, cycles, work = table[op]
        total += n * cycles
        busy[cls] += n * work
    return total, busy


def reset(cfg: CoreConfig) -> MachineState:
    return MachineState(
        sregs=[fx.ZERO] * cfg.n_sregs,
        vregs=[[fx.ZERO] * cfg.vec_len for _ in range(cfg.n_vregs)],
        mem=[fx.ZERO] * cfg.dmem_words,
    )


_SCALAR_ALU = {"SADD": fx.fx_add, "SSUB": fx.fx_sub, "SMUL": fx.fx_mul,
               "SDIV": fx.fx_div}
_VECTOR_ALU = {"VADD": fx.fx_add, "VSUB": fx.fx_sub, "VMUL": fx.fx_mul,
               "VDIV": fx.fx_div, "VADDS": fx.fx_add, "VSUBS": fx.fx_sub,
               "VMULS": fx.fx_mul, "VDIVS": fx.fx_div}


def _read_s(state: MachineState, idx: int) -> Fixed64:
    return fx.ZERO if idx == 0 else state.sregs[idx]

def _write_s(state: MachineState, idx: int, value: Fixed64) -> None:
    if idx != 0:                # s0 is a hardwired zero; writes are ignored
        state.sregs[idx] = value


def _convert_f2x(word: Fixed64, flags: ArithFlags) -> Fixed64:
    """Reinterpret the register as an IEEE binary64 pattern and convert."""
    x = struct.unpack("<d", struct.pack("<q", word.raw))[0]
    if x != x:                  # NaN: no meaningful value, flag and zero
        flags.overflow = True
        return fx.ZERO
    if x in (float("inf"), float("-inf")):
        flags.overflow = True
        return fx.MAX if x > 0 else fx.MIN
    return fx.from_real(x, flags)


def _convert_x2f(word: Fixed64) -> Fixed64:
    bits = struct.unpack("<q", struct.pack("<d", fx.to_real(word)))[0]
    return Fixed64(bits)


def run(p: Program, cfg: CoreConfig,
        inputs: list[tuple[int, list[Fixed64]]] | None = None,
        observe: tuple[int, int] | None = None,
        max_cycles: int = MAX_CYCLES) -> ExecReport:
    """Execute a program to HALT and report cycles, utilization and memory."""
    diags = isa.validate(p, cfg)
    if diags:
        raise ValidationError(diags)

    state = reset(cfg)
    for addr, values in list(p.data_init) + list(inputs or []):
        if addr < 0 or addr + len(values) > cfg.dmem_words:
            raise ValidationError([f"initializer at {addr} outside data memory"])
        state.mem[addr:addr + len(values)] = values

    table = cost_table(cfg, {i.op for i in p.instructions})
    pc_cycles = [table[i.op][1] for i in p.instructions]
    retired = [0] * len(p.instructions)
    halted = False
    W = cfg.vec_len

    def report() -> ExecReport:
        _, busy = price(opcode_counts(p, retired), table)
        util = {}
        for cls in OpClass:
            units = getattr(cfg, CLASS_UNITS[cls]) if cls in CLASS_UNITS else 1
            denom = state.cycles * max(units, 1)
            util[cls] = min(1.0, busy[cls] / denom) if denom else 0.0
        lo, length = observe if observe is not None else (0, 0)
        return ExecReport(total_cycles=state.cycles, instr_count=sum(retired),
                          busy_cycles=busy, utilization=util,
                          flags=state.flags.copy(),
                          memory=list(state.mem[lo:lo + length]), halted=halted,
                          retired=retired)

    while True:
        if not (0 <= state.pc < len(p.instructions)):
            raise SimulationFault(state.pc, "program counter out of range "
                                            "(missing HALT?)")
        i = p.instructions[state.pc]
        idx = state.pc
        state.cycles += pc_cycles[idx]
        retired[idx] += 1
        if state.cycles > max_cycles:
            raise SimulationTimeout(report())

        op = i.op
        next_pc = state.pc + 1
        flags = state.flags
        try:
            if op == "HALT":
                halted = True
            elif op == "LDI":
                _write_s(state, i.d, i.imm)
            elif op == "SMOV":
                _write_s(state, i.d, _read_s(state, i.a))
            elif op == "SLD":
                _write_s(state, i.d, state.mem[i.addr])
            elif op == "SST":
                state.mem[i.addr] = _read_s(state, i.a)
            elif op in _SCALAR_ALU:
                _write_s(state, i.d, _SCALAR_ALU[op](
                    _read_s(state, i.a), _read_s(state, i.b), flags))
            elif op == "SADDI":
                _write_s(state, i.d, fx.fx_add(_read_s(state, i.a), i.imm, flags))
            elif op == "SINV":
                _write_s(state, i.d, fx.fx_inv(_read_s(state, i.a), flags))
            elif op == "JMP":
                next_pc = i.target
            elif op == "BZ":
                if _read_s(state, i.a).raw == 0:
                    next_pc = i.target
            elif op == "BNZ":
                if _read_s(state, i.a).raw != 0:
                    next_pc = i.target
            elif op == "F2X":
                _write_s(state, i.d, _convert_f2x(_read_s(state, i.a), flags))
            elif op == "X2F":
                _write_s(state, i.d, _convert_x2f(_read_s(state, i.a)))
            elif op == "VLD":
                state.vregs[i.d] = list(state.mem[i.addr:i.addr + W])
            elif op == "VST":
                state.mem[i.addr:i.addr + W] = state.vregs[i.a]
            elif op == "VMOV":
                state.vregs[i.d] = list(state.vregs[i.a])
            elif op == "VINV":
                state.vregs[i.d] = [fx.fx_inv(x, flags) for x in state.vregs[i.a]]
            elif op in _VECTOR_ALU:
                fn = _VECTOR_ALU[op]
                va = state.vregs[i.a]
                if op.endswith("S"):
                    sb = _read_s(state, i.b)
                    state.vregs[i.d] = [fn(x, sb, flags) for x in va]
                else:
                    vb = state.vregs[i.b]
                    state.vregs[i.d] = [fn(x, y, flags) for x, y in zip(va, vb)]
            else:  # pragma: no cover - table and dispatch kept in sync
                raise SimulationFault(idx, f"unimplemented opcode {op}")
        except IndexError as exc:
            raise SimulationFault(idx, f"memory access out of range ({op})") from exc

        if halted:
            break
        state.pc = next_pc

    return report()
