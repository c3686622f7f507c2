"""Scalar + vector instruction set: definitions, assembler, disassembler, validator.

Code memory holds structured instruction records; the line-oriented assembly
text is the interchange format.  Scalar register s0 is a hardwired zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import fixedpoint as fx
from .fixedpoint import Fixed64


class OpClass(Enum):
    ADD_CLASS = "add"
    MUL_CLASS = "mul"
    DIV_CLASS = "div"
    MEM = "mem"
    CONTROL = "control"
    CONVERT = "convert"


# mnemonic -> (class, operand signature)
# Operand kinds: sd/sa/sb scalar regs, vd/va/vb vector regs, imm, addr, label.
OPCODES: dict[str, tuple[OpClass, tuple[str, ...]]] = {
    # scalar
    "LDI": (OpClass.CONTROL, ("sd", "imm")),
    "SMOV": (OpClass.CONTROL, ("sd", "sa")),
    "SLD": (OpClass.MEM, ("sd", "addr")),
    "SST": (OpClass.MEM, ("addr", "sa")),
    "SADD": (OpClass.ADD_CLASS, ("sd", "sa", "sb")),
    "SSUB": (OpClass.ADD_CLASS, ("sd", "sa", "sb")),
    "SADDI": (OpClass.ADD_CLASS, ("sd", "sa", "imm")),
    "SMUL": (OpClass.MUL_CLASS, ("sd", "sa", "sb")),
    "SDIV": (OpClass.DIV_CLASS, ("sd", "sa", "sb")),
    "SINV": (OpClass.DIV_CLASS, ("sd", "sa")),
    # control
    "JMP": (OpClass.CONTROL, ("label",)),
    "BZ": (OpClass.CONTROL, ("sa", "label")),
    "BNZ": (OpClass.CONTROL, ("sa", "label")),
    "HALT": (OpClass.CONTROL, ()),
    # conversion (legal only with the converter enabled)
    "F2X": (OpClass.CONVERT, ("sd", "sa")),
    "X2F": (OpClass.CONVERT, ("sd", "sa")),
    # vector
    "VLD": (OpClass.MEM, ("vd", "addr")),
    "VST": (OpClass.MEM, ("addr", "va")),
    "VMOV": (OpClass.CONTROL, ("vd", "va")),
    "VADD": (OpClass.ADD_CLASS, ("vd", "va", "vb")),
    "VSUB": (OpClass.ADD_CLASS, ("vd", "va", "vb")),
    "VADDS": (OpClass.ADD_CLASS, ("vd", "va", "sb")),
    "VSUBS": (OpClass.ADD_CLASS, ("vd", "va", "sb")),
    "VMUL": (OpClass.MUL_CLASS, ("vd", "va", "vb")),
    "VMULS": (OpClass.MUL_CLASS, ("vd", "va", "sb")),
    "VDIV": (OpClass.DIV_CLASS, ("vd", "va", "vb")),
    "VDIVS": (OpClass.DIV_CLASS, ("vd", "va", "sb")),
    "VINV": (OpClass.DIV_CLASS, ("vd", "va")),
}

# Configuration fields holding each arithmetic class's unit count and latency;
# read by the validator, the cost model and the analytic architecture models.
CLASS_UNITS = {OpClass.ADD_CLASS: "n_add", OpClass.MUL_CLASS: "n_mul",
               OpClass.DIV_CLASS: "n_div"}
CLASS_LAT = {OpClass.ADD_CLASS: "lat_add", OpClass.MUL_CLASS: "lat_mul",
             OpClass.DIV_CLASS: "lat_div"}

VECTOR_OPS = frozenset(m for m, (_, sig) in OPCODES.items()
                       if any(k.startswith("v") for k in sig))


def opclass(mnemonic: str) -> OpClass:
    return OPCODES[mnemonic][0]


def is_vector(mnemonic: str) -> bool:
    return mnemonic in VECTOR_OPS


@dataclass(frozen=True)
class Instruction:
    op: str
    d: int | None = None       # destination register index
    a: int | None = None       # first source register index
    b: int | None = None       # second source register index
    imm: Fixed64 | None = None
    addr: int | None = None
    target: int | None = None  # resolved branch target (instruction index)


@dataclass
class Program:
    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data_init: list[tuple[int, list[Fixed64]]] = field(default_factory=list)

    def __eq__(self, other: object) -> bool:
        # Structural equality: label *names* are presentation only.
        if not isinstance(other, Program):
            return NotImplemented
        return (self.instructions == other.instructions
                and self.data_init == other.data_init)


class AssemblyError(Exception):
    """Raised when assembly fails; .diagnostics lists every message."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


def _parse_value(token: str) -> Fixed64:
    """Immediate / data value: decimal real, or 0x-prefixed raw 64-bit word."""
    t = token.lower()
    if t.startswith("0x"):
        raw = int(t, 16)
        if raw > fx.RAW_MAX:        # two's-complement reinterpretation
            raw -= 1 << fx.WORD_BITS
        return Fixed64(raw)
    return fx.from_real(float(token))


def _strip(line: str) -> str:
    return line.split(";", 1)[0].strip()


def assemble(source_text: str) -> Program:
    """Two-pass assembly: pass 1 collects labels, pass 2 encodes."""
    diagnostics: list[str] = []
    labels: dict[str, int] = {}
    # (lineno, mnemonic, operand tokens) or (lineno, ".data", tokens)
    stmts: list[tuple[int, str, list[str]]] = []

    index = 0
    for lineno, raw_line in enumerate(source_text.splitlines(), start=1):
        line = _strip(raw_line)
        if not line:
            continue
        while ":" in line.split()[0] or (line and line.split()[0].endswith(":")):
            head, _, rest = line.partition(":")
            name = head.strip()
            if not name.isidentifier():
                diagnostics.append(f"malformed label '{name}' at line {lineno}")
                line = rest.strip()
                continue
            if name in labels:
                diagnostics.append(f"duplicate label '{name}' at line {lineno}")
            labels[name] = index
            line = rest.strip()
            if not line:
                break
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0]
        operand_text = parts[1] if len(parts) > 1 else ""
        if mnemonic == ".data":
            stmts.append((lineno, ".data", operand_text.split()))
            continue
        operands = [t.strip() for t in operand_text.split(",")] if operand_text else []
        stmts.append((lineno, mnemonic.upper(), operands))
        index += 1

    program = Program(labels=labels)
    for lineno, mnemonic, operands in stmts:
        if mnemonic == ".data":
            try:
                addr = int(operands[0])
                values = [_parse_value(t) for t in operands[1:]]
            except (ValueError, IndexError):
                diagnostics.append(f"malformed .data directive at line {lineno}")
                continue
            program.data_init.append((addr, values))
            continue
        if mnemonic not in OPCODES:
            diagnostics.append(f"unknown mnemonic '{mnemonic}' at line {lineno}")
            continue
        _, signature = OPCODES[mnemonic]
        if len(operands) != len(signature):
            diagnostics.append(
                f"{mnemonic} expects {len(signature)} operand(s), "
                f"got {len(operands)} at line {lineno}")
            continue
        fields: dict[str, object] = {}
        ok = True
        for kind, token in zip(signature, operands):
            try:
                if kind in ("sd", "sa", "sb", "vd", "va", "vb"):
                    want = kind[0]
                    if len(token) < 2 or token[0].lower() != want or not token[1:].isdigit():
                        raise ValueError
                    fields[kind[1]] = int(token[1:])
                elif kind == "imm":
                    fields["imm"] = _parse_value(token)
                elif kind == "addr":
                    if not (token.startswith("[") and token.endswith("]")):
                        raise ValueError
                    fields["addr"] = int(token[1:-1])
                elif kind == "label":
                    if token not in labels:
                        diagnostics.append(
                            f"unresolved label '{token}' at line {lineno}")
                        ok = False
                        break
                    fields["target"] = labels[token]
            except ValueError:
                diagnostics.append(
                    f"malformed operand '{token}' for {mnemonic} at line {lineno}")
                ok = False
                break
        if ok:
            program.instructions.append(Instruction(op=mnemonic, **fields))

    if diagnostics:
        raise AssemblyError(diagnostics)
    return program


def _format_value(v: Fixed64) -> str:
    # Decimal only when it reparses to the same raw word; otherwise raw hex.
    x = fx.to_real(v)
    if fx.from_real(x).raw == v.raw:
        return repr(x)
    return f"0x{v.raw & ((1 << fx.WORD_BITS) - 1):016X}"


def disassemble(p: Program) -> str:
    """Canonical text; branch targets get synthetic labels L<index>."""
    targets = sorted({i.target for i in p.instructions if i.target is not None})
    lines: list[str] = []
    for idx, instr in enumerate(p.instructions):
        _, signature = OPCODES[instr.op]
        operands = []
        for kind in signature:
            if kind in ("sd", "sa", "sb", "vd", "va", "vb"):
                reg = getattr(instr, kind[1])
                operands.append(f"{kind[0]}{reg}")
            elif kind == "imm":
                operands.append(_format_value(instr.imm))
            elif kind == "addr":
                operands.append(f"[{instr.addr}]")
            elif kind == "label":
                operands.append(f"L{instr.target}")
        prefix = f"L{idx}: " if idx in targets else ""
        text = instr.op if not operands else f"{instr.op} {', '.join(operands)}"
        lines.append(prefix + text)
    for addr, values in p.data_init:
        lines.append(f".data {addr} " + " ".join(_format_value(v) for v in values))
    return "\n".join(lines)


def validate(p: Program, cfg) -> list[str]:
    """Static checks against a core configuration; empty list means valid."""
    return validate_structure(p, cfg) + validate_units(unit_classes(p), cfg)


def validate_structure(p: Program, cfg) -> list[str]:
    """The checks that do not depend on the unit mix."""
    diags: list[str] = []
    n = len(p.instructions)
    for idx, instr in enumerate(p.instructions):
        cls, signature = OPCODES[instr.op]
        for kind in signature:
            if kind in ("sd", "sa", "sb", "vd", "va", "vb"):
                reg = getattr(instr, kind[1])
                if kind[0] == "s" and reg >= cfg.n_sregs:
                    diags.append(
                        f"instr {idx} ({instr.op}): scalar register index "
                        f"{reg} out of range (n_sregs={cfg.n_sregs})")
                if kind[0] == "v" and reg >= cfg.n_vregs:
                    diags.append(
                        f"instr {idx} ({instr.op}): vector register index "
                        f"{reg} out of range (n_vregs={cfg.n_vregs})")
        if instr.addr is not None:
            width = cfg.vec_len if is_vector(instr.op) else 1
            if instr.addr < 0 or instr.addr + width > cfg.dmem_words:
                diags.append(
                    f"instr {idx} ({instr.op}): address {instr.addr} "
                    f"(+{width} words) outside data memory of {cfg.dmem_words}")
        if instr.target is not None and not (0 <= instr.target < n):
            diags.append(f"instr {idx} ({instr.op}): branch target "
                         f"{instr.target} out of range")
        if cls is OpClass.CONVERT and not cfg.enable_converter:
            diags.append(f"instr {idx} ({instr.op}): converter disabled")
    for addr, values in p.data_init:
        if addr < 0 or addr + len(values) > cfg.dmem_words:
            diags.append(f".data at {addr} (+{len(values)} words) outside "
                         f"data memory of {cfg.dmem_words}")
    return diags


def unit_classes(p: Program) -> list[OpClass]:
    """The arithmetic classes a program uses, in diagnostic order."""
    used = {OPCODES[i.op][0] for i in p.instructions} & CLASS_UNITS.keys()
    return sorted(used, key=lambda c: c.value)


def validate_units(classes: list[OpClass], cfg) -> list[str]:
    """The unit-count checks: each class in use needs 1..vec_len units."""
    diags: list[str] = []
    for cls in classes:
        units = getattr(cfg, CLASS_UNITS[cls])
        if units == 0:
            diags.append(f"program uses {cls.name} but the configuration "
                         f"instantiates no units of that class")
        elif units > cfg.vec_len:
            diags.append(f"{cls.name} unit count {units} exceeds vector "
                         f"length {cfg.vec_len}")
    return diags
