"""Scalar + vector instruction set: definitions, assembler, disassembler, validator.

Code memory holds structured instruction records; the line-oriented assembly
text is the interchange format.  Scalar register s0 is a hardwired zero.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import fixedpoint as fx
from .fixedpoint import Fixed64


class OpClass(Enum):
    ADD_CLASS = "add"
    MUL_CLASS = "mul"
    DIV_CLASS = "div"
    MEM = "mem"
    CONTROL = "control"
    CONVERT = "convert"
    __hash__ = object.__hash__      # members are singletons; Enum's hashes the name


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


class Instruction(NamedTuple):
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
    data_init: list[tuple[int, list[Fixed64]]] = field(default_factory=list)


MAX_DIAGNOSTIC = 300   # characters; a longer message keeps both ends (the reason)
REAL = (int, float)     # the exact types of a library number; a bool is not one


def _bounded(text: str) -> str:
    keep = (MAX_DIAGNOSTIC - 5) // 2
    return text if len(text) <= MAX_DIAGNOSTIC else f"{text[:keep]} ... {text[-keep:]}"


def _shown(fmt: str, *values) -> str:
    """fmt.format(*values), or "" if a number is past int-to-str's digit limit."""
    try:
        return fmt.format(*values)
    except ValueError as exc:       # any other ValueError, say from a __repr__, propagates
        if not str(exc).startswith("Exceeds the limit"):
            raise
    return ""


class ValidationError(ValueError):
    """Rejected input, from any module; .diagnostics lists every message."""

    def __init__(self, *diagnostics: str):
        self.diagnostics = [_bounded(d) for d in diagnostics]
        super().__init__(_bounded("; ".join(self.diagnostics)))


def _parse_value(token: str) -> Fixed64:
    """Immediate / data value: decimal real in [-2^31, 2^31), or 0x-prefixed
    raw 64-bit word."""
    t = token.lower()
    if t.startswith("0x"):
        raw = int(t, 16)
        if raw > fx.RAW_MAX:        # two's-complement reinterpretation
            raw -= 1 << fx.WORD_BITS
        return Fixed64(raw)
    x = float(token)
    if not fx.REAL_LO <= x < fx.REAL_HI:
        raise ValueError(f"value {token} outside the word range")
    return fx.from_real(x)


def _format_value(v: Fixed64) -> str:
    # Decimal only when it reparses to the same raw word; otherwise raw hex.
    x = fx.to_real(v)
    if fx.REAL_LO <= x < fx.REAL_HI and fx.from_real(x).raw == v.raw:
        return repr(x)
    return f"0x{v.raw & ((1 << fx.WORD_BITS) - 1):016X}"


def split_lines(text: str) -> list[str]:
    r"""Lines as editors count them: broken at `\r\n`, `\r` and `\n` only."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _decimal(text: str, number: type = int):
    """int() or float() of ASCII text only, and no `_`: both take `1_0` and `١`."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return number(text)


# Operand kind's first letter -> (pattern of its text, with one group; the
# function of that group giving the field; the printer of the field's
# canonical text).  An address has only blanks or tabs around its signed
# ASCII digits (`[\v7]` is malformed); `x & -1` raises for a float or None.
_SYNTAX = {"s": ("[sS]([0-9]+)", int, lambda x: f"s{x & -1}"),
           "v": ("[vV]([0-9]+)", int, lambda x: f"v{x & -1}"),
           "a": (r"\[[ \t]*([+-]?[0-9]+)[ \t]*\]", int, lambda x: f"[{x & -1}]"),
           "i": ("([^,]*)", _parse_value, _format_value),
           "l": ("([^,]*)", str, lambda x: f"L{x & -1}")}
# Operand kind -> index of its Instruction field; each opcode's operands so.
_FIELD = {"sd": 1, "vd": 1, "sa": 2, "va": 2, "sb": 3, "vb": 3,
          "imm": 4, "addr": 5, "label": 6}
_OPERANDS = {m: tuple((_FIELD[k], k) for k in sig)
             for m, (_, sig) in OPCODES.items()}
# mnemonic -> (pattern of its whole operand text, (field index, function,
# pattern) per operand); `\s` is exactly what str.strip() strips.
_STATEMENTS = {m: (re.compile(r"\s*,\s*".join(_SYNTAX[k[0]][0] for _, k in ops)),
                   tuple((slot, _SYNTAX[k[0]][1], re.compile(_SYNTAX[k[0]][0]))
                         for slot, k in ops))
               for m, ops in _OPERANDS.items()}


def _encode(mnemonic: str, operand_text: str) -> Instruction:
    """One statement's Instruction, a label operand's text in `target` until
    the fixup pass, from the groups of its opcode's pattern; failing that,
    the tokens between commas, matched one by one against the same table,
    raise the statement's diagnostic less its line."""
    op = mnemonic.upper()
    statement = _STATEMENTS.get(op)
    if statement is None:
        raise ValueError(f"unknown mnemonic '{op}'")
    pattern, operands = statement
    fields: list = [op, None, None, None, None, None, None]
    if operand_text and (match := pattern.fullmatch(operand_text)):
        try:
            for (slot, convert, _), text in zip(operands, match.groups()):
                fields[slot] = convert(text)
            return tuple.__new__(Instruction, fields)   # skips NamedTuple's Python __new__
        except ValueError:      # an immediate out of range, say: named below
            pass
    tokens = [t.strip() for t in operand_text.split(",")] if operand_text else []
    if len(tokens) != len(operands):
        raise ValueError(f"{op} expects {len(operands)} operand(s), "
                         f"got {len(tokens)}")
    for (slot, convert, token_pattern), token in zip(operands, tokens):
        try:
            fields[slot] = convert(token_pattern.fullmatch(token)[1])
        except (TypeError, ValueError):     # no match: None[1] is a TypeError
            raise ValueError(f"malformed operand '{token}' for {op}") from None
    return tuple.__new__(Instruction, fields)


def assemble(source_text: str) -> Program:
    """One pass; each distinct statement is encoded once, by its opcode's
    pattern from the operand syntax table, and its Instruction, an immutable
    named tuple, shared.  Label operands, held as text in `target`, are
    resolved after the pass with `_replace`.
    Diagnostics: every label diagnostic, then at most one per line in line order."""
    label_diags: list[str] = []
    diags: list[tuple[int, str]] = []          # (lineno, message)
    program = Program()
    instructions = program.instructions
    labels: dict[str, int] = {}
    encoded: dict[str, Instruction] = {}       # by statement text
    fixups: list[tuple[int, int]] = []         # (pc, lineno) of a label operand
    for lineno, line in enumerate(split_lines(source_text), start=1):
        line = line.partition(";")[0].strip()
        if ":" in line:
            while line and ":" in line.split(None, 1)[0]:
                name, _, line = line.partition(":")
                line = line.strip()
                if not name.isidentifier():
                    label_diags.append(f"malformed label '{name}' at line {lineno}")
                    continue
                if name in labels:
                    label_diags.append(f"duplicate label '{name}' at line {lineno}")
                labels[name] = len(instructions)
        if not line:
            continue
        instr = encoded.get(line)
        if instr is None:
            parts = line.split(None, 1)
            mnemonic, operand_text = parts[0], parts[1] if len(parts) > 1 else ""
            try:
                if mnemonic == ".data":
                    addr, *values = operand_text.split()
                    program.data_init.append(
                        (_decimal(addr), [_parse_value(t) for t in values]))
                    continue
                instr = encoded[line] = _encode(mnemonic, operand_text)
            except ValueError as exc:
                msg = "malformed .data directive" if mnemonic == ".data" else exc
                diags.append((lineno, f"{msg} at line {lineno}"))
                continue
        if instr.target is not None:
            fixups.append((len(instructions), lineno))
        instructions.append(instr)

    for pc, lineno in fixups:
        if (label := instructions[pc].target) in labels:
            instructions[pc] = instructions[pc]._replace(target=labels[label])
        else:
            diags.append((lineno, f"unresolved label '{label}' at line {lineno}"))
    if label_diags or diags:
        raise ValidationError(*label_diags, *(m for _, m in sorted(diags)))
    return program


def disassemble(p: Program) -> str:
    """Canonical text; branch targets get synthetic labels L<index>.  An
    instruction or .data entry that cannot be printed raises ValidationError
    with the validator's diagnostic."""
    targets = {i.target for i in p.instructions if i.target is not None}
    lines: list[str] = []
    for idx, instr in enumerate(p.instructions):
        try:
            operands = [_SYNTAX[kind[0]][2](instr[slot])
                        for slot, kind in _OPERANDS[instr.op]]
        except (AttributeError, KeyError, TypeError, ValueError):   # or a long number
            raise ValidationError(f"instr {idx}{_bad_operand(instr)}") from None
        text = f"{instr.op} {', '.join(operands)}" if operands else instr.op
        lines.append(f"L{idx}: {text}" if idx in targets else text)
    for entry in p.data_init:
        if bad := _bad_data(entry):
            raise ValidationError(bad)
        addr, values = entry
        if not (head := _shown(".data {} ", addr)):
            raise ValidationError(".data: address too long to print")
        lines.append(head + " ".join(_format_value(v) for v in values))
    return "\n".join(lines)


def validate(p: Program, cfg) -> list[str]:
    """Static checks against a core configuration; empty list means valid."""
    return validate_structure(p, cfg) + validate_units(unit_classes(p), cfg)


# mnemonic -> ((field index, is a vector register) per register operand, has an
# address, is a vector op (spans vec_len words), has a branch target, has an
# immediate, is a conversion): flags, so the loop reads an opcode's facts in one lookup.
_CHECKS = {m: (tuple((_FIELD[k], k[0] == "v") for k in sig if k[0] in "sv"), "addr" in sig,
               m in VECTOR_OPS, "label" in sig, "imm" in sig, cls is OpClass.CONVERT)
           for m, (cls, sig) in OPCODES.items()}


def _bad_operand(instr: Instruction) -> str:
    """Names the first operand that is None or mistyped, else the first past
    int-to-str's digit limit, else the opcode; no `instr <idx>`."""
    operands = _OPERANDS.get(instr.op, ()) if isinstance(instr.op, str) else ()
    for slot, kind in operands:
        if not isinstance(instr[slot], Fixed64 if kind == "imm" else int):
            return (f" ({instr.op}): {kind} operand{_shown(' {!r}', instr[slot])} is "
                    f"not {'a Fixed64' if kind == 'imm' else 'an int'}")
    for slot, kind in operands:
        if not _shown("{}", instr[slot]):
            return f" ({instr.op}): {kind} operand too long to print"
    return f": unknown opcode{_shown(' {!r}', instr.op)}"


def _bad_data(entry) -> str | None:
    """Names a .data entry that is not an (address, words) pair, else its
    mistyped address, else its mistyped words."""
    if not (isinstance(entry, tuple | list) and len(entry) == 2):
        return f".data entry{_shown(' {!r}', entry)} is not an (address, words) pair"
    addr, values = entry
    if not isinstance(addr, int):
        return f".data{_shown(' at {!r}', addr)}: address is not an int"
    if not (isinstance(values, tuple | list)
            and all(isinstance(w, Fixed64) for w in values)):
        return f".data{_shown(' at {}', addr)}: values must be Fixed64 words"
    return None


def validate_structure(p: Program, cfg) -> list[str]:
    """The checks that do not depend on the unit mix.  Each distinct
    Instruction object is checked once; a faulty one's diagnostics are then
    named at every index that holds it, in index order."""
    faults: dict[int, list[str]] = defaultdict(list)   # by id(): a diagnostic less its index
    limits, spans, words = (cfg.n_sregs, cfg.n_vregs), (1, cfg.vec_len), cfg.dmem_words
    ins = p.instructions
    for key, instr in dict(zip(map(id, ins), ins)).items():
        # An unknown opcode, or a None or mistyped operand, raises: `x & -1`
        # is x for an int and a TypeError for a float or None, at little cost.
        try:
            regs, has_addr, vector, has_target, has_imm, convert = _CHECKS[instr.op]
            for f, is_vreg in regs:
                if not 0 <= (reg := instr[f] & -1) < limits[is_vreg]:
                    bank = ("scalar", "vector")[is_vreg]
                    faults[key].append(f" ({instr.op}): {bank} register index"
                                       f"{_shown(' {}', reg)} out of range "
                                       f"(n_{bank[0]}regs={limits[is_vreg]})")
            if has_addr and not 0 <= (addr := instr.addr & -1) <= words - spans[vector]:
                faults[key].append(f" ({instr.op}): address{_shown(' {}', addr)} "
                                   f"(+{spans[vector]} words) outside data memory of {words}")
            if has_target and not 0 <= (instr.target & -1) < len(ins):
                faults[key].append(f" ({instr.op}): branch target"
                                   f"{_shown(' {}', instr.target)} out of range")
            if has_imm and not isinstance(instr.imm, Fixed64):
                raise TypeError
            if convert and not cfg.enable_converter:
                faults[key].append(f" ({instr.op}): converter disabled")
        except (KeyError, TypeError):
            faults[key].append(_bad_operand(instr))
    diags = [f"instr {idx}{fault}" for idx, instr in enumerate(ins)
             for fault in faults.get(id(instr), ())] if faults else []
    for entry in p.data_init:
        if bad := _bad_data(entry):
            diags.append(bad)
        elif entry[0] < 0 or entry[0] + len(entry[1]) > words:
            diags.append(f".data{_shown(' at {}', entry[0])} (+{len(entry[1])} words) outside "
                         f"data memory of {words}")
    return diags


def unit_classes(p: Program) -> list[OpClass]:
    """The arithmetic classes a program uses, in diagnostic order."""
    try:
        used = {OPCODES[op][0] for op in {i.op for i in p.instructions} & OPCODES.keys()}
    except TypeError:           # an unhashable opcode, which validate_structure names
        used = {OPCODES[i.op][0] for i in p.instructions if type(i.op) is str and i.op in OPCODES}
    return sorted(used & CLASS_UNITS.keys(), key=lambda c: c.value)


def validate_units(classes: list[OpClass], cfg) -> list[str]:
    """The unit-count checks: each class in use needs 1..vec_len units."""
    diags: list[str] = []
    for cls in classes:
        units = getattr(cfg, CLASS_UNITS[cls])
        if units == 0:
            diags.append(f"program uses {cls.name} but the configuration "
                         f"instantiates no units of that class")
        elif units > cfg.vec_len:
            diags.append(f"{cls.name} unit count{_shown(' {}', units)} exceeds vector "
                         f"length {cfg.vec_len}")
    return diags
