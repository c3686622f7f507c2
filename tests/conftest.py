"""Shared test helpers: an independent wide-integer reference for the
fixed-point unit, a unit-level cycle schedule, reference copies of the
two-pass assembler, of the structural validator and of the hand-written
kernel emitters, a brute-force longest path, a reference interpreter for
straight-line programs, a pc-walking reference for programs that branch, a
csv.reader-only data-file reader, and generators of random straight-line and
looping programs."""

import csv
import heapq
import io
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import zip_longest

import pytest

from vproc import fixedpoint as fx
from vproc.core import MAX_CYCLES
from vproc.fixedpoint import Fixed64, SCALE
from vproc.isa import (OPCODES, Instruction, OpClass, Program,
                       ValidationError, _parse_value, is_vector)
from vproc.kernel import DIVISOR_BOUND, INPUT_NAMES, KernelInputs, default_layout

# ---- independent Q32.32 reference (kept deliberately separate from the
# ---- implementation under test; plain integer arithmetic throughout).
# ---- `flags`, when given, is a dict with "overflow" and "div_by_zero".

RAW_MIN = -(1 << 63)        # the signed 64-bit word range, spelled here
RAW_MAX = (1 << 63) - 1     # rather than taken from the module under test


def ref_clamp(v, flags=None):
    clamped = max(RAW_MIN, min(RAW_MAX, v))
    if flags is not None and clamped != v:
        flags["overflow"] = True
    return clamped


def ref_add(a, b, flags=None):
    return ref_clamp(a + b, flags)


def ref_sub(a, b, flags=None):
    return ref_clamp(a - b, flags)


def ref_mul(a, b, flags=None):
    prod = a * b
    # floor division == arithmetic shift for negatives
    return ref_clamp(prod // SCALE if prod >= 0 else -((-prod + SCALE - 1) // SCALE),
                     flags)


def ref_div(a, b, flags=None):
    if b == 0:
        if flags is not None:
            flags["div_by_zero"] = True
        return RAW_MAX if a >= 0 else RAW_MIN
    num = a * SCALE
    q = abs(num) // abs(b)
    if (num < 0) != (b < 0):
        q = -q
    return ref_clamp(q, flags)


def ref_from_real(x, flags=None):
    """Nearest raw word to a finite float, exact via Fraction (ties to even)."""
    return ref_clamp(round(Fraction(x) * SCALE), flags)


def ref_run(p: Program, cfg, inputs=()):
    """Interpret random_program's straight-line ops on raw words.

    Returns (full data memory, flags dict).  s0 reads as zero and writes to
    it are dropped; memory starts zeroed, then `inputs` are placed.
    """
    W = cfg.vec_len
    s = [0] * cfg.n_sregs
    v = [[0] * W for _ in range(cfg.n_vregs)]
    mem = [0] * cfg.dmem_words
    for addr, words in inputs:
        mem[addr:addr + len(words)] = words
    flags = {"overflow": False, "div_by_zero": False}
    binary = {"ADD": ref_add, "SUB": ref_sub, "MUL": ref_mul, "DIV": ref_div}

    def sreg(k):
        return 0 if k == 0 else s[k]

    def set_sreg(k, value):
        if k != 0:
            s[k] = value

    for i in p.instructions:
        op = i.op
        if op == "HALT":
            break
        if op == "LDI":
            set_sreg(i.d, i.imm.raw)
        elif op == "SMOV":
            set_sreg(i.d, sreg(i.a))
        elif op == "SLD":
            set_sreg(i.d, mem[i.addr])
        elif op == "SST":
            mem[i.addr] = sreg(i.a)
        elif op == "SADDI":
            set_sreg(i.d, ref_add(sreg(i.a), i.imm.raw, flags))
        elif op == "SINV":
            set_sreg(i.d, ref_div(SCALE, sreg(i.a), flags))
        elif op in ("SADD", "SSUB", "SMUL", "SDIV"):
            set_sreg(i.d, binary[op[1:]](sreg(i.a), sreg(i.b), flags))
        elif op == "VLD":
            v[i.d] = mem[i.addr:i.addr + W]
        elif op == "VST":
            mem[i.addr:i.addr + W] = v[i.a]
        elif op == "VMOV":
            v[i.d] = list(v[i.a])
        elif op == "VINV":
            v[i.d] = [ref_div(SCALE, x, flags) for x in v[i.a]]
        elif op in ("VADDS", "VSUBS", "VMULS", "VDIVS"):
            y = sreg(i.b)
            v[i.d] = [binary[op[1:-1]](x, y, flags) for x in v[i.a]]
        elif op in ("VADD", "VSUB", "VMUL", "VDIV"):
            v[i.d] = [binary[op[1:]](x, y, flags)
                      for x, y in zip(v[i.a], v[i.b])]
        else:
            raise NotImplementedError(op)
    return mem, flags


# ---- independent cycle reference: a unit-level schedule, kept apart from
# ---- core.cost_table, which core.run, instr_cost and dse.sweep all share.

_UNIT_FIELDS = {OpClass.ADD_CLASS: ("n_add", "lat_add"),
                OpClass.MUL_CLASS: ("n_mul", "lat_mul"),
                OpClass.DIV_CLASS: ("n_div", "lat_div")}


def ref_cycles(p: Program, cfg):
    """(total cycles, busy unit-cycles per class) of a run to HALT of a
    straight-line program.  Each element goes to the unit of its class that
    frees up first, each busy `lat` cycles per element; an instruction ends
    with its last element and the next one starts then.  A memory move takes
    one port cycle per wave of up to mem_port_width words, a conversion
    lat_convert cycles, and every instruction adds issue_cost first."""
    port = cfg.mem_port_width or cfg.vec_len
    busy = dict.fromkeys(OpClass, 0)
    t = 0
    for i in p.instructions:
        t += cfg.issue_cost
        cls = OPCODES[i.op][0]
        elements = cfg.vec_len if is_vector(i.op) else 1
        if cls in _UNIT_FIELDS:
            units, lat = (getattr(cfg, f) for f in _UNIT_FIELDS[cls])
            free = [t] * units              # a heap of the units' free times
            for _ in range(elements):
                heapq.heapreplace(free, free[0] + lat)
                busy[cls] += lat
            t = max(free)
        elif cls is OpClass.MEM:
            waves = len(range(0, elements, port))
            busy[cls] += waves
            t += waves
        elif cls is OpClass.CONVERT:
            busy[cls] += cfg.lat_convert
            t += cfg.lat_convert
        if i.op == "HALT":
            break
    return t, busy


# ---- control-flow reference: walks a program by pc, taking the values from
# ---- ref_run and each instruction's cycles from ref_cycles, both unedited.

def ref_walk(p: Program, cfg, inputs=(), max_cycles=MAX_CYCLES):
    """(timed out, full data memory, flags dict, total cycles, busy unit-cycles
    per class, nonzero retire counts per opcode) of a run to HALT or to a
    timeout: total cycles past max_cycles, or one branch retiring more than
    max_cycles times.  The instruction that times out is counted but does
    not execute.  The values are ref_run's over the trace of retired
    non-branch instructions; a branch reads its register by ref_run of the
    trace so far with a store of that register appended."""
    code = p.instructions
    costs = [ref_cycles(Program(instructions=[i]), cfg) for i in code]
    trace: list[Instruction] = []
    retired = [0] * len(code)
    cycles, busy = 0, dict.fromkeys(OpClass, 0)
    pc = 0
    while True:
        op = code[pc].op
        retired[pc] += 1
        cycles += costs[pc][0]
        for cls, n in costs[pc][1].items():
            busy[cls] += n
        branch = op in ("JMP", "BZ", "BNZ")
        timed_out = cycles > max_cycles or (branch and retired[pc] > max_cycles)
        if timed_out or op == "HALT":
            break
        if not branch:
            trace.append(code[pc])
            pc += 1
            continue
        taken = op == "JMP" or (op == "BZ") == (ref_run(Program(instructions=[
            *trace, Instruction("SST", addr=0, a=code[pc].a)]), cfg, inputs)[0][0] == 0)
        pc = code[pc].target if taken else pc + 1
    mem, flags = ref_run(Program(instructions=trace), cfg, inputs)
    counts = Counter()
    for i, n in zip(code, retired):
        counts[i.op] += n
    return timed_out, mem, flags, cycles, busy, dict(+counts)


# ---- reference assembler and validator: the two-pass assembler and the
# ---- signature-walking validator, kept as written before the one-pass
# ---- rewrite (the assembler gains only the empty-line guard in its label
# ---- loop, so a malformed label alone on its line is a diagnostic, the
# ---- ASCII-digit rule for register numbers and addresses, and the line
# ---- rule: lines break at CR LF, CR and LF only).

# Operand kind -> the Instruction field it sets, by name, written out apart
# from isa._FIELD's indices.
OPERAND_FIELD = {"imm": "imm", "addr": "addr", "label": "target",
                 **{k: k[1] for k in ("sd", "sa", "sb", "vd", "va", "vb")}}


def _strip(line: str) -> str:
    return line.split(";", 1)[0].strip()


def _ascii_int(text: str) -> int:
    """A register number or address: int() of ASCII text with no digit-group
    underscore and no space but blanks and tabs around it."""
    if not text.isascii() or "_" in text or text.strip(" \t") != text.strip():
        raise ValueError(text)
    return int(text)


def ref_assemble(source_text: str) -> Program:
    """Two-pass assembly: pass 1 collects labels, pass 2 encodes."""
    diagnostics: list[str] = []
    labels: dict[str, int] = {}
    # (lineno, mnemonic, operand tokens) or (lineno, ".data", tokens)
    stmts: list[tuple[int, str, list[str]]] = []

    index = 0
    lines = source_text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw_line in enumerate(lines, start=1):
        line = _strip(raw_line)
        if not line:
            continue
        while line and (":" in line.split()[0] or (line and line.split()[0].endswith(":"))):
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

    program = Program()
    for lineno, mnemonic, operands in stmts:
        if mnemonic == ".data":
            try:
                addr = _ascii_int(operands[0])
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
                    fields[kind[1]] = _ascii_int(token[1:])
                elif kind == "imm":
                    fields["imm"] = _parse_value(token)
                elif kind == "addr":
                    if not (token.startswith("[") and token.endswith("]")):
                        raise ValueError
                    fields["addr"] = _ascii_int(token[1:-1])
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
        raise ValidationError(*diagnostics)
    return program


def ref_validate_structure(p: Program, cfg) -> list[str]:
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


# ---- reference kernel: the vector and scalar programs, dataflow graph and
# ---- oracle as written out by hand before they were derived from
# ---- kernel.KERNEL (the layout argument and its check dropped).

def ref_emit_program(vec_len=24, s_k=1.0):
    layout = default_layout(vec_len)
    ins = [Instruction("LDI", d=1, imm=fx.from_real(s_k))]
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


def ref_emit_scalar_program(vec_len=24, s_k=1.0):
    layout = default_layout(vec_len)
    ins = [Instruction("LDI", d=15, imm=fx.from_real(s_k))]
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


def ref_dataflow_graph():
    MUL, ADD, DIV = OpClass.MUL_CLASS, OpClass.ADD_CLASS, OpClass.DIV_CLASS
    nodes = [("t1", MUL), ("t2", MUL), ("t3", MUL), ("t4", ADD), ("t5", MUL),
             ("t6", MUL), ("t7", ADD), ("t8", MUL), ("t9", DIV), ("t10", DIV),
             ("out", DIV)]
    edges = [("t1", "t2"), ("t2", "t4"), ("t3", "t4"), ("t4", "t5"),
             ("t5", "t8"), ("t6", "t7"), ("t7", "t8"), ("t8", "t9"),
             ("t9", "t10"), ("t10", "out")]
    return nodes, edges


def brute_force_longest_path(nodes, edges, cfg):
    """Enumerate every path; intended for graphs of ~14 nodes or fewer."""
    lat = {OpClass.ADD_CLASS: cfg.lat_add, OpClass.MUL_CLASS: cfg.lat_mul,
           OpClass.DIV_CLASS: cfg.lat_div}
    weight = {nid: lat[cls] for nid, cls in nodes}
    succs = {nid: [] for nid, _ in nodes}
    for s, d in edges:
        succs[s].append(d)

    best = 0
    def walk(nid, acc):
        nonlocal best
        acc += weight[nid]
        best = max(best, acc)
        for nxt in succs[nid]:
            walk(nxt, acc)
    for nid, _ in nodes:
        walk(nid, 0)
    return best


def ref_oracle(inputs):
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


def ref_read_data_csv(path: str) -> KernelInputs:
    """The data reader with every file read in text mode, which turns each
    line break into LF, and split by csv.reader alone."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}")
    if not rows:
        raise ValidationError(f"{path}: empty data file")
    header = [h.strip() for h in rows[0]]
    if repeated := [n for n, k in Counter(header).items() if n and k > 1]:
        raise ValidationError(f"{path}: duplicate column(s) {', '.join(repeated)}")
    if missing := [n for n in INPUT_NAMES if n not in header]:
        raise ValidationError(f"{path}: missing column(s) {', '.join(missing)}")
    columns: dict[str, list[float]] = {n: [] for n in header}
    lo, hi = fx.REAL_LO, fx.REAL_HI
    body = rows[1:]
    try:
        if max(map(len, body), default=0) > len(header):
            raise ValueError
        for name, cells in zip(header, zip_longest(*body, fillvalue="")):
            xs = columns[name] = list(map(float, filter(str.strip, cells)))
            if xs and not (lo <= min(xs) <= max(xs) < hi) or math.isnan(sum(xs)):
                raise ValueError
    except ValueError:
        for n, row in enumerate(body, start=2):
            if len(row) > len(header):
                raise ValidationError(f"{path}: row {n} has {len(row)} cells, "
                                      f"header has {len(header)}")
            for name, cell in zip(header, row):
                if cell.strip():
                    try:
                        x = float(cell)
                    except ValueError:
                        x = math.nan
                    if not lo <= x < hi:
                        what = ("is not a finite number" if not math.isfinite(x)
                                else "is outside the Q32.32 range [-2^31, 2^31)")
                        raise ValidationError(f"{path}: row {n}, column {name}: "
                                              f"'{cell}' {what}")
    vectors = {n: columns[n] for n in INPUT_NAMES}
    if len({len(v) for v in vectors.values()}) != 1:
        raise ValidationError(f"{path}: input columns have unequal lengths")
    s_k = columns.get("s_k") or [1.0]
    return KernelInputs(vectors=vectors, s_k=s_k[0])


# ---- random straight-line programs -----------------------------------------

_SAFE_OPS = [
    ("SADD", "sss"), ("SSUB", "sss"), ("SMUL", "sss"), ("SDIV", "sss"),
    ("SINV", "ss"), ("SMOV", "ss"), ("SADDI", "ssi"), ("LDI", "si"),
    ("SLD", "sm"), ("SST", "ms"),
    ("VADD", "vvv"), ("VSUB", "vvv"), ("VMUL", "vvv"), ("VDIV", "vvv"),
    ("VADDS", "vvs"), ("VSUBS", "vvs"), ("VMULS", "vvs"), ("VDIVS", "vvs"),
    ("VINV", "vv"), ("VMOV", "vv"), ("VLD", "vm"), ("VST", "mv"),
]


def random_program(rng: random.Random, cfg, n_instr=15) -> Program:
    """A valid straight-line program (no branches) ending in HALT."""
    ins = []
    for _ in range(n_instr):
        op, shape = rng.choice(_SAFE_OPS)
        fields = {}
        regfields = iter("dab")
        for kind in shape:
            if kind == "s":
                fields[next(regfields)] = rng.randrange(cfg.n_sregs)
            elif kind == "v":
                fields[next(regfields)] = rng.randrange(cfg.n_vregs)
            elif kind == "i":
                fields["imm"] = Fixed64(rng.getrandbits(64) - (1 << 63))
            elif kind == "m":
                width = cfg.vec_len if op[0] == "V" else 1
                fields["addr"] = rng.randrange(cfg.dmem_words - width + 1)
        # operand slots must follow the opcode signature order
        if op in ("SST", "VST"):
            fields = {"addr": fields["addr"], "a": fields["d"]}
        ins.append(Instruction(op, **fields))
    ins.append(Instruction("HALT"))
    return Program(instructions=ins)


def looping_program(rng: random.Random, cfg) -> Program:
    """A counted loop of random_program bodies, which leave its counter s15
    alone (cfg has at least 16 scalar registers):

        LDI s15, n; top: body; BZ sX, skip; body; skip: SADDI s15, s15, -1;
        BNZ s15, top; HALT
    """
    inner = replace(cfg, n_sregs=15)
    first, second = (random_program(rng, inner, rng.randint(0, 6)).instructions[:-1]
                     for _ in range(2))
    skip = 2 + len(first) + len(second)
    # BZ tests s0 (always taken), s15 (never) or a register the first body sets.
    written = [i.d for i in first if i.d and not is_vector(i.op)]
    return Program(instructions=[
        Instruction("LDI", d=15, imm=fx.from_real(rng.randint(1, 4))), *first,
        Instruction("BZ", a=rng.choice([0, 15, *written]), target=skip), *second,
        Instruction("SADDI", d=15, a=15, imm=fx.from_real(-1)),
        Instruction("BNZ", a=15, target=1), Instruction("HALT")])


@pytest.fixture
def rng():
    return random.Random(1234)
