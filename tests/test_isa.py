import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vproc.fixedpoint as fx
from vproc import isa, kernel
from vproc.core import CoreConfig, ValidationError, run
from vproc.isa import Instruction, OpClass, Program

from conftest import OPERAND_FIELD, random_program, ref_assemble, ref_validate_structure

# Source fragments for the differential assembler test: well-formed operands
# of each kind, malformed ones (among them "c", a label never defined), and
# well-formed and malformed label names.
_GOOD = {
    "s": ["s0", "s1", "S3", "s15", "s20", "s01"],
    "v": ["v0", "v1", "V2", "v9", "v17", "V02"],
    "imm": ["1.5", "-0.25", "3", "0xFFFFFFFFC0000000", "0x1", "1e3"],
    "addr": ["[0]", "[5]", "[ 7 ]", "[-1]", "[4095]", "[05]", "[+5]", "[\t7]", "[7 ]",
             "[ +5 ]", "[-0]"],
    "label": ["a", "b", "loop", "x_1"],
}
_BAD = ["x3", "s", "", "abc", "nan", "1e400", "[x]", "5", "[]", "s1x",
        "v-1", "c", "a:", "0x1G", "s\u0661", "[\u0663]", "[1_0]",
        "s 1", "[5", "5]", "[[5]]", "s+1", "[5.0]", "[0x5]", "[+-1]", "[--1]",
        "[\x1f7]", "[\xa07]", "s\u00b2", "[5]x", "1 5", "[\v7]", "[7\f]"]
# Characters str.splitlines() breaks at that are no line break in a source.
_NOT_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_NAMES = _GOOD["label"]
_BAD_NAMES = ["9x", "", "a-b", "1"]


@st.composite
def _statement(draw, clean, mnemonics, good):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return ""                                   # blank or label-only
    if kind == 1:
        cells = ["0", "7", "1.5", "0x10", "-2"] + ([] if clean else ["x", "nan", "1_0"])
        return ".data " + " ".join(draw(st.lists(st.sampled_from(cells),
                                                 min_size=int(clean), max_size=3)))
    if kind == 2 and not clean:
        return draw(st.sampled_from(["VFOO v0, v1", "nop", "HALT s1",
                                     "SADD s1, s2", "JMP", ".DATA 0 1",
                                     "VADD v0, v1, v2, v3"]))
    mnemonic = draw(st.sampled_from(mnemonics))
    tokens = []
    for k in isa.OPCODES[mnemonic][1]:
        bad = not clean and draw(st.integers(0, 9)) == 0
        tokens.append(draw(st.sampled_from(_BAD if bad else good[k])))
    if draw(st.booleans()):
        mnemonic = mnemonic.lower()
    sep = draw(st.sampled_from([", ", ",", " ,\t", "\t,\t", " , ", ",\x1f", "\x1f,",
                                *(f",{c}" for c in _NOT_BREAKS)]))
    return f"{mnemonic} {sep.join(tokens)}".rstrip()


@st.composite
def _sources(draw):
    """Assembly text mixing every statement form; `clean` sources assemble.

    Each source draws from a few mnemonics and one or two operands of each
    kind, so statements repeat verbatim and near-duplicates differ in one
    operand.
    """
    clean = draw(st.booleans())
    mnemonics = draw(st.lists(st.sampled_from(sorted(isa.OPCODES)),
                              min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):         # label operands in half of the sources
        mnemonics.append(draw(st.sampled_from(["JMP", "BZ", "BNZ"])))
    good = {}
    for kind in ("sd", "sa", "sb", "vd", "va", "vb", "imm", "addr", "label"):
        pool = _GOOD[kind if kind in _GOOD else kind[0]]
        good[kind] = draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=2, unique=True))
    defined: set[str] = set()
    lines = []
    for _ in range(draw(st.integers(0, 20))):
        names = draw(st.lists(st.sampled_from(_NAMES if clean
                                              else _NAMES + _BAD_NAMES),
                              max_size=3))
        if clean:
            names = [n for n in dict.fromkeys(names) if n not in defined]
        defined.update(names)
        seps = [draw(st.sampled_from(["", " ", "\t"])) for _ in names]
        prefix = "".join(f"{n}:{s}" for n, s in zip(names, seps))
        comment = draw(st.sampled_from(["", " ; note", "; x: y, z", ";",
                                        *(f" ; a{c}HALT s1" for c in _NOT_BREAKS)]))
        statement = draw(_statement(clean, mnemonics, good))
        lines.append(f"{prefix}{statement}{comment}")
    if clean:                       # define every label a branch may name
        lines += [f"{n}: HALT" for n in _NAMES if n not in defined]
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


class TestAssemble:
    def test_direct_encoding(self):
        p = isa.assemble("VMUL v2, v0, v1")
        assert p.instructions == [Instruction("VMUL", d=2, a=0, b=1)]

    def test_backward_branch(self):
        p = isa.assemble("loop: SADDI s1, s1, -1\nBNZ s1, loop")
        assert p.instructions[1] == Instruction("BNZ", a=1, target=0)

    def test_unknown_mnemonic(self):
        with pytest.raises(ValidationError) as exc:
            isa.assemble("VFOO v0, v1")
        assert "unknown mnemonic 'VFOO' at line 1" in exc.value.diagnostics[0]

    def test_duplicate_label(self):
        with pytest.raises(ValidationError, match="duplicate label"):
            isa.assemble("x: HALT\nx: HALT")

    def test_unresolved_label(self):
        with pytest.raises(ValidationError, match="unresolved label 'nowhere'"):
            isa.assemble("JMP nowhere")

    def test_operand_count_checked(self):
        with pytest.raises(ValidationError, match="expects 3"):
            isa.assemble("VADD v0, v1")

    def test_malformed_operand_reports_line(self):
        with pytest.raises(ValidationError, match="line 2"):
            isa.assemble("HALT\nSADD s1, s2, x3")

    def test_address_without_brackets_rejected(self):
        with pytest.raises(ValidationError) as exc:
            isa.assemble("SLD s1, 5")
        assert exc.value.diagnostics == ["malformed operand '5' for SLD at line 1"]

    @pytest.mark.parametrize("src,message", [
        ("SLD s\u0661, [3]", "malformed operand 's\u0661' for SLD at line 1"),
        ("SLD s1, [\u0663]", "malformed operand '[\u0663]' for SLD at line 1"),
        ("SLD s1, [1_0]", "malformed operand '[1_0]' for SLD at line 1"),
        (".data 1_0 2", "malformed .data directive at line 1")],
        ids=["arabic-indic-register", "arabic-indic-address", "underscore-address",
             "underscore-data-address"])
    def test_register_and_address_take_ascii_digits_only(self, src, message):
        with pytest.raises(ValidationError) as exc:
            isa.assemble(src)
        assert exc.value.diagnostics == [message]

    @pytest.mark.parametrize("token,src", [
        ("s" + "1" * 5000, "SLD s" + "1" * 5000 + ", [0]"),
        ("[" + "1" * 5000 + "]", "SLD s1, [" + "1" * 5000 + "]")],
        ids=["register", "address"])
    def test_number_past_int_digit_limit_is_malformed(self, token, src):
        """int() refuses more than 4,300 digits; the statement pattern's
        match gives way to the per-operand patterns, which name the operand."""
        with pytest.raises(ValidationError) as exc:
            isa.assemble(src)
        assert exc.value.diagnostics == ValidationError(
            f"malformed operand '{token}' for SLD at line 1").diagnostics

    def test_label_operand_text_rides_in_target(self):
        assert isa._encode("bnz", "s1 ,\tloop") == Instruction("BNZ", a=1, target="loop")

    def test_lower_case_canonical_statement(self):
        assert isa.assemble("sld s1, [0]").instructions == [
            Instruction("SLD", d=1, addr=0)]

    def test_immediates_keep_python_number_syntax(self):
        p = isa.assemble("LDI s1, 1_0\nSLD s2, [-1]\n.data 3 1_0")
        assert p.instructions[0].imm == fx.from_real(10.0)
        assert p.data_init == [(3, [fx.from_real(10.0)])]
        assert isa.validate(p, CoreConfig()) == [
            "instr 1 (SLD): address -1 (+1 words) outside data memory of 4096"]

    def test_comments_and_blanks_ignored(self):
        p = isa.assemble("; full line comment\n\nHALT ; trailing\n")
        assert len(p.instructions) == 1

    @pytest.mark.parametrize("char", _NOT_BREAKS)
    def test_lines_break_at_cr_and_lf_only(self, char):
        assert isa.assemble(f"HALT ; note{char}VADD v0, v1, v2").instructions \
            == [Instruction("HALT")]
        with pytest.raises(ValidationError) as exc:
            isa.assemble(f"HALT\r\nHALT\rSLD s1, [{char}7]\nVFOO")
        assert exc.value.diagnostics == [
            f"malformed operand '[{char}7]' for SLD at line 3",
            "unknown mnemonic 'VFOO' at line 4"]

    @pytest.mark.parametrize("src", ["LDI s1, 3e9", "LDI s1, 2147483648",
                                     "LDI s1, -2147483648.5", ".data 0 1e12"])
    def test_decimal_outside_word_range_rejected(self, src):
        with pytest.raises(ValidationError) as exc:
            isa.assemble(src)
        assert len(exc.value.diagnostics) == 1

    def test_decimal_range_bounds_exact(self):
        p = isa.assemble("LDI s1, -2147483648\nLDI s2, 2147483647.75")
        assert [i.imm.raw for i in p.instructions] == [fx.RAW_MIN,
                                                       fx.RAW_MAX - (1 << 30) + 1]

    def test_hex_immediate(self):
        p = isa.assemble("LDI s1, 0xFFFFFFFFC0000000")
        assert p.instructions[0].imm == fx.from_real(-0.25)

    def test_data_directive(self):
        p = isa.assemble(".data 100 1.5 -0.25\nHALT")
        assert p.data_init == [(100, [fx.from_real(1.5), fx.from_real(-0.25)])]

    def test_deterministic(self):
        src = "a: LDI s1, 2.5\nBNZ s1, a\nHALT\n.data 7 0.5"
        assert isa.assemble(src) == isa.assemble(src)

    def test_repeated_statement_shares_one_instruction(self):
        p = isa.assemble("SADD s1, s1, s2\nx: SADD s1, s1, s2 ; again\nHALT")
        assert p.instructions[0] is p.instructions[1]

    def test_repeated_branch_statement_resolved_at_each_pc(self):
        p = isa.assemble("BNZ s1, y\nx: BNZ s1, y\ny: JMP x")
        assert p.instructions[:2] == [Instruction("BNZ", a=1, target=2)] * 2

    def test_label_only_lines_label_next_instruction(self):
        p = isa.assemble("a: b:\nc:\n\nHALT\nd: e: JMP a\n"
                         "JMP a\nJMP b\nJMP c\nJMP d\nJMP e")
        assert [i.target for i in p.instructions[2:]] == [0, 0, 0, 1, 1]
        assert p.instructions[1] == Instruction("JMP", target=0)

    def test_diagnostic_order(self):
        src = "JMP nowhere\nVFOO\n9x: HALT\nHALT\nHALT s1\nq: HALT\nq:"
        with pytest.raises(ValidationError) as exc:
            isa.assemble(src)
        assert exc.value.diagnostics == [
            "malformed label '9x' at line 3", "duplicate label 'q' at line 7",
            "unresolved label 'nowhere' at line 1",
            "unknown mnemonic 'VFOO' at line 2",
            "HALT expects 0 operand(s), got 1 at line 5"]

    @settings(max_examples=200, deadline=None)
    @given(_sources())
    @example("SADD s1, s2, s3\nSADD s1, s2, s4\nSADD s1, s2, s34\nsadd S1,s2,s3\n"
             "VLD v1, [10]\nVLD v1, [11]\nVLD v1, [1]\nLDI s1, 1.5\n"
             "LDI s2, 1.5\nx: BNZ s1, x\nBNZ s1, y\ny: BNZ s1, x")
    @example("SLD s01, [05]\nsld S1,[+5]\nVLD V02,\t[\t7]\nVST [7 ] , v1\n"
             "SADD s1\t,\ts2 , s3\nSST [5, s1\nSST 5], s1\nSLD s1, [[5]]\n"
             "SMOV s+1, s 1\nVLD v1, [5.0]\nVLD v1, [0x5]\nVMOV v1, v 2")
    @example("LDI s1,1.5\nloop: SADDI s1 ,s2,\t0x10\nBNZ s1 , loop\nSADDI s1, s2,\n"
             "JMP\nHALT s1\nBZ s1, a b\nSLD s1, [ +5 ]\nSST [-0],\x1fs1\n"
             "SLD s1\x1f, [+-1]\nSLD s1, [\x1f7]\nSLD s1, [\xa07]\nSMOV s\u00b2, s1\n"
             "SLD s1, [5]x\nLDI s1, 1 5")
    @example("loop: LDI s1,1.5\nSADDI s1 ,s2,\t0x10\nBNZ s1 , loop\nJMP loop\n"
             "SLD s1, [ +5 ]\nVST [-0] ,\x1fv1\nSST [\t7 ]\x1f, s2")
    def test_matches_two_pass_reference(self, src):
        try:
            want = ref_assemble(src)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                isa.assemble(src)
            assert got.value.diagnostics == exc.diagnostics
            return
        got = isa.assemble(src)
        assert got.instructions == want.instructions
        assert got.data_init == want.data_init


# One well-formed value per Instruction field: distinct registers, so that
# a slot mix-up shows.
_GOOD_VALUE = {"d": 1, "a": 2, "b": 3, "imm": fx.from_real(1.5), "addr": 4,
               "target": 0}


def _well_formed(op: str, **override) -> Instruction:
    """op with each of its operands set, valid under CoreConfig() as a
    one-instruction program (a branch targets itself), then `override`."""
    fields = [OPERAND_FIELD[kind] for kind in isa.OPCODES[op][1]]
    return Instruction(op, **{**{f: _GOOD_VALUE[f] for f in fields}, **override})


class TestEveryOperandSlot:
    """Each opcode's operands are read from the Instruction fields they name."""

    @pytest.mark.parametrize("op,kind,bad", [
        (op, kind, bad) for op, (_, sig) in isa.OPCODES.items() for kind in sig
        for bad in (None, 1 if kind == "imm" else 1.5)])
    def test_mistyped_operand_named(self, op, kind, bad):
        p = Program([_well_formed(op, **{OPERAND_FIELD[kind]: bad})])
        message = (f"instr 0 ({op}): {kind} operand {bad!r} is not "
                   f"{'a Fixed64' if kind == 'imm' else 'an int'}")
        assert isa.validate(p, CoreConfig()) == [message]
        with pytest.raises(ValidationError) as exc:
            isa.disassemble(p)
        assert exc.value.diagnostics == [message]

    @pytest.mark.parametrize("op", isa.OPCODES)
    def test_well_formed_round_trip(self, op):
        p = Program([_well_formed(op)])
        assert isa.validate(p, CoreConfig()) == []
        assert isa.assemble(isa.disassemble(p)) == p


class TestInstructionRecord:
    def test_fields_cannot_be_set(self):
        instr = Instruction("JMP", target=0)
        with pytest.raises(AttributeError):
            instr.target = 1
        assert instr.target == 0

    def test_keyword_construction(self):
        instr = Instruction(op="SADDI", d=1, a=2, imm=fx.ONE)
        assert Instruction._fields == ("op", "d", "a", "b", "imm", "addr", "target")
        assert (instr.op, instr.d, instr.a, instr.b, instr.imm, instr.addr,
                instr.target) == ("SADDI", 1, 2, None, fx.ONE, None, None)

    def test_repr(self):
        assert repr(Instruction("HALT")) == (
            "Instruction(op='HALT', d=None, a=None, b=None, imm=None, addr=None, "
            "target=None)")
        assert repr(Instruction("LDI", d=1, imm=fx.ONE)) == (
            "Instruction(op='LDI', d=1, a=None, b=None, imm=Fixed64(raw=4294967296), "
            "addr=None, target=None)")

    def test_branches_to_different_labels_get_own_targets(self):
        p = isa.assemble("a: BNZ s1, a\nBNZ s1, b\nb: BNZ s1, a\nHALT")
        assert [i.target for i in p.instructions] == [0, 2, 0, None]
        assert p.instructions[0] == p.instructions[2] != p.instructions[1]

    def test_equal_to_plain_tuple_of_its_fields(self):
        """A named tuple compares and hashes as its fields; no caller relies
        on an Instruction differing from the plain tuple."""
        fields = ("SADD", 1, 2, 3, None, None, None)
        instr = Instruction("SADD", d=1, a=2, b=3)
        assert instr == fields and hash(instr) == hash(fields)
        assert instr != ("SADD", 1, 2, 3)


class TestDisassemble:
    def test_halt_only(self):
        assert isa.disassemble(Program(instructions=[Instruction("HALT")])) == "HALT"

    def test_synthetic_labels(self):
        p = isa.assemble("top: SADDI s1, s1, -1\nBNZ s1, top\nHALT")
        text = isa.disassemble(p)
        assert text.splitlines()[0].startswith("L0: ")
        assert "BNZ s1, L0" in text

    def test_roundtrip_identity(self):
        src = """
        LDI s1, 3.5
        loop: SADDI s1, s1, -1
        VLD v0, [0]
        VADDS v1, v0, s1
        VST [24], v1
        BNZ s1, loop
        HALT
        .data 0 1.0 2.0 0x0000000000000001
        """
        p = isa.assemble(src)
        assert isa.assemble(isa.disassemble(p)) == p

    @pytest.mark.parametrize("raw", [fx.RAW_MAX, fx.RAW_MIN])
    def test_roundtrip_extreme_words(self, raw):
        p = Program(instructions=[Instruction("LDI", d=1, imm=fx.Fixed64(raw))],
                    data_init=[(0, [fx.Fixed64(raw)])])
        assert isa.assemble(isa.disassemble(p)) == p

    def test_roundtrip_scalar_kernel(self):
        p = kernel.emit_scalar_program(256)
        assert isa.assemble(isa.disassemble(p)) == p

    def test_roundtrip_random_programs(self, rng):
        cfg = CoreConfig()
        for _ in range(200):
            p = random_program(rng, cfg)
            assert isa.assemble(isa.disassemble(p)) == p

    def test_word_range_ends_print_as_decimals(self):
        """-2^31 and the largest word below 2^31 are in the range a decimal
        immediate takes, so both print as decimals, not as raw hex."""
        p = isa.assemble("LDI s1, -2147483648\nLDI s2, 2147483647.9999998\nHALT")
        assert isa.disassemble(p).splitlines()[:2] == [
            "LDI s1, -2147483648.0", "LDI s2, 2147483647.9999998"]

    def test_unknown_opcode_rejected(self):
        p = Program([Instruction("HALT"), Instruction("FOO")])
        with pytest.raises(ValueError, match="^instr 1: unknown opcode 'FOO'$"):
            isa.disassemble(p)

    def test_missing_operand_rejected(self):
        """Printed, it would read `SADD s1, sNone, sNone`, which does not
        assemble."""
        with pytest.raises(ValueError,
                           match=r"^instr 0 \(SADD\): sa operand None is not an int$"):
            isa.disassemble(Program([Instruction("SADD", d=1)]))

    @pytest.mark.parametrize("data,message", [
        ([(1.0, [fx.ZERO])], ".data at 1.0: address is not an int"),
        ([(None, [])], ".data at None: address is not an int"),
        ([(0, [1])], ".data at 0: values must be Fixed64 words")])
    def test_mistyped_data_rejected(self, data, message):
        with pytest.raises(ValueError) as exc:
            isa.disassemble(Program([Instruction("HALT")], data))
        assert str(exc.value) == message


class TestValidate:
    cfg = CoreConfig()

    def test_vector_register_out_of_range(self):
        p = Program(instructions=[Instruction("VMUL", d=9, a=0, b=1),
                                  Instruction("HALT")])
        cfg = CoreConfig(n_vregs=8)
        assert any("vector register index 9 out of range" in d
                   for d in isa.validate(p, cfg))

    @pytest.mark.parametrize("instr,message", [
        (Instruction("LDI", d=-1, imm=fx.ONE),
         "instr 0 (LDI): scalar register index -1 out of range (n_sregs=16)"),
        (Instruction("SADD", d=1, a=2, b=-16),
         "instr 0 (SADD): scalar register index -16 out of range (n_sregs=16)"),
        (Instruction("VADD", d=-1, a=0, b=1),
         "instr 0 (VADD): vector register index -1 out of range (n_vregs=16)"),
        (Instruction("VMULS", d=1, a=-3, b=1),
         "instr 0 (VMULS): vector register index -3 out of range (n_vregs=16)"),
    ])
    def test_negative_register_rejected(self, instr, message):
        p = Program(instructions=[instr, Instruction("HALT")])
        assert isa.validate(p, self.cfg) == [message]

    @pytest.mark.parametrize("program,message", [
        (Program([Instruction("SADD", d=1, a=2)]),
         "instr 0 (SADD): sb operand None is not an int"),
        (Program([Instruction("JMP")]),
         "instr 0 (JMP): label operand None is not an int"),
        (Program([Instruction("VLD", d=1)]),
         "instr 0 (VLD): addr operand None is not an int"),
        (Program([Instruction("LDI", d=1)]),
         "instr 0 (LDI): imm operand None is not a Fixed64"),
        (Program([Instruction("LDI", d=1, imm=5)]),
         "instr 0 (LDI): imm operand 5 is not a Fixed64"),
        (Program([], [(0, [1, 2])]),
         ".data at 0: values must be Fixed64 words"),
        (Program([], [(1.0, [fx.ZERO])]),
         ".data at 1.0: address is not an int"),
        (Program([], [(None, [fx.ZERO])]),
         ".data at None: address is not an int"),
        (Program([Instruction("FOO")]),
         "instr 0: unknown opcode 'FOO'"),
        (Program([Instruction("SADD", d=1.0, a=2, b=3)]),
         "instr 0 (SADD): sd operand 1.0 is not an int"),
        (Program([Instruction("SLD", d=1, addr=2.0)]),
         "instr 0 (SLD): addr operand 2.0 is not an int"),
        (Program([Instruction("JMP", target=1.0)]),
         "instr 0 (JMP): label operand 1.0 is not an int"),
        (Program([], [(10**5000, [fx.ZERO])]),     # past int-to-str's digit limit
         ".data (+1 words) outside data memory of 4096"),
    ], ids=["missing-b", "missing-target", "missing-addr", "missing-imm",
            "int-imm", "int-data", "float-data-addr", "none-data-addr",
            "unknown-opcode", "float-register", "float-addr", "float-target",
            "long-data-addr"])
    def test_library_instruction_rejected(self, program, message):
        """A library-built program the assembler could not produce gets one
        diagnostic, from validate and from core.run alike."""
        program = Program([*program.instructions, Instruction("HALT")],
                          program.data_init)
        assert isa.validate(program, self.cfg) == [message]
        with pytest.raises(ValidationError) as exc:
            run(program, self.cfg)
        assert exc.value.diagnostics == [message]

    @pytest.mark.parametrize("data,message", [
        ([(0, None)], ".data at 0: values must be Fixed64 words"),
        ([(0, 5)], ".data at 0: values must be Fixed64 words"),
        ([(0,)], ".data entry (0,) is not an (address, words) pair"),
        ([5], ".data entry 5 is not an (address, words) pair"),
        ([(0, [fx.ONE], 3)], ".data entry (0, [Fixed64(raw=4294967296)], 3) "
                             "is not an (address, words) pair"),
        ([(10**5000,)], ".data entry is not an (address, words) pair"),
        ([(10**5000, 5)], ".data: values must be Fixed64 words"),
        ([([10**5000], [fx.ZERO])], ".data: address is not an int"),
    ], ids=["none-words", "int-words", "no-words", "bare-int", "triple",
            "long-no-words", "long-int-words", "long-list-addr"])
    def test_malformed_data_entry_rejected(self, data, message):
        """An entry that is not an (address, words) pair is a diagnostic of
        validate, core.run and disassemble, not a bare unpacking error."""
        program = Program([Instruction("HALT")], data)
        assert isa.validate(program, self.cfg) == [message]
        with pytest.raises(ValidationError) as exc:
            run(program, self.cfg)
        assert exc.value.diagnostics == [message]
        with pytest.raises(ValueError) as exc:
            isa.disassemble(program)
        assert str(exc.value) == message

    def test_converter_disabled(self):
        p = isa.assemble("F2X s1, s2\nHALT")
        cfg = CoreConfig(enable_converter=False)
        assert any("converter disabled" in d for d in isa.validate(p, cfg))
        assert isa.validate(p, self.cfg) == []

    def test_memory_bounds_vector_width(self):
        p = isa.assemble("VLD v0, [4090]\nHALT")   # 24 words from 4090
        assert any("outside data memory" in d for d in isa.validate(p, self.cfg))

    def test_memory_bounds_exact(self):
        """The first and last words of memory are in it, and one past them is not."""
        ok = "SLD s1, [0]\nSST [4095], s1\nVLD v0, [0]\nVST [4072], v0\n.data 0 1.0\n" \
             ".data 4094 1.0 2.0\nHALT"
        assert isa.validate(isa.assemble(ok), self.cfg) == []
        bad = "SST [4096], s1\nVST [4073], v0\n.data 4095 1.0 2.0\n.data -1 1.0\nHALT"
        assert isa.validate(isa.assemble(bad), self.cfg) == [
            "instr 0 (SST): address 4096 (+1 words) outside data memory of 4096",
            "instr 1 (VST): address 4073 (+24 words) outside data memory of 4096",
            ".data at 4095 (+2 words) outside data memory of 4096",
            ".data at -1 (+1 words) outside data memory of 4096"]

    def test_branch_target_bounds_exact(self):
        """A target is an index of the program: its last one, not its length."""
        halt = Instruction("HALT")
        assert isa.validate(Program([Instruction("JMP", target=1), halt]), self.cfg) == []
        assert isa.validate(Program([Instruction("JMP", target=2), halt]), self.cfg) == [
            "instr 0 (JMP): branch target 2 out of range"]

    def test_missing_units(self):
        p = isa.assemble("VDIV v0, v1, v2\nHALT")
        cfg = CoreConfig(n_div=0)
        assert any("no units" in d for d in isa.validate(p, cfg))

    def test_unhashable_opcode_leaves_unit_checks(self):
        """A list opcode is one unknown opcode; the unit checks still judge
        the program's other instructions."""
        p = Program([Instruction(["x"]), *isa.assemble("VDIV v0, v1, v2\nHALT").instructions])
        assert isa.unit_classes(p) == [OpClass.DIV_CLASS]
        assert isa.validate(p, CoreConfig(n_div=0)) == [
            "instr 0: unknown opcode ['x']", "program uses DIV_CLASS but the "
            "configuration instantiates no units of that class"]

    def test_units_beyond_vector_length(self):
        p = isa.assemble("VADD v0, v1, v2\nHALT")
        cfg = CoreConfig(vec_len=8, n_add=9)
        assert any("exceeds vector length" in d for d in isa.validate(p, cfg))

    def test_valid_kernel_program(self):
        assert isa.validate(kernel.emit_program(24), self.cfg) == []

    def test_repeated_statement_faults_at_each_index(self):
        """The assembler shares one object between the lines of a repeated
        statement; its fault is named at each of them, in index order,
        around another fault."""
        p = isa.assemble("SLD s20, [0]\nSLD s1, [5000]\nSLD s20, [0]\n"
                         "SLD s20, [0]\nHALT")
        assert p.instructions[0] is p.instructions[2] is p.instructions[3]
        bad_reg = "(SLD): scalar register index 20 out of range (n_sregs=16)"
        assert isa.validate(p, CoreConfig(n_sregs=16)) == [
            f"instr 0 {bad_reg}",
            "instr 1 (SLD): address 5000 (+1 words) outside data memory of 4096",
            f"instr 2 {bad_reg}", f"instr 3 {bad_reg}"]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_structure_matches_reference(self, seed):
        """Random programs with branches and conversions, checked under
        small configurations that trip every structural check."""
        rng = random.Random(seed)
        p = random_program(rng, self.cfg, n_instr=rng.randrange(1, 30))
        ins = p.instructions
        for _ in range(rng.randrange(5)):
            reg, target = rng.randrange(16), rng.randrange(-2, len(ins) + 3)
            ins.insert(rng.randrange(len(ins) + 1), rng.choice([
                Instruction("JMP", target=target),
                Instruction("BNZ", a=reg, target=target),
                Instruction("F2X", d=reg, a=rng.randrange(16)),
                Instruction("X2F", d=rng.randrange(16), a=reg)]))
        # Objects shared between indexes, as the assembler shares a repeated
        # statement's: each is checked once, its faults named at every index.
        shared = [Instruction("JMP", target=-1)] * 3        # out of range
        shared += rng.choices(ins, k=rng.randrange(6))
        for instr in shared:
            ins.insert(rng.randrange(len(ins) + 1), instr)
        p.data_init = [(rng.randrange(-3, 4100), [fx.ZERO] * rng.randrange(30))
                       for _ in range(rng.randrange(3))]
        cfg = CoreConfig(vec_len=rng.choice([1, 8, 24, 64]),
                         n_sregs=rng.randrange(17), n_vregs=rng.randrange(17),
                         dmem_words=rng.choice([1, 64, 4096]),
                         enable_converter=rng.random() < 0.5)
        assert isa.validate_structure(p, cfg) == ref_validate_structure(p, cfg)
        used = {isa.opclass(i.op) for i in p.instructions} & isa.CLASS_UNITS.keys()
        assert isa.unit_classes(p) == sorted(used, key=lambda c: c.value)


class TestDiagnosticBound:
    def test_message_of_exactly_the_bound_kept_whole(self):
        text = "x" * isa.MAX_DIAGNOSTIC
        assert ValidationError(text).diagnostics == [text]

    def test_longer_message_keeps_both_ends(self):
        """147 characters of each end around " ... ": 299 in all."""
        text = "a" * 150 + "b" * 150 + "c"
        assert ValidationError(text).diagnostics == ["a" * 147 + " ... " + "b" * 146 + "c"]


class TestOpClasses:
    def test_every_opcode_has_one_class(self):
        for m in isa.OPCODES:
            assert isinstance(isa.opclass(m), OpClass)

    def test_sub_maps_to_add_class(self):
        assert isa.opclass("SSUB") is OpClass.ADD_CLASS
        assert isa.opclass("VSUB") is OpClass.ADD_CLASS
        assert isa.opclass("VSUBS") is OpClass.ADD_CLASS

    def test_inversion_maps_to_div_class(self):
        assert isa.opclass("SINV") is OpClass.DIV_CLASS
        assert isa.opclass("VINV") is OpClass.DIV_CLASS
