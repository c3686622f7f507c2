import math
import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vproc.fixedpoint as fx
from vproc import isa, kernel
from vproc.core import (MAX_CYCLES, MAX_STATE_WORDS, CoreConfig, SimulationFault,
                        SimulationTimeout, ValidationError, instr_cost, run,
                        waves)
from vproc.isa import Instruction, OpClass, Program

from conftest import (OPERAND_FIELD, looping_program, random_program, ref_cycles,
                      ref_run, ref_walk)


def kernel_setup(cfg, seed=7):
    ins = kernel.generate_inputs(cfg.vec_len, seed)
    p = kernel.emit_program(cfg.vec_len, s_k=ins.s_k)
    return p, kernel.data_initializers(ins)


class TestWaves:
    @pytest.mark.parametrize("v,k,expected", [(24, 8, 3), (24, 24, 1),
                                              (24, 5, 5), (1, 1, 1)])
    def test_ceiling(self, v, k, expected):
        assert waves(v, k) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            waves(0, 1)


class TestCoreConfig:
    @pytest.mark.parametrize("name", ["n_add", "n_mul", "n_div", "lat_add",
                                      "lat_mul", "lat_div", "issue_cost",
                                      "lat_convert", "n_sregs", "n_vregs"])
    def test_negative_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            CoreConfig(**{name: -1})

    @pytest.mark.parametrize("clock", [0.0, -100.0, math.nan, math.inf])
    def test_clock_must_be_finite_and_positive(self, clock):
        with pytest.raises(ValueError, match="clock_mhz must be finite and > 0"):
            CoreConfig(clock_mhz=clock)

    @pytest.mark.parametrize("name", ["vec_len", "mem_port_width"])
    def test_width_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            CoreConfig(**{name: 0})

    def test_memory_must_hold_a_word(self):
        with pytest.raises(ValueError, match="dmem_words must be >= 1"):
            CoreConfig(dmem_words=0)
        assert CoreConfig(dmem_words=1, n_sregs=0, n_vregs=0).dmem_words == 1

    def test_state_words_bounded(self):
        # 16 scalar and 16 vector registers of 24 lanes, the rest memory
        words = MAX_STATE_WORDS - 16 - 16 * 24
        assert CoreConfig(dmem_words=words).dmem_words == words
        with pytest.raises(ValueError, match=f"must be <= {MAX_STATE_WORDS}"):
            CoreConfig(dmem_words=words + 1)

    @pytest.mark.parametrize("field", ["dmem_words", "n_vregs", "n_sregs",
                                       "vec_len"])
    def test_huge_size_rejected(self, field):
        with pytest.raises(ValueError, match="must be <="):
            CoreConfig(**{field: 10**20})

    @pytest.mark.parametrize("kwargs,message", [
        ({"n_add": 1.5}, "n_add must be >= 0, got 1.5: not an int"),
        ({"vec_len": 2.5}, "vec_len must be >= 1, got 2.5: not an int"),
        ({"issue_cost": "2"}, "issue_cost must be >= 0, got '2': not an int"),
        ({"dmem_words": True}, "dmem_words must be >= 1, got True: not an int"),
        ({"mem_port_width": 8.0}, "mem_port_width must be >= 1, got 8.0: not an int"),
        ({"clock_mhz": "100"},
         "clock_mhz must be finite and > 0, got '100': not an int or float"),
        ({"clock_mhz": True},
         "clock_mhz must be finite and > 0, got True: not an int or float"),
        ({"enable_converter": "no"}, "enable_converter must be a bool, got 'no'"),
        ({"enable_converter": 1}, "enable_converter must be a bool, got 1")],
        ids=["n_add", "vec_len", "issue_cost", "dmem_words", "mem_port_width",
             "clock_mhz-str", "clock_mhz-bool", "converter-str", "converter-int"])
    def test_mistyped_field_rejected(self, kwargs, message):
        with pytest.raises(ValidationError) as exc:
            CoreConfig(**kwargs)
        assert exc.value.diagnostics == [message]

    def test_checked_fields_cannot_be_reassigned(self):
        cfg = CoreConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.dmem_words = 10**20
        assert run(isa.assemble("HALT"), cfg).instr_count == 1

    def test_int_clock_accepted(self):
        assert CoreConfig(clock_mhz=100).clock_mhz == 100

    def test_int_clock_past_float_range_accepted(self):
        assert CoreConfig(clock_mhz=10**400).clock_mhz == 10**400

    def test_clock_too_long_to_print_left_out(self):
        with pytest.raises(ValidationError) as exc:
            CoreConfig(clock_mhz=-10**5000)
        assert exc.value.diagnostics == ["clock_mhz must be finite and > 0"]

    def test_no_scalar_registers_runs_vector_program(self):
        p = isa.assemble("VADD v1, v1, v1\nHALT")
        assert run(p, CoreConfig(n_sregs=0)).instr_count == 2

    def test_zero_units_rejected_only_when_used(self):
        cfg = CoreConfig(n_div=0)
        assert run(isa.assemble("VADD v1, v1, v1\nHALT"), cfg).instr_count == 2
        with pytest.raises(ValidationError, match="no units"):
            run(isa.assemble("VINV v1, v1\nHALT"), cfg)

    def test_count_too_long_to_print(self):
        """A unit count past Python's int-to-str digit limit is one
        ValidationError that names its class but not the count."""
        with pytest.raises(ValidationError) as exc:
            run(kernel.emit_program(24), CoreConfig(n_mul=10**5000))
        assert exc.value.diagnostics == [
            "MUL_CLASS unit count exceeds vector length 24"]
        with pytest.raises(ValidationError) as exc:
            run(kernel.emit_program(24), CoreConfig(n_mul=25))
        assert exc.value.diagnostics == [
            "MUL_CLASS unit count 25 exceeds vector length 24"]


class TestInstrCost:
    cfg = CoreConfig()   # W=24, 8-8-8, issue 2, lat_div 64

    def test_vmul(self):
        assert instr_cost(Instruction("VMUL", d=0, a=1, b=2), self.cfg) == 5

    def test_vdiv(self):
        assert instr_cost(Instruction("VDIV", d=0, a=1, b=2), self.cfg) == 194

    def test_vdiv_full_width(self):
        cfg = self.cfg.with_mix(8, 8, 24)
        assert instr_cost(Instruction("VDIV", d=0, a=1, b=2), cfg) == 66

    def test_control_is_issue_only(self):
        for op in ("HALT", "JMP", "VMOV"):
            i = Instruction(op, d=0, a=0, target=0)
            assert instr_cost(i, self.cfg) == self.cfg.issue_cost

    def test_scalar_classes(self):
        assert instr_cost(Instruction("SADD", d=1, a=1, b=1), self.cfg) == 3
        assert instr_cost(Instruction("SDIV", d=1, a=1, b=1), self.cfg) == 66
        assert instr_cost(Instruction("F2X", d=1, a=1), self.cfg) == 4

    def test_memory(self):
        assert instr_cost(Instruction("VLD", d=0, addr=0), self.cfg) == 3
        assert instr_cost(Instruction("SLD", d=0, addr=0), self.cfg) == 3
        narrow = CoreConfig(mem_port_width=8)
        assert instr_cost(Instruction("VLD", d=0, addr=0), narrow) == 5

    def test_default_port_width_follows_replaced_vec_len(self):
        vld = Instruction("VLD", d=0, addr=0)
        wide = replace(CoreConfig(vec_len=8), vec_len=24)
        assert instr_cost(vld, wide) == instr_cost(vld, CoreConfig()) == 3
        narrow = replace(CoreConfig(vec_len=8, mem_port_width=8), vec_len=24)
        assert instr_cost(vld, narrow) == 5


class TestReset:
    def test_zeroed(self):
        r = run(isa.assemble("HALT"), CoreConfig(), observe=(0, 4096))
        assert all(w.raw == 0 for w in r.memory) and len(r.memory) == 4096
        assert r.total_cycles == 2 and r.instr_count == 1


class TestRun:
    def test_scalar_inverse_program(self):
        p = isa.assemble("LDI s1, 2.0\nSINV s2, s1\nHALT")
        cfg = CoreConfig()
        r = run(p, cfg)
        # LDI 2 + SINV (2+64) + HALT 2, per the analytic cost model
        assert r.total_cycles == 70
        assert r.total_cycles == sum(instr_cost(i, cfg) for i in p.instructions)

    def test_s0_hardwired_zero(self):
        p = isa.assemble("LDI s0, 5.0\nSST [0], s0\nHALT")
        r = run(p, CoreConfig(), observe=(0, 1))
        assert r.memory[0].raw == 0

    def test_kernel_cycles_8_8_8(self):
        cfg = CoreConfig()
        p, inits = kernel_setup(cfg)
        assert run(p, cfg, inputs=inits).total_cycles == 659

    def test_kernel_cycles_8_8_24(self):
        cfg = CoreConfig().with_mix(8, 8, 24)
        p, inits = kernel_setup(cfg)
        assert run(p, cfg, inputs=inits).total_cycles == 275

    def test_determinism(self):
        cfg = CoreConfig()
        p, inits = kernel_setup(cfg)
        r1 = run(p, cfg, inputs=inits, observe=(240, 24))
        r2 = run(p, cfg, inputs=inits, observe=(240, 24))
        assert r1 == r2

    def test_branch_loop(self):
        p = isa.assemble("""
            LDI s1, 5.0
            LDI s2, 0.0
            loop: SADDI s2, s2, 1.0
            SADDI s1, s1, -1.0
            BNZ s1, loop
            SST [0], s2
            HALT
        """)
        r = run(p, CoreConfig(), observe=(0, 1))
        assert fx.to_real(r.memory[0]) == 5.0
        assert list(r.counts.items()) == [     # in order of first use
            ("LDI", 2), ("SADDI", 10), ("BNZ", 5), ("SST", 1), ("HALT", 1)]

    def test_div_by_zero_flag_surfaces(self):
        p = isa.assemble("LDI s1, 1.0\nSDIV s2, s1, s0\nSST [0], s2\nHALT")
        r = run(p, CoreConfig(), observe=(0, 1))
        assert r.flags.div_by_zero
        assert r.memory[0].raw == fx.RAW_MAX

    def test_conversion_roundtrip_through_registers(self):
        # X2F then F2X recovers any dyadic value expressible in a double
        p = isa.assemble("LDI s1, 1.5\nX2F s2, s1\nF2X s3, s2\nSST [0], s3\nHALT")
        r = run(p, CoreConfig(), observe=(0, 1))
        assert r.memory[0] == fx.from_real(1.5)

    @pytest.mark.parametrize("pattern,raw", [(0x7FF8000000000000, 0),
                                             (0x7FF0000000000000, fx.RAW_MAX),
                                             (0xFFF0000000000000, fx.RAW_MIN)])
    def test_f2x_of_nan_and_inf_sets_overflow(self, pattern, raw):
        """NaN converts to 0, and +inf and -inf to the largest and the
        smallest word; each sets overflow."""
        p = isa.assemble(f"LDI s1, 0x{pattern:016X}\nF2X s2, s1\nSST [0], s2\nHALT")
        r = run(p, CoreConfig(), observe=(0, 1))
        assert r.memory[0].raw == raw
        assert r.flags.overflow

    def test_validation_enforced(self):
        p = Program(instructions=[Instruction("F2X", d=1, a=2),
                                  Instruction("HALT")])
        with pytest.raises(ValidationError):
            run(p, CoreConfig(enable_converter=False))

    @pytest.mark.parametrize("observe", [(-3, 5), (0, -1), (4090, 7)])
    def test_observe_outside_memory_rejected(self, observe):
        with pytest.raises(ValidationError) as exc:
            run(isa.assemble("HALT"), CoreConfig(), observe=observe)
        assert exc.value.diagnostics == [
            f"observe range '{observe[0]}:{observe[1]}' outside data memory "
            f"of 4096 words"]

    def test_missing_halt_faults(self):
        p = Program(instructions=[Instruction("LDI", d=1, imm=fx.ONE)])
        with pytest.raises(SimulationFault, match=r"^fault at instruction 1: program "
                           r"counter out of range \(missing HALT\?\)$"):
            run(p, CoreConfig())

    @pytest.mark.parametrize("src,words", [("VST [6], v0\nHALT", 10),
                                           ("VLD v0, [6]\nVST [0], v0\nHALT", 6)],
                             ids=["store-grows", "short-load-shrinks"])
    def test_vector_span_past_memory_faults(self, monkeypatch, src, words):
        """Were the validator to pass a span past the end of memory, the
        slice would resize memory; the run faults instead of reporting it."""
        monkeypatch.setattr(isa, "validate", lambda p, cfg: [])
        cfg = CoreConfig(dmem_words=8, vec_len=4, n_add=4, n_mul=4, n_div=4)
        halt = src.count("\n")
        with pytest.raises(SimulationFault) as exc:
            run(isa.assemble(src), cfg, observe=(0, 8))
        assert str(exc.value) == (f"fault at instruction {halt}: a vector span "
                                  f"resized data memory to {words} words")

    def test_empty_program(self):
        with pytest.raises(SimulationFault, match="fault at instruction 0: "):
            run(Program(), CoreConfig())
        with pytest.raises(SimulationTimeout) as exc:  # the marker's 0 cycles > -1
            run(Program(), CoreConfig(), max_cycles=-1)
        assert exc.value.report.total_cycles == exc.value.report.instr_count == 0

    @pytest.mark.parametrize("op", isa.OPCODES)
    def test_every_opcode_dispatched(self, op):
        """Each opcode, in range and followed by HALT (a branch's target),
        retires once: the loop dispatches it, so it does not reach the
        end-of-program fault."""
        i = Instruction(op, d=1, a=1, b=1, imm=fx.ONE, addr=0, target=1)
        r = run(Program([i, Instruction("HALT")]), CoreConfig())
        assert r.counts[op] == 1 and r.instr_count == 1 + (op != "HALT")

    def test_every_bad_input_named(self):
        p = Program([Instruction("SADD", d=16, a=1, b=1), Instruction("HALT")])
        with pytest.raises(ValidationError) as exc:
            run(p, CoreConfig(), inputs=[(4095, [0, 0])], observe=(4090, 7))
        assert exc.value.diagnostics == [
            "instr 0 (SADD): scalar register index 16 out of range (n_sregs=16)",
            "observe range '4090:7' outside data memory of 4096 words",
            "initializer at 4095 outside data memory"]

    @pytest.mark.parametrize("kwargs,message", [
        ({"observe": (0.5, 2)}, "observe range (0.5, 2) is not two ints"),
        ({"observe": (0, None)}, "observe range (0, None) is not two ints"),
        ({"max_cycles": None}, "max_cycles None is not an int"),
        ({"inputs": [(0.0, [1])]}, "initializer at 0.0: address is not an int"),
        ({"inputs": [(None, [1])]}, "initializer at None: address is not an int"),
        ({"inputs": [(0, 5)]}, "initializer at 0: words are not a list or tuple"),
        ({"inputs": [5]}, "initializer 5 is not an (address, words) pair"),
        ({"inputs": 5}, "inputs 5 is not a list of (address, words) pairs"),
        ({"inputs": [(0, [1], 2)]}, "initializer (0, [1], 2) is not an (address, words) pair"),
        ({"observe": 5}, "observe range 5 is not two ints"),
        ({"observe": (1, 2, 3)}, "observe range (1, 2, 3) is not two ints")])
    def test_mistyped_argument_rejected(self, kwargs, message):
        """Arguments the CLI never passes: one ValidationError each, not a
        bare TypeError or ValueError from the range checks or the run."""
        with pytest.raises(ValidationError) as exc:
            run(isa.assemble("HALT"), CoreConfig(), **kwargs)
        assert exc.value.diagnostics == [message]

    @pytest.mark.parametrize("kwargs,message", [
        ({"observe": (10**5000, 1)}, "observe range outside data memory of 4096 words"),
        ({"observe": (0, 10**5000)}, "observe range outside data memory of 4096 words"),
        ({"inputs": [(10**5000, [1])]}, "initializer outside data memory"),
        ({"observe": (10**5000,)}, "observe range is not two ints"),
        ({"inputs": [(10**5000,)]}, "initializer is not an (address, words) pair"),
        ({"inputs": [(10**5000, 5)]}, "initializer: words are not a list or tuple"),
        ({"inputs": {10**5000}}, "inputs is not a list of (address, words) pairs"),
        ({"inputs": [([10**5000], [1])]}, "initializer: address is not an int"),
        ({"max_cycles": [10**5000]}, "max_cycles is not an int")],
        ids=["observe-start", "observe-length", "initializer-address",
             "observe-not-pair", "initializer-not-pair", "initializer-words", "inputs",
             "initializer-list-address", "max-cycles"])
    def test_number_too_long_to_print(self, kwargs, message):
        """A number past Python's int-to-str digit limit is left out of its
        message, as the unit-count check leaves out such a count."""
        with pytest.raises(ValidationError) as exc:
            run(isa.assemble("HALT"), CoreConfig(), **kwargs)
        assert exc.value.diagnostics == [message]

    def test_failing_repr_is_not_hidden(self):
        """Only the digit limit's ValueError drops a value from a message; an
        argument whose own repr raises ValueError raises it."""
        class Broken:
            def __repr__(self):
                raise ValueError("broken repr")
        with pytest.raises(ValueError, match="broken repr") as exc:
            run(isa.assemble("HALT"), CoreConfig(), max_cycles=Broken())
        assert not isinstance(exc.value, ValidationError)

    def test_timeout_carries_partial_report(self):
        p = isa.assemble("spin: JMP spin\nHALT")
        with pytest.raises(SimulationTimeout) as exc:
            run(p, CoreConfig(), max_cycles=100)
        assert exc.value.report.total_cycles > 100

    def test_zero_cost_loop_times_out(self):
        p = isa.assemble("spin: JMP spin\nHALT")
        with pytest.raises(SimulationTimeout) as exc:
            run(p, CoreConfig(issue_cost=0), max_cycles=100)
        assert exc.value.report.total_cycles == 0
        assert exc.value.report.instr_count == 101

    def test_utilization_bounds(self):
        cfg = CoreConfig()
        p, inits = kernel_setup(cfg)
        r = run(p, cfg, inputs=inits)
        for cls, u in r.utilization.items():
            assert 0.0 <= u <= 1.0
        assert r.busy_cycles[OpClass.DIV_CLASS] == 3 * 24 * 64


class TestProperties:
    def test_fu_mix_value_invariance(self, rng):
        base = CoreConfig()
        mixes = [(1, 1, 1), (8, 8, 8), (8, 8, 24), (24, 24, 24)]
        for _ in range(25):
            p = random_program(rng, base)
            outs = []
            for mix in mixes:
                r = run(p, base.with_mix(*mix), observe=(0, base.dmem_words))
                outs.append(([v.raw for v in r.memory],
                             r.flags.overflow, r.flags.div_by_zero))
            assert all(o == outs[0] for o in outs)

    def test_total_cycles_is_analytic_sum(self, rng):
        cfg = CoreConfig(n_add=3, n_mul=5, n_div=7)
        for _ in range(50):
            p = random_program(rng, cfg)
            expected = sum(instr_cost(i, cfg) for i in p.instructions)
            assert run(p, cfg).total_cycles == expected

    def test_monotone_in_unit_counts(self):
        base = CoreConfig()
        p, inits = kernel_setup(base)
        for attr in ("n_add", "n_mul", "n_div"):
            prev = None
            for n in (1, 2, 4, 8, 16, 24):
                cfg = CoreConfig(**{attr: n})
                cycles = run(p, cfg, inputs=inits).total_cycles
                if prev is not None:
                    assert cycles <= prev
                prev = cycles

    def test_vector_scalar_equivalence(self):
        cfg = CoreConfig()
        for seed in range(5):
            ins = kernel.generate_inputs(24, seed)
            inits = kernel.data_initializers(ins)
            pv = kernel.emit_program(24, s_k=ins.s_k)
            ps = kernel.emit_scalar_program(24, s_k=ins.s_k)
            rv = run(pv, cfg, inputs=inits, observe=(240, 24))
            rs = run(ps, cfg, inputs=inits, observe=(240, 24))
            assert [v.raw for v in rv.memory] == [v.raw for v in rs.memory]


class TestAgainstReferenceInterpreter:
    @pytest.mark.parametrize("vec_len", [1, 3, 8, 24])
    def test_memory_and_flags_match(self, vec_len):
        # Few registers and a small memory, so operands alias often.  Odd
        # seeds draw only positive words and load every register first, so
        # whole vectors often divide by floor division (fixedpoint.vdiv).
        cfg = CoreConfig(vec_len=vec_len, n_add=1, n_mul=1, n_div=1,
                         n_sregs=4, n_vregs=4, dmem_words=max(32, 4 * vec_len))
        seen = set()
        for seed in range(60):
            rng = random.Random(seed)
            p = random_program(rng, cfg, n_instr=rng.randint(1, 30))
            if seed % 2:
                words = [rng.randrange(1, 4 * fx.SCALE) for _ in range(cfg.dmem_words)]
                top = cfg.dmem_words - vec_len
                p.instructions[:0] = [
                    *(Instruction("VLD", d=r, addr=rng.randint(0, top))
                      for r in range(cfg.n_vregs)),
                    *(Instruction("SLD", d=r, addr=rng.randrange(cfg.dmem_words))
                      for r in range(1, cfg.n_sregs))]
            else:
                words = [rng.randrange(-4 * fx.SCALE, 4 * fx.SCALE)
                         if rng.random() < 0.9 else 0
                         for _ in range(cfg.dmem_words)]
            inputs = [(0, words)]
            r = run(p, cfg, inputs=inputs, observe=(0, cfg.dmem_words))
            mem, flags = ref_run(p, cfg, inputs)
            assert [w.raw for w in r.memory] == mem, seed
            assert (r.flags.overflow, r.flags.div_by_zero) \
                == (flags["overflow"], flags["div_by_zero"]), seed
            seen |= {("overflow", flags["overflow"]),
                     ("div_by_zero", flags["div_by_zero"])}
        assert len(seen) == 4    # each flag was both raised and left clear


@st.composite
def timed_cases(draw):
    """A config with every cost parameter drawn, and a random straight-line
    program with conversions (which random_program never draws) spliced in."""
    W = draw(st.integers(1, 30))
    units, lats = st.integers(1, W), st.integers(0, 70)
    cfg = CoreConfig(vec_len=W, n_add=draw(units), n_mul=draw(units),
                     n_div=draw(units), lat_add=draw(lats), lat_mul=draw(lats),
                     lat_div=draw(lats), lat_convert=draw(lats),
                     issue_cost=draw(st.integers(0, 3)),
                     mem_port_width=draw(st.none() | st.integers(1, W)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = random_program(rng, cfg, n_instr=rng.randint(1, 25))
    for _ in range(rng.randint(0, 3)):
        p.instructions.insert(rng.randrange(len(p.instructions)), Instruction(
            rng.choice(["F2X", "X2F"]), d=rng.randrange(cfg.n_sregs),
            a=rng.randrange(cfg.n_sregs)))
    return p, cfg


class TestAgainstCycleReference:
    """core.run's cycles and busy unit-cycles equal a unit-level schedule
    that shares no code with core.cost_table."""

    @settings(max_examples=500, deadline=None)
    @given(timed_cases())
    def test_total_and_busy_cycles_match(self, case):
        p, cfg = case
        report = run(p, cfg)
        assert (report.total_cycles, report.busy_cycles) == ref_cycles(p, cfg)


@st.composite
def looping_cases(draw):
    """A config with every cost parameter drawn, a looping program and
    random words (a tenth of them zero) filling data memory."""
    W = draw(st.integers(1, 12))
    units = st.integers(1, W)
    cfg = CoreConfig(vec_len=W, n_add=draw(units), n_mul=draw(units),
                     n_div=draw(units), lat_add=draw(st.integers(0, 3)),
                     lat_mul=draw(st.integers(0, 3)), lat_div=draw(st.integers(0, 69)),
                     issue_cost=draw(st.integers(0, 3)), n_vregs=4,
                     mem_port_width=draw(st.none() | st.integers(1, W)),
                     dmem_words=max(16, 3 * W))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    words = [rng.randrange(-4 * fx.SCALE, 4 * fx.SCALE) if rng.random() < 0.9 else 0
             for _ in range(cfg.dmem_words)]
    return looping_program(rng, cfg), cfg, [(0, words)]


def walk_outcome(p, cfg, inputs, max_cycles):
    """core.run's result in ref_walk's terms."""
    try:
        report, timed_out = run(p, cfg, inputs=inputs, observe=(0, cfg.dmem_words),
                                max_cycles=max_cycles), False
    except SimulationTimeout as exc:
        report, timed_out = exc.report, True
    # counts lists every opcode in the program, with 0 for one never retired.
    assert report.counts.keys() == {i.op for i in p.instructions}
    assert report.instr_count == sum(report.counts.values())
    return (timed_out, [w.raw for w in report.memory],
            {"overflow": report.flags.overflow, "div_by_zero": report.flags.div_by_zero},
            report.total_cycles, report.busy_cycles,
            {op: n for op, n in report.counts.items() if n})


class TestAgainstControlFlowReference:
    """core.run on counted loops with a forward branch equals a reference
    that walks the program by pc, to HALT and at both timeout boundaries."""

    @settings(max_examples=150, deadline=None)
    @given(looping_cases())
    def test_loops_and_timeouts_match(self, case):
        p, cfg, inputs = case
        want = ref_walk(p, cfg, inputs)
        assert not want[0]
        assert walk_outcome(p, cfg, inputs, MAX_CYCLES) == want
        total = want[3]
        for max_cycles in (total, total - 1):
            assert walk_outcome(p, cfg, inputs, max_cycles) \
                == ref_walk(p, cfg, inputs, max_cycles)


# Instruction fields as a library caller may set them: unset, a small int
# (negative ones included), a float or a fixed-point word.
_WORD = st.builds(fx.Fixed64, st.integers(fx.RAW_MIN, fx.RAW_MAX))
_FIELD = st.one_of(st.none(), st.integers(-4, 40), st.floats(-4, 40), _WORD)


def _edge_ints(cfg: CoreConfig, op: str, kind: str, n: int, edge: str):
    """Ints for one operand under cfg: within its range (a register bank,
    the addresses whose span fits data memory, the n instruction indices;
    0 if it is empty), or, for the `edge` kind, the last value in that range
    or the first past it."""
    span = cfg.vec_len if isa.is_vector(op) else 1
    past = {"s": cfg.n_sregs, "v": cfg.n_vregs, "l": n,
            "a": max(cfg.dmem_words - span + 1, 0)}[kind[0]]
    last = max(past - 1, 0)
    return st.sampled_from([last, past]) if kind[0] == edge else st.integers(0, last)


@st.composite
def library_program(draw, cfg: CoreConfig | None = None):
    """1-8 instructions over every opcode and one unknown name, and at most
    one .data entry of ints or words.  Each field is drawn from _FIELD; in
    about a third of the programs every operand a known opcode reads is then
    redrawn with its own type (an int in 0..15, a word for an immediate),
    so that those programs mostly pass validation and run.  Another third
    is redrawn the same way but with each int as a float, which validation
    must reject.

    Given a core, every program is redrawn with ints from `_edge_ints`, one
    drawn kind of operand at the edge of its range, and has no unknown
    opcode and no .data entry, which would hide that edge from the run."""
    if cfg is None:
        typed, ops = draw(st.sampled_from([None, int, float])), [*isa.OPCODES, "FOO"]
    else:
        typed, ops, edge = int, [*isa.OPCODES], draw(st.sampled_from("sval"))
    n = draw(st.integers(1, 8))
    instructions = []
    for _ in range(n):
        op = draw(st.sampled_from(ops))
        fields = {f: draw(_FIELD) for f in ("d", "a", "b", "imm", "addr", "target")}
        for kind in isa.OPCODES[op][1] if typed and op in isa.OPCODES else ():
            if kind == "imm":
                value = _WORD
            elif cfg is None:
                value = st.integers(0, 15).map(typed)
            else:
                value = _edge_ints(cfg, op, kind, n, edge)
            fields[OPERAND_FIELD[kind]] = draw(value)
        instructions.append(Instruction(op, **fields))
    if cfg is not None:
        return Program(instructions)
    values = st.lists(st.one_of(st.integers(-4, 40), _WORD), max_size=4)
    data = draw(st.lists(st.tuples(st.integers(-4, 40), values), max_size=1))
    return Program(instructions, data)


# Small cores, so that operands often hit the end of a register bank or of
# data memory; an observe range around that memory.
SMALL_CONFIG = st.builds(
    CoreConfig, vec_len=st.integers(1, 8), n_sregs=st.integers(0, 4),
    n_vregs=st.integers(0, 4), dmem_words=st.integers(1, 48),
    n_add=st.integers(0, 3), n_mul=st.integers(0, 3), n_div=st.integers(0, 3),
    enable_converter=st.booleans())
OBSERVE = st.none() | st.tuples(st.integers(-2, 50), st.integers(-2, 50))


class TestLibraryProgramContract:
    @settings(max_examples=300, deadline=None)
    @given(p=library_program(), observe=OBSERVE,
           small=SMALL_CONFIG.flatmap(lambda c: st.tuples(st.just(c), library_program(c))))
    def test_run_returns_or_raises_a_simulation_error(self, p, small, observe):
        """core.run on any library-built program returns a report or raises
        one of its own errors, never a bare Python one: once isa.validate
        passes, no register, address or branch target is out of range."""
        cfg, small_p = small
        for prog, core_cfg, window in ((p, CoreConfig(), None),
                                       (small_p, cfg, observe)):
            try:
                run(prog, core_cfg, observe=window, max_cycles=1000)
            except (ValidationError, SimulationFault, SimulationTimeout):
                pass
