import collections
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vproc.fixedpoint as fx
from vproc import archmodels, isa, kernel, resources
from vproc.core import CoreConfig, run
from vproc.isa import OpClass, ValidationError
from vproc.resources import DEFAULT_CALIBRATION as CAL

from conftest import (brute_force_longest_path, ref_dataflow_graph,
                      ref_emit_program, ref_emit_scalar_program, ref_oracle)

UNIT_COST = {OpClass.ADD_CLASS: CAL.c_add, OpClass.MUL_CLASS: CAL.c_mul,
             OpClass.DIV_CLASS: CAL.c_div}


def reference_eval(inputs, lane):
    """Independent per-element re-implementation of the expression."""
    v = {n: inputs.vectors[n][lane] for n in kernel.INPUT_NAMES}
    t1 = v["a"] * v["b"]
    t2 = t1 * v["c"]
    t3 = v["d"] * v["e"]
    t4 = t2 + t3
    t5 = t4 * v["f"]
    t6 = v["g"] * v["h"]
    t7 = t6 + inputs.s_k
    t8 = t5 * t7
    t9 = t8 / v["p"]
    t10 = t9 / v["q"]
    return 1.0 / t10


class TestEmitProgram:
    def test_shape_and_validity(self):
        p = kernel.emit_program(24)
        assert len(p.instructions) == 24
        assert isa.validate(p, CoreConfig()) == []

    def test_op_class_tally(self):
        p = kernel.emit_program(24)
        tally = collections.Counter(isa.opclass(i.op) for i in p.instructions)
        assert tally[OpClass.MUL_CLASS] == 6
        assert tally[OpClass.ADD_CLASS] == 2
        assert tally[OpClass.DIV_CLASS] == 3
        assert tally[OpClass.MEM] == 11
        assert tally[OpClass.CONTROL] == 2

    def test_int_constant_past_float_range_clamps(self):
        assert kernel.emit_program(24, s_k=10**400) == kernel.emit_program(24, s_k=2.0**40)

    def test_roundtrips_through_assembler(self):
        p = kernel.emit_program(24, s_k=1.375)
        assert isa.assemble(isa.disassemble(p)) == p

    def test_layout_must_fit_memory(self):
        """The program names no memory size; isa.validate rejects its
        11 * 512 = 5632-word layout on the default 4096-word core."""
        p = kernel.emit_program(512)
        assert "instr 22 (VST): address 5120 (+24 words) outside data memory " \
               "of 4096" in isa.validate(p, CoreConfig())
        assert "instr 22 (VST): address 5120 (+512 words) outside data memory " \
               "of 4096" in isa.validate(p, CoreConfig(vec_len=512))

    def test_layout_checked_against_given_memory(self):
        p = kernel.emit_program(400)   # 4400 words
        wide = CoreConfig(vec_len=400)
        assert isa.validate(p, replace(wide, dmem_words=8192)) == []
        assert isa.validate(p, replace(wide, dmem_words=4400)) == []
        assert "instr 22 (VST): address 4000 (+400 words) outside data memory " \
               "of 4399" in isa.validate(p, replace(wide, dmem_words=4399))
        kernel.checked_layout(400, 4400)
        with pytest.raises(ValidationError, match="memory has 4399"):
            kernel.checked_layout(400, 4399)

    @pytest.mark.parametrize("emit", [kernel.emit_program,
                                      kernel.emit_scalar_program])
    @pytest.mark.parametrize("vec_len", [0, -1])
    def test_empty_vectors_rejected(self, emit, vec_len):
        with pytest.raises(ValidationError, match="must be >= 1"):
            emit(vec_len)


class TestScalarProgram:
    def test_single_lane_equivalence(self):
        cfg = CoreConfig(vec_len=1).with_mix(1, 1, 1)
        ins = kernel.generate_inputs(1, 0)
        inits = kernel.data_initializers(ins)
        layout = kernel.default_layout(1)
        rv = run(kernel.emit_program(1, s_k=ins.s_k), cfg,
                 inputs=inits, observe=(layout["out"], 1))
        rs = run(kernel.emit_scalar_program(1, s_k=ins.s_k), cfg,
                 inputs=inits, observe=(layout["out"], 1))
        assert rv.memory[0].raw == rs.memory[0].raw

    @pytest.mark.parametrize("W", [1, 8, 24])
    def test_bit_identical_outputs(self, W):
        k = min(8, W)
        cfg = CoreConfig(vec_len=W).with_mix(k, k, k)
        layout = kernel.default_layout(W)
        for seed in range(10):
            ins = kernel.generate_inputs(W, seed)
            inits = kernel.data_initializers(ins)
            rv = run(kernel.emit_program(W, s_k=ins.s_k), cfg,
                     inputs=inits, observe=(layout["out"], W))
            rs = run(kernel.emit_scalar_program(W, s_k=ins.s_k), cfg,
                     inputs=inits, observe=(layout["out"], W))
            assert [x.raw for x in rv.memory] == [x.raw for x in rs.memory]

    def test_static_count_linear_in_w(self):
        per_lane = len(kernel.emit_scalar_program(2).instructions) \
            - len(kernel.emit_scalar_program(1).instructions)
        n8 = len(kernel.emit_scalar_program(8).instructions)
        n24 = len(kernel.emit_scalar_program(24).instructions)
        assert n24 - n8 == 16 * per_lane


class TestOracle:
    def test_all_ones(self):
        ins = kernel.KernelInputs(
            vectors={n: [1.0] * 4 for n in kernel.INPUT_NAMES}, s_k=1.0)
        assert kernel.oracle(ins) == [0.25] * 4

    def test_hand_value(self):
        vectors = {n: [1.0] for n in kernel.INPUT_NAMES}
        vectors["a"] = [2.0]
        ins = kernel.KernelInputs(vectors=vectors, s_k=1.0)
        assert kernel.oracle(ins) == [pytest.approx(1.0 / 6.0)]

    def test_matches_independent_reimplementation(self):
        for seed in (11, 12, 13):
            ins = kernel.generate_inputs(24, seed)
            got = kernel.oracle(ins)
            for lane in range(24):
                assert got[lane] == pytest.approx(
                    reference_eval(ins, lane), rel=1e-12)

    def test_rejects_small_divisor(self):
        vectors = {n: [1.0] for n in kernel.INPUT_NAMES}
        vectors["p"] = [0.1]
        with pytest.raises(ValueError, match="divisor"):
            kernel.oracle(kernel.KernelInputs(vectors=vectors, s_k=1.0))

    def test_rejects_zero_divisor(self):
        # f = 0 makes t10 = 0, which no DIVISOR_BOUND guard covers.
        ins = kernel.generate_inputs(4, 1)
        ins.vectors["f"][2] = 0.0
        with pytest.raises(ValueError, match=r"^lane 2: divisor t10=0\.0 is zero;"
                                             r" inputs rejected$"):
            kernel.oracle(ins)


class TestGenerateInputs:
    def test_deterministic(self):
        a = kernel.generate_inputs(24, 42)
        b = kernel.generate_inputs(24, 42)
        assert a == b

    def test_range(self):
        ins = kernel.generate_inputs(24, 7)
        for name in kernel.INPUT_NAMES:
            assert all(0.5 <= x <= 2.0 for x in ins.vectors[name])
        assert 0.5 <= ins.s_k <= 2.0

    def test_single_lane(self):
        ins = kernel.generate_inputs(1, 0)
        assert ins.vec_len == 1
        kernel.oracle(ins)   # well-conditioned by construction


class TestDataInitializers:
    @pytest.mark.parametrize("W,seed", [(1, 0), (24, 42), (256, 7)])
    def test_words_equal_per_word_conversion(self, W, seed):
        ins = kernel.generate_inputs(W, seed)
        ins.vectors["c"][0] = 2.0**40          # one clamped word as well
        layout = kernel.default_layout(W)
        assert kernel.data_initializers(ins) == [
            (layout[name], [fx.from_real(x).raw for x in ins.vectors[name]])
            for name in kernel.INPUT_NAMES]


class TestAccuracy:
    def test_fixed_point_tracks_oracle(self):
        cfg = CoreConfig()
        for seed in range(20):
            ins = kernel.generate_inputs(24, seed)
            p = kernel.emit_program(24, s_k=ins.s_k)
            r = run(p, cfg, inputs=kernel.data_initializers(ins),
                    observe=(240, 24))
            for got, want in zip(r.memory, kernel.oracle(ins)):
                assert abs(fx.to_real(got) - want) / abs(want) <= 1e-6


WIDTHS = [*range(1, 65), 256]


def _outcome(oracle, inputs):
    try:
        return oracle(inputs)
    except ValueError as exc:
        return str(exc)


class TestAgainstHandWrittenKernel:
    """Every form derived from KERNEL equals the hand-written reference."""

    @pytest.mark.parametrize("s_k", [1.0, 0.3, -1.75, 1.375])
    def test_programs(self, s_k):
        for W in WIDTHS:
            assert kernel.emit_program(W, s_k=s_k) == ref_emit_program(W, s_k)
            assert kernel.emit_scalar_program(W, s_k=s_k) \
                == ref_emit_scalar_program(W, s_k)

    @pytest.mark.parametrize("replication", [1, 24, 256])
    def test_dataflow_graph(self, replication):
        """The tiled models read KERNEL as the hand-written graph."""
        nodes, edges = ref_dataflow_graph()
        rng = random.Random(9)
        for _ in range(50):
            lat = [0 if rng.random() < 0.2 else rng.randint(1, 100)
                   for _ in range(3)]
            cfg = CoreConfig(lat_add=lat[0], lat_mul=lat[1], lat_div=lat[2])
            assert archmodels.tiled_latency(kernel.KERNEL, cfg, barrier_cost=0) \
                == brute_force_longest_path(nodes, edges, cfg)
        counts = collections.Counter(cls for _, cls in nodes)
        assert resources.estimate_tiled(kernel.KERNEL, replication).slices \
            == round(CAL.c_tiled_barrier) + sum(
                round(replication * n * UNIT_COST[c]) for c, n in counts.items())

    def test_oracle_values(self):
        for W in WIDTHS:
            for seed in (W, W + 1000):
                ins = kernel.generate_inputs(W, seed)
                assert kernel.oracle(ins) == ref_oracle(ins)

    def test_oracle_error_text(self):
        rng = random.Random(8)
        rejected = 0
        for _ in range(400):
            W = rng.choice([1, 2, 5, 24, 256])
            ins = kernel.generate_inputs(W, rng.randrange(10**6))
            for _ in range(rng.randint(1, 3)):
                lane, name = rng.randrange(W), rng.choice(["p", "q", "t7"])
                value = rng.choice([0.0, -0.0, 0.1, -0.2, 0.2499,
                                    -kernel.DIVISOR_BOUND, kernel.DIVISOR_BOUND])
                if name == "t7":            # t7 = g*h + s_k
                    ins.vectors["g"][lane] = value - ins.s_k
                    ins.vectors["h"][lane] = 1.0
                else:
                    ins.vectors[name][lane] = value
            want = _outcome(ref_oracle, ins)
            rejected += isinstance(want, str)
            assert _outcome(kernel.oracle, ins) == want
        assert rejected > 200


NAMES = [*kernel.INPUT_NAMES, "sk"]


@st.composite
def statement_lists(draw):
    """Straight-line statements over the inputs, sk and earlier results."""
    stmts = []
    for i in range(draw(st.integers(1, 14))):
        results = [dest for dest, *_ in stmts]
        operand = st.sampled_from(NAMES)
        if results:
            operand = st.one_of(st.sampled_from(results), operand)
        op = draw(st.sampled_from(["*", "+", "/", "1/"]))
        args = draw(st.lists(operand, min_size=1 + (op != "1/"),
                             max_size=1 + (op != "1/")))
        stmts.append((f"r{i}", op, *args))
    return tuple(stmts)


class TestAllocator:
    @settings(max_examples=300, deadline=None)
    @given(statement_lists(), st.sampled_from([0, 10, 11]))
    @example(kernel.KERNEL, 10)
    @example(kernel.KERNEL, 11)
    @example((("r0", "*", "a", "a"), ("r1", "+", "r0", "b"), ("r2", "*", "b", "b"),
              ("r3", "*", "r1", "b"), ("r4", "+", "r1", "r3")), 0)
    def test_linear_scan_against_brute_force_liveness(self, stmts, first):
        regs = kernel._allocate(stmts, first)
        defined = {dest: i for i, (dest, *_) in enumerate(stmts)}
        assert regs.keys() == defined.keys()
        # A result is live from its definition to its last read.
        last_read = {x: max([i for i, (_, _, *args) in enumerate(stmts)
                             if x in args], default=d)
                     for x, d in defined.items()}
        for y, dy in defined.items():
            live = {x for x, dx in defined.items() if dx < dy < last_read[x]}
            taken = {regs[x] for x in live}
            assert regs[y] not in taken
            assert regs[y] == next(r for r in itertools.count(first)
                                   if r not in taken)

    def test_kernel_registers(self):
        assert kernel._allocate(kernel.KERNEL, 10) == {
            "t1": 10, "t2": 10, "t3": 11, "t4": 10, "t5": 10, "t6": 11,
            "t7": 11, "t8": 10, "t9": 10, "t10": 10, "out": 10}


def tiled_reference(stmts, cfg, replication):
    """Brute-force critical path over one node per statement and one edge
    per operand that is an earlier result, and the slices of the barrier
    plus one unit per statement per replica."""
    nodes = [(dest, kernel.OPS[op][0]) for dest, op, *_ in stmts]
    edges = [(x, dest) for i, (dest, _, *args) in enumerate(stmts)
             for x in args if x in {d for d, *_ in stmts[:i]}]
    classes = [cls for _, cls in nodes]
    slices = round(CAL.c_tiled_barrier) + sum(
        round(replication * classes.count(cls) * cost)
        for cls, cost in UNIT_COST.items())
    return brute_force_longest_path(nodes, edges, cfg), slices


class TestTiledModelsOnRandomKernels:
    @settings(max_examples=200, deadline=None)
    @given(statement_lists(), st.tuples(*[st.integers(0, 100)] * 3),
           st.integers(1, 300))
    @example(kernel.KERNEL, (1, 1, 64), 24)
    def test_against_brute_force(self, stmts, lat, replication):
        cfg = CoreConfig(lat_add=lat[0], lat_mul=lat[1], lat_div=lat[2])
        path, slices = tiled_reference(stmts, cfg, replication)
        assert archmodels.tiled_latency(stmts, cfg, barrier_cost=0) == path
        assert resources.estimate_tiled(stmts, replication).slices == slices
