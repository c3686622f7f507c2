import collections

import pytest

import vproc.fixedpoint as fx
from vproc import isa, kernel
from vproc.core import CoreConfig, run
from vproc.isa import OpClass


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

    def test_roundtrips_through_assembler(self):
        p = kernel.emit_program(24, s_k=1.375)
        assert isa.assemble(isa.disassemble(p)) == p

    def test_layout_overlap_rejected(self):
        layout = kernel.default_layout(24)
        layout["out"] = layout["q"]
        with pytest.raises(kernel.LayoutError):
            kernel.emit_program(24, layout=layout)

    def test_layout_must_fit_memory(self):
        with pytest.raises(kernel.LayoutError):
            kernel.emit_program(512)   # 11 * 512 words > 4096

    def test_layout_checked_against_given_memory(self):
        assert kernel.emit_program(400, dmem_words=8192).instructions  # 4400 words
        with pytest.raises(kernel.LayoutError, match="memory has 4399"):
            kernel.emit_program(400, dmem_words=4399)

    @pytest.mark.parametrize("emit", [kernel.emit_program,
                                      kernel.emit_scalar_program])
    @pytest.mark.parametrize("vec_len", [0, -1])
    def test_empty_vectors_rejected(self, emit, vec_len):
        with pytest.raises(kernel.LayoutError, match="must be >= 1"):
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
