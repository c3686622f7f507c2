"""End-to-end acceptance gate.

One test per criterion; each prints a PASS line with the measured numbers
so a full run doubles as a results summary (run with `pytest -s`).
"""

import math
import random

import pytest

import vproc.fixedpoint as fx
from vproc import archmodels, dse, isa, kernel, resources
from vproc.core import CoreConfig, instr_cost, run
from vproc.fixedpoint import Fixed64, RAW_MAX, RAW_MIN

from conftest import random_program, ref_add, ref_div, ref_mul, ref_sub

BASE = CoreConfig(enable_converter=False)


def bench(seed=1):
    ins = kernel.generate_inputs(24, seed)
    return kernel.emit_program(24, s_k=ins.s_k), kernel.data_initializers(ins)


def latency(mix, program, inits):
    return run(program, BASE.with_mix(*mix), inputs=inits).total_cycles


def slices(mix):
    return resources.estimate_vector(BASE.with_mix(*mix)).slices


def test_criterion_1_symmetric_scaling():
    program, inits = bench()
    lat_ratio = latency((1, 1, 1), program, inits) / latency((24, 24, 24), program, inits)
    slice_ratio = slices((24, 24, 24)) / slices((1, 1, 1))
    assert 15 <= lat_ratio <= 25
    assert 3.8 <= slice_ratio <= 4.2
    print(f"\nPASS criterion 1: symmetric latency ratio {lat_ratio:.2f} "
          f"in [15, 25], slice ratio {slice_ratio:.3f} in [3.8, 4.2]")


def test_criterion_2_asymmetric_divider_tradeoff():
    program, inits = bench()
    lat_ratio = latency((8, 8, 8), program, inits) / latency((8, 8, 24), program, inits)
    slice_ratio = slices((8, 8, 24)) / slices((8, 8, 8))
    assert 1.8 <= lat_ratio <= 3.0
    assert 1.35 <= slice_ratio <= 1.45
    l_div = latency((8, 8, 24), program, inits)
    assert l_div < latency((24, 8, 8), program, inits)
    assert l_div < latency((8, 24, 8), program, inits)
    print(f"\nPASS criterion 2: 8-8-8/8-8-24 latency ratio {lat_ratio:.2f} "
          f"in [1.8, 3.0], slice ratio {slice_ratio:.3f} in [1.35, 1.45], "
          f"8-8-24 dominates 24-8-8 and 8-24-8")


def test_criterion_3_vector_vs_sequential():
    program, inits = bench()
    seq_cfg = archmodels.sequential_config(BASE)
    lat_ratio = run(program, seq_cfg, inputs=inits).total_cycles \
        / latency((8, 8, 24), program, inits)
    slice_ratio = slices((8, 8, 24)) / resources.estimate_sequential().slices
    assert 12 <= lat_ratio <= 22
    assert 2.4 <= slice_ratio <= 2.6
    print(f"\nPASS criterion 3: sequential/vector latency ratio {lat_ratio:.2f} "
          f"in [12, 22], slice ratio {slice_ratio:.3f} in [2.4, 2.6]")


def test_criterion_4_tiled_comparisons():
    program, inits = bench()
    tiled_slices = resources.estimate_tiled(kernel.KERNEL, 24).slices
    seq_slices = resources.estimate_sequential().slices
    vec_slices = slices((8, 8, 24))
    tiled_lat = archmodels.tiled_latency(kernel.KERNEL, BASE)
    seq_lat = run(program, archmodels.sequential_config(BASE),
                  inputs=inits).total_cycles
    assert 5 <= tiled_slices / seq_slices <= 15
    assert 4 <= seq_lat / tiled_lat <= 30
    assert tiled_slices > vec_slices > seq_slices
    print(f"\nPASS criterion 4: tiled/sequential slices "
          f"{tiled_slices / seq_slices:.2f} in [5, 15], sequential/tiled "
          f"latency {seq_lat / tiled_lat:.2f} in [4, 30], slice ordering holds")


def test_criterion_5_arithmetic_oracle_equivalence():
    rng = random.Random(20260823)
    n = 100_000

    def sample():
        # mix full-range words with small values so saturation and
        # zero-divisor paths are all exercised
        r = rng.random()
        if r < 0.70:
            return rng.getrandbits(64) - (1 << 63)
        if r < 0.95:
            return rng.randint(-(1 << 34), 1 << 34)
        return rng.choice([0, 1, -1, RAW_MAX, RAW_MIN])

    checks = ((fx.fx_add, ref_add), (fx.fx_sub, ref_sub),
              (fx.fx_mul, ref_mul), (fx.fx_div, ref_div))
    for _ in range(n):
        a, b = sample(), sample()
        for op, ref in checks:
            assert op(Fixed64(a), Fixed64(b)).raw == ref(a, b), (op, a, b)
    print(f"\nPASS criterion 5: {n} random pairs per operation match the "
          f"128-bit integer oracle bit-exactly")


def test_criterion_6_kernel_numerical_accuracy():
    cfg = CoreConfig()
    worst = 0.0
    for seed in range(100):
        ins = kernel.generate_inputs(24, seed)
        program = kernel.emit_program(24, s_k=ins.s_k)
        r = run(program, cfg, inputs=kernel.data_initializers(ins),
                observe=(kernel.default_layout(24)["out"], 24))
        for got, want in zip(r.memory, kernel.oracle(ins)):
            worst = max(worst, abs(fx.to_real(got) - want) / abs(want))
    assert worst <= 1e-6
    print(f"\nPASS criterion 6: worst per-lane relative error over 100 seeds "
          f"= {worst:.3e} <= 1e-6")


def test_criterion_7_structural_properties():
    rng = random.Random(77)
    shipped = [kernel.emit_program(24), kernel.emit_scalar_program(24),
               kernel.emit_program(8)]
    for program in shipped:
        assert isa.assemble(isa.disassemble(program)) == program

    cfg = CoreConfig(n_add=3, n_mul=5, n_div=7)
    for _ in range(1000):
        program = random_program(rng, cfg, n_instr=rng.randint(1, 25))
        assert isa.assemble(isa.disassemble(program)) == program
        expected = sum(instr_cost(i, cfg) for i in program.instructions)
        assert run(program, cfg).total_cycles == expected

    mixes = [(1, 1, 1), (8, 8, 8), (8, 8, 24), (24, 24, 24)]
    base = CoreConfig()
    for _ in range(30):
        program = random_program(rng, base)
        results = []
        for mix in mixes:
            r = run(program, base.with_mix(*mix), observe=(0, base.dmem_words))
            results.append(([v.raw for v in r.memory],
                            r.flags.overflow, r.flags.div_by_zero))
        assert all(res == results[0] for res in results)
    print("\nPASS criterion 7: assembler round-trip (shipped + 1000 random), "
          "analytic cycle sums, and FU-mix value-invariance all hold")


def test_criterion_8_pareto_correctness():
    rng = random.Random(4242)

    def dominated(p, q):
        return (q.latency_cycles <= p.latency_cycles and q.slices <= p.slices
                and (q.latency_cycles < p.latency_cycles or q.slices < p.slices))

    for _ in range(100):
        n = rng.randint(0, 200)
        pts = [dse.DesignPoint(str(i), None, None, None,
                               rng.randint(1, 60), rng.randint(1, 60))
               for i in range(n)]
        brute = [p for p in pts if not any(dominated(p, q) for q in pts)]
        assert sorted(map(id, dse.pareto(pts))) == sorted(map(id, brute))
    print("\nPASS criterion 8: Pareto frontier matches brute-force domination "
          "filtering on 100 random point sets")


def test_criterion_9_amdahl_spot_values():
    v35 = dse.amdahl(0.35, math.inf)
    v06 = dse.amdahl(0.0006, 10)
    assert v35 == pytest.approx(1.538, abs=0.001)
    assert v06 == pytest.approx(1.00054, abs=0.0001)
    print(f"\nPASS criterion 9: amdahl(0.35, inf) = {v35:.4f}, "
          f"amdahl(0.0006, 10) = {v06:.6f}")
