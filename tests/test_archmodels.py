import itertools
import random

import pytest

from vproc import kernel
from vproc.archmodels import sequential_config, tiled_latency
from vproc.core import CoreConfig, run
from vproc.isa import OpClass

from conftest import brute_force_longest_path

CFG = CoreConfig()   # lat_add = lat_mul = 1, lat_div = 64


OP = {OpClass.ADD_CLASS: "+", OpClass.MUL_CLASS: "*", OpClass.DIV_CLASS: "/"}


def statements(nodes, edges):
    """The graph as statements: each node reads its predecessors, or an input."""
    return [(nid, OP[cls], *([s for s, d in edges if d == nid] or ["x"]))
            for nid, cls in nodes]


class TestTiledLatency:
    def test_single_node(self):
        assert tiled_latency([("m", "*", "a", "b")], CFG, barrier_cost=1) == 2

    def test_chain_mul_div(self):
        stmts = [("m", "*", "a", "b"), ("d", "/", "m", "p")]
        assert tiled_latency(stmts, CFG) == 1 + 64 + 1

    def test_benchmark_graph_critical_path(self):
        # MUL,MUL,ADD,MUL,MUL,DIV,DIV,DIV plus the barrier
        assert tiled_latency(kernel.KERNEL, CFG) == 198

    def test_negative_barrier_rejected(self):
        k = kernel.KERNEL
        assert tiled_latency(k, CFG, barrier_cost=0) \
            == tiled_latency(k, CFG) - 1
        with pytest.raises(ValueError, match="barrier cost -1 must be >= 0"):
            tiled_latency(k, CFG, barrier_cost=-1)

    def test_matches_brute_force_on_random_dags(self):
        rng = random.Random(99)
        classes = [OpClass.ADD_CLASS, OpClass.MUL_CLASS, OpClass.DIV_CLASS]
        for _ in range(50):
            n = rng.randint(1, 12)
            nodes = [(f"n{i}", rng.choice(classes)) for i in range(n)]
            # forward edges only: guaranteed acyclic
            edges = [(f"n{i}", f"n{j}")
                     for i, j in itertools.combinations(range(n), 2)
                     if rng.random() < 0.3]
            expected = brute_force_longest_path(nodes, edges, CFG) + 1
            assert tiled_latency(statements(nodes, edges), CFG,
                                 barrier_cost=1) == expected


class TestSequentialConfig:
    def test_one_unit_per_class(self):
        cfg = sequential_config(CFG)
        assert (cfg.n_add, cfg.n_mul, cfg.n_div) == (1, 1, 1)
        assert cfg.vec_len == 24

    def test_benchmark_cycles(self):
        ins = kernel.generate_inputs(24, 3)
        p = kernel.emit_program(24, s_k=ins.s_k)
        r = run(p, sequential_config(CFG), inputs=kernel.data_initializers(ins))
        assert r.total_cycles == 4859

    def test_values_independent_of_mix(self):
        ins = kernel.generate_inputs(24, 3)
        p = kernel.emit_program(24, s_k=ins.s_k)
        inits = kernel.data_initializers(ins)
        seq = run(p, sequential_config(CFG), inputs=inits, observe=(240, 24))
        vec = run(p, CFG, inputs=inits, observe=(240, 24))
        assert [v.raw for v in seq.memory] == [v.raw for v in vec.memory]

    def test_tiling_never_slower_than_sequential(self):
        # sequential executes every node one after the other on single units
        rng = random.Random(5)
        classes = [OpClass.ADD_CLASS, OpClass.MUL_CLASS, OpClass.DIV_CLASS]
        lat = {OpClass.ADD_CLASS: CFG.lat_add, OpClass.MUL_CLASS: CFG.lat_mul,
               OpClass.DIV_CLASS: CFG.lat_div}
        for _ in range(20):
            n = rng.randint(1, 10)
            nodes = [(f"n{i}", rng.choice(classes)) for i in range(n)]
            edges = [(f"n{i}", f"n{j}")
                     for i, j in itertools.combinations(range(n), 2)
                     if rng.random() < 0.25]
            sequential = sum(lat[cls] for _, cls in nodes)
            assert tiled_latency(statements(nodes, edges), CFG,
                                 barrier_cost=0) <= sequential
