import math
import random
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vproc.fixedpoint as fx
from vproc import archmodels, core, isa, kernel
from vproc.core import (CoreConfig, SimulationFault, SimulationTimeout,
                        ValidationError, cost_table, run)
from vproc.dse import (DesignPoint, Projection, amdahl, pareto, sweep,
                       throughput_projection)
from vproc.isa import Instruction, OpClass, Program
from vproc.resources import estimate_vector

from conftest import looping_program, random_program, ref_cycles, ref_walk

SIZES = (1, 2, 4, 8, 16, 24)


def brute_force_pareto(points):
    def dominated(p, q):
        return (q.latency_cycles <= p.latency_cycles and q.slices <= p.slices
                and (q.latency_cycles < p.latency_cycles or q.slices < p.slices))
    return [p for p in points if not any(dominated(p, q) for q in points)]


def make_point(lat, slices, label="x"):
    return DesignPoint(label=label, n_add=None, n_mul=None, n_div=None,
                       latency_cycles=lat, slices=slices)


@pytest.fixture(scope="module")
def bench():
    ins = kernel.generate_inputs(24, 1)
    return kernel.emit_program(24, s_k=ins.s_k), kernel.data_initializers(ins)


class TestSweep:
    base = CoreConfig(enable_converter=False)

    def test_symmetric_set(self, bench):
        program, inits = bench
        mixes = [(n, n, n) for n in (1, 2, 4, 8, 16, 24)]
        points = sweep(program, self.base, mixes, inputs=inits)
        lats = [p.latency_cycles for p in points]
        slcs = [p.slices for p in points]
        assert lats == sorted(lats, reverse=True) and len(set(lats)) == 6
        assert slcs == sorted(slcs) and len(set(slcs)) == 6

    def test_asymmetric_set(self, bench):
        program, inits = bench
        mixes = [(8, 8, 8), (24, 8, 8), (8, 24, 8), (8, 8, 24)]
        points = sweep(program, self.base, mixes, inputs=inits)
        best = min(points[1:], key=lambda p: p.latency_cycles)
        assert best.label == "8-8-24"

    def test_singleton_consistency(self, bench):
        from vproc.core import run
        program, inits = bench
        cfg = self.base.with_mix(8, 8, 24)
        [point] = sweep(program, self.base, [cfg.mix], inputs=inits)
        assert point.latency_cycles == run(program, cfg, inputs=inits).total_cycles

    def test_invalid_config_named(self, bench):
        program, inits = bench
        with pytest.raises(ValidationError, match="8-8-0"):
            sweep(program, self.base, [(8, 8, 0)], inputs=inits)


def per_config_sweep(p, base, mixes, inputs=None):
    """Reference: the sweep simulated once per mix."""
    points = []
    for cfg in (base.with_mix(*m) for m in mixes):
        label = "-".join(map(str, cfg.mix))
        try:
            report = run(p, cfg, inputs=inputs)
        except ValidationError as exc:
            raise ValidationError(
                *[f"config {label}: {d}" for d in exc.diagnostics])
        points.append(DesignPoint(label, cfg.n_add, cfg.n_mul, cfg.n_div,
                                  report.total_cycles,
                                  estimate_vector(cfg).slices))
    return points


def outcome(fn, *args, **kwargs):
    """The points a sweep returns, or the type and message of its error."""
    try:
        return fn(*args, **kwargs)
    except (ValidationError, SimulationFault, SimulationTimeout) as exc:
        return type(exc), str(exc)


@pytest.fixture
def count_runs(monkeypatch):
    """A list that grows by one on every core.run call."""
    calls = []
    real = core.run

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "run", counted)
    return calls


class TestOnePassSweep:
    base = CoreConfig(enable_converter=False)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           mixes=st.lists(st.tuples(*[st.sampled_from(SIZES)] * 3),
                          min_size=1, max_size=6),
           lat=st.tuples(*[st.integers(0, 70)] * 3),
           issue_cost=st.integers(0, 4))
    def test_prices_equal_runs(self, seed, mixes, lat, issue_cost):
        base = replace(self.base, lat_add=lat[0], lat_mul=lat[1],
                       lat_div=lat[2], issue_cost=issue_cost)
        p = random_program(random.Random(seed), base)
        configs = [base.with_mix(*m) for m in mixes]
        for cfg, point in zip(configs, sweep(p, base, mixes)):
            report = run(p, cfg)
            assert point.latency_cycles == report.total_cycles \
                == ref_cycles(p, cfg)[0]
            table = cost_table(cfg, report.counts)
            busy = dict.fromkeys(OpClass, 0)
            for op, n in report.counts.items():
                busy[table[op][0]] += n * table[op][2]
            assert sum(n * table[op][1] for op, n in report.counts.items()) \
                == report.total_cycles
            assert busy == report.busy_cycles

    def test_one_run_for_216_mixes(self, bench, count_runs):
        program, inits = bench
        mixes = [(a, m, d) for a in SIZES for m in SIZES for d in SIZES]
        points = sweep(program, self.base, mixes, inputs=inits)
        assert len(count_runs) == 1
        assert points == per_config_sweep(program, self.base, mixes,
                                          inputs=inits)

    def test_loop_priced_exactly(self, count_runs):
        p = isa.assemble("""
            LDI s1, 5.0
            VLD v1, [0]
            VLD v2, [24]
        loop:
            VMUL v3, v1, v2
            VADD v4, v3, v1
            VDIV v5, v4, v2
            SADDI s1, s1, -1.0
            BNZ s1, loop
            HALT""")
        inits = [(0, [fx.SCALE * (k % 5 + 1) for k in range(48)])]
        base = replace(self.base, lat_mul=3, lat_div=17)
        mixes = [(1, 1, 1), (8, 8, 8), (8, 8, 24), (24, 1, 3), (2, 24, 24)]
        points = sweep(p, base, mixes, inputs=inits)
        assert len(count_runs) == 1
        assert [pt.latency_cycles for pt in points] \
            == [2585, 380, 210, 1110, 225]
        assert points == per_config_sweep(p, base, mixes, inputs=inits)

    @pytest.mark.parametrize("seed", [3, 19])
    def test_sample_of_full_grid(self, bench, seed):
        program, inits = bench
        rng = random.Random(seed)
        base = replace(self.base, lat_add=rng.randint(0, 70),
                       lat_mul=rng.randint(0, 70), lat_div=rng.randint(0, 70),
                       issue_cost=rng.randint(0, 4))
        mixes = [tuple(rng.randint(1, 24) for _ in range(3)) for _ in range(40)]
        assert sweep(program, base, mixes, inputs=inits) \
            == per_config_sweep(program, base, mixes, inputs=inits)

    def test_one_config_per_priced_term(self, bench, monkeypatch):
        """After the no-unit base, each distinct unit count k is priced once,
        on the core k-k-k that has k units in every class: six configs for
        the 6³ grid, two for compare's two mixes.  A count that this core
        rejects is priced at its own mix."""
        program, inits = bench
        builds = []
        check = CoreConfig.__post_init__
        monkeypatch.setattr(CoreConfig, "__post_init__",
                            lambda cfg: builds.append(cfg) or check(cfg))
        mixes = [(a, m, d) for a in SIZES for m in SIZES for d in SIZES]
        sweep(program, self.base, mixes, inputs=inits)
        assert [cfg.mix for cfg in builds] == [(0, 0, 0)] + [(n, n, n) for n in SIZES]
        builds.clear()
        sweep(program, self.base, [(1, 1, 1), (8, 8, 8)], inputs=inits)
        assert [cfg.mix for cfg in builds] == [(0, 0, 0), (1, 1, 1), (8, 8, 8)]
        builds.clear()     # README's asymmetric set: one new count, 24
        sweep(program, self.base, [(8, 8, 8), (24, 8, 8), (8, 24, 8), (8, 8, 24)],
              inputs=inits)
        assert [cfg.mix for cfg in builds] == [(0, 0, 0), (8, 8, 8), (24, 24, 24)]
        # Classes that bring different counts: one core per count, not per
        # mix (the look-ahead rule built 1-2-4 and 2-4-8 here, and five cores
        # for the asymmetric golden's list)
        builds.clear()
        sweep(program, self.base, [(1, 2, 4), (2, 4, 8)], inputs=inits)
        assert [cfg.mix for cfg in builds] \
            == [(0, 0, 0), (1, 2, 4), (2, 2, 2), (4, 4, 4), (8, 8, 8)]
        builds.clear()
        sweep(program, self.base, [(8, 8, 8), (24, 8, 8), (8, 24, 8), (8, 8, 24),
                                   (1, 2, 4), (4, 2, 1), (8, 8, 24)], inputs=inits)
        assert [cfg.mix for cfg in builds] == [(0, 0, 0), (8, 8, 8), (24, 24, 24),
                                               (1, 1, 1), (2, 2, 2), (4, 4, 4)]
        vec = self.base.with_mix(8, 8, 24)      # compare under an 8-8-24 config
        mixes = [archmodels.sequential_config(vec).mix, vec.mix]
        builds.clear()
        sweep(program, vec, mixes, inputs=inits)
        assert [cfg.mix for cfg in builds] \
            == [(0, 0, 0), (1, 1, 1), (8, 8, 8), (24, 24, 24)]
        # No ADD op: 0-0-0 rejects the 0 of 0-8-8, which is priced on its own
        p = isa.assemble("VMUL v1, v1, v1\nVDIV v2, v1, v1\nHALT")
        mixes = [(8, 8, 8), (0, 8, 8), (0, 16, 16)]
        builds.clear()
        points = sweep(p, self.base, mixes)
        assert [cfg.mix for cfg in builds] \
            == [(0, 0, 0), (8, 8, 8), (0, 0, 0), (0, 8, 8), (16, 16, 16)]
        assert points == per_config_sweep(p, self.base, mixes)

    def test_iterator_and_empty_mix_lists(self, bench):
        program, inits = bench
        mixes = [(1, 2, 4), (8, 16, 24), (2, 2, 2)]
        assert sweep(program, self.base, iter(mixes), inputs=inits) \
            == sweep(program, self.base, mixes, inputs=inits)
        assert sweep(program, self.base, [], max_cycles=None) == []

    @pytest.mark.parametrize("count", [True, 1.0])
    def test_mistyped_count_not_priced(self, bench, count):
        program, inits = bench
        got = outcome(sweep, program, self.base, [(1, 1, 1), (count, 1, 1)],
                      inputs=inits)
        assert got == (ValidationError,
                       f"n_add must be >= 0, got {count!r}: not an int")

    @pytest.mark.parametrize("mixes,message", [
        ([(8, 8, 8), (8, 8)], "mix (8, 8) is not three unit counts"),
        ([(8, 8, 8, 8)], "mix (8, 8, 8, 8) is not three unit counts"),
        ([[1, 2]], "mix [1, 2] is not three unit counts"),
        ([(8, 8, 0), (8, 8)], "config 8-8-0: "),    # the first failing mix
    ])
    def test_mix_of_other_than_three_counts(self, bench, mixes, message):
        program, inits = bench
        got = outcome(sweep, program, self.base, mixes, inputs=inits)
        assert got[0] is ValidationError and got[1].startswith(message)
        assert len(got[1].splitlines()) == 1

    @pytest.mark.parametrize("mixes", [
        [(8, 8, 8), (8, 8, 0), (0, 8, 8)],
        [(8, 8, 8), (32, 8, 8), (8, 8, 0)],
        [(0, 0, 0), (8, 8, 8)],
    ])
    def test_unit_count_errors_in_input_order(self, bench, mixes):
        program, inits = bench
        got = outcome(sweep, program, self.base, mixes, inputs=inits)
        assert got[0] is ValidationError
        assert got == outcome(per_config_sweep, program, self.base, mixes,
                              inputs=inits)

    def test_structural_errors_of_first_config(self):
        p = isa.assemble("VLD v99, [0]\nVADD v1, v1, v1\nHALT")
        mixes = [(0, 8, 8), (8, 8, 8)]
        got = outcome(sweep, p, self.base, mixes)
        assert got[0] is ValidationError and got[1].startswith("config 0-8-8")
        assert got == outcome(per_config_sweep, p, self.base, mixes)

    def test_initializer_error(self, bench):
        program, _ = bench
        mixes = [(8, 8, 8), (1, 1, 1)]
        bad = [(4095, [fx.SCALE, fx.SCALE])]
        got = outcome(sweep, program, self.base, mixes, inputs=bad)
        assert got == (ValidationError, "config 8-8-8: initializer at 4095 "
                                        "outside data memory")
        assert got == outcome(per_config_sweep, program, self.base, mixes,
                              inputs=bad)

    def test_malformed_first_mix_named_before_fault(self):
        p = Program(instructions=[Instruction("LDI", d=1, imm=fx.ONE)])
        got = outcome(sweep, p, self.base, [(8, 8, 8, 8), (1, 1, 1)])
        assert got == (ValidationError, "mix (8, 8, 8, 8) is not three unit counts")

    def test_slice_error_in_input_order(self):
        """A slice term past the float range, of a class the program does not
        use, fails at its own mix: before a later mix's unit-count error."""
        p = isa.assemble("VMUL v1, v1, v1\nVDIV v2, v1, v1\nHALT")
        mixes = [(0, 8, 8), (10**400, 8, 8), (0, 0, 8)]
        got = outcome(sweep, p, self.base, mixes)
        assert got[0] is ValidationError and "'add_units'" in got[1]
        assert got == outcome(per_config_sweep, p, self.base, mixes)

    def test_fault_message(self):
        p = Program(instructions=[Instruction("LDI", d=1, imm=fx.ONE)])
        mixes = [(8, 8, 8), (1, 1, 1)]
        got = outcome(sweep, p, self.base, mixes)
        assert got[0] is SimulationFault
        assert got == outcome(per_config_sweep, p, self.base, mixes)

    @pytest.mark.parametrize("mixes,runs", [
        ([(24, 24, 24), (8, 8, 8), (1, 1, 1), (24, 24, 24)], 2),
        ([(1, 1, 1), (24, 24, 24)], 1),
    ])
    def test_timeout_message(self, bench, count_runs, mixes, runs):
        # 3 vector divisions at 24 waves of 200k cycles exceed 10M at 1-1-1
        program, inits = bench
        slow = replace(self.base, lat_div=200_000)
        got = outcome(sweep, program, slow, mixes, inputs=inits)
        assert len(count_runs) == runs
        assert got[0] is SimulationTimeout
        assert got == outcome(per_config_sweep, program, slow, mixes,
                              inputs=inits)

    def test_max_cycles(self, bench, count_runs):
        program, inits = bench
        mixes = [(24, 24, 24), (8, 8, 8), (1, 1, 1)]
        lat = [pt.latency_cycles for pt in sweep(program, self.base, mixes,
                                                 inputs=inits)]
        assert lat == sorted(lat)
        got = outcome(sweep, program, self.base, mixes, inputs=inits,
                      max_cycles=lat[2] - 1)
        assert got == (SimulationTimeout,
                       f"max_cycles exceeded after {lat[2]} cycles")
        assert len(count_runs) == 3     # one per sweep, and 1-1-1's own run
        got = outcome(sweep, program, self.base, mixes, inputs=inits,
                      max_cycles=lat[0] - 1)
        assert got[0] is SimulationTimeout and len(count_runs) == 4

    def test_total_equal_to_max_cycles(self, bench, count_runs):
        """A priced total equal to max_cycles is within the bound, as in
        core.run: the mix is not run again."""
        program, inits = bench
        mixes = [(24, 24, 24), (1, 1, 1)]
        points = sweep(program, self.base, mixes, inputs=inits)
        assert sweep(program, self.base, mixes, inputs=inits,
                     max_cycles=points[1].latency_cycles) == points
        assert len(count_runs) == 2     # one per sweep

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           mixes=st.lists(st.tuples(*[st.integers(1, 8)] * 3), min_size=2, max_size=4),
           lat=st.tuples(*[st.integers(0, 70)] * 3), issue_cost=st.integers(0, 3),
           timeout=st.booleans())
    def test_looping_programs(self, seed, mixes, lat, issue_cost, timeout):
        """Each mix's latency is the walk of its own core; with max_cycles one
        below the largest total, the sweep raises the timeout of the first
        mix whose own walk times out."""
        base = replace(self.base, vec_len=8, dmem_words=64, lat_add=lat[0],
                       lat_mul=lat[1], lat_div=lat[2], issue_cost=issue_cost)
        rng = random.Random(seed)
        p = looping_program(rng, base)
        inputs = [(0, [rng.randrange(-4 * fx.SCALE, 4 * fx.SCALE) for _ in range(64)])]
        cores = [base.with_mix(*m) for m in mixes]
        max_cycles = (max(ref_walk(p, c, inputs)[3] for c in cores) - 1 if timeout
                      else core.MAX_CYCLES)
        walks = [ref_walk(p, c, inputs, max_cycles) for c in cores]
        got = outcome(sweep, p, base, mixes, inputs=inputs, max_cycles=max_cycles)
        if timed_out := [cycles for out, _, _, cycles, *_ in walks if out]:
            assert got == (SimulationTimeout,
                           f"max_cycles exceeded after {timed_out[0]} cycles")
        else:
            assert [pt.latency_cycles for pt in got] == [w[3] for w in walks]


# Unit counts: valid at vec_len 24, or failing (0 for a class the program
# uses, 25 beyond vec_len, True and 1.0 not ints though they hash as 1,
# [2] not an int and unhashable, also after a priced mix).
COUNTS = (0, 1, 2, 7, 24, 25, True, 1.0, [2])


@st.composite
def mix_lists(draw):
    """1-8 mixes drawn from a pool of at most four, so mixes repeat."""
    pool = draw(st.lists(st.tuples(*[st.sampled_from(COUNTS)] * 3),
                         min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


class TestSweepAgainstRuns:
    """The sweep equals one run per mix: the same points, or the error of
    the first failing mix with its exact message."""

    base = CoreConfig(enable_converter=False)

    @settings(max_examples=150, deadline=None)
    @given(mixes=mix_lists(), seed=st.integers(0, 2**32 - 1),
           n_instr=st.integers(1, 15), use_kernel=st.booleans(),
           lat=st.tuples(*[st.integers(0, 70)] * 3))
    def test_outcome_equals_per_config(self, bench, mixes, seed, n_instr,
                                       use_kernel, lat):
        base = replace(self.base, lat_add=lat[0], lat_mul=lat[1], lat_div=lat[2])
        if use_kernel:
            p, inits = bench
        else:
            p, inits = random_program(random.Random(seed), base, n_instr), None
        assert outcome(sweep, p, base, mixes, inputs=inits) \
            == outcome(per_config_sweep, p, base, mixes, inputs=inits)

    def test_full_grid_at_vec_len_8(self):
        base = replace(self.base, vec_len=8)
        ins = kernel.generate_inputs(8, 5)
        p, inits = kernel.emit_program(8, s_k=ins.s_k), kernel.data_initializers(ins)
        mixes = [(a, m, d) for a in range(1, 9) for m in range(1, 9)
                 for d in range(1, 9)]
        points = sweep(p, base, mixes, inputs=inits)
        assert len(points) == 512
        assert points == per_config_sweep(p, base, mixes, inputs=inits)
        assert [tuple(map(type, pt)) for pt in points] \
            == [(str, int, int, int, int, int)] * 512

    @pytest.mark.parametrize("count", [0, 25, True, 1.0, [2]])     # COUNTS that fail
    @pytest.mark.parametrize("index", [0, 107, 215])
    def test_failing_count_in_full_grid(self, bench, count, index):
        """A failing count first, in the middle or last among the 216 mixes:
        the error of the first failing mix, as from one run per mix."""
        p, inits = bench
        mixes = [(a, m, d) for a in SIZES for m in SIZES for d in SIZES]
        mix = list(mixes[index])
        mix[index % 3] = count
        mixes[index] = tuple(mix)
        got = outcome(sweep, p, self.base, mixes, inputs=inits)
        assert got[0] is ValidationError
        assert got == outcome(per_config_sweep, p, self.base, mixes, inputs=inits)

    def test_count_too_long_to_print(self):
        """A count past Python's int-to-str digit limit is named by its mix's
        index, also in a mix of other than three counts; one of 401 digits
        still prints in full in the label."""
        p = kernel.emit_program(24)
        got = outcome(sweep, p, CoreConfig(), [(-1, 10**5000, 1)])
        assert got == (ValidationError, "mix 0: a count too long to print")
        got = outcome(sweep, p, CoreConfig(), [(1, 1, 1), (1, 1, 10**5000)])
        assert got == (ValidationError, "mix 1: a count too long to print")
        got = outcome(sweep, p, CoreConfig(), [(1, 10**5000)])
        assert got == (ValidationError, "mix 0: not three unit counts")
        got = outcome(sweep, p, CoreConfig(), [(1, 1, 1), (10**5000,) * 4])
        assert got == (ValidationError, "mix 1: not three unit counts")
        got = outcome(sweep, p, CoreConfig(), [(1, 1, 10**400)])
        assert got[0] is ValidationError and got[1].startswith("config 1-1-1000")
        assert got == outcome(per_config_sweep, p, CoreConfig(), [(1, 1, 10**400)])

        class Broken:       # only the digit limit's ValueError is turned into a name
            def __repr__(self):
                raise ValueError("broken repr")
        for mix in [(1, Broken()), (1, 1, Broken())]:
            with pytest.raises(ValueError, match="broken repr") as exc:
                sweep(p, CoreConfig(), [mix])
            assert not isinstance(exc.value, ValidationError)


class TestDesignPointRecord:
    point = DesignPoint("8-8-24", 8, 8, 24, 210, 41300)

    def test_keyword_construction(self):
        assert DesignPoint._fields == ("label", "n_add", "n_mul", "n_div",
                                       "latency_cycles", "slices")
        assert DesignPoint(label="8-8-24", n_add=8, n_mul=8, n_div=24,
                           latency_cycles=210, slices=41300) == self.point
        assert (self.point.label, self.point.n_add, self.point.n_mul,
                self.point.n_div, self.point.latency_cycles,
                self.point.slices) == ("8-8-24", 8, 8, 24, 210, 41300)

    def test_replace(self):
        edited = self.point._replace(slices=1)
        assert edited.slices == 1 and self.point.slices == 41300
        with pytest.raises(TypeError):
            replace(self.point, slices=1)
        with pytest.raises(TypeError):
            asdict(self.point)

    def test_fields_cannot_be_set(self):
        with pytest.raises(AttributeError):
            self.point.slices = 1
        assert self.point.slices == 41300

    def test_equal_to_plain_tuple_of_its_fields(self):
        fields = ("8-8-24", 8, 8, 24, 210, 41300)
        assert self.point == fields and hash(self.point) == hash(fields)
        assert self.point != fields[:5]


class TestPareto:
    def test_spec_example(self):
        pts = [make_point(100, 10), make_point(50, 20), make_point(120, 30)]
        assert pareto(pts) == pts[:2]

    def test_single_point(self):
        pts = [make_point(5, 5)]
        assert pareto(pts) == pts

    def test_ties_kept(self):
        pts = [make_point(10, 10), make_point(10, 10)]
        assert pareto(pts) == pts

    def test_empty(self):
        assert pareto([]) == []

    def test_matches_brute_force(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(0, 200)
            pts = [make_point(rng.randint(1, 50), rng.randint(1, 50), str(i))
                   for i, _ in enumerate(range(n))]
            assert list(map(id, pareto(pts))) == list(map(id, brute_force_pareto(pts)))


class TestThroughputProjection:
    point = (273, 41300)

    def test_spec_example(self):
        proj = throughput_projection(*self.point, 200000, 100.0)
        assert proj.cores == 4
        assert proj.calls_per_second == pytest.approx(1.465e6, rel=1e-3)

    def test_exact_budget(self):
        assert throughput_projection(*self.point, 41300, 100.0).cores == 1

    def test_one_cycle_one_slice_accepted(self):
        assert throughput_projection(1, 1, 5, 100.0) \
            == Projection(cores=5, calls_per_second=5e8)

    def test_budget_too_small(self):
        with pytest.raises(ValueError):
            throughput_projection(*self.point, 41299, 100.0)

    @pytest.mark.parametrize("latency,slices", [(0, 41300), (-5, 41300),
                                                (273, 0), (273, -1)])
    def test_latency_and_slices_at_least_1(self, latency, slices):
        with pytest.raises(ValueError, match="must be >= 1"):
            throughput_projection(latency, slices, 200000, 100.0)

    @pytest.mark.parametrize("clock", [0.0, -100.0, math.nan, math.inf])
    def test_clock_must_be_finite_and_positive(self, clock):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            throughput_projection(*self.point, 200000, clock)

    def test_int_clock_past_float_range_rejected(self):
        """The clock CoreConfig accepts gives a rate past the float range."""
        with pytest.raises(ValidationError) as exc:
            throughput_projection(*self.point, 200000, CoreConfig(clock_mhz=10**400).clock_mhz)
        assert exc.value.diagnostics == [
            "latency, core count, clock or call rate exceeds the float range"]

    def test_clock_too_long_to_print_left_out(self):
        with pytest.raises(ValidationError) as exc:
            throughput_projection(*self.point, 200000, -10**5000)
        assert exc.value.diagnostics == ["clock MHz must be finite and > 0"]

    def test_cores_fit_budget(self):
        rng = random.Random(8)
        for _ in range(50):
            slices = rng.randint(1, 10**5)
            budget = rng.randint(slices, 10**6)
            proj = throughput_projection(100, slices, budget, 100.0)
            assert proj.cores * slices <= budget


class TestAmdahl:
    def test_spot_values(self):
        assert amdahl(0.35, math.inf) == pytest.approx(1.538, abs=1e-3)
        assert amdahl(0.0006, 10) == pytest.approx(1.00054, abs=1e-4)
        assert amdahl(0.80, 18) == pytest.approx(4.09, abs=0.01)

    def test_identities(self):
        assert amdahl(0.0, 100.0) == 1.0
        assert amdahl(0.5, 1.0) == 1.0
        assert amdahl(1.0, 4.0) == 4.0

    def test_undefined_case(self):
        with pytest.raises(ValueError):
            amdahl(1.0, math.inf)

    @pytest.mark.parametrize("fraction,speedup,message", [
        (1.0, math.inf, "unbounded speedup of the whole application is undefined"),
        (1.0, 10**400, "overall speedup exceeds the float range"),
        (1, 10**400, "overall speedup exceeds the float range")],
        ids=["inf", "int", "int-over-int"])
    def test_whole_application_accelerated_message(self, fraction, speedup, message):
        """Past the float range, an int speedup s of all of it gives s itself."""
        with pytest.raises(ValidationError) as exc:
            amdahl(fraction, speedup)
        assert exc.value.diagnostics == [message]

    def test_int_speedup_past_float_range_is_infinite(self):
        assert amdahl(0.5, 10**400) == amdahl(0.5, math.inf) == 2.0
        assert amdahl(0.0, 10**400) == 1.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            amdahl(-0.1, 2.0)
        with pytest.raises(ValueError):
            amdahl(0.5, 0.5)

    def test_monotone(self):
        prev = 0.0
        for f in (0.0, 0.2, 0.4, 0.6, 0.8, 0.99):
            v = amdahl(f, 10.0)
            assert v >= prev
            prev = v
        prev = 0.0
        for s in (1.0, 2.0, 5.0, 50.0, math.inf):
            v = amdahl(0.5, s)
            assert v >= prev
            prev = v
