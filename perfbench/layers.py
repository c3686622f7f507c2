"""Per-layer measurements: spans around vproc's public module functions.

The tracer replaces module attributes that callers look up at call time
(`core.run`, `isa.validate`, `fixedpoint.from_real`, ...) with wrappers that
record one span per call: name, start, end, parent span and job.  Spans are
kept in compact arrays and written out when the run ends.  Counts are
recorded at the same boundaries, from the arguments and results of the
wrapped calls, after each job so they cost the job no time.

`fixedpoint.fx_mul` and `fx_div` are bound into the simulator's dispatch
tables at import, so no wrapper can see them; they are timed by a
microbenchmark instead.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import hostspeed

#: (module, attribute) pairs wrapped by the tracer; the span name is
#: "module.attribute".  Per-instruction helpers (`core.instr_cost`,
#: `isa.opclass`) are left out: wrapping them would swamp the simulator.
SPANNED = (
    ("cli", "main"), ("cli", "read_data_csv"),
    ("isa", "assemble"), ("isa", "validate"),
    ("kernel", "data_initializers"), ("kernel", "emit_program"),
    ("fixedpoint", "from_real"),
    ("core", "run"),
    ("dse", "sweep"), ("dse", "pareto"),
    ("resources", "estimate_vector"), ("resources", "estimate_tiled"),
    ("resources", "estimate_sequential"),
    ("archmodels", "tiled_latency"),
)


#: Microbenchmark size: repeats of about this many calls, a few ms each.
FX_REPEATS = 21
FX_OPS_PER_REPEAT = 5_000


def _count_assemble(vp, counts, args, result):
    counts["isa.assemble_lines"] += len(args[0].splitlines())


def _count_data_initializers(vp, counts, args, result):
    counts["kernel.data_initializers_words"] += sum(len(v) for _, v in result)


def _count_run(vp, counts, args, result):
    program, cfg = args[0], args[1]
    retired = program.instructions[:result.instr_count]
    if any(i.target is not None for i in retired):
        raise ValueError("lane_ops counting needs straight-line programs")
    counts["core.instr_retired"] += result.instr_count
    counts["core.sim_cycles"] += result.total_cycles
    counts["core.lane_ops"] += cfg.vec_len * sum(
        1 for i in retired if vp.isa.is_vector(i.op))


def _count_sweep(vp, counts, args, result):
    counts["dse.points"] += len(result)


COUNTERS = {
    "isa.assemble": _count_assemble,
    "kernel.data_initializers": _count_data_initializers,
    "core.run": _count_run,
    "dse.sweep": _count_sweep,
}


class Tracer:
    """Span recorder for the wrapped vproc functions of one process."""

    def __init__(self, vp) -> None:
        self.vp = vp
        self.names = [f"{m}.{a}" for m, a in SPANNED]
        self.name = array("H")
        self.parent = array("i")
        self.job = array("I")
        self.start = array("q")
        self.end = array("q")
        self.counts: list[defaultdict[str, int]] = []
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._patches = []
        for name_id, (mod, attr) in enumerate(SPANNED):
            module = getattr(vp, mod)
            original = getattr(module, attr)
            wrapper = self._wrap(original, name_id,
                                 COUNTERS.get(self.names[name_id]))
            self._patches.append((module, attr, original, wrapper))

    def _wrap(self, fn, name_id, counter):
        clock = time.perf_counter_ns
        stack, pending = self._stack, self._pending
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, counts = self.start, self.end, self.counts

        def traced(*args, **kwargs):
            idx = len(ends)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(len(counts) - 1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                pending.append((counter, args, result))
            return result

        return traced

    @contextmanager
    def traced_job(self):
        """Trace every wrapped call made inside the block as one job."""
        self.counts.append(defaultdict(int))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            for counter, args, result in self._pending:
                counter(self.vp, self.counts[-1], args, result)
            self._pending.clear()

    def job_spans(self) -> list[dict]:
        """Per job, per span name: calls, inclusive ns, self ns; and the
        number of calls per (parent name, child name) edge."""
        n = len(self.end)
        child = array("q", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        jobs = [{"spans": defaultdict(lambda: [0, 0, 0]),
                 "edges": defaultdict(int)} for _ in self.counts]
        for i in range(n):
            job = jobs[self.job[i]]
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            s = job["spans"][name]
            s[0] += 1
            s[1] += dur
            s[2] += dur - child[i]
            if self.parent[i] >= 0:
                job["edges"][self.names[self.name[self.parent[i]]], name] += 1
        return jobs

    def write(self, path) -> None:
        """Write JSON lines: a header, then [name, job, parent, start_ns,
        end_ns] per span; parent is the 0-based position of the parent
        among the span lines, -1 for none."""
        t0 = self.start[0] if self.start else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write(json.dumps({"columns": ["name", "job", "parent",
                                            "start_ns", "end_ns"],
                                "counts": [dict(c) for c in self.counts]})
                    + "\n")
            for lo in range(0, len(self.end), 10_000):
                f.write("".join(
                    f'["{self.names[self.name[i]]}",{self.job[i]},'
                    f'{self.parent[i]},{self.start[i] - t0},'
                    f'{self.end[i] - t0}]\n'
                    for i in range(lo, min(lo + 10_000, len(self.end)))))


def job_layer_metrics(job: dict, counts: dict) -> dict[str, float]:
    """The per-layer metrics of one traced job."""
    spans, edges = job["spans"], job["edges"]

    def calls(name):
        return spans[name][0]

    def incl(name):
        return spans[name][1] / 1e9

    def self_s(name):
        return spans[name][2] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    run_self = self_s("core.run")
    points = counts["dse.points"]
    return {
        "cli.self_s": self_s("cli.main"),
        "cli.read_data_csv_s": incl("cli.read_data_csv"),
        "isa.assemble_s": incl("isa.assemble"),
        "isa.assemble_lines_per_s": ratio(counts["isa.assemble_lines"],
                                          incl("isa.assemble")),
        "isa.validate_s": incl("isa.validate"),
        "isa.validate_calls": calls("isa.validate"),
        "kernel.data_initializers_s": incl("kernel.data_initializers"),
        "kernel.data_initializers_words":
            counts["kernel.data_initializers_words"],
        "fixedpoint.from_real_calls": calls("fixedpoint.from_real"),
        "fixedpoint.from_real_ns": 1e9 * ratio(incl("fixedpoint.from_real"),
                                               calls("fixedpoint.from_real")),
        "core.run_calls": calls("core.run"),
        "core.run_self_s": run_self,
        "core.instr_retired": counts["core.instr_retired"],
        "core.lane_ops": counts["core.lane_ops"],
        "core.sim_cycles": counts["core.sim_cycles"],
        "core.ns_per_instr": 1e9 * ratio(run_self,
                                         counts["core.instr_retired"]),
        "core.ns_per_lane_op": 1e9 * ratio(run_self, counts["core.lane_ops"]),
        "dse.sweep_s": incl("dse.sweep"),
        "dse.sweep_self_s": self_s("dse.sweep"),
        "dse.points": points,
        "dse.core_runs_per_point": ratio(edges["dse.sweep", "core.run"],
                                         points),
        "dse.pareto_s": incl("dse.pareto"),
        "resources.estimate_s": sum(incl(f"resources.estimate_{kind}") for
                                    kind in ("vector", "tiled", "sequential")),
        "archmodels.tiled_latency_s": incl("archmodels.tiled_latency"),
    }


def fx_op_ns(vp, values: list[float]) -> dict[str, float]:
    """Median reference ns per `fx_mul` / `fx_div` call on operands from the
    inputs; each repeat is scaled by reference samples just around it."""
    fx = vp.fixedpoint
    words = [fx.from_real(x) for x in values]
    pairs = list(zip(words, words[1:] + words[:1]))
    pairs *= max(1, FX_OPS_PER_REPEAT // len(pairs))
    flags = fx.ArithFlags()
    out = {}
    for name, op in (("fixedpoint.fx_mul_ns", fx.fx_mul),
                     ("fixedpoint.fx_div_ns", fx.fx_div)):
        samples = []
        for _ in range(FX_REPEATS):
            before = hostspeed.reference_s()
            t0 = time.perf_counter_ns()
            for a, b in pairs:
                op(a, b, flags)
            ns = (time.perf_counter_ns() - t0) / len(pairs)
            samples.append(ns * hostspeed.factor([before,
                                                  hostspeed.reference_s()]))
        out[name] = statistics.median(samples)
    return out
