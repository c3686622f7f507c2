"""vproc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dse_w24 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run
  1. reproduces docs/example_report.json and docs/example_sweep.csv byte for
     byte from the committed docs/ inputs, and refuses to report numbers if
     either differs (exit 3);
  2. sets up several times, each time in a fresh interpreter
     (setup_pass.py: import vproc, write the workload's config and input
     files with `vproc kernel-gen`, warm up), and reports the median;
  3. runs closed-loop jobs through `vproc.cli.main` for --seconds: one
     client, each job starting when the previous one has finished;
  4. checks every job's outputs after the loop, outside any timed interval.

Every time is host time scaled to a reference host speed (hostspeed.py).
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json.  With
--trace 1 it alternates untraced and traced jobs and
reports the per-layer metrics; end-to-end numbers never come from a traced
run.  The last line of stdout is one JSON object; a fuller record goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DOCS = ROOT / "docs"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
from layers import Tracer, fx_op_ns, job_layer_metrics  # noqa: E402
from setup_pass import VPROC_MODULES, WARMUP_JOBS  # noqa: E402
from workloads import WORKLOADS, run_job  # noqa: E402

SETUP_PASSES = 7      # set-ups per run; setup_s is their median
TAIL_BEYOND = 10      # jobs beyond the tail percentile
MIN_JOBS = 2 * TAIL_BEYOND
#: Power of the host-speed factor that converts a value of this unit to
#: reference time: times scale with it, rates against it.
TIME_POWER = {"s": 1, "ns": 1, "lines/s": -1}

#: (golden file, CLI arguments that reproduce it); paths are under docs/.
GOLDEN = (
    ("example_report.json",
     ["run", "kernel24.asm", "--config", "default.cfg",
      "--data", "kernel24_data.csv"]),
    ("example_sweep.csv",
     ["sweep", "kernel24.asm", "--config", "default.cfg",
      "--data", "kernel24_data.csv", "--mixes", "sym:1,2,4,8,16,24"]),
)


class BenchError(Exception):
    """The benchmark cannot produce a result; nothing is reported."""


def import_vproc() -> types.SimpleNamespace:
    """Import vproc from this checkout's src/."""
    modules = {m: importlib.import_module(f"vproc.{m}") for m in VPROC_MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported vproc from {origin}, not from {SRC}")
    return types.SimpleNamespace(**modules)


def golden_gate(vp, work: Path) -> None:
    for name, args in GOLDEN:
        out = work / f"golden-{name}"
        argv = [str(DOCS / a) if (DOCS / a).is_file() else a for a in args]
        rc = vp.cli.main(argv + ["--out", str(out)])
        if (rc != 0 or not out.is_file()
                or out.read_bytes() != (DOCS / name).read_bytes()):
            raise BenchError(f"golden gate: docs/{name} is not reproduced; "
                             f"refusing to report numbers")


class JobLog:
    """Every job's input set, failure and outputs, kept for the checks."""

    def __init__(self) -> None:
        self.records: list[tuple[int, str | None, tuple[bytes, ...]]] = []
        self._distinct: dict[tuple[bytes, ...], tuple[bytes, ...]] = {}

    def add(self, job, error: str | None) -> None:
        missing = [p.name for p in job.outputs if not p.exists()]
        if error is None and missing:
            error = f"no output written: {', '.join(missing)}"
        outs = tuple(p.read_bytes() if p.exists() else b""
                     for p in job.outputs)
        self.records.append((job.set_index, error,
                             self._distinct.setdefault(outs, outs)))

    def check(self, vp, workload) -> dict:
        """Check every job; the same outputs are checked only once."""
        checked: dict = {}
        first: dict[int, tuple[bytes, ...]] = {}
        failed, problems = 0, []
        ratio = rel = 0.0
        for set_index, error, outs in self.records:
            job_problems = [error] if error else []
            if not error:
                key = (set_index, outs)
                if key not in checked:
                    try:
                        checked[key] = workload.check(vp, set_index, outs)
                    except Exception as exc:  # malformed output fails the job
                        checked[key] = None
                        job_problems.append(
                            f"output check raised {type(exc).__name__}: {exc}")
                result = checked[key]
                if result is not None:
                    job_problems += result.problems
                    ratio = max(ratio, result.err_bound_ratio)
                    rel = max(rel, result.rel_err)
                if first.setdefault(set_index, outs) != outs:
                    job_problems.append("outputs differ from an earlier job "
                                        "on the same inputs")
            if job_problems:
                failed += 1
                problems += [f"set {set_index}: {p}" for p in job_problems]
        return {"attempted": len(self.records), "failed": failed,
                "problems": problems, "err_bound_ratio": ratio,
                "rel_err": rel}


@dataclass
class Timing:
    """Host seconds of one closed-loop job."""

    traced: bool
    job_s: float    # the job's `vproc` commands
    loop_s: float   # the job plus reading its outputs
    refs: tuple[float, float]   # hostspeed.reference_s() before and after


def closed_loop(vp, jobs, seconds: float, log: JobLog,
                tracer: Tracer | None = None) -> list[Timing]:
    """Run jobs back to back for `seconds` and at least MIN_JOBS jobs.

    With a tracer, odd-numbered jobs run traced and even ones untraced, and
    each kind gets at least MIN_JOBS.
    """
    timings: list[Timing] = []
    min_jobs = MIN_JOBS * (2 if tracer else 1)
    before = hostspeed.reference_s()
    start = time.perf_counter()
    while True:
        i = len(timings)
        job = jobs[i % len(jobs)]
        traced = tracer is not None and i % 2 == 1
        for p in job.outputs:   # a job must write its outputs afresh
            p.unlink(missing_ok=True)
        with tracer.traced_job() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            error = run_job(vp.cli, job)
            t1 = time.perf_counter()
        log.add(job, error)
        t2 = time.perf_counter()
        after = hostspeed.reference_s()
        timings.append(Timing(traced, t1 - t0, t2 - t0, (before, after)))
        before = after
        if t1 - start >= seconds and len(timings) >= min_jobs:
            return timings


def timed_setup(name: str, work: Path, seed: int) -> list[tuple[float, float]]:
    """Set up SETUP_PASSES times, each in a fresh interpreter; return each
    pass's host seconds and the scale of the reference samples around it."""
    passes = []
    for n in range(SETUP_PASSES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_pass.py"), name,
             str(work / f"setup{n}"), str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up pass {n} failed: "
                             f"{proc.stderr.strip()[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        passes.append((out["setup_s"], hostspeed.factor(out["refs"])))
    return passes


def loop_setup(vp, workload, work: Path, seed: int):
    """Untimed set-up of this process for the closed loop."""
    jobs = workload.prepare(vp, work / "loop", seed)
    for job in jobs[:WARMUP_JOBS]:
        error = run_job(vp.cli, job)
        if error is not None:
            raise BenchError(f"warm-up job failed on set {job.set_index}: "
                             f"{error}")
    return jobs


def tail(times: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(timings, scale, passes, checks,
               peak_rss_mb) -> tuple[dict, dict]:
    job_s = [t.job_s * f for t, f in zip(timings, scale)]
    tail_s, tail_pct = tail(job_s)
    q1, _, q3 = statistics.quantiles(job_s, n=4)
    metrics = {
        "job_s_p50": statistics.median(job_s),
        "job_s_tail": tail_s,
        "jobs_per_s": len(job_s) / sum(t.loop_s * f
                                        for t, f in zip(timings, scale)),
        "setup_s": statistics.median(s * f for s, f in passes),
        "peak_rss_mb": peak_rss_mb,
        "oracle_err_bound_ratio_max": checks["err_bound_ratio"],
    }
    host_s = [t.job_s for t in timings]
    details = {"tail_percentile": tail_pct, "jobs": len(job_s),
               "job_s_q1": q1, "job_s_q3": q3,
               "host_job_s_p50": statistics.median(host_s),
               "host_job_s_tail": tail(host_s)[0],
               "host_setup_s": statistics.median(s for s, _ in passes),
               "oracle_rel_err_max": checks["rel_err"]}
    return metrics, details


def per_layer(vp, workload, tracer, timings, scale, units) -> dict:
    """Median over traced jobs of each layer metric, in reference time."""
    traced_scale = [f for t, f in zip(timings, scale) if t.traced]
    per_job = []
    for spans, counts, f in zip(tracer.job_spans(), tracer.counts,
                                traced_scale):
        values = job_layer_metrics(spans, counts)
        per_job.append({n: v * f ** TIME_POWER.get(units[n], 0)
                        for n, v in values.items()})
    metrics = {n: statistics.median(j[n] for j in per_job) for n in per_job[0]}
    _, _, inputs = workload.load(vp, 0)
    metrics.update(fx_op_ns(vp, [x for col in inputs.vectors.values()
                                 for x in col]))
    metrics["trace_overhead_ratio"] = (
        statistics.median(t.job_s * f for t, f in zip(timings, scale)
                          if t.traced)
        / statistics.median(t.job_s * f for t, f in zip(timings, scale)
                            if not t.traced))
    return metrics


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "machine": platform.machine()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vproc" / "__init__.py").is_file() or not DOCS.is_dir():
        print(f"error: no vproc sources under {ROOT}; run from the root of "
              f"a vproc checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]
    units = {m["name"]: m["unit"] for m in declared}
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    work = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        vp = import_vproc()
        golden_gate(vp, work)
        passes = [] if args.trace else timed_setup(args.workload, work,
                                                   args.seed)
        jobs = loop_setup(vp, workload, work, args.seed)
        gc.collect()
        tracer = Tracer(vp) if args.trace else None
        log = JobLog()
        timings = closed_loop(vp, jobs, args.seconds, log, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scale = [hostspeed.factor(t.refs) for t in timings]
        checks = log.check(vp, workload)
        if args.trace:
            metrics = per_layer(vp, workload, tracer, timings, scale, units)
            RESULTS.mkdir(exist_ok=True)
            spans_path = RESULTS / f"{args.workload}-spans.jsonl.gz"
            tracer.write(spans_path)
            details = {"traced_jobs": sum(t.traced for t in timings),
                       "spans": str(spans_path.relative_to(ROOT))}
        else:
            metrics, details = end_to_end(timings, scale, passes, checks,
                                          peak_rss_mb)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} "
                           f"disagree with BENCHMARK.json")
    details.update(fail_ratio=checks["failed"] / checks["attempted"],
                   problems=checks["problems"][:20],
                   host_speed_factor_median=statistics.median(scale))
    result = {"correct": checks["failed"] == 0,
              "attempted": checks["attempted"], "failed": checks["failed"],
              "metrics": {n: {"value": metrics[n], "unit": units[n]}
                          for n in names}}
    env = {**environment(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "golden_gate": "pass",
                    "result": result, "details": details}, indent=2) + "\n",
        encoding="utf-8")

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print("golden gate: pass (docs/example_report.json, docs/example_sweep.csv)")
    for n in names:
        print(f"{n} = {metrics[n]:.6g} {units[n]}")
    print(f"fail_ratio = {details['fail_ratio']:.6g} "
          f"({checks['failed']}/{checks['attempted']} jobs)")
    if not args.trace:
        print(f"job_s_tail is p{details['tail_percentile']:.2f} of "
              f"{details['jobs']} jobs")
        print(f"oracle_rel_err_max = {details['oracle_rel_err_max']:.6g}")
        print(f"unscaled host seconds: job p50 {details['host_job_s_p50']:.6g}"
              f", tail {details['host_job_s_tail']:.6g}, "
              f"setup {details['host_setup_s']:.6g}")
    for p in details["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
