"""Run the benchmark over several workloads and seeds; report the spread.

    python3 perfbench/repeat.py --seeds 7            # every workload, seed 7
    python3 perfbench/repeat.py --seeds 1-10 --workloads dse_w24

Each run is a separate `perfbench/run.py` process, measuring for
BENCHMARK.json's run_seconds, so peak memory is measured afresh.  Seeds are the outer loop, so
slow drift in machine load touches every workload alike.  For every metric
the table gives the values, their median and their spread: the distance
between the first and third quartile as a share of the median.  The full
record goes to perfbench/results/spread-trace<N>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help='e.g. "7" or "1-10"')
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{w} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((HERE / "results" / f"{w}-trace{args.trace}"
                                 ".json").read_text(encoding="utf-8"))
            runs[w].append({"seed": seed, **result,
                            "details": record["details"]})
            print(f"{w} seed {seed}: golden gate pass, "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)

    summary = {}
    for w in workloads:
        attempted = sum(r["attempted"] for r in runs[w])
        failed = sum(r["failed"] for r in runs[w])
        print(f"\n{w}: fail_ratio = {failed / attempted:.6g} "
              f"({failed}/{attempted} jobs), "
              f"all correct = {all(r['correct'] for r in runs[w])}")
        summary[w] = {}
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            s = spread(values)
            summary[w][m["name"]] = {"unit": m["unit"], "values": values,
                                     "median": statistics.median(values),
                                     "spread": s, "bound": m.get("bound")}
            bound = f" bound {m['bound']}" if "bound" in m else ""
            shown = "" if s is None else f" spread {s:.4f}{bound}"
            print(f"  {m['name']:32s} {statistics.median(values):12.6g} "
                  f"{m['unit']:8s}{shown}")
        if not args.trace:
            host = [r["details"]["host_job_s_p50"] for r in runs[w]]
            s = spread(host)
            summary[w]["host_job_s_p50"] = {"unit": "s", "values": host,
                                            "spread": s}
            print(f"  {'(unscaled host job_s_p50)':32s} "
                  f"{statistics.median(host):12.6g} s       "
                  + ("" if s is None else f" spread {s:.4f}"))
    out = HERE / "results" / f"spread-trace{args.trace}.json"
    out.write_text(json.dumps(
        {"environment": run.environment(),
         "seeds": parse_seeds(args.seeds), "seconds": spec["run_seconds"],
         "summary": summary, "runs": runs}, indent=2) + "\n", encoding="utf-8")
    print(f"\nwritten to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
