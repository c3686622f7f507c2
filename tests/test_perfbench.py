"""Smoke tests of the benchmark harness: short runs of each workload.

The harness calls `kernel.data_initializers`, `core.run` and the report
readers directly, so a change to their types can break it while the CLI
tests pass.  The run works on a copy of the checkout in a temporary
directory, so nothing is written into the repository.  It checks the
outcome and the metric names, never a timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(tmp_path, workload, trace):
    """One one-second run of a workload; its result record."""
    for name in ("src", "docs", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("results", "work-*",
                                                      "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr     # 3: the golden gate failed
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    return result


def test_vector_w256_run(tmp_path):
    result = run_workload(tmp_path, "vector_w256", 0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"]]
    assert len(names) == 6
    assert set(names) <= set(result["metrics"])


def test_scalar_w256_run(tmp_path):
    """The one workload whose programs (about 5,600 instructions) push
    dispatch, `isa.validate` and the harness's sum of `instr_cost` hard."""
    run_workload(tmp_path, "scalar_w256", 0)


def test_dse_w24_traced_run(tmp_path):
    """Only a traced run looks up the tracer's wrapped names, and only
    dse_w24 reaches `compare` and so the tiled models."""
    result = run_workload(tmp_path, "dse_w24", 1)
    assert {"archmodels.tiled_latency_s", "resources.estimate_s"} \
        <= set(result["metrics"])
