"""One set-up pass of the benchmark, in a fresh interpreter.

    python3 perfbench/setup_pass.py <workload> <workdir> <seed>

Set-up is what a user waits for before the first job: importing vproc
together with every module it needs that interpreter start-up has not
loaded, writing the workload's files with `vproc kernel-gen` and running
the warm-up jobs.  So the pass runs in a process of its own, and before
its clock starts it loads nothing but `time` and the reference loop.
vproc is imported before the benchmark's own modules, so a dependency that
vproc gains or drops moves the time.  The last line of stdout is one JSON
object: the pass's host seconds and the reference samples taken just
before and after it (hostspeed.py).
"""

import os
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import hostspeed  # noqa: E402

WARMUP_JOBS = 2
VPROC_MODULES = ("cli", "core", "dse", "fixedpoint", "isa", "kernel",
                 "resources", "archmodels")


def main() -> int:
    name, workdir, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    before = [hostspeed.reference_s() for _ in range(hostspeed.SAMPLES)]
    t0 = time.perf_counter()
    for m in VPROC_MODULES:
        __import__(f"vproc.{m}")
    vp = types.SimpleNamespace(**{m: sys.modules[f"vproc.{m}"]
                                  for m in VPROC_MODULES})
    from pathlib import Path
    from workloads import WORKLOADS, run_job
    jobs = WORKLOADS[name]().prepare(vp, Path(workdir), seed)
    for job in jobs[:WARMUP_JOBS]:
        error = run_job(vp.cli, job)
        if error is not None:
            print(f"warm-up job failed on set {job.set_index}: {error}",
                  file=sys.stderr)
            return 1
    elapsed = time.perf_counter() - t0
    after = [hostspeed.reference_s() for _ in range(hostspeed.SAMPLES)]

    import json
    origin = os.path.abspath(vp.cli.__file__)
    if not origin.startswith(os.path.join(os.path.abspath(SRC), "")):
        print(f"imported vproc from {origin}, not from {SRC}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": elapsed, "refs": before + after}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
