"""The benchmark's workloads: the files each writes at set-up, the CLI
commands one job runs, and the checks on a job's outputs.

Every workload derives its input sets from the benchmark seed, writes them
to disk with `vproc kernel-gen`, and runs jobs through `vproc.cli.main`
exactly as a user would from the shell.  Jobs cycle through the input sets,
so consecutive jobs never reuse the same inputs.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

#: Weight of the least significant bit of a Q32.32 word.
LSB = 2.0 ** -32
#: Relative slack for the double-precision oracle and the report's
#: word-to-double rounding: a few units in the last place of a binary64.
DOUBLE_SLACK = 32 * 2.0 ** -53

DSE_UNITS = (1, 2, 4, 8, 16, 24)
DSE_MIXES = list(itertools.product(DSE_UNITS, repeat=3))


@dataclass(frozen=True)
class Job:
    """One closed-loop job: CLI commands run back to back on one input set."""

    set_index: int
    commands: tuple[tuple[str, ...], ...]
    outputs: tuple[Path, ...]


@dataclass
class Check:
    """Outcome of checking one job's outputs."""

    problems: list[str]
    err_bound_ratio: float   # max over lanes of oracle error / Q32.32 bound
    rel_err: float           # max over lanes of relative error vs the oracle


def input_seeds(seed: int, n: int) -> list[int]:
    """Distinct kernel-gen seeds for the n input sets of a benchmark seed."""
    return random.Random(seed).sample(range(1 << 31), n)


def straight_line_cycles(vp, program, cfg) -> int:
    """Σ core.instr_cost over the dynamic trace of a branch-free program."""
    instrs = program.instructions
    if any(i.target is not None for i in instrs) or instrs[-1].op != "HALT" \
            or any(i.op == "HALT" for i in instrs[:-1]):
        raise ValueError("benchmark programs must be straight-line, "
                         "ending in their only HALT")
    return sum(vp.core.instr_cost(i, cfg) for i in instrs)


def lane_error_bound(vectors: dict[str, list[float]], lane: int,
                     s_k: float) -> float:
    """Bound on the relative error of one lane of the Q32.32 kernel output.

    Propagates absolute error bounds through the kernel expression: inputs
    round to nearest (half an LSB), products floor (under one LSB),
    quotients truncate (under one LSB), sums are exact.
    """
    def mul(x, y):
        return (x[0] * y[0],
                abs(x[0]) * y[1] + abs(y[0]) * x[1] + x[1] * y[1] + LSB)

    def add(x, y):
        return x[0] + y[0], x[1] + y[1]

    def div(x, y):
        q = x[0] / y[0]
        return q, (x[1] + abs(q) * y[1]) / (abs(y[0]) - y[1]) + LSB

    v = {name: (col[lane], LSB / 2) for name, col in vectors.items()}
    t5 = mul(add(mul(mul(v["a"], v["b"]), v["c"]), mul(v["d"], v["e"])),
             v["f"])
    t7 = add(mul(v["g"], v["h"]), (s_k, LSB / 2))
    t10 = div(div(mul(t5, t7), v["p"]), v["q"])
    out = div((1.0, 0.0), t10)
    return out[1] / abs(out[0]) + DOUBLE_SLACK


def oracle_errors(vp, inputs, words: list[float]) -> tuple[list[str], float, float]:
    """Compare simulated outputs with `kernel.oracle`, lane by lane."""
    problems = []
    ratio = rel_max = 0.0
    for lane, (got, want) in enumerate(zip(words, vp.kernel.oracle(inputs))):
        rel = abs(got - want) / abs(want)
        bound = lane_error_bound(inputs.vectors, lane, inputs.s_k)
        if rel > bound:
            problems.append(f"lane {lane}: relative error {rel:.3e} above "
                            f"the Q32.32 bound {bound:.3e}")
        ratio = max(ratio, rel / bound)
        rel_max = max(rel_max, rel)
    return problems, ratio, rel_max


def run_job(cli, job) -> str | None:
    """Run one job's commands; return why it failed, or None."""
    try:
        for argv in job.commands:
            rc = cli.main(list(argv))
            if rc != 0:
                return f"`vproc {argv[0]}` exited with {rc}"
    except Exception as exc:  # a crash of the program fails the job
        return f"`vproc {argv[0]}` raised {type(exc).__name__}: {exc}"
    return None


class Workload:
    name: str
    vec_len: int
    n_sets: int

    def __init__(self) -> None:
        self.workdir: Path | None = None
        self.jobs: list[Job] = []
        self._refs: dict[int, object] = {}

    def prepare(self, vp, workdir: Path, seed: int) -> list[Job]:
        """Write the config and every input set; return one job per set."""
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self._refs = {}
        (workdir / "core.cfg").write_text(
            f"vec_len = {self.vec_len}\nmem_port_width = {self.vec_len}\n",
            encoding="utf-8")
        self.jobs = []
        for k, s in enumerate(input_seeds(seed, self.n_sets)):
            rc = vp.cli.main(["kernel-gen", "--veclen", str(self.vec_len),
                              "--seed", str(s), "--out-prefix",
                              str(self.prefix(k))])
            if rc != 0:
                raise RuntimeError(f"kernel-gen failed for input set {k}")
            self.jobs.append(self.job(vp, k))
        return self.jobs

    def prefix(self, k: int) -> Path:
        return self.workdir / f"set{k}"

    def common(self, k: int) -> tuple[str, ...]:
        return ("--config", str(self.workdir / "core.cfg"),
                "--data", f"{self.prefix(k)}_data.csv")

    def load(self, vp, k: int):
        """The set's config and inputs, read back with the CLI's parsers."""
        cfg, cal = vp.cli.load_config(str(self.workdir / "core.cfg"))
        return cfg, cal, vp.cli.read_data_csv(f"{self.prefix(k)}_data.csv")

    def observe(self, vp) -> tuple[int, int]:
        return vp.kernel.default_layout(self.vec_len)["out"], self.vec_len

    def job(self, vp, k: int) -> Job:
        raise NotImplementedError

    def check(self, vp, k: int, outputs: tuple[bytes, ...]) -> Check:
        raise NotImplementedError


class RunWorkload(Workload):
    """`vproc run` of the vector kernel or its scalar transcription at W=256."""

    vec_len = 256
    n_sets = 8

    def __init__(self, name: str, scalar: bool) -> None:
        super().__init__()
        self.name = name
        self.scalar = scalar

    def job(self, vp, k: int) -> Job:
        asm = f"{self.prefix(k)}.asm"
        if self.scalar:
            inputs = vp.cli.read_data_csv(f"{self.prefix(k)}_data.csv")
            program = vp.kernel.emit_scalar_program(self.vec_len, s_k=inputs.s_k)
            asm = f"{self.prefix(k)}_scalar.asm"
            Path(asm).write_text(vp.isa.disassemble(program) + "\n",
                                 encoding="utf-8")
        out = Path(f"{self.prefix(k)}_report.json")
        return Job(k, (("run", asm, *self.common(k), "--out", str(out)),),
                   (out,))

    def reference(self, vp, k: int):
        """Output words of both program forms, simulated through the library."""
        if k not in self._refs:
            cfg, _, inputs = self.load(vp, k)
            inits = vp.kernel.data_initializers(inputs)
            forms = {}
            for name, emit in (("vector", vp.kernel.emit_program),
                               ("scalar", vp.kernel.emit_scalar_program)):
                report = vp.core.run(emit(self.vec_len, s_k=inputs.s_k), cfg,
                                     inputs=inits, observe=self.observe(vp))
                forms[name] = report.memory
            own = vp.isa.assemble(
                Path(self.jobs[k].commands[0][1]).read_text(encoding="utf-8"))
            self._refs[k] = (cfg, inputs, forms,
                             straight_line_cycles(vp, own, cfg))
        return self._refs[k]

    def check(self, vp, k: int, outputs: tuple[bytes, ...]) -> Check:
        cfg, inputs, forms, cycles = self.reference(vp, k)
        report = json.loads(outputs[0])
        problems = []
        if forms["vector"] != forms["scalar"]:
            problems.append("vector and scalar programs give different words")
        if report["total_cycles"] != cycles:
            problems.append(f"total_cycles {report['total_cycles']} != "
                            f"Σ instr_cost {cycles}")
        if any(report["flags"].values()):
            problems.append(f"sticky flags set: {report['flags']}")
        other = forms["vector" if self.scalar else "scalar"]
        if report["memory"] != [vp.fixedpoint.to_real(w) for w in other]:
            problems.append("output words differ from the other program form")
        oracle_problems, ratio, rel = oracle_errors(vp, inputs, report["memory"])
        return Check(problems + oracle_problems, ratio, rel)


class DseWorkload(Workload):
    """`vproc sweep` of the W=24 kernel over 216 unit mixes, then `compare`."""

    name = "dse_w24"
    vec_len = 24
    n_sets = 64

    def job(self, vp, k: int) -> Job:
        sweep_out = Path(f"{self.prefix(k)}_sweep.csv")
        compare_out = Path(f"{self.prefix(k)}_compare.json")
        mixes = ",".join(f"{a}-{m}-{d}" for a, m, d in DSE_MIXES)
        return Job(k, (
            ("sweep", f"{self.prefix(k)}.asm", *self.common(k),
             "--mixes", mixes, "--out", str(sweep_out)),
            ("compare", *self.common(k), "--out", str(compare_out)),
        ), (sweep_out, compare_out))

    def reference(self, vp, k: int):
        if k not in self._refs:
            cfg, cal, inputs = self.load(vp, k)
            program = vp.isa.assemble(
                Path(f"{self.prefix(k)}.asm").read_text(encoding="utf-8"))
            report = vp.core.run(program, cfg,
                                 inputs=vp.kernel.data_initializers(inputs),
                                 observe=self.observe(vp))
            words = [vp.fixedpoint.to_real(w) for w in report.memory]
            self._refs[k] = (cfg, cal, program,
                             oracle_errors(vp, inputs, words))
        return self._refs[k]

    def check(self, vp, k: int, outputs: tuple[bytes, ...]) -> Check:
        cfg, cal, program, (problems, ratio, rel) = self.reference(vp, k)
        problems = list(problems)
        rows = list(csv.DictReader(io.StringIO(outputs[0].decode())))
        if [(int(r["n_add"]), int(r["n_mul"]), int(r["n_div"]))
                for r in rows] != DSE_MIXES:
            return Check(problems + ["sweep rows do not follow the mix list"],
                         ratio, rel)
        points = []
        for r in rows:
            mix = cfg.with_mix(int(r["n_add"]), int(r["n_mul"]), int(r["n_div"]))
            latency, slices = int(r["latency_cycles"]), int(r["slices"])
            if latency != straight_line_cycles(vp, program, mix):
                problems.append(f"{r['label']}: latency_cycles {latency} "
                                f"!= Σ instr_cost")
            if slices != vp.resources.estimate_vector(mix, cal).slices:
                problems.append(f"{r['label']}: slices {slices} "
                                f"!= resources.estimate_vector")
            points.append((latency, slices))
        for r, (lat, sl) in zip(rows, points):
            dominated = any(l2 <= lat and s2 <= sl and (l2 < lat or s2 < sl)
                            for l2, s2 in points)
            if (r["on_pareto"] == "true") == dominated:
                problems.append(f"{r['label']}: on_pareto={r['on_pareto']} "
                                f"disagrees with the dominance check")
        compare = json.loads(outputs[1])
        seq = compare["architectures"]["sequential"]["latency_cycles"]
        if seq != points[0][0]:
            problems.append(f"compare sequential latency {seq} != "
                            f"1-1-1 row {points[0][0]}")
        return Check(problems, ratio, rel)


WORKLOADS = {
    "dse_w24": DseWorkload,
    "vector_w256": lambda: RunWorkload("vector_w256", scalar=False),
    "scalar_w256": lambda: RunWorkload("scalar_w256", scalar=True),
}
