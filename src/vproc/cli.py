"""Command-line front end; owns the config, data, report and CSV formats.

Formats (documented with examples in docs/formats.md):
  config  - flat "key = value" lines; each key is a CoreConfig or Calibration
            field and takes that field's type; unknown keys are errors.
  data    - CSV; header names the input vectors, one row per lane; the
            scalar constant is the first non-blank cell of column "s_k".
  report  - JSON with a schema_version field; no timestamps, fully
            deterministic for given inputs.
Exit codes: 0 success, 1 user/input error, 2 simulation fault or timeout;
main() is the one place that maps errors to them.
main() builds its argument parser once per process and reuses it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from collections import Counter
from itertools import zip_longest

from . import archmodels, core, dse, fixedpoint as fx, isa, kernel, resources
from .core import CoreConfig
from .isa import ValidationError
from .resources import Calibration

SCHEMA_VERSION = 1

# Field type, as annotation text -> parser; a bad value raises KeyError or ValueError.
_PARSERS = {"bool": lambda v: {"true": True, "false": False}[v.lower()],
            "float": lambda v: isa._decimal(v, float),
            "int": isa._decimal, "int | None": isa._decimal}
# config key -> (its dataclass, the parser of its value)
_KEYS = {f.name: (cls, _PARSERS[f.type])
         for cls in (CoreConfig, Calibration) for f in dataclasses.fields(cls)}


def parse_config_text(text: str) -> tuple[CoreConfig, Calibration]:
    kwargs: dict[type, dict] = {CoreConfig: {}, Calibration: {}}
    for lineno, raw in enumerate(isa.split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ValidationError(f"config line {lineno}: unknown key '{key}'")
        cls, parse = _KEYS[key]
        if key in kwargs[cls]:
            raise ValidationError(f"config line {lineno}: duplicate key '{key}'")
        try:
            parsed = parse(value)
        except (KeyError, ValueError):
            raise ValidationError(f"config line {lineno}: bad value for '{key}'")
        kwargs[cls][key] = parsed
    try:
        return (CoreConfig(**kwargs[CoreConfig]),
                Calibration(**kwargs[Calibration]))
    except ValueError as exc:
        raise ValidationError(f"invalid configuration: {exc}")


def load_config(path: str | None) -> tuple[CoreConfig, Calibration]:
    if path is None:
        return CoreConfig(), Calibration()
    return parse_config_text(_read(path))


def _read(path: str) -> str:
    """The text of an input file; every input file is read here."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().removeprefix("\ufeff")   # a BOM, as Excel's "CSV UTF-8" writes
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}")


def write_data_csv(path: str, inputs: kernel.KernelInputs) -> None:
    names = kernel.INPUT_NAMES
    _write_out(path, "".join(",".join(row) + "\r\n" for row in [[*names, "s_k"]] + [
        [repr(inputs.vectors[n][i]) for n in names]
        + [repr(inputs.s_k) if i == 0 else ""] for i in range(inputs.vec_len)]))


def read_data_csv(path: str) -> kernel.KernelInputs:
    text = _read(path)
    lines = isa.split_lines(text)
    # Without a quote, a NUL or a line past csv's field size limit, csv's
    # records are the lines split at commas; a blank line is [""], not [].
    if '"' in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
        try:
            rows = list(csv.reader(io.StringIO(text)))
        except csv.Error as exc:        # a NUL (before Python 3.11), or a long cell
            raise ValidationError(f"{path}: {exc}")
    else:
        rows = [line.split(",") for line in lines] if text else []
    if not rows:
        raise ValidationError(f"{path}: empty data file")
    header = [h.strip() for h in rows[0]]
    if repeated := [n for n, k in Counter(header).items() if n and k > 1]:
        raise ValidationError(f"{path}: duplicate column(s) {', '.join(repeated)}")
    if missing := [n for n in kernel.INPUT_NAMES if n not in header]:
        raise ValidationError(f"{path}: missing column(s) {', '.join(missing)}")
    columns: dict[str, list[float]] = {n: [] for n in header}
    lo, hi = fx.REAL_LO, fx.REAL_HI
    body = rows[1:]
    try:    # a column at a time; a short row or a blank line ends in blank cells
        if max(map(len, body), default=0) > len(header):
            raise ValueError
        for name, cells in zip(header, zip_longest(*body, fillvalue="")):
            xs = columns[name] = list(map(float, filter(str.strip, cells)))
            if xs and not (lo <= min(xs) <= max(xs) < hi) or math.isnan(sum(xs)):
                raise ValueError
    except ValueError:  # the file is rejected: a row-major scan names its first fault
        for n, row in enumerate(body, start=2):
            if len(row) > len(header):
                raise ValidationError(f"{path}: row {n} has {len(row)} cells, "
                                      f"header has {len(header)}")
            for name, cell in zip(header, row):
                if cell.strip():
                    try:
                        x = float(cell)
                    except ValueError:
                        x = math.nan
                    if not lo <= x < hi:
                        what = ("is not a finite number" if not math.isfinite(x)
                                else "is outside the Q32.32 range [-2^31, 2^31)")
                        raise ValidationError(f"{path}: row {n}, column {name}: "
                                              f"'{cell}' {what}")
    vectors = {n: columns[n] for n in kernel.INPUT_NAMES}
    if len({len(v) for v in vectors.values()}) != 1:
        raise ValidationError(f"{path}: input columns have unequal lengths")
    s_k = columns.get("s_k") or [1.0]
    return kernel.KernelInputs(vectors=vectors, s_k=s_k[0])


def _report_dict(report: core.ExecReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "total_cycles": report.total_cycles,
        "instr_count": report.instr_count,
        "busy_cycles": {c.name: n for c, n in report.busy_cycles.items()},
        "utilization": {c.name: round(u, 6)
                        for c, u in report.utilization.items()},
        "flags": {"overflow": report.flags.overflow,
                  "div_by_zero": report.flags.div_by_zero},
        "memory": [fx.to_real(v) for v in report.memory],
    }


def _write_out(path: str | None, text: str) -> None:
    """The one writer of output files; newline="" keeps the text's own line ends."""
    with (contextlib.nullcontext(sys.stdout) if path in (None, "-")
          else open(path, "w", encoding="utf-8", newline="")) as f:
        f.write(text if text.endswith("\n") else text + "\n")


def _data_inputs(path: str | None, cfg: CoreConfig) -> kernel.KernelInputs | None:
    """Inputs from a data file whose lane count matches cfg."""
    if not path:
        return None
    inputs = read_data_csv(path)
    if inputs.vec_len != cfg.vec_len:
        raise ValidationError(f"data file has {inputs.vec_len} lanes, "
                              f"config expects {cfg.vec_len}")
    return inputs


def _parse_observe(spec: str | None, cfg: CoreConfig) -> tuple[int, int]:
    if spec is None:        # the kernel's output region
        return kernel.default_layout(cfg.vec_len)["out"], cfg.vec_len
    try:
        return tuple(map(isa._decimal, spec.partition(":")[::2]))
    except ValueError:
        raise ValidationError(f"bad observe range '{spec}', expected START:LENGTH")


def parse_mix_spec(spec: str) -> list[tuple[int, int, int]]:
    spec = spec.strip()
    if not spec:
        raise ValidationError("empty mix spec")
    if spec.startswith("sym:"):
        sizes = [t.strip() for t in spec[len("sym:"):].split(",") if t.strip()]
        try:        # int() also rejects more digits than its limit
            if not sizes:
                raise ValueError
            return [(isa._decimal(t),) * 3 for t in sizes]
        except ValueError:
            raise ValidationError(f"bad mix spec '{spec}'")
    # isa._decimal's checks, made once: int() alone takes ASCII without `_`
    decimal = int if spec.isascii() and "_" not in spec else isa._decimal
    mixes = []
    for item in spec.split(","):
        try:        # a count other than three fails to unpack
            a, m, d = map(decimal, item.strip().split("-"))
        except ValueError:
            raise ValidationError(f"bad mix '{item.strip()}', expected A-M-D")
        mixes.append((a, m, d))
    return mixes


# ---------------------------------------------------------------- commands

def cmd_asm(args) -> int:
    cfg, _ = load_config(args.config)
    source = _read(args.program)    # its error is an `error:` line, not a listing
    try:
        program = isa.assemble(source)
        if not args.check_only:
            for idx, line in enumerate(isa.disassemble(program).splitlines()):
                print(f"{idx:4d}  {line}")
        if diags := isa.validate(program, cfg):
            raise ValidationError(*diags)
    except ValidationError as exc:
        for d in exc.diagnostics:
            print(d, file=sys.stderr)
        return 1
    return 0


def _load(args) -> tuple[CoreConfig, Calibration, isa.Program, list | None]:
    """Checks --max-cycles, then loads the config, program and data initializers."""
    if args.max_cycles < 0:
        raise ValidationError(f"--max-cycles {args.max_cycles} must be >= 0")
    cfg, cal = load_config(args.config)
    program = isa.assemble(_read(args.program))
    inputs = _data_inputs(args.data, cfg)
    return cfg, cal, program, inputs and kernel.data_initializers(inputs)


def cmd_run(args) -> int:
    cfg, _, program, inputs = _load(args)
    report = core.run(program, cfg, inputs=inputs,
                      observe=_parse_observe(args.observe, cfg),
                      max_cycles=args.max_cycles)
    fields = _report_dict(report)
    text = json.dumps({**fields, "memory": []}, indent=2)     # ends '[]\n}'
    if words := fields["memory"]:   # finite floats, which json prints by repr
        text = text[:-4] + "[\n    " + ",\n    ".join(map(float.__repr__, words)) + "\n  ]\n}"
    _write_out(args.out, text)
    for raised, what in [(report.flags.div_by_zero, "division by zero"),
                         (report.flags.overflow, "arithmetic saturation")]:
        if raised:
            print(f"warning: {what} occurred during execution", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    cfg, cal, program, inputs = _load(args)
    points = dse.sweep(program, cfg, parse_mix_spec(args.mixes), cal,
                       inputs=inputs, max_cycles=args.max_cycles)
    frontier = set(dse.pareto(points))    # equal points are equally on it
    fields = (*dse.DesignPoint._fields, "on_pareto")
    on = map({True: "true", False: "false"}.get, map(frontier.__contains__, points))
    rows = map(",".join(["{}"] * len(fields)).format, *zip(*points), on)
    _write_out(args.out, "\n".join([",".join(fields), *rows]))
    return 0


def cmd_compare(args) -> int:
    cfg, cal = load_config(args.config)
    # Check the layout before reading or drawing 10 * W inputs for it.
    kernel.checked_layout(cfg.vec_len, cfg.dmem_words)
    inputs = (_data_inputs(args.data, cfg)
              or kernel.generate_inputs(cfg.vec_len, seed=0))
    program = kernel.emit_program(cfg.vec_len, s_k=inputs.s_k)

    tiled_lat = archmodels.tiled_latency(kernel.KERNEL, cfg,
                                         barrier_cost=args.barrier)
    tiled_slices = resources.estimate_tiled(kernel.KERNEL, cfg.vec_len,
                                            cal).slices

    # The sequential core is this core with one unit per class: one sweep.
    seq, vec = dse.sweep(program, cfg,
                         [archmodels.sequential_config(cfg).mix, cfg.mix],
                         cal, inputs=kernel.data_initializers(inputs))
    seq_lat, vec_lat = seq.latency_cycles, vec.latency_cycles
    seq_slices = resources.estimate_sequential(cal).slices
    if tiled_lat == 0 or seq_slices == 0:
        raise ValidationError(f"cannot form ratios: tiled latency {tiled_lat} and "
                              f"sequential slices {seq_slices} must be >= 1")

    out = {
        "schema_version": SCHEMA_VERSION,
        "architectures": {
            "tiled": {"latency_cycles": tiled_lat, "slices": tiled_slices},
            "sequential": {"latency_cycles": seq_lat, "slices": seq_slices},
            "vector": {"label": vec.label, "latency_cycles": vec_lat,
                       "slices": vec.slices},
        },
        "ratios": {
            "latency_sequential_over_vector": round(seq_lat / vec_lat, 4),
            "slices_vector_over_sequential": round(vec.slices / seq_slices, 4),
            "latency_sequential_over_tiled": round(seq_lat / tiled_lat, 4),
            "slices_tiled_over_sequential": round(tiled_slices / seq_slices, 4),
        },
    }
    _write_out(args.out, json.dumps(out, indent=2))
    return 0


def cmd_project(args) -> int:
    out: dict = {"schema_version": SCHEMA_VERSION}
    if args.fraction is not None:
        out["overall_speedup"] = round(dse.amdahl(args.fraction, args.speedup), 6)
        out["amdahl_fraction"] = args.fraction
    if args.budget is not None:
        if args.latency is None or args.slices is None:
            raise ValidationError("--budget requires --latency and --slices")
        proj = dse.throughput_projection(args.latency, args.slices,
                                         args.budget, args.clock)
        out["cores"] = proj.cores
        out["calls_per_second"] = proj.calls_per_second
        out["clock_mhz"] = args.clock
    if len(out) == 1:
        raise ValidationError("nothing to project: give --fraction and/or --budget")
    _write_out(args.out, json.dumps(out, indent=2))
    return 0


def cmd_kernel_gen(args) -> int:
    # Check the layout fits some core before drawing 10 * W inputs for it.
    kernel.checked_layout(args.veclen, core.MAX_STATE_WORDS)
    inputs = kernel.generate_inputs(args.veclen, args.seed)
    program = kernel.emit_program(args.veclen, s_k=inputs.s_k)
    _write_out(args.out_prefix + ".asm", isa.disassemble(program))
    write_data_csv(args.out_prefix + "_data.csv", inputs)
    _write_out(args.out_prefix + "_expected.csv",
               "".join(f"{x}\r\n" for x in ["out", *map(repr, kernel.oracle(inputs))]))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):      # a usage error is an input error
        raise ValidationError(f"{self.prog}: {message}")


def _int(text: str, number: type = int):
    """A command-line int (or float), by the config rule."""
    try:
        return isa._decimal(text, number)
    except ValueError:      # argparse's own message for type=int or float
        raise argparse.ArgumentTypeError(f"invalid {number.__name__} value: {text!r}")


_float = functools.partial(_int, number=float)
# Each option's argparse keywords, declared once.
_OPTIONS = {
    "program": {}, "--config": {}, "--data": {}, "--out": {},
    "--check-only": {"action": "store_true"},
    "--observe": {"help": "memory range START:LENGTH to report"},
    "--mixes": {"required": True, "help": '"A-M-D,A-M-D,..." or "sym:1,2,4,..."'},
    "--max-cycles": {"type": _int, "default": core.MAX_CYCLES},
    "--barrier": {"type": _int, "default": 1},
    "--latency": {"type": _int}, "--slices": {"type": _int}, "--budget": {"type": _int},
    "--clock": {"type": _float, "default": CoreConfig.clock_mhz},
    "--fraction": {"type": _float},
    "--speedup": {"type": _float, "default": math.inf,
                  "help": 'kernel speedup factor or "inf"'},
    "--veclen": {"type": _int, "default": CoreConfig.vec_len},
    "--seed": {"type": _int, "default": 42},
    "--out-prefix": {"required": True},
}
# command -> (its function, its help line, its options in help order)
_COMMANDS = {
    "asm": (cmd_asm, "assemble and validate a program",
            "program --config --check-only"),
    "run": (cmd_run, "simulate a program and write a report",
            "program --config --data --observe --max-cycles --out"),
    "sweep": (cmd_sweep, "evaluate functional-unit mixes",
              "program --config --data --mixes --max-cycles --out"),
    "compare": (cmd_compare, "benchmark kernel on tiled / sequential / vector",
                "--config --data --barrier --out"),
    "project": (cmd_project, "throughput and whole-app speedup",
                "--latency --slices --budget --clock --fraction --speedup --out"),
    "kernel-gen": (cmd_kernel_gen, "emit benchmark program, inputs and oracle outputs",
                   "--veclen --seed --out-prefix"),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser tree built from _COMMANDS and _OPTIONS."""
    parser = _Parser(
        prog="vproc",
        description="Vector soft-processor simulator and design-space explorer")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option in options.split():
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)
    return parser


_parser = functools.cache(build_parser)      # one tree per process


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place an error becomes an exit code."""
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, OSError) as exc:
        code, message = 1, str(exc)
    except (core.SimulationFault, core.SimulationTimeout) as exc:
        code, message = 2, str(exc)
    # One bounded line, even when the message quotes input holding a line
    # break, or a timeout names a cycle count of hundreds of digits.
    print("error:", isa._bounded(" ".join(message.splitlines())), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
