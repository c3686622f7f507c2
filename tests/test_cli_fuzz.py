"""Fuzz of the command line over argv and the contents of its input files.

Whatever the subcommand, options and files, `vproc` exits 0, 1 or 2, never
with a traceback, and each failure outside `asm` (whose diagnostic listing
is its output) is exactly one `error:` line on stderr.  No stderr line
outgrows `isa.MAX_DIAGNOSTIC`, however long the input it echoes.  The JSON
that `run`, `compare` and `project` write on success is strict JSON: no
`Infinity` or `NaN`.

Config integers, unit counts in --mixes and the data cells also take
values far out of range: 400-digit integers, which the bound on a core's
memory and registers or the slice model rejects, and a cell longer than
the csv module's field limit.  --veclen stays at or below 64 and
--max-cycles at or below 10**4: the aim is the error path, not large
memories.  `sweep` gets branch-free programs only, because its simulations
run under core.run's default cycle limit of 10**7.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from vproc.cli import main
from vproc.isa import MAX_DIAGNOSTIC
from vproc.kernel import INPUT_NAMES

# Command-line text as the OS delivers it: no NUL, no lone surrogates.
WORD = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\x00"), max_size=8)
SMALL = st.integers(-2, 64).map(str)
HUGE = st.integers(10**399, 10**400 - 1)
REAL = st.sampled_from(["0", "0.1", "1", "2.5", "100", "350", "900", "-1",
                        "inf", "-inf", "nan", "1e308", "1e400", "abc",
                        ""])


STATEMENTS = [
    "LDI s1, 1.5", "LDI s2, 0x10", "LDI s3, 1e999", "LDI s1, -1e999",
    "SMOV s4, s1", "SADD s2, s1, s1", "SSUB s2, s1, s3", "SADDI s2, s1, -2.5",
    "SMUL s3, s1, s1", "SDIV s3, s1, s0", "SINV s4, s0", "SLD s1, [0]",
    "SST [1], s1", "F2X s1, s2", "X2F s2, s1", "VLD v1, [0]", "VST [24], v2",
    "VMOV v3, v1", "VADD v2, v1, v1", "VSUB v2, v1, v3", "VADDS v2, v1, s1",
    "VSUBS v2, v1, s1", "VMUL v2, v1, v1", "VMULS v2, v1, s3",
    "VDIV v3, v1, v2", "VDIVS v3, v1, s1", "VINV v4, v1", ".data 0 1.0 -2 0x1",
    "HALT", "a: b: HALT", "x:", "; comment", "",
]
MALFORMED = [
    "VFOO v0, v1", "9x:", "a: a: HALT", "LDI s1, 0x", "LDI s1,", "LDI s1, zz",
    "VLD v99, [0]", "SLD s1, [99999]", "SST [-1], s1", "SADD s1, s2",
    "VLD v1, 0", ".data x 1.0", ".data 99999 1.0", "SADD s99, s1, s1",
]
BRANCHES = ["top: BNZ s1, top", "spin: JMP spin", "BZ s0, end", "end: HALT",
            "JMP nowhere", "BNZ s2, top"]
BRANCH_MNEMONICS = ("JMP", "BZ", "BNZ")


def program(loops: bool):
    good = st.sampled_from(STATEMENTS + (BRANCHES if loops else []))
    line = st.one_of(good, good, good, st.sampled_from(MALFORMED), WORD)
    lines = st.tuples(st.lists(line, max_size=12),
                      st.sampled_from([["HALT"], []])).map(lambda t: t[0] + t[1])
    if not loops:
        lines = lines.filter(lambda ls: not any(
            b in ln.upper() for ln in ls for b in BRANCH_MNEMONICS))
    return lines.map("\n".join)


INT_KEYS = ["vec_len", "n_vregs", "n_sregs", "n_add", "n_mul", "n_div",
            "lat_add", "lat_mul", "lat_div", "issue_cost", "mem_port_width",
            "lat_convert", "dmem_words"]
REAL_KEYS = ["clock_mhz", "c_add", "c_mul", "c_div", "c_convert",
             "base_vector", "base_seq", "c_tiled_barrier"]
CONFIG_LINE = st.one_of(
    st.tuples(st.sampled_from(INT_KEYS),
              SMALL | HUGE.map(str) | st.sampled_from(["x", "1.5"])),
    st.tuples(st.sampled_from(REAL_KEYS), REAL),
    st.tuples(st.just("enable_converter"),
              st.sampled_from(["true", "false", "TRUE", "maybe"])),
    st.tuples(st.sampled_from(["vec_lenn", "", "# x"]), SMALL),
).map(" = ".join) | st.sampled_from(["no equals sign", "# comment", ""])
CONFIG = st.lists(CONFIG_LINE, max_size=6).map("\n".join)

CELL = st.sampled_from(["1.25", "0.5", "-2", "0", "1e400", "nan", "inf",
                        "abc", "", '"1\n2"', "0x10"])
LONG_CELL = "1" * 131_073      # one character past csv's field size limit


@st.composite
def data_csv(draw):
    """A data file near the valid form: a subset of the columns, a lane
    count around the configs' vec_len, and a few replaced or extra cells."""
    names = draw(st.permutations(list(INPUT_NAMES) + ["s_k"]))
    names = names[:draw(st.integers(len(names) - 2, len(names)))]
    lanes = draw(st.sampled_from([0, 1, 2, 24]))
    base = draw(CELL)
    rows = [[base] * len(names) for _ in range(lanes)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, lanes - 1))]
        cell = draw(CELL | st.just(LONG_CELL))
        if draw(st.booleans()):
            row.append(cell)
        else:
            row[draw(st.integers(0, len(row) - 1))] = cell
    return "\n".join(",".join(r) for r in [names] + rows)


def contents(text):
    """File bytes: encoded text, or random bytes (mostly not UTF-8)."""
    return st.one_of(text.map(str.encode), text.map(str.encode),
                     st.binary(max_size=40))


# Placeholders in argv, replaced by paths once the files are written.
INPUT = st.sampled_from(["@file", "@file", "@file", "@missing", "@dir"])
OUT = st.sampled_from(["@out", "@out", "-", "@nodir/out", "@dir"])
COUNT = SMALL | HUGE.map(str)
MIXES = st.one_of(
    st.lists(st.tuples(COUNT, COUNT, COUNT).map("-".join),
             min_size=1, max_size=4).map(",".join),
    st.lists(COUNT, min_size=1, max_size=4).map(lambda c: "sym:" + ",".join(c)),
    st.sampled_from(["sym:1,2,4", "sym:", "8-8", "", "sym:8,x"]), WORD)
OPTIONS = {
    "asm": [("--config", INPUT), ("--check-only", None)],
    "run": [("--config", INPUT), ("--data", INPUT),
            ("--observe", st.tuples(SMALL, SMALL).map(":".join)),
            ("--out", OUT)],
    "sweep": [("--config", INPUT), ("--data", INPUT), ("--mixes", MIXES),
              ("--out", OUT)],
    "compare": [("--config", INPUT), ("--data", INPUT),
                ("--barrier", (st.integers(-300, 300) | HUGE).map(str)),
                ("--out", OUT)],
    "project": [(flag, (st.integers(-5, 300_000) | HUGE).map(str))
                for flag in ("--latency", "--slices", "--budget")]
               + [("--clock", REAL), ("--fraction", REAL),
                  ("--speedup", REAL), ("--out", OUT)],
    "kernel-gen": [("--veclen", SMALL),
                   ("--seed", st.integers(-5, 10**6).map(str)),
                   ("--out-prefix", st.sampled_from(["@out", "@nodir/k"]))],
}


@st.composite
def invocation(draw):
    command = draw(st.sampled_from(sorted(OPTIONS) + ["bogus"]))
    noisy = draw(st.booleans())      # junk option values and extra tokens

    def value(flag, strategy):
        # Output paths stay placeholders: junk there could write anywhere.
        if noisy and flag not in ("--out", "--out-prefix"):
            strategy = st.one_of(strategy, WORD)
        return draw(strategy).replace("@file", "@" + flag[2:])

    argv = [command]
    if command in ("asm", "run", "sweep"):
        argv.append(draw(INPUT).replace("@file", "@prog"))
    if command == "run":       # loops stop at the drawn cycle limit
        argv += ["--max-cycles",
                 value("--max-cycles", st.integers(-5, 10**4).map(str))]
    for flag, strategy in OPTIONS.get(command, []):
        if draw(st.integers(0, 3)):
            argv.append(flag)
            if strategy is not None:
                argv.append(value(flag, strategy))
    if noisy:
        argv += draw(st.lists(st.one_of(WORD, st.just("--help")), max_size=1))
    files = {"@prog": draw(contents(program(loops=command != "sweep"))),
             "@config": draw(contents(CONFIG)),
             "@data": draw(contents(data_csv()))}
    return command, argv, files


def invoke(argv):
    """Exit code, stdout (None after --help, whose usage text is no report)
    and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:       # --help
            return exc.code, None, err.getvalue()
    return rc, out.getvalue(), err.getvalue()


def not_json(constant):
    raise AssertionError(f"{constant} in a JSON report")


NO_FILES = {"@prog": b"", "@config": b"", "@data": b""}
HALT = {**NO_FILES, "@prog": b"HALT"}
PROJECT = ["project", "--latency", "275", "--slices", "41300", "--budget"]
RUN_HALT = ["run", "@prog", "--max-cycles", "10", "--observe", "0:0"]
HEADER = ",".join([*INPUT_NAMES, "s_k"]) + "\n"
LONG_ROW = HEADER + LONG_CELL
WIDE_ROW = HEADER + "1" * 100_000   # within the field limit; 1e99999 is inf


@settings(max_examples=200, deadline=None)
@given(invocation())
@example(("project", PROJECT + ["200000", "--clock", "1e308"], NO_FILES))
@example(("project", PROJECT + [str(10**400)], NO_FILES))
@example(("sweep", ["sweep", "@prog", "--mixes", "1-1-" + "9" * 400], HALT))
@example(("sweep", ["sweep", "@prog", "--mixes", "sym:" + "9" * 5000], HALT))
@example(("run", RUN_HALT + ["--config", "@config"],
          {**HALT, "@config": f"dmem_words = {10**20}".encode()}))
@example(("run", RUN_HALT + ["--data", "@data"],
          {**HALT, "@data": LONG_ROW.encode()}))
@example(("run", RUN_HALT + ["--data", "@data"],
          {**HALT, "@data": WIDE_ROW.encode()}))
@example(("run", RUN_HALT, {**NO_FILES, "@prog": b"X" * 60_000}))
@example(("run", RUN_HALT + ["--config", "@config"],
          {**HALT, "@config": b"k" * 50_000 + b" = 1"}))
@example(("compare", ["compare", "--config", "@config"],   # a 435-digit timeout
          {**HALT, "@config": f"lat_add = {10**420}".encode()}))
def test_exit_codes_and_one_error_line(case):
    command, argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {"@missing": str(tmp / "missing"), "@dir": str(tmp),
                 "@out": str(tmp / "out"), "@nodir/out": str(tmp / "no" / "o"),
                 "@nodir/k": str(tmp / "no" / "k")}
        for key, data in files.items():
            path = tmp / key[1:]
            path.write_bytes(data)
            paths[key] = str(path)
        cwd = os.getcwd()       # a relative output path lands in tmp
        os.chdir(tmp)
        try:
            rc, out, err = invoke([paths.get(a, a) for a in argv])
        finally:
            os.chdir(cwd)
        if rc == 0 and out is not None and command in ("run", "compare", "project"):
            # The report went to stdout, or else to the --out file.
            text = out or Path(paths["@out"]).read_text(encoding="utf-8")
            json.loads(text, parse_constant=not_json)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    lines = err.splitlines()
    if rc != 0 and command != "asm":
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    # Echoed input is elided: no diagnostic line outgrows the bound.
    assert all(len(line) <= len("error: ") + MAX_DIAGNOSTIC for line in lines)
