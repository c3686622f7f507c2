import csv
import dataclasses
import io
import itertools
import json
import math
import os
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from vproc import cli, core, fixedpoint as fx, isa, kernel
from vproc.cli import main, parse_config_text, parse_mix_spec
from vproc.isa import ValidationError
from vproc.resources import Calibration

from conftest import ref_read_data_csv

KERNEL_ASM = None
DOCS = Path(__file__).resolve().parent.parent / "docs"
DSE_UNITS = (1, 2, 4, 8, 16, 24)       # each class's counts in the full grid


def one_line_error(capsys, *fragments):
    """stderr is a single `error:` line naming every fragment."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    for fragment in fragments:
        assert fragment in err


@pytest.fixture
def workdir(tmp_path):
    """Generated kernel triple plus a default config file."""
    prefix = tmp_path / "kern"
    assert main(["kernel-gen", "--veclen", "24", "--seed", "42",
                 "--out-prefix", str(prefix)]) == 0
    cfg = tmp_path / "core.cfg"
    cfg.write_text("vec_len = 24\nn_add = 8\nn_mul = 8\nn_div = 8\n")
    return tmp_path


class TestConfigFormat:
    def test_defaults_when_empty(self):
        cfg, cal = parse_config_text("")
        assert cfg.vec_len == 24 and cal.c_mul == 900.0

    def test_parses_all_kinds(self):
        cfg, cal = parse_config_text(
            "vec_len = 8\nenable_converter = false\nclock_mhz = 150\n"
            "c_div = 600  # comment\n")
        assert cfg.vec_len == 8
        assert cfg.enable_converter is False
        assert cfg.clock_mhz == 150.0
        assert cal.c_div == 600.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown key 'vec_lenn'"):
            parse_config_text("vec_lenn = 8")

    def test_bad_value_rejected(self):
        with pytest.raises(ValidationError, match="bad value"):
            parse_config_text("vec_len = wide")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ValidationError,
                           match="^config line 2: expected 'key = value'$"):
            parse_config_text("vec_len = 8\nvec_len 8")

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        with pytest.raises(ValidationError,
                           match="^config line 2: duplicate key 'vec_len'$"):
            parse_config_text("vec_len = 4\nvec_len = 8")
        prog, cfg = tmp_path / "p.asm", tmp_path / "c.cfg"
        prog.write_text("HALT\n")
        cfg.write_text("vec_len = 4\nc_add = 300\nc_add = 300\n")
        assert main(["run", str(prog), "--config", str(cfg)]) == 1
        one_line_error(capsys, "config line 3: duplicate key 'c_add'")

    def test_bad_bool_rejected(self):
        with pytest.raises(ValidationError, match="^config line 1: bad value for "
                                                  "'enable_converter'$"):
            parse_config_text("enable_converter = yes")

    @pytest.mark.parametrize("line", ["vec_len = 2_4", "n_add = \u0668",
                                      "mem_port_width = \uff18", "dmem_words = 4_096"])
    def test_integer_takes_ascii_digits_only(self, line, tmp_path, capsys):
        # int() takes a digit-group "_" and any Unicode decimal digit.
        prog, cfg = tmp_path / "p.asm", tmp_path / "c.cfg"
        prog.write_text("HALT\n")
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main(["run", str(prog), "--config", str(cfg)]) == 1
        key = line.partition(" ")[0]
        one_line_error(capsys, f"config line 1: bad value for '{key}'")

    @pytest.mark.parametrize("line", ["clock_mhz = 1_00", "c_mul = \u0669\u0660\u0660",
                                      "c_add = 3\u0660.5", "base_seq = \uff15"])
    def test_real_takes_ascii_digits_only(self, line, tmp_path, capsys):
        # float() takes a digit-group "_" and any Unicode decimal digit.
        prog, cfg = tmp_path / "p.asm", tmp_path / "c.cfg"
        prog.write_text("HALT\n")
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main(["run", str(prog), "--config", str(cfg)]) == 1
        key = line.partition(" ")[0]
        one_line_error(capsys, f"config line 1: bad value for '{key}'")

    def test_real_keeps_float_spellings(self):
        cfg, cal = parse_config_text("clock_mhz = 1e2\nc_mul = 9e2\n"
                                     "c_div = .5e3\nbase_seq = +700.")
        assert (cfg.clock_mhz, cal.c_mul, cal.c_div, cal.base_seq) \
            == (100.0, 900.0, 500.0, 700.0)

    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028", "\u2029"])
    def test_lines_break_at_cr_and_lf_only(self, char):
        cfg, _ = parse_config_text(f"vec_len = 4 # note{char}n_add = 2")
        assert (cfg.vec_len, cfg.n_add) == (4, 8)
        cfg, _ = parse_config_text("vec_len = 4\r\nn_add = 2\rn_mul = 3\n")
        assert cfg.mix == (2, 3, 8)
        with pytest.raises(ValidationError, match="^config line 3: unknown key"):
            parse_config_text("vec_len = 4\r\n\rbogus = 1")

    def test_signed_integer_still_parses(self):
        assert parse_config_text("issue_cost = +3")[0].issue_cost == 3
        with pytest.raises(ValidationError, match="n_add must be >= 0"):
            parse_config_text("n_add = -1")

    def test_memory_beyond_bound_rejected(self, tmp_path, capsys):
        prog, cfg = tmp_path / "p.asm", tmp_path / "c.cfg"
        prog.write_text("HALT\n")
        cfg.write_text(f"dmem_words = {10**20}\n")
        assert main(["run", str(prog), "--config", str(cfg),
                     "--observe", "0:0"]) == 1
        one_line_error(capsys, "invalid configuration",
                       f"must be <= {core.MAX_STATE_WORDS} words")


class TestDefaultConfigFile:
    """docs/default.cfg lists every key with its default (docs/formats.md)."""

    def test_keys_are_the_config_fields(self):
        text = (DOCS / "default.cfg").read_text(encoding="utf-8")
        keys = [k for line in text.splitlines()
                if (k := line.split("#", 1)[0].partition("=")[0].strip())]
        fields = [f.name for cls in (core.CoreConfig, Calibration)
                  for f in dataclasses.fields(cls)]
        assert sorted(keys) == sorted(fields)

    def test_loads_to_the_defaults(self):
        assert cli.load_config(str(DOCS / "default.cfg")) \
            == (core.CoreConfig(mem_port_width=24), Calibration())


# An A-M-D item: mostly three counts, else one to four parts of which any
# may be blank, signed, padded, spelled with `_` or a non-ASCII digit, or
# past int()'s digit limit.
MIX_PART = st.one_of(st.integers(0, 30).map(str), st.sampled_from(
    ["", " ", "+1", "-", " 7 ", "\t2", "1_0", "\u0663", "x", "9" * 4301]))
MIX_ITEM = st.one_of(*[st.tuples(*[st.integers(0, 30).map(str)] * 3).map("-".join)] * 3,
                     st.tuples(*[MIX_PART] * 3).map("-".join),
                     st.lists(MIX_PART, min_size=1, max_size=4).map("-".join))


def per_item_mix_spec(spec: str) -> list[tuple[int, int, int]]:
    """Reference: an A-M-D spec parsed one item at a time."""
    if not spec.strip():
        raise ValidationError("empty mix spec")
    mixes = []
    for item in spec.strip().split(","):
        try:
            a, m, d = map(isa._decimal, item.strip().split("-"))
        except ValueError:
            raise ValidationError(f"bad mix '{item.strip()}', expected A-M-D")
        mixes.append((a, m, d))
    return mixes


class TestMixSpec:
    def test_triples(self):
        assert parse_mix_spec("8-8-8,8-8-24") == [(8, 8, 8), (8, 8, 24)]

    def test_symmetric(self):
        assert parse_mix_spec("sym:1,8,24") == [(1, 1, 1), (8, 8, 8), (24, 24, 24)]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_mix_spec("  ")

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            parse_mix_spec("8-8")

    @pytest.mark.parametrize("spec", ["sym:", "sym:8,x"])
    def test_malformed_sym_rejected(self, spec):
        with pytest.raises(ValidationError, match="bad mix spec"):
            parse_mix_spec(spec)

    @pytest.mark.parametrize("spec, message", [
        ("1_0-2-3", "bad mix '1_0-2-3'"), ("1-2-\u0663", "bad mix '1-2-\u0663'"),
        ("1_0-2-\u0663", "bad mix '1_0-2-\u0663'"),
        ("sym:\u0662", "bad mix spec 'sym:\u0662'"), ("sym:1,1_6", "bad mix spec 'sym:1,1_6'")])
    def test_counts_take_ascii_digits_only(self, spec, message, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("HALT\n")
        assert main(["sweep", str(prog), "--mixes", spec]) == 1
        one_line_error(capsys, message)

    @pytest.mark.parametrize("prefix", ["sym:", "1-1-"])
    def test_too_many_digits_rejected(self, prefix):
        with pytest.raises(ValidationError, match="bad mix"):
            parse_mix_spec(prefix + "9" * 5000)

    @settings(max_examples=300, deadline=None)
    @example(spec="1-2-\u0663", pad="")
    @example(spec="1_0-2-3,4-5-6", pad="")
    @example(spec="1-2-3," + "9" * 4301 + "-1-1", pad=" ")
    @given(spec=st.lists(MIX_ITEM, min_size=1, max_size=6).map(",".join),
           pad=st.sampled_from(["", " ", "\t"]))
    def test_equals_per_item_parse(self, spec, pad):
        """The same mixes, or the same error, as a parse item by item."""
        def outcome(fn):
            try:
                return fn(pad + spec + pad)
            except ValidationError as exc:
                return str(exc)
        assert outcome(parse_mix_spec) == outcome(per_item_mix_spec)


class TestAsm:
    def test_valid_listing(self, workdir, capsys):
        rc = main(["asm", str(workdir / "kern.asm"),
                   "--config", str(workdir / "core.cfg")])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 24

    def test_unknown_mnemonic_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.asm"
        bad.write_text("VFOO v0, v1\n")
        assert main(["asm", str(bad)]) == 1
        assert "unknown mnemonic" in capsys.readouterr().err

    def test_malformed_label_alone(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("9x:\nHALT\n")
        assert main(["asm", str(prog)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == ["malformed label '9x' at line 1"]
        assert main(["run", str(prog)]) == 1
        one_line_error(capsys, "malformed label '9x' at line 1")

    def test_register_and_address_digits_ascii_only(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("SLD s\u0661, [3]\nSLD s1, [\u0663]\nSLD s1, [1_0]\n"
                        ".data 1_0 2\nHALT\n", encoding="utf-8")
        assert main(["asm", str(prog)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "malformed operand 's\u0661' for SLD at line 1",
            "malformed operand '[\u0663]' for SLD at line 2",
            "malformed operand '[1_0]' for SLD at line 3",
            "malformed .data directive at line 4"]

    def test_converter_disabled_diagnostic(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("F2X s1, s2\nHALT\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("enable_converter = false\n")
        assert main(["asm", str(prog), "--config", str(cfg)]) == 1
        assert "converter disabled" in capsys.readouterr().err


class TestRun:
    def test_kernel_8_8_8(self, workdir, capsys):
        out = workdir / "report.json"
        rc = main(["run", str(workdir / "kern.asm"),
                   "--config", str(workdir / "core.cfg"),
                   "--data", str(workdir / "kern_data.csv"),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["total_cycles"] == 659
        assert report["flags"] == {"overflow": False, "div_by_zero": False}
        assert len(report["memory"]) == 24

    def test_output_matches_expected_file(self, workdir):
        out = workdir / "report.json"
        main(["run", str(workdir / "kern.asm"),
              "--config", str(workdir / "core.cfg"),
              "--data", str(workdir / "kern_data.csv"), "--out", str(out)])
        got = json.loads(out.read_text())["memory"]
        expected = [float(line) for line in
                    (workdir / "kern_expected.csv").read_text().splitlines()[1:]]
        for g, e in zip(got, expected):
            assert abs(g - e) / abs(e) <= 1e-6

    def test_data_value_outside_word_range(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text(".data 0 1e12\nSLD s1, [0]\nSST [1], s1\nHALT\n")
        assert main(["run", str(prog), "--observe", "0:2"]) == 1
        one_line_error(capsys, "malformed .data directive at line 1")

    def test_div_by_zero_warns_but_succeeds(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("LDI s1, 1.0\nSDIV s2, s1, s0\nHALT\n")
        assert main(["run", str(prog), "--observe", "0:0"]) == 0
        assert "division by zero" in capsys.readouterr().err

    def test_saturation_warns_but_succeeds(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("LDI s1, 0x7FFFFFFFFFFFFFFF\nSADD s2, s1, s1\nHALT\n")
        assert main(["run", str(prog), "--observe", "0:0"]) == 0
        assert "arithmetic saturation" in capsys.readouterr().err

    def test_observe_without_length_rejected(self, workdir, capsys):
        assert main(["run", str(workdir / "kern.asm"), "--observe", "5"]) == 1
        one_line_error(capsys, "bad observe range '5', expected START:LENGTH")

    @pytest.mark.parametrize("spec", ["1_0:\u0663", "\uff11:2", "0:2_0"])
    def test_observe_takes_ascii_digits_only(self, workdir, capsys, spec):
        # int() alone reads a digit-group "_" and any Unicode decimal digit.
        assert main(["run", str(workdir / "kern.asm"), "--observe", spec]) == 1
        one_line_error(capsys, f"bad observe range '{spec}', expected START:LENGTH")

    def test_vector_span_past_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(isa, "validate", lambda p, cfg: [])
        prog, cfg = tmp_path / "p.asm", tmp_path / "c.cfg"
        prog.write_text("VST [6], v0\nHALT\n")
        cfg.write_text("dmem_words = 8\nvec_len = 4\n")
        assert main(["run", str(prog), "--config", str(cfg), "--observe", "0:8"]) == 2
        one_line_error(capsys, "fault at instruction 1: a vector span resized data "
                               "memory to 10 words")

    def test_timeout_exit_2(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("spin: JMP spin\nHALT\n")
        assert main(["run", str(prog), "--max-cycles", "50"]) == 2

    def test_timeout_one_line(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("spin: JMP spin\nHALT\n")
        assert main(["run", str(prog), "--max-cycles", "50"]) == 2
        one_line_error(capsys, "max_cycles exceeded")

    def test_zero_max_cycles_allowed(self, tmp_path, capsys):
        """--max-cycles takes any count >= 0: 0 runs only a program of no cycles."""
        prog, cfg = tmp_path / "p.asm", tmp_path / "c.cfg"
        prog.write_text("HALT\n")
        cfg.write_text("issue_cost = 0\n")
        assert main(["run", str(prog), "--config", str(cfg), "--max-cycles", "0",
                     "--out", str(tmp_path / "r.json")]) == 0
        assert main(["run", str(prog), "--max-cycles", "0"]) == 2
        assert capsys.readouterr().err == "error: max_cycles exceeded after 2 cycles\n"

    def test_zero_cost_loop_times_out(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("spin: JMP spin\nHALT\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("issue_cost = 0\n")
        assert main(["run", str(prog), "--config", str(cfg),
                     "--max-cycles", "50"]) == 2
        one_line_error(capsys, "max_cycles exceeded")

    def test_diagnostics_on_one_line(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("VLD v99, [0]\nSADD s40, s1, s2\nHALT\n")
        assert main(["run", str(prog)]) == 1
        one_line_error(capsys, "instr 0 (VLD): vector register index 99",
                       "instr 1 (SADD): scalar register index 40")

    def test_out_in_missing_directory(self, workdir, capsys):
        assert main(["run", str(workdir / "kern.asm"),
                     "--out", str(workdir / "missing" / "r.json")]) == 1
        one_line_error(capsys, "r.json")

    def test_validation_exit_1(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("VLD v99, [0]\nHALT\n")
        assert main(["run", str(prog)]) == 1

    def test_negative_unit_count_rejected(self, workdir, capsys):
        cfg = workdir / "neg.cfg"
        cfg.write_text("n_add = -1\n")
        assert main(["run", str(workdir / "kern.asm"), "--config", str(cfg),
                     "--data", str(workdir / "kern_data.csv")]) == 1
        one_line_error(capsys, "invalid configuration", "n_add")

    @pytest.mark.parametrize("spec", ["-3:5", "4094:5", "0:-2"])
    def test_observe_outside_memory_rejected(self, workdir, capsys, spec):
        assert main(["run", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     f"--observe={spec}"]) == 1
        one_line_error(capsys, f"observe range '{spec}' outside data memory")

    def test_default_observe_outside_memory_rejected(self, tmp_path, capsys):
        prog = tmp_path / "p.asm"
        prog.write_text("HALT\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("vec_len = 400\n")       # output region 4000..4399
        assert main(["run", str(prog), "--config", str(cfg)]) == 1
        one_line_error(capsys, "observe range '4000:400' outside data memory "
                               "of 4096 words")

    def test_input_words_skip_from_real(self, tmp_path, monkeypatch):
        """Input columns reach memory as raw words: at W = 256 the one
        from_real call is the program's LDI, not one per input word."""
        prefix = tmp_path / "k256"
        assert main(["kernel-gen", "--veclen", "256", "--seed", "3",
                     "--out-prefix", str(prefix)]) == 0
        cfg = tmp_path / "w256.cfg"
        cfg.write_text("vec_len = 256\n")
        calls = []
        real = fx.from_real

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fx, "from_real", counted)
        assert main(["run", f"{prefix}.asm", "--config", str(cfg),
                     "--data", f"{prefix}_data.csv",
                     "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) <= 1

    def test_observe_to_end_of_memory(self, workdir):
        out = workdir / "report.json"
        assert main(["run", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     "--observe=4094:2", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["memory"]) == 2


class TestDataCells:
    """A malformed data file exits 1 from both commands that read it."""

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--mixes", "8-8-8"]])
    def test_bad_cell(self, workdir, capsys, cell, command):
        data = workdir / "kern_data.csv"
        rows = data.read_text().splitlines()
        rows[1] = cell + rows[1][rows[1].index(","):]
        data.write_text("\n".join(rows) + "\n")
        assert main(command[:1] + [str(workdir / "kern.asm"),
                                   "--config", str(workdir / "core.cfg"),
                                   "--data", str(data), *command[1:],
                                   "--out", str(workdir / "x")]) == 1
        one_line_error(capsys, f"row 2, column a: '{cell}' is not a finite number")

    @pytest.mark.parametrize("cell,column", [("3e9", "a"), ("-2147483649", "a"),
                                             ("2147483648", "s_k")])
    def test_cell_outside_word_range(self, workdir, capsys, cell, column):
        data = workdir / "kern_data.csv"
        rows = data.read_text().splitlines()
        rows[1] = (cell + rows[1][rows[1].index(","):] if column == "a"
                   else rows[1][:rows[1].rindex(",") + 1] + cell)
        data.write_text("\n".join(rows) + "\n")
        assert main(["run", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     "--data", str(data)]) == 1
        one_line_error(capsys, f"row 2, column {column}: '{cell}' is outside "
                               "the Q32.32 range")

    def test_cell_at_word_range_bound(self, workdir):
        data = workdir / "kern_data.csv"
        rows = data.read_text().splitlines()
        rows[1] = "-2147483648" + rows[1][rows[1].index(","):]
        data.write_text("\n".join(rows) + "\n")
        inputs = cli.read_data_csv(str(data))
        assert kernel.data_initializers(inputs)[0][1][0] == fx.RAW_MIN

    def test_extra_cells(self, workdir, capsys):
        data = workdir / "kern_data.csv"
        rows = data.read_text().splitlines()
        rows[3] += ",1.0"
        data.write_text("\n".join(rows) + "\n")
        assert main(["run", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     "--data", str(data)]) == 1
        one_line_error(capsys, "row 4 has 12 cells, header has 11")

    def test_missing_columns(self, workdir, capsys):
        data = workdir / "kern_data.csv"
        rows = data.read_text().splitlines()
        rows[0] = rows[0].replace(",c,", ",cc,").replace(",q,", ",qq,")
        data.write_text("\n".join(rows) + "\n")
        assert main(["run", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     "--data", str(data)]) == 1
        one_line_error(capsys, f"{data}: missing column(s) c, q")

    def test_duplicate_columns(self, workdir, capsys):
        data = workdir / "kern_data.csv"
        rows = data.read_text().splitlines()
        rows[0] += ",a,,q,,a"       # blank header cells name no column
        rows[1] = "x" + rows[1][rows[1].index(","):]    # no row is read
        data.write_text("\n".join(rows) + "\n")
        assert main(["run", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     "--data", str(data)]) == 1
        one_line_error(capsys, f"{data}: duplicate column(s) a, q")

    def test_empty_data_file(self, workdir, capsys):
        data = workdir / "empty.csv"
        data.write_text("")
        assert main(["run", str(workdir / "kern.asm"),
                     "--data", str(data)]) == 1
        assert capsys.readouterr().err == f"error: {data}: empty data file\n"

    def test_cell_beyond_csv_field_limit(self, workdir, capsys):
        data = workdir / "kern_data.csv"
        rows = data.read_text().splitlines()
        rows[1] = "1" * 200_000 + rows[1][rows[1].index(","):]
        data.write_text("\n".join(rows) + "\n")
        assert main(["run", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     "--data", str(data)]) == 1
        one_line_error(capsys, f"{data}: field larger than field limit")

    @pytest.mark.parametrize("cells,s_k", [
        (["", "7.5"], 7.5),         # the first non-blank cell, on any row
        (["2.5", "7.5"], 2.5),      # a later cell is ignored
        (["", ""], 1.0),            # a blank column
        (None, 1.0),                # no column
    ])
    def test_s_k_rule(self, tmp_path, cells, s_k):
        rows = [list(kernel.INPUT_NAMES), ["0.5"] * 10, ["0.5"] * 10]   # W = 2
        if cells is not None:
            rows = [row + [cell] for row, cell in zip(rows, ["s_k", *cells])]
        data = tmp_path / "d.csv"
        data.write_text("".join(",".join(row) + "\n" for row in rows))
        inputs = cli.read_data_csv(str(data))
        assert (inputs.vec_len, inputs.s_k) == (2, s_k)

    def test_unequal_columns(self, workdir, capsys):
        data = workdir / "kern_data.csv"
        rows = data.read_text().splitlines()
        rows[-1] = rows[-1][rows[-1].index(","):]     # last row's `a` left blank
        data.write_text("\n".join(rows) + "\n")
        assert main(["run", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     "--data", str(data)]) == 1
        one_line_error(capsys, "input columns have unequal lengths")


class TestInputFiles:
    """An input file that cannot be read exits 1 with one line naming it;
    one that starts with a byte-order mark reads as it does without one."""

    @pytest.mark.parametrize("command", [
        ["run", "kern.asm"], ["sweep", "kern.asm", "--mixes", "8-8-8"],
        ["compare"]])
    def test_missing_data_file(self, workdir, capsys, command):
        args = [str(workdir / a) if a.endswith(".asm") else a for a in command]
        assert main(args + ["--data", str(workdir / "missing.csv"),
                            "--out", str(workdir / "x")]) == 1
        one_line_error(capsys, "cannot read", "missing.csv")

    @pytest.mark.parametrize("name", ["kern.asm", "kern_data.csv", "core.cfg"])
    def test_not_utf8(self, workdir, capsys, name):
        (workdir / name).write_bytes(b"\xff\xfe bad bytes\n")
        assert main(["run", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     "--data", str(workdir / "kern_data.csv"),
                     "--out", str(workdir / "x")]) == 1
        one_line_error(capsys, f"cannot read {workdir / name}", "utf-8")

    @pytest.mark.parametrize("mark", [b"\xef", b"\xef\xbb"])
    @pytest.mark.parametrize("name", ["kern.asm", "kern_data.csv", "core.cfg"])
    def test_partial_byte_order_mark(self, workdir, capsys, name, mark):
        """A file of only the first byte or two of a BOM is not empty text:
        the text reader alone would read it as "" (an empty program, or the
        default config)."""
        (workdir / name).write_bytes(mark)
        assert main(["run", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     "--data", str(workdir / "kern_data.csv"),
                     "--out", str(workdir / "x")]) == 1
        one_line_error(capsys, f"cannot read {workdir / name}: 'utf-8' codec can't "
                               f"decode", "unexpected end of data")

    @pytest.mark.parametrize("content", [b"", b"\xef\xbb\xbf"])
    def test_empty_text(self, tmp_path, content):
        (path := tmp_path / "empty.asm").write_bytes(content)
        assert cli._read(str(path)) == ""

    @pytest.mark.parametrize("name", ["kern.asm", "kern_data.csv", "core.cfg"])
    def test_byte_order_mark_skipped(self, workdir, capsys, name):
        def report():      # Excel's "CSV UTF-8" format writes the mark
            assert main(["run", str(workdir / "kern.asm"),
                         "--config", str(workdir / "core.cfg"),
                         "--data", str(workdir / "kern_data.csv")]) == 0
            return capsys.readouterr()
        plain = report()
        path = workdir / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert report() == plain

    @pytest.mark.parametrize("content,code", [
        (b"\xef", 1), (b"\xef\xbb", 1), (b"\xef\xbb\xbfHALT\n", 0)])
    @pytest.mark.parametrize("command", [["asm", "--check-only"], ["run"]])
    def test_pipe_decoded_as_a_file(self, capsys, command, content, code):
        """A pipe cannot be read twice, and need not be: its bytes are
        decoded as a file's are, so part of a BOM is a decode error there too."""
        read_end, write_end = os.pipe()
        os.write(write_end, content)
        os.close(write_end)
        try:
            assert main([command[0], f"/dev/fd/{read_end}", *command[1:]]) == code
        finally:
            os.close(read_end)
        if code:
            one_line_error(capsys, "'utf-8' codec can't decode", "unexpected end of data")


class TestTimeoutTooLongToPrint:
    """A cycle count past the int-to-str digit limit is left out of the
    timeout's one line, which still exits 2."""

    @pytest.mark.parametrize("config,command", [
        ("lat_div", ["run", "kern.asm"]),
        ("lat_div", ["sweep", "kern.asm", "--mixes", "8-8-8"]),
        ("lat_div", ["compare"]),
        ("issue_cost", ["run", "kern.asm", "--max-cycles", "9" * 4300]),
        ("issue_cost", ["sweep", "kern.asm", "--mixes", "8-8-8", "--max-cycles", "9" * 4300]),
    ])
    def test_one_line(self, workdir, capsys, config, command):
        (workdir / "core.cfg").write_text(f"{config} = {'9' * 4300}\n")
        args = [str(workdir / a) if a.endswith(".asm") else a for a in command]
        assert main([*args, "--config", str(workdir / "core.cfg"),
                     "--data", str(workdir / "kern_data.csv")]) == 2
        assert capsys.readouterr().err == "error: max_cycles exceeded\n"


class TestUsage:
    """A malformed command line is an input error: exit 1, one line."""

    @pytest.mark.parametrize("argv,fragment", [
        ([], "required: command"),
        (["run"], "vproc run: the following arguments are required: program"),
        (["run", "k.asm", "--max-cycles", "abc"], "invalid int value: 'abc'"),
        (["sweep", "k.asm"], "required: --mixes"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["project", "--nope"], "unrecognized arguments: --nope"),
        (["run", "k.asm", "--max-cycles", "-1"], "--max-cycles -1 must be >= 0"),
    ])
    def test_usage_error_exit_1(self, capsys, argv, fragment):
        assert main(argv) == 1
        one_line_error(capsys, fragment)

    @pytest.mark.parametrize("text", ["1_0", "\u0661\u0660", "abc"])
    @pytest.mark.parametrize("argv", [
        ["run", "k.asm", "--max-cycles"],
        ["sweep", "k.asm", "--mixes", "sym:1", "--max-cycles"],
        ["compare", "--barrier"],
        ["project", "--latency"], ["project", "--slices"], ["project", "--budget"],
        ["kernel-gen", "--out-prefix", "k", "--veclen"],
        ["kernel-gen", "--out-prefix", "k", "--seed"]])
    def test_integer_option_takes_config_integer_rule(self, capsys, argv, text):
        """int() also takes a digit-group "_" and any Unicode decimal digit."""
        assert main(argv + [text]) == 1
        one_line_error(capsys, f"vproc {argv[0]}: argument {argv[-1]}: "
                               f"invalid int value: {text!r}")

    @pytest.mark.parametrize("text", ["1_0", "\u0660.\u0665", "\uff11e3", "abc"])
    @pytest.mark.parametrize("argv", [
        ["project", "--fraction"], ["project", "--fraction", "0.5", "--speedup"],
        ["project", "--latency", "1", "--slices", "1", "--budget", "1", "--clock"]])
    def test_real_option_takes_config_rule(self, capsys, argv, text):
        """float() also takes a digit-group "_" and any Unicode decimal digit."""
        assert main(argv + [text]) == 1
        one_line_error(capsys, f"vproc project: argument {argv[-1]}: "
                               f"invalid float value: {text!r}")

    @pytest.mark.parametrize("speedup,overall", [
        ("inf", 2.0), ("1e3", 1.998002), ("4.", 1.6), (" 4 ", 1.6)])
    def test_real_option_keeps_float_spellings(self, tmp_path, speedup, overall):
        out = tmp_path / "p.json"
        assert main(["project", "--fraction", ".5", "--speedup", speedup,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["overall_speedup"] == overall

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: vproc" in capsys.readouterr().out


class TestSweep:
    def test_rows_and_pareto_column(self, workdir):
        out = workdir / "sweep.csv"
        rc = main(["sweep", str(workdir / "kern.asm"),
                   "--config", str(workdir / "core.cfg"),
                   "--data", str(workdir / "kern_data.csv"),
                   "--mixes", "8-8-8,8-8-24,24-8-8,8-24-8,8-8-24",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "label,n_add,n_mul,n_div,latency_cycles,slices,on_pareto"
        assert len(lines) == 6
        rows = [line.split(",") for line in lines[1:]]
        lat = {r[0]: int(r[4]) for r in rows}
        assert min(lat, key=lat.get) == "8-8-24"
        assert rows[1] == rows[4] and rows[1][6] == "true"  # a repeated mix, flagged alike

    def test_sym_spec(self, workdir):
        out = workdir / "sweep.csv"
        main(["sweep", str(workdir / "kern.asm"),
              "--config", str(workdir / "core.cfg"),
              "--mixes", "sym:1,8,24", "--out", str(out)])
        assert len(out.read_text().strip().splitlines()) == 4

    def test_signed_sym_count_matches_triple(self, workdir):
        """`sym:N` counts take the config-integer rule, sign and all."""
        csvs = []
        for mixes in ("sym:+2", "+2-2-2"):
            out = workdir / "sweep.csv"
            assert main(["sweep", str(workdir / "kern.asm"),
                         "--config", str(workdir / "core.cfg"),
                         "--mixes", mixes, "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_negative_sym_count_exit_1(self, workdir, capsys):
        assert main(["sweep", str(workdir / "kern.asm"), "--mixes", "sym:-1",
                     "--out", str(workdir / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: n_add must be >= 0\n"

    def test_empty_spec_rejected(self, workdir, capsys):
        assert main(["sweep", str(workdir / "kern.asm"), "--mixes", "",
                     "--out", str(workdir / "x.csv")]) == 1

    @pytest.mark.parametrize("mixes,fragment", [
        ("0-8-8", "config 0-8-8: program uses ADD_CLASS"),
        ("sym:32", "config 32-32-32: ADD_CLASS unit count 32 exceeds"),
    ])
    def test_invalid_mix_exit_1(self, workdir, capsys, mixes, fragment):
        assert main(["sweep", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     "--mixes", mixes, "--out", str(workdir / "x.csv")]) == 1
        one_line_error(capsys, fragment)

    def test_unit_count_beyond_float_range(self, tmp_path, capsys):
        prog = tmp_path / "halt.asm"
        prog.write_text("HALT\n")
        assert main(["sweep", str(prog), "--mixes", "1-1-" + "9" * 400,
                     "--out", str(tmp_path / "x.csv")]) == 1
        one_line_error(capsys, "slice count of 'div_units' is not finite")

    def test_max_cycles(self, tmp_path, capsys):
        prog = tmp_path / "spin.asm"
        prog.write_text("spin: JMP spin\nHALT\n")
        argv = ["sweep", str(prog), "--mixes", "8-8-8",
                "--out", str(tmp_path / "x.csv")]
        assert main([*argv, "--max-cycles", "100"]) == 2
        one_line_error(capsys, "max_cycles exceeded after 102 cycles")
        assert main([*argv, "--max-cycles", "-1"]) == 1
        assert capsys.readouterr().err \
            == "error: --max-cycles -1 must be >= 0\n"

    def test_data_lane_count_checked(self, workdir, capsys):
        assert main(["kernel-gen", "--veclen", "16", "--seed", "1",
                     "--out-prefix", str(workdir / "k16")]) == 0
        assert main(["sweep", str(workdir / "kern.asm"),
                     "--config", str(workdir / "core.cfg"),
                     "--data", str(workdir / "k16_data.csv"),
                     "--mixes", "8-8-8", "--out", str(workdir / "x.csv")]) == 1
        one_line_error(capsys, "data file has 16 lanes, config expects 24")


class TestCompare:
    def test_three_architectures(self, workdir):
        cfg = workdir / "vec.cfg"
        cfg.write_text("n_add = 8\nn_mul = 8\nn_div = 24\n"
                       "enable_converter = false\n")
        out = workdir / "cmp.json"
        rc = main(["compare", "--config", str(cfg),
                   "--data", str(workdir / "kern_data.csv"),
                   "--out", str(out)])
        assert rc == 0
        r = json.loads(out.read_text())
        arch = r["architectures"]
        assert arch["tiled"]["latency_cycles"] == 198
        assert arch["sequential"]["latency_cycles"] == 4859
        assert arch["vector"]["latency_cycles"] == 275
        assert r["ratios"]["latency_sequential_over_vector"] == pytest.approx(17.7, abs=0.1)
        assert r["ratios"]["slices_vector_over_sequential"] == pytest.approx(2.50)
        assert arch["tiled"]["slices"] > arch["vector"]["slices"] > arch["sequential"]["slices"]

    def test_layout_uses_configured_memory(self, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("vec_len = 400\ndmem_words = 8192\n")   # needs 4400 words
        out = tmp_path / "cmp.json"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["architectures"]["vector"]["latency_cycles"] > 0


    def test_layout_checked_before_inputs_drawn(self, tmp_path, capsys,
                                                monkeypatch):
        calls = []
        monkeypatch.setattr(kernel, "generate_inputs",
                            lambda *args, **kwargs: calls.append(args))
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("vec_len = 200000\nn_vregs = 0\n")
        assert main(["compare", "--config", str(cfg),
                     "--out", str(tmp_path / "cmp.json")]) == 1
        one_line_error(capsys, "layout needs 2200000 words, memory has 4096")
        assert calls == []

    def test_data_lane_count_checked(self, workdir, capsys):
        assert main(["kernel-gen", "--veclen", "16", "--seed", "1",
                     "--out-prefix", str(workdir / "k16")]) == 0
        assert main(["compare", "--data", str(workdir / "k16_data.csv"),
                     "--out", str(workdir / "x.json")]) == 1
        one_line_error(capsys, "data file has 16 lanes, config expects 24")

    def test_one_simulation(self, workdir, monkeypatch):
        calls = []
        real = core.run

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "run", counted)
        assert main(["compare", "--data", str(workdir / "kern_data.csv"),
                     "--out", str(workdir / "cmp.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("barrier", ["-1", "-197", "-500"])
    def test_negative_barrier_rejected(self, tmp_path, capsys, barrier):
        assert main(["compare", "--barrier", barrier,
                     "--out", str(tmp_path / "cmp.json")]) == 1
        one_line_error(capsys, f"barrier cost {barrier} must be >= 0")
        assert not list(tmp_path.iterdir())

    def test_zero_barrier_allowed(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert main(["compare", "--barrier", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["architectures"]["tiled"] \
            ["latency_cycles"] == 197

    @pytest.mark.parametrize("config,barrier,fragment", [
        ("lat_add = 0\nlat_mul = 0\nlat_div = 0\n", "0", "tiled latency 0"),
        ("c_add = 0.1\nc_mul = 0.3\nc_div = 0.2\nbase_seq = 0\n", "1",
         "sequential slices 0"),
    ])
    def test_zero_ratio_denominator_rejected(self, tmp_path, capsys, config,
                                             barrier, fragment):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        assert main(["compare", "--config", str(cfg), "--barrier", barrier,
                     "--out", str(tmp_path / "cmp.json")]) == 1
        one_line_error(capsys, "cannot form ratios", fragment)

    def test_non_finite_calibration_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("c_mul = inf\n")
        assert main(["compare", "--config", str(cfg)]) == 1
        one_line_error(capsys, "c_mul must be finite")

    @pytest.mark.parametrize("command,component", [
        (["compare"], "mul_units"),
        (["sweep", "kern.asm", "--mixes", "8-8-8"], "mul_units"),
    ])
    def test_overflowing_calibration_rejected(self, workdir, capsys, command,
                                              component):
        # Each value is finite; the slice counts they multiply into are not.
        cfg = workdir / "c.cfg"
        cfg.write_text("c_mul = 1e308\nc_div = 1e307\n")
        argv = [str(workdir / a) if a.endswith(".asm") else a for a in command]
        assert main(argv + ["--config", str(cfg),
                            "--out", str(workdir / "o")]) == 1
        one_line_error(capsys, f"slice count of '{component}' is not finite")
        assert not (workdir / "o").exists()


class TestProject:
    def test_amdahl_inf(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["project", "--fraction", "0.35", "--speedup", "inf",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["overall_speedup"] == pytest.approx(1.538, abs=1e-3)

    def test_budget(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["project", "--latency", "273", "--slices", "41300",
                     "--budget", "200000", "--clock", "100",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["cores"] == 4

    def test_nothing_to_project(self, capsys):
        assert main(["project"]) == 1
        one_line_error(capsys, "nothing to project")

    def test_undefined_amdahl(self, tmp_path, capsys):
        assert main(["project", "--fraction", "1.0", "--speedup", "inf"]) == 1

    @pytest.mark.parametrize("speedup,fragment", [
        ("abc", "argument --speedup: invalid float value: 'abc'"),
        ("nan", "speedup must be >= 1")])
    def test_bad_speedup(self, capsys, speedup, fragment):
        assert main(["project", "--fraction", "0.5", "--speedup", speedup]) == 1
        one_line_error(capsys, fragment)

    def test_budget_without_core_rejected(self, capsys):
        assert main(["project", "--budget", "200000"]) == 1
        one_line_error(capsys, "--budget requires --latency and --slices")

    @pytest.mark.parametrize("clock", ["-100", "0", "nan", "inf"])
    def test_bad_clock(self, capsys, clock):
        assert main(["project", "--latency", "275", "--slices", "41300",
                     "--budget", "200000", "--clock", clock]) == 1
        one_line_error(capsys, "must be finite and > 0")

    @pytest.mark.parametrize("latency,slices", [(0, 41300), (-5, 41300),
                                                (273, 0)])
    def test_latency_and_slices_at_least_1(self, capsys, latency, slices):
        assert main(["project", "--latency", str(latency), "--slices",
                     str(slices), "--budget", "200000"]) == 1
        one_line_error(capsys, "must be >= 1")

    @pytest.mark.parametrize("argv", [
        ["--latency", "275", "--slices", "41300", "--budget", "200000",
         "--clock", "1e308"],
        ["--latency", "275", "--slices", "41300", "--budget", "1" + "0" * 400],
        ["--latency", "1" + "0" * 400, "--slices", "41300", "--budget", "200000"],
        ["--fraction", "1.0", "--speedup", "1.7976931348623157e308"],
    ], ids=["clock-1e308", "budget-400-digits", "latency-400-digits",
            "speedup-max-float"])
    def test_rate_beyond_float_range_rejected(self, capsys, argv):
        """Never `Infinity` (not JSON) on stdout, nor an OverflowError."""
        assert main(["project", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeds the float range" in err and len(err) < 80   # no echo


class TestKernelGen:
    def test_deterministic_bytes(self, tmp_path):
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            main(["kernel-gen", "--seed", "42", "--out-prefix", str(d / "k")])
        for name in ("k.asm", "k_data.csv", "k_expected.csv"):
            assert (tmp_path / "one" / name).read_bytes() \
                == (tmp_path / "two" / name).read_bytes()

    def test_w1_files(self, tmp_path):
        prefix = tmp_path / "k1"
        assert main(["kernel-gen", "--veclen", "1", "--seed", "0",
                     "--out-prefix", str(prefix)]) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("vec_len = 1\nn_add = 1\nn_mul = 1\nn_div = 1\n")
        assert main(["asm", str(prefix) + ".asm", "--config", str(cfg),
                     "--check-only"]) == 0

    def test_zero_lanes_rejected(self, tmp_path, capsys):
        assert main(["kernel-gen", "--veclen", "0",
                     "--out-prefix", str(tmp_path / "k0")]) == 1
        one_line_error(capsys, "vector length 0 must be >= 1")
        assert not list(tmp_path.iterdir())

    def test_layout_checked_before_inputs_drawn(self, tmp_path, capsys,
                                                monkeypatch):
        calls = []
        monkeypatch.setattr(kernel, "generate_inputs",
                            lambda *args: calls.append(args))
        assert main(["kernel-gen", "--veclen", "100000",
                     "--out-prefix", str(tmp_path / "k")]) == 1
        one_line_error(capsys, "layout needs 1100000 words, memory has 1048576")
        assert calls == []

    def test_layout_checked_against_each_core(self, tmp_path, capsys):
        """kernel-gen emits W = 400 (4400 words); the core that runs it decides
        whether it fits."""
        prefix = str(tmp_path / "k")
        assert main(["kernel-gen", "--veclen", "400", "--out-prefix", prefix]) == 0
        big, small = tmp_path / "big.cfg", tmp_path / "small.cfg"
        big.write_text("vec_len = 400\ndmem_words = 4400\n")
        small.write_text("vec_len = 400\n")
        out = tmp_path / "r.json"
        assert main(["run", prefix + ".asm", "--config", str(big),
                     "--data", prefix + "_data.csv", "--out", str(out)]) == 0
        got = json.loads(out.read_text())["memory"]
        expected = kernel.oracle(cli.read_data_csv(prefix + "_data.csv"))
        assert len(got) == 400
        for g, e in zip(got, expected):
            assert abs(g - e) / abs(e) <= 1e-6
        assert main(["run", prefix + ".asm", "--config", str(small),
                     "--data", prefix + "_data.csv"]) == 1
        one_line_error(capsys, "instr 22 (VST): address 4000 (+400 words) "
                               "outside data memory of 4096")

    def test_layout_too_long_to_print(self, tmp_path, capsys):
        """A 4,300-digit W needs a layout past the int-to-str digit limit."""
        assert main(["kernel-gen", "--veclen", "9" * 4300,
                     "--out-prefix", str(tmp_path / "k")]) == 1
        assert capsys.readouterr().err == "error: layout needs more words than memory has\n"

    def test_out_prefix_in_missing_directory(self, tmp_path, capsys):
        assert main(["kernel-gen",
                     "--out-prefix", str(tmp_path / "missing" / "k")]) == 1
        one_line_error(capsys, "k.asm")

    def test_data_csv_roundtrip(self, workdir):
        inputs = cli.read_data_csv(str(workdir / "kern_data.csv"))
        assert inputs == kernel.generate_inputs(24, 42)


class TestGolden:
    """The committed example outputs are reproduced byte for byte."""

    def test_kernel_gen_bytes(self, tmp_path):
        assert main(["kernel-gen", "--veclen", "24", "--seed", "42",
                     "--out-prefix", str(tmp_path / "k")]) == 0
        for suffix in (".asm", "_data.csv", "_expected.csv"):
            assert (tmp_path / f"k{suffix}").read_bytes() \
                == (DOCS / f"kernel24{suffix}").read_bytes()

    @pytest.mark.parametrize("name,args", [
        ("example_report.json", ["run", DOCS / "kernel24.asm"]),
        ("example_sweep.csv", ["sweep", DOCS / "kernel24.asm",
                               "--mixes", "sym:1,2,4,8,16,24"]),
        ("example_compare.json", ["compare"]),     # takes no program
        ("example_sweep_grid.csv", ["sweep", DOCS / "kernel24.asm", "--mixes", ",".join(
            f"{a}-{m}-{d}" for a, m, d in itertools.product(DSE_UNITS, repeat=3))]),
        ("example_sweep_asym.csv", ["sweep", DOCS / "kernel24.asm", "--mixes",
                                    "8-8-8,24-8-8,8-24-8,8-8-24,1-2-4,4-2-1,8-8-24"]),
    ])
    def test_bytes(self, tmp_path, name, args):
        out = tmp_path / name
        assert main([*map(str, args), "--config", str(DOCS / "default.cfg"),
                     "--data", str(DOCS / "kernel24_data.csv"),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (DOCS / name).read_bytes()


def row_major_read_data_csv(path: str) -> kernel.KernelInputs:
    """Reference: the data reader as a row-major scan of every cell."""
    try:
        rows = list(csv.reader(io.StringIO(cli._read(path))))
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}")
    if not rows:
        raise ValidationError(f"{path}: empty data file")
    header = [h.strip() for h in rows[0]]
    repeated = [n for n, k in Counter(header).items() if n and k > 1]
    if repeated:
        raise ValidationError(f"{path}: duplicate column(s) {', '.join(repeated)}")
    missing = [n for n in kernel.INPUT_NAMES if n not in header]
    if missing:
        raise ValidationError(f"{path}: missing column(s) {', '.join(missing)}")
    columns: dict[str, list[float]] = {n: [] for n in header}
    lo, hi = fx.REAL_LO, fx.REAL_HI
    for n, row in enumerate(rows[1:], start=2):
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
                columns[name].append(x)
    vectors = {n: columns[n] for n in kernel.INPUT_NAMES}
    lengths = {len(v) for v in vectors.values()}
    if len(lengths) != 1:
        raise ValidationError(f"{path}: input columns have unequal lengths")
    s_k = columns.get("s_k", [1.0])
    return kernel.KernelInputs(vectors=vectors, s_k=s_k[0] if s_k else 1.0)


GOOD_CELLS = ["0", "-0", "1.5", " -2.25", "1e3", "2147483647.5", "1_0",
              "-2147483648", "", " "]
BAD_CELLS = ["nan", "inf", "-inf", "abc", "2147483648"]


@st.composite
def data_grid(draw):
    """Header and rows of a small data file: blank and duplicate-blank
    header names, and rows sometimes shorter or longer than the header."""
    extras = draw(st.lists(st.sampled_from(["", " ", "s_k", "x"]), max_size=3))
    header = draw(st.permutations(list(kernel.INPUT_NAMES) + extras))
    cells = st.sampled_from(draw(st.sampled_from([GOOD_CELLS] * 3
                                                 + [GOOD_CELLS + BAD_CELLS])))
    widths = st.sampled_from([len(header)] * 6 + [len(header) - 1,
                                                  len(header) + 1, 0])
    rows = draw(st.lists(widths.flatmap(lambda w: st.lists(
        cells, min_size=w, max_size=w)), max_size=4))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2])) if rows else 0):
        row = draw(st.sampled_from(rows))
        if row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_CELLS))
    return [header] + rows


def read_outcome(read, path):
    """The inputs a reader returns, exactly, or the text of its error."""
    try:
        inputs = read(path)
    except ValidationError as exc:
        return str(exc)
    return repr(inputs.vectors), repr(inputs.s_k)


class TestDataReaderMatchesRowMajorScan:
    """read_data_csv, which reads a column at a time and scans rows only to
    name the fault of a rejected file, gives the inputs or the error of the
    row-major scan of every cell."""

    @settings(max_examples=500, deadline=None)
    @given(data_grid())
    @example([list(kernel.INPUT_NAMES), ["1"] * 10, []])    # trailing blank line
    @example([list(kernel.INPUT_NAMES), ["1"] * 10, [], ["2"] * 10])  # one between
    @example([list(kernel.INPUT_NAMES) + ["s_k"],           # every row short
              ["1"] * 10, ["2"] * 10])
    @example([list(kernel.INPUT_NAMES)])                    # header only
    @example([list(kernel.INPUT_NAMES) + ["", "s_k", ""],
              ["1"] * 10 + ["nan", "2", "3"], ["1"] * 10 + ["", "", "inf"]])
    @example([list(kernel.INPUT_NAMES), ["1"] * 10, ["2"] * 9 + ["nan"]])
    @example([list(kernel.INPUT_NAMES) + ["s_k"],
              ["1"] * 10 + ["2"], ["1"] * 10 + [""], ["abc"] + ["1"] * 11])
    def test_same_inputs_or_error(self, grid):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "data.csv")
            Path(path).write_text("".join(",".join(row) + "\n"
                                          for row in grid), encoding="utf-8")
            assert read_outcome(cli.read_data_csv, path) \
                == read_outcome(row_major_read_data_csv, path)


# Cells that data_grid does not draw: whitespace only, quoted (with a line
# break inside the quotes), and holding a NUL.
ODD_CELLS = ["\t", "  ", '"1.5"', '" -2"', '"3\r\n"', '"4\r"', '"a,b"', "1\x00"]
BREAKS = ["\n", "\r\n", "\r"]


@st.composite
def data_text(draw):
    """The text of a data_grid file, sometimes with odd cells, broken by one
    of CR LF, CR and LF or by a mix of them, with or without a trailing
    break, and sometimes starting with a byte-order mark."""
    grid = draw(data_grid())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = draw(st.sampled_from(grid))
        if row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
    style = draw(st.sampled_from(BREAKS + [None]))     # None: each line its own
    breaks = [style or draw(st.sampled_from(BREAKS)) for _ in grid]
    if draw(st.booleans()):
        breaks[-1] = ""
    text = "".join(",".join(row) + brk for row, brk in zip(grid, breaks))
    return ("\ufeff" if draw(st.booleans()) else "") + text


class TestDataReaderMatchesCsvReader:
    """read_data_csv, which splits a file holding no quote, NUL or over-long
    line at its line breaks and commas, reads every file as csv.reader over
    the text-mode file does: the same inputs or the same error text."""

    @settings(max_examples=500, deadline=None)
    @given(data_text())
    @example("")                                            # empty file
    @example("\ufeff")                                      # a mark alone
    @example("\r\n")
    @example("\r")
    @example(",".join(kernel.INPUT_NAMES))                  # no break at all
    @example(",".join(kernel.INPUT_NAMES) + "\r\n" + "1," * 9 + "1\r\n\r\n")
    @example(",".join(kernel.INPUT_NAMES) + "\r" + "1," * 9 + "1\r \r" + "2," * 9 + "2")
    @example(",".join(kernel.INPUT_NAMES) + "\n" + "1," * 9 + "1\r" + "1," * 10 + "1\n")
    def test_same_inputs_or_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "data.csv")
            Path(path).write_bytes(text.encode("utf-8"))
            assert read_outcome(cli.read_data_csv, path) \
                == read_outcome(ref_read_data_csv, path)

    @pytest.mark.parametrize("cell,by_csv", [
        ('"1.5"', True),                    # a quoted cell
        ('"1.5\r\n"', True),                # a quoted cell holding CR LF
        ("1\x00", True),                    # a NUL
        ("0" * 131_054 + "1", True),        # a line of 131,073 characters
        ("0" * 131_053 + "1", False),       # one of 131,072: csv's limit
        ("1.5", False),
    ])
    def test_csv_path(self, tmp_path, monkeypatch, cell, by_csv):
        path = tmp_path / "data.csv"
        path.write_bytes(f"{','.join(kernel.INPUT_NAMES)}\r\n{cell}{',1' * 9}\r\n"
                         .encode("utf-8"))
        expected = read_outcome(ref_read_data_csv, str(path))
        calls = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda *a: calls.append(a) or reader(*a))
        assert read_outcome(cli.read_data_csv, str(path)) == expected
        assert bool(calls) == by_csv


class TestReportText:
    """The run report is json.dumps(_report_dict(report), indent=2), byte for
    byte, whatever the memory words, and for an empty observe range."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from([fx.RAW_MIN, fx.RAW_MAX, 0, 1, -1, fx.SCALE, -fx.SCALE]),
        st.integers(fx.RAW_MIN, fx.RAW_MAX)), max_size=12))
    @example([fx.RAW_MIN, fx.RAW_MAX, 0, 1, -1, fx.SCALE, -fx.SCALE])
    @example([])                                            # --observe 0:0
    def test_matches_json_dumps(self, words):
        mask = (1 << fx.WORD_BITS) - 1
        source = "".join(f".data {i} 0x{w & mask:016X}\n" for i, w in enumerate(words))
        program = isa.assemble(source + "HALT\n")
        report = core.run(program, core.CoreConfig(), observe=(0, len(words)))
        assert [w.raw for w in report.memory] == words
        with tempfile.TemporaryDirectory() as tmp:
            prog, out = Path(tmp) / "p.asm", Path(tmp) / "r.json"
            prog.write_text(source + "HALT\n")
            assert main(["run", str(prog), "--observe", f"0:{len(words)}",
                         "--out", str(out)]) == 0
            assert out.read_text() == json.dumps(cli._report_dict(report), indent=2) + "\n"


class TestParserReuse:
    """main() builds its parser once and keeps no state between calls."""

    def test_no_option_carries_over(self, workdir, capsys):
        run = ["run", str(workdir / "kern.asm"),
               "--config", str(workdir / "core.cfg"),
               "--data", str(workdir / "kern_data.csv")]
        out = workdir / "r.json"
        assert main(run + ["--out", str(out), "--observe", "0:2"]) == 0
        assert len(json.loads(out.read_text())["memory"]) == 2
        capsys.readouterr()
        assert main(run) == 0       # to stdout, with the output window
        report = json.loads(capsys.readouterr().out)
        expected = kernel.oracle(cli.read_data_csv(str(workdir / "kern_data.csv")))
        assert len(report["memory"]) == len(expected) == 24
        for got, want in zip(report["memory"], expected):
            assert abs(got - want) <= 1e-6 * abs(want)

    def test_usage_error_after_success(self, capsys):
        message = "error: vproc run: the following arguments are required: program\n"
        assert main(["run"]) == 1
        assert capsys.readouterr().err == message
        assert main(["project", "--fraction", "0.5"]) == 0
        capsys.readouterr()
        assert main(["run"]) == 1
        assert capsys.readouterr().err == message

    def test_built_once(self, capsys, monkeypatch):
        assert cli.build_parser() is not cli.build_parser()
        assert main(["project", "--fraction", "0.5"]) == 0
        built = []
        init = cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__",
                            lambda self, *a, **kw: built.append(self)
                            or init(self, *a, **kw))
        assert main(["project", "--fraction", "0.25"]) == 0
        assert built == []
        cli.build_parser()      # the spy sees a tree being built
        assert built
