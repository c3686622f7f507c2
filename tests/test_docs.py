"""The docs name exactly what the code defines."""

import re
import shlex
from itertools import takewhile
from pathlib import Path

from vproc import cli, isa

ROOT = Path(__file__).resolve().parent.parent


def _table(text: str, header: str) -> str:
    """The markdown table that starts with the `header` row."""
    rows = text[text.index(header):].splitlines()
    return "\n".join(takewhile(lambda r: r.startswith("|"), rows))


def test_formats_instruction_table_names_each_opcode_once():
    text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    table = _table(text, "| Group ")
    named = re.findall(r"`([A-Z][A-Z0-9]*)\b", table)
    assert sorted(named) == sorted(isa.OPCODES)


def test_readme_module_table_names_each_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = re.findall(r"^\| `vproc\.(\w+)`", _table(text, "| Module "), re.M)
    modules = [p.stem for p in (ROOT / "src" / "vproc").glob("*.py")
               if p.stem != "__init__"]
    assert sorted(named) == sorted(modules)


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Each `vproc` line of README's command block exits 0, in order, with
    /tmp/kern moved into tmp_path and docs/ read from the repository."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text[text.index("## Command line"):].split("```")[1]
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("vproc ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [str(tmp_path) + a[len("/tmp"):] if a.startswith("/tmp/kern")
                else str(ROOT / a) if a.startswith("docs/") else a
                for a in argv[1:]]
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
