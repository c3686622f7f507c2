"""Operator-swap mutation testing of one source file, standard library only.

    python tools/mutate.py src/vproc/dse.py tests/test_dse.py

Each mutant swaps one operator of the file: + and -, * and //, << and >>,
< and <=, > and >=, == and !=, is and is not.  The checkout is never
touched: the repository is copied to a temporary directory once, and each
mutant is written into that copy's file and tested there with the named
test files plus tests/test_acceptance.py (pytest -x, a fixed Hypothesis
seed).  A mutant the tests pass survives.  Survivors listed in
tools/equivalent_mutants.json (a list of {"file", "source",
"mutation", "occurrence", "reason"}, as printed: "source" is the stripped
line less its comment, "occurrence" counts the same operator on that line)
are counted but not printed; every other survivor is printed with its line
and source text, and the exit status is 1 if there is one.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE = "tests/test_acceptance.py"
KNOWN = ROOT / "tools" / "equivalent_mutants.json"
FSTRING_START = getattr(tokenize, "FSTRING_START", None)   # Python 3.12 on
FSTRING_END = getattr(tokenize, "FSTRING_END", None)
# ast operator -> (its text, the operator it becomes)
SWAPS = {ast.Add: ("+", ast.Sub), ast.Sub: ("-", ast.Add),
         ast.Mult: ("*", ast.FloorDiv), ast.FloorDiv: ("//", ast.Mult),
         ast.LShift: ("<<", ast.RShift), ast.RShift: (">>", ast.LShift),
         ast.Lt: ("<", ast.LtE), ast.LtE: ("<=", ast.Lt),
         ast.Gt: (">", ast.GtE), ast.GtE: (">=", ast.Gt),
         ast.Eq: ("==", ast.NotEq), ast.NotEq: ("!=", ast.Eq),
         ast.Is: ("is", ast.IsNot), ast.IsNot: ("is not", ast.Is)}


def _operators(tree: ast.AST):
    """(operator text, its swap, the nodes it lies between) for every
    swappable operator; an augmented assignment's text ends in "="."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            yield *_texts(node.op), node.left, node.right
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            yield *(t + "=" for t in _texts(node.op)), node.target, node.value
        elif isinstance(node, ast.Compare):
            for before, op, after in zip([node.left, *node.comparators], node.ops,
                                         node.comparators):
                if type(op) in SWAPS:
                    yield *_texts(op), before, after


def _texts(op: ast.AST) -> tuple[str, str]:
    text, new = SWAPS[type(op)]
    return text, SWAPS[new][0]


def mutants(source: str) -> list[dict]:
    """One mutant per swappable operator, in source order: its 1-based line,
    stripped line text, mutation, occurrence on the line and mutated source."""
    lines = source.splitlines(keepends=True)

    def char_pos(row: int, byte_col: int) -> tuple[int, int]:
        return row, len(lines[row - 1].encode()[:byte_col].decode())

    # Operator tokens outside f-strings: before Python 3.12 an f-string is
    # one STRING token, so no version mutates an operator inside one.
    tokens, depth = [], 0
    comment_at = {}
    for t in tokenize.generate_tokens(io.StringIO(source).readline):
        depth += (t.type == FSTRING_START) - (t.type == FSTRING_END)
        if t.type == tokenize.COMMENT:
            comment_at[t.start[0]] = t.start[1]
        elif t.type in (tokenize.OP, tokenize.NAME) and not depth:
            tokens.append(t)
    found = []
    for text, new_text, before, after in _operators(ast.parse(source)):
        lo = char_pos(before.end_lineno, before.end_col_offset)
        hi = char_pos(after.lineno, after.col_offset)
        gap = [t for t in tokens if lo <= t.start and t.end <= hi]
        words = text.split()
        at = next((k for k in range(len(gap))
                   if [t.string for t in gap[k:k + len(words)]] == words), None)
        if at is not None:
            found.append((gap[at].start, gap[at + len(words) - 1].end, text, new_text))
    found.sort()
    out, seen = [], {}
    for (row, col), (end_row, end_col), text, new_text in found:
        key = (row, text)
        seen[key] = seen.get(key, 0) + 1
        mutated = [*lines]
        mutated[row - 1] = (lines[row - 1][:col] + new_text
                            + (lines[end_row - 1][end_col:]))
        del mutated[row:end_row]        # an "is not" split over lines
        code = lines[row - 1][:comment_at.get(row)].strip()    # less its comment
        out.append({"line": row, "source": code,
                    "mutation": f"{text} -> {new_text}", "occurrence": seen[key],
                    "text": "".join(mutated)})
    return out


def _key(entry: dict, file: str) -> tuple:
    return file, entry["source"], entry["mutation"], entry.get("occurrence", 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("source", help="file to mutate, relative to the repository")
    parser.add_argument("tests", nargs="+", help="test files run against each mutant")
    args = parser.parse_args(argv)
    file = Path(args.source).resolve().relative_to(ROOT).as_posix()
    known = {_key(e, e["file"]) for e in json.loads(KNOWN.read_text())}
    tests = [*dict.fromkeys([*args.tests, ACCEPTANCE])]
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
            "*.egg-info", "results", "work-*"))
        target = copy / file
        original = target.read_text()
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--hypothesis-seed=0", *tests]

        def passes(timeout: float | None) -> bool:
            shutil.rmtree(copy / ".hypothesis", ignore_errors=True)    # no replayed examples
            try:
                return subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                                      stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL).returncode == 0
            except subprocess.TimeoutExpired:      # a mutant that hangs is killed
                return False

        start = time.monotonic()
        if not passes(None):
            print(f"the tests fail on the unmutated {file}", file=sys.stderr)
            return 2
        timeout = max(30.0, 5 * (time.monotonic() - start))
        survivors, equivalent, todo = [], 0, mutants(original)
        for m in todo:
            target.write_text(m["text"])
            if passes(timeout):
                if _key(m, file) in known:
                    equivalent += 1
                else:
                    survivors.append(m)
                    print(f"{file}:{m['line']}: [{m['mutation']}, occurrence "
                          f"{m['occurrence']}] {m['source']}", flush=True)
        target.write_text(original)
    print(f"{len(todo)} mutants: {len(todo) - len(survivors) - equivalent} killed, "
          f"{equivalent} known equivalent, {len(survivors)} new survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
