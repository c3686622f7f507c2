"""tools/mutate.py: the operator swaps it makes (its test runs are not tested)."""

import ast
import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parent.parent / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutate)

SOURCE = '''\
def f(a, b, c):
    x = a + b * c    # a + b in a comment is not mutated
    x -= a // b << 1
    if a < b <= c and a is not None and (b is
                                           not None):
        return f"{a + b}" if x == 0 else b >> 1
    return a > b >= c != x is None
'''


def test_one_mutant_per_operator_in_source_order():
    got = [(m["line"], m["mutation"], m["occurrence"]) for m in mutate.mutants(SOURCE)]
    assert got == [
        (2, "+ -> -", 1), (2, "* -> //", 1),
        (3, "-= -> +=", 1), (3, "// -> *", 1), (3, "<< -> >>", 1),
        (4, "< -> <=", 1), (4, "<= -> <", 1), (4, "is not -> is", 1),
        (4, "is not -> is", 2),
        (6, "== -> !=", 1), (6, ">> -> <<", 1),
        (7, "> -> >=", 1), (7, ">= -> >", 1), (7, "!= -> ==", 1), (7, "is -> is not", 1)]


def test_each_mutant_swaps_one_operator():
    for m in mutate.mutants(SOURCE):
        tree = ast.parse(m["text"])     # a valid module
        assert ast.dump(tree) != ast.dump(ast.parse(SOURCE))
        assert "# a + b in a comment" in m["text"] and 'f"{a + b}"' in m["text"]
    split = [m for m in mutate.mutants(SOURCE) if m["occurrence"] == 2]
    assert split[0]["source"] == "if a < b <= c and a is not None and (b is"
    assert "(b is None):" in split[0]["text"]
