"""Sample mutants of chosen functions and run the tests against each.

    python scripts/mutants.py --file src/randsteps/montecarlo.py \
        --functions _certified,_chunk_stats,_chain_values --count 20 --seed 32

Each site of a mutation inside the named functions (nested code included)
is one mutant: an arithmetic, bitwise or augmented-assignment operator
swapped for its partner (+ and -, * and /, // and %, << and >>, & and |),
a comparison swapped (< and <=, > and >=, == and !=, is and is not, in and
not in), `and` and `or` swapped, a unary minus or `not` dropped, an integer
constant plus 1, a float constant doubled (0.0 becomes 1.0), or the test of
an `if`, `while` or conditional expression negated.  --count sites are
sampled with random.Random(--seed), and each mutant is written into one
temporary copy of this checkout (the checkout is never written), where the
tests run as `python -m pytest -x -q` with PYTHONPATH set to the copy's
src/.  A mutant is killed when they fail, survived when they pass, and
timed out after 600 s.  Each is printed as

    killed     src/randsteps/montecarlo.py:845  a + b -> a - b  (12.3 s)

and a last line counts them.  Equivalent mutants exist; a survivor is
either one (say why) or a gap in the tests (close it).
"""

import argparse
import ast
import copy
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mod, ast.Mod: ast.FloorDiv, ast.LShift: ast.RShift,
    ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}


def _swapped(node, field, index=None):
    # A copy of node with its operator (or the index-th of a Compare) swapped.
    new = copy.deepcopy(node)
    ops = getattr(new, field)
    if index is None:
        setattr(new, field, _SWAPS[type(ops)]())
    else:
        ops[index] = _SWAPS[type(ops[index])]()
    return new


def _mutations(node):
    # (span node, replacement source) pairs for one node.
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
        yield node, _swapped(node, "op")
    elif isinstance(node, ast.BoolOp):
        yield node, _swapped(node, "op")
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                yield node, _swapped(node, "ops", i)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
        yield node, node.operand
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = node.value + 1 if isinstance(node.value, int) else (node.value * 2 or 1.0)
        yield node, ast.Constant(value)
    elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
        yield node.test, ast.UnaryOp(ast.Not(), node.test)


def _inside_fstring(tree):
    # Nodes under an f-string, whose positions Python 3.11 does not give reliably.
    return {id(n) for j in ast.walk(tree) if isinstance(j, ast.JoinedStr) for n in ast.walk(j)}


def sites(source, functions):
    """Every (line, span, before, after) mutation inside the named functions,
    span being (lineno, col, end_lineno, end_col) of the replaced node."""
    tree = ast.parse(source)
    skip = _inside_fstring(tree)
    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in functions):
            continue
        for node in ast.walk(fn):
            if id(node) in skip:
                continue
            for span, new in _mutations(node):
                before = ast.get_source_segment(source, span)
                after = ast.unparse(new)
                if isinstance(span, ast.expr):
                    after = f"({after})"
                pos = (span.lineno, span.col_offset, span.end_lineno, span.end_col_offset)
                found.append((node.lineno, pos, before, after))
    return sorted(set(found))


def apply(source, span, after):
    """source with the span (lineno, col, end_lineno, end_col; UTF-8 byte
    columns, as ast gives them) replaced by after."""
    lines = source.encode().splitlines(keepends=True)
    start = sum(map(len, lines[: span[0] - 1])) + span[1]
    end = sum(map(len, lines[: span[2] - 1])) + span[3]
    data = source.encode()
    return (data[:start] + after.encode() + data[end:]).decode()


def _copy(root, dest):
    shutil.copytree(
        root, dest,
        ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "BENCH_*.json"),
    )


def run(root, file, functions, count, seed, cmd, timeout):
    """Run count sampled mutants; return [(status, line, before, after, seconds)]."""
    source = (root / file).read_text()
    chosen = sites(source, functions)
    chosen = random.Random(seed).sample(chosen, min(count, len(chosen)))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        _copy(root, tree)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        for line, span, before, after in chosen:
            (tree / file).write_text(apply(source, span, after))
            start = time.perf_counter()
            try:
                done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=timeout)
                status = "killed" if done.returncode else "survived"
            except subprocess.TimeoutExpired:
                status = "timed out"
            results.append((status, line, before, after, time.perf_counter() - start))
            print(f"{status:<10} {file}:{line}  {before} -> {after}  ({results[-1][4]:.1f} s)", flush=True)
        (tree / file).write_text(source)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--file", required=True, help="the module to mutate, relative to the checkout")
    parser.add_argument("--functions", required=True, help="comma-separated function names")
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    results = run(root, args.file, set(args.functions.split(",")), args.count, args.seed, cmd, 600.0)
    tally = {s: sum(r[0] == s for r in results) for s in ("killed", "survived", "timed out")}
    print(f"mutants {len(results)}: " + ", ".join(f"{k} {v}" for k, v in tally.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
