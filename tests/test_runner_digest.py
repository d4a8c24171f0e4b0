"""Guards of the repository's tooling against deletions from the public API,
and of the seeded numbers against a silent move.

scripts/runner_digest.py, the byte-identity check, and the benchmark under
perfbench/ call the package directly, so a deletion from it that either
still uses would otherwise go unnoticed until someone runs them; so
would a CLI that stopped calling, through its module globals, the functions
the benchmark's tracing wraps there.  The digest's six lines must also equal those pinned in seeded_digests.json,
wherever the pins' provenance is this machine's.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import randsteps
import randsteps.cli  # noqa: F401  (binds randsteps.cli, which the benchmark reads)

ROOT = Path(__file__).resolve().parents[1]


def _package_names(tree):
    # The attributes the module reads from rs and randsteps, the names the
    # benchmark gives the package, whether imported or passed in.
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("rs", "randsteps")
    }


def test_runner_digest_prints_six_digests(pinned, repin):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "runner_digest.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 6
    assert all(re.fullmatch(r"\d+ [0-9a-f]{64}", line) for line in lines), lines
    assert lines == pinned("runner_digest"), repin("runner_digest", lines)


def test_benchmark_reads_only_names_the_package_has():
    # perfbench/baseline/ imports its own frozen copy and is left out.
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names |= _package_names(ast.parse(path.read_text(), str(path)))
    assert {"UnitVector", "HyperboloidPoint", "run_sphere_chain", "cli"} <= names
    assert sorted(n for n in names if not hasattr(randsteps, n)) == []


def _cli_calls():
    # perfbench/workloads.py's CLI_CALLS, read without importing perfbench.
    path = ROOT / "perfbench" / "workloads.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CLI_CALLS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} defines no CLI_CALLS")


def test_benchmark_patches_only_names_the_cli_has():
    # perfbench/tracing.Patch replaces each key of CLI_CALLS among
    # randsteps.cli's globals for a traced run, so each must be one.
    calls = _cli_calls()
    assert {"estimate", "compare", "prediction_for"} <= set(calls)
    assert sorted(n for n in calls if not hasattr(randsteps.cli, n)) == []
