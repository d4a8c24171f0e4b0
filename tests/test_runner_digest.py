"""Smoke test of scripts/runner_digest.py, the repository's byte-identity check.

The script calls the public API directly, so a deletion from it that the
script still uses would otherwise go unnoticed until someone runs it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_runner_digest_prints_six_digests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "runner_digest.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 6
    assert all(re.fullmatch(r"\d+ [0-9a-f]{64}", line) for line in lines), lines
