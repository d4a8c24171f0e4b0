"""Shared fixtures: the acceptance battery runs once per session, and the
seeded numbers pinned in seeded_digests.json are read where they apply."""

import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from randsteps.selftest import run_battery

SEEDED_DIGESTS = Path(__file__).with_name("seeded_digests.json")


def provenance():
    """What the seeded numbers depend on outside the repository: numpy's
    release and the dispatch targets it enables on this CPU, and the libm."""
    return {
        "numpy": np.__version__,
        "cpu_dispatch": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
        "machine": platform.machine(),
        "libc": list(platform.libc_ver()),
    }


@pytest.fixture(scope="session")
def battery():
    """All fourteen battery rows keyed by criterion label, plus the runtime."""
    start = time.perf_counter()
    rows = run_battery()
    elapsed = time.perf_counter() - start
    by_label = {row.criterion: row for row in rows}
    by_label["_rows"] = rows
    by_label["_elapsed"] = elapsed
    return by_label


@pytest.fixture(scope="session")
def pinned():
    """pinned(key) is seeded_digests.json's entry key, where this machine's
    provenance is the one the pins were taken on; elsewhere the test skips,
    naming the first field that differs."""
    pins = json.loads(SEEDED_DIGESTS.read_text())
    here = provenance()

    def lookup(key):
        for field, value in pins["provenance"].items():
            if here[field] != value:
                pytest.skip(
                    f"seeded numbers not compared: {field} is {here[field]!r} here "
                    f"and {value!r} in {SEEDED_DIGESTS.name}"
                )
        return pins[key]

    return lookup


@pytest.fixture(scope="session")
def repin():
    """repin(key, got) is got written as seeded_digests.json's entry key, the
    message of a failed comparison with a pin: a change that moves seeded
    numbers on purpose copies it into that file."""

    def entry(key, got):
        lines = json.dumps({key: got}, indent=2).splitlines()[1:-1]
        return "\n".join([f"seeded numbers moved; if that is meant, {SEEDED_DIGESTS.name} takes:", *lines])

    return entry
