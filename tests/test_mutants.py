"""scripts/mutants.py on a fixture module: its sites, its verdicts, and a
checkout it never writes."""

import importlib.util
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

_FIXTURE = '''"""A fixture module."""


def clamp(x, lo):
    if x < lo:
        return lo
    return x


def untouched(a):
    return a + 1
'''
_CHECK = "import fixture; assert fixture.clamp(1, 2) == 2 and fixture.clamp(3, 2) == 3"


def _tree(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "fixture.py").write_text(_FIXTURE)
    return tmp_path


def test_sites_cover_only_the_named_functions():
    got = [(line, before, after) for line, _, before, after in mutants.sites(_FIXTURE, {"clamp"})]
    assert got == [(5, "x < lo", "(not x < lo)"), (5, "x < lo", "(x <= lo)")]


def test_apply_replaces_the_span_alone():
    (_, span, _, after), _ = mutants.sites(_FIXTURE, {"clamp"})
    assert mutants.apply(_FIXTURE, span, after) == _FIXTURE.replace("if x < lo:", "if (not x < lo):")


def test_a_killed_and_a_survived_mutant_in_a_copy(tmp_path, capsys):
    # The negated test breaks clamp(1, 2); x <= lo returns lo == x at the
    # tie, so no check can tell it apart: an equivalent mutant survives.
    root = _tree(tmp_path)
    results = mutants.run(root, "src/fixture.py", {"clamp"}, 5, 0, [sys.executable, "-c", _CHECK], 60)
    assert sorted((status, after) for status, _, _, after, _ in results) == [
        ("killed", "(not x < lo)"), ("survived", "(x <= lo)"),
    ]
    assert (root / "src" / "fixture.py").read_text() == _FIXTURE
    assert "killed     src/fixture.py:5  x < lo -> (not x < lo)" in capsys.readouterr().out


def test_sampling_is_seeded_and_slow_mutants_time_out(tmp_path):
    root = _tree(tmp_path)
    sleep = [sys.executable, "-c", "import time; time.sleep(30)"]
    runs = [mutants.run(root, "src/fixture.py", {"clamp"}, 1, 7, sleep, 0.5) for _ in range(2)]
    assert runs[0][0][:4] == runs[1][0][:4] and runs[0][0][0] == "timed out"
