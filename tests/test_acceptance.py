"""Acceptance gate: the fourteen fixed-seed battery criteria.

Each test prints one pass/fail line for its criterion and asserts it.  The
battery itself runs once per session (see conftest.py); the determinism
criterion additionally invokes the selftest command twice end to end and
byte-compares the rendered CSV reports.
"""

import hashlib
import json
import time

import randsteps.cli
from randsteps import selftest
from randsteps.cli import EXIT_PASS, main
from randsteps.selftest import BATTERY_BUDGET_SECONDS, battery_passed, render_csv


def _report(row):
    status = "PASS" if row.passed else "FAIL"
    print(f"{row.criterion} {status}: {row.description} [{row.detail}]")
    assert row.passed, f"{row.criterion} {row.description}: {row.detail}"


def test_c1_sphere_mean_concentration(battery):
    _report(battery["C1"])


def test_c2_sphere_std_against_sigma(battery):
    _report(battery["C2"])


def test_c3_sphere_variance_recursion(battery):
    _report(battery["C3"])


def test_c4_right_angle_zero_mean(battery):
    _report(battery["C4"])


def test_c5_flat_mean_std_fourth_moment(battery):
    _report(battery["C5"])


def test_c6_flat_sigma_bound(battery):
    _report(battery["C6"])


def test_c7_operator_norm_and_cosine(battery):
    _report(battery["C7"])


def test_c8_two_factor_cosine(battery):
    _report(battery["C8"])


def test_c9_hyperbolic_chain(battery):
    _report(battery["C9"])


def test_c10_monomial_moments(battery):
    _report(battery["C10"])


def test_c11_marginal_moments(battery):
    _report(battery["C11"])


def test_c12_proposition_bounds(battery):
    _report(battery["C12"])


def test_c13_pnorm_monotonicity(battery):
    _report(battery["C13"])


def test_c14_selftest_determinism(battery, tmp_path, capsys):
    row = battery["C14"]
    # literal check: the selftest command run twice emits byte-identical CSV
    reports = []
    durations = []
    for name in ("first.csv", "second.csv"):
        target = tmp_path / name
        start = time.perf_counter()
        code = main(["selftest", "--output", "csv", "--output-path", str(target)])
        durations.append(time.perf_counter() - start)
        capsys.readouterr()
        assert code == EXIT_PASS
        reports.append(target.read_bytes())
    identical = reports[0] == reports[1]
    in_budget = (
        battery["_elapsed"] < BATTERY_BUDGET_SECONDS
        and max(durations) < BATTERY_BUDGET_SECONDS
    )
    matches_battery = reports[0].decode() == render_csv(battery["_rows"])
    ok = row.passed and identical and in_budget and matches_battery
    status = "PASS" if ok else "FAIL"
    print(
        f"C14 {status}: {row.description} "
        f"[{row.detail}; cli_reruns_identical={identical}; "
        f"cli_matches_battery={matches_battery}; "
        f"runtimes={battery['_elapsed']:.1f}s,{durations[0]:.1f}s,{durations[1]:.1f}s "
        f"within {BATTERY_BUDGET_SECONDS:.0f}s={in_budget}]"
    )
    assert row.passed, row.detail
    assert identical, "selftest CSV differed between runs"
    assert matches_battery, "selftest CSV differed from the in-process battery"
    assert in_budget, "battery exceeded its runtime budget"


def test_c14_report_check_fails_on_a_report_that_loses_a_row(battery, monkeypatch):
    # C14 reads its CSV back; a report that drops the last row does not match.
    monkeypatch.setattr(selftest, "render_csv", lambda results: render_csv(results[:-1]))
    run = selftest._Run(1)
    run.rows = battery["_rows"][:13]
    run.right_angle = run.norm_ratio = None
    passed, detail = selftest._c14_determinism(run)
    assert "report stable: False" in detail and not passed


def test_selftest_csv_matches_its_pin(battery, pinned, repin):
    digest = hashlib.sha256(render_csv(battery["_rows"]).encode()).hexdigest()
    assert digest == pinned("selftest_csv_sha256"), repin("selftest_csv_sha256", digest)


def test_battery_verdict_is_all_pass(battery):
    assert battery_passed(battery["_rows"])
    assert len(battery["_rows"]) == 14


def test_selftest_json_output(battery, capsys, monkeypatch):
    # The session battery's rows, rendered by the selftest command.
    rows = battery["_rows"]
    assert all(type(row.passed) is bool for row in rows)
    monkeypatch.setattr(randsteps.cli, "run_battery", lambda workers: rows)
    code = main(["selftest", "--output", "json"])
    assert code == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert [(p["criterion"], p["passed"]) for p in payload] == [
        (row.criterion, True) for row in rows
    ]
