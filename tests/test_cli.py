"""Command-line interface: exit codes, output formats, and config handling."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randsteps
from randsteps import cli
from randsteps.cli import (
    EXIT_CONFIG, EXIT_FAIL, EXIT_NUMERIC, EXIT_PASS, _SUBCOMMANDS, _flags, _parse, _walk,
    build_parser, main,
)
from randsteps.montecarlo import (
    GEOMETRIES, ExperimentSpec, Spectrum, compare, estimate, prediction_for,
)
from randsteps.predictors import _MONOMIAL_KINDS, CurvaturePath


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_field_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["field", "value"]
    return dict(rows[1:])


def _reject_constant(name):
    raise ValueError(f"bare {name} is not valid JSON")


def parse_json(text):
    # Strict RFC 8259: Infinity, -Infinity and NaN are rejected.
    return json.loads(text, parse_constant=_reject_constant)


def parse_row_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]


class TestPredict:
    def test_sphere_degrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "predict", "--geometry", "sphere", "--n-dim", "3",
            "--angles", "60,60", "--angle-unit", "degrees", "--output", "csv",
        )
        assert code == EXIT_PASS
        fields = parse_field_csv(out)
        assert float(fields["mean"]) == pytest.approx(0.25, rel=1e-12)

    def test_flat_reports_expected_norm(self, capsys):
        code, out, _ = run_cli(
            capsys, "predict", "--geometry", "flat", "--steps", "3,4", "--output", "csv",
        )
        assert code == EXIT_PASS
        fields = parse_field_csv(out)
        assert float(fields["mean"]) == 25.0
        assert float(fields["expected_norm"]) == 5.0

    @pytest.mark.parametrize(
        "geometry, flag, schedule",
        [
            ("sphere", "--angles", "0.5,1.25,2.5"),
            ("flat", "--steps", "0.001,2.5,7"),
            ("hyperbolic", "--arcs", "1,1"),
            ("hyperbolic", "--arcs", "500,500"),  # the cosh product is inf
        ],
        ids=["sphere", "flat", "hyperbolic", "hyperbolic-inf"],
    )
    def test_dimension_free_prediction_has_no_sigma(self, capsys, geometry, flag, schedule):
        # With no --n-dim the mean is the row's, the same bits at every n.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "predict", "--geometry", geometry, flag, schedule, "--output", "json",
            )
            want = prediction_for(geometry, [float(v) for v in schedule.split(",")], 3)
        assert code == EXIT_PASS, err
        payload = parse_json(out)
        assert float(payload["mean"]).hex() == want.mean.hex()
        assert payload["observable"] == want.observable
        assert payload["sigma_exact"] is None
        assert payload["sigma_bound"] is None

    def test_with_dimension_reports_sigma(self, capsys):
        code, out, _ = run_cli(
            capsys, "predict", "--geometry", "sphere", "--n-dim", "101",
            "--angles", "1.5707963267948966,1.5707963267948966", "--output", "json",
        )
        assert code == EXIT_PASS
        payload = parse_json(out)
        assert payload["mean"] == 0.0
        assert payload["sigma_exact"] == pytest.approx(0.1, rel=1e-12)

    def test_kappa_products(self, capsys, tmp_path):
        path_file = tmp_path / "path.txt"
        path_file.write_text("1.0 0.0 0.0 2.0\n0.5 1.0 1.0 1.0\n")
        code, out, _ = run_cli(
            capsys, "predict", "--geometry", "kappa",
            "--curvature-file", str(path_file), "--output", "json",
        )
        assert code == EXIT_PASS
        payload = parse_json(out)
        want = CurvaturePath([(1.0, (0.0, 0.0, 2.0)), (0.5, (1.0, 1.0, 1.0))])
        assert payload["norm_product"] == prediction_for("kappa", want, 3, "norm_ratio").mean
        assert payload["cosine_product"] == prediction_for("kappa", want, 3, "cosine").mean

    def test_kappa_simulates_as_operator_product(self, capsys, tmp_path):
        # kappa is operator_product over the spectra v_k = 1/(1 + d_k kappa_k),
        # with n the path's width.
        path_file = tmp_path / "path.txt"
        path_file.write_text("1.0 0.0 0.0 2.0\n0.5 1.0 1.0 1.0\n")
        code, out, _ = run_cli(
            capsys, "simulate", "--geometry", "kappa", "--curvature-file", str(path_file),
            "--observable", "norm_ratio", "--trials", "3000", "--seed", "1", "--output", "csv",
        )
        assert code == EXIT_PASS
        _, rows = parse_row_csv(out)
        assert rows[0]["geometry"] == "kappa" and rows[0]["n_dim"] == "3"
        spectra = ["1,1,0.3333333333333333", "0.6666666666666666,0.6666666666666666,0.6666666666666666"]
        code, out, _ = run_cli(
            capsys, "simulate", "--geometry", "operator_product", "--spectrum", spectra[0],
            "--spectrum", spectra[1], "--observable", "norm_ratio", "--trials", "3000",
            "--seed", "1", "--output", "csv",
        )
        assert code == EXIT_PASS
        _, want = parse_row_csv(out)
        for key in ("mc_mean", "mc_std", "std_error", "schedule"):
            assert rows[0][key] == want[0][key]

    def test_kappa_compare_ends_in_verdict(self, capsys, tmp_path):
        path_file = tmp_path / "path.txt"
        path_file.write_text("1.0 0.0 0.0 2.0\n0.5 1.0 1.0 1.0\n")
        code, out, _ = run_cli(
            capsys, "compare", "--geometry", "kappa", "--curvature-file", str(path_file),
            "--trials", "20000", "--seed", "1", "--output", "csv",
        )
        assert code in (EXIT_PASS, EXIT_FAIL)
        _, rows = parse_row_csv(out)
        assert rows[0]["verdict"] in ("pass", "fail")
        want = prediction_for("kappa", [(1.0, (0.0, 0.0, 2.0)), (0.5, (1.0, 1.0, 1.0))], 3).mean
        assert float(rows[0]["prediction_mean"]) == want

    def test_tiny_arcs_predict_their_sigma(self, capsys):
        # sinh^2(1e-9) / sqrt(2): the variance recursion adds no cancelling
        # terms, so these arcs no longer exit 3
        code, out, err = run_cli(
            capsys, "predict", "--geometry", "hyperbolic", "--n-dim", "3",
            "--arcs", "1e-9,1e-9", "--output", "json",
        )
        assert code == EXIT_PASS, err
        assert parse_json(out)["sigma_exact"] == pytest.approx(7.0710678118654761e-19, rel=1e-15)

    def test_underflowing_moment_exit_code(self, capsys):
        # E[t^2] = 1/n is below the double range
        code, _, err = run_cli(
            capsys, "predict", "--geometry", "marginal", "--n-dim", str(10**400),
            "--power", "2",
        )
        assert code == EXIT_NUMERIC
        assert "numeric failure" in err

    @pytest.mark.parametrize(
        "schedule",
        [("sphere", "--angles", "1,1"), ("flat", "--steps", "1,1"), ("hyperbolic", "--arcs", "1,1")],
        ids=lambda schedule: schedule[0],
    )
    def test_dimension_past_double_range_is_a_usage_error(self, capsys, schedule):
        # These predictors divide by n in floats; predict rejects such an n
        # as compare does, with compare's message.
        geometry, flag, values = schedule
        common = ("--geometry", geometry, flag, values, "--n-dim", str(10**400))
        code, out, err = run_cli(capsys, "predict", *common)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: n_dim must be an integer in the double range, got 1000")
        assert run_cli(capsys, "compare", *common, "--trials", "8", "--seed", "1") == (
            EXIT_CONFIG, "", err,
        )

    def test_hyperbolic_overflow_reports_inf(self, capsys):
        code, out, err = run_cli(
            capsys, "predict", "--geometry", "hyperbolic", "--n-dim", "10",
            "--arcs", "300,300,300", "--output", "json",
        )
        assert code == EXIT_PASS
        assert err == ""
        payload = parse_json(out)
        for key in ("mean", "sigma_exact", "sigma_bound"):
            assert payload[key] == "inf"

    def test_operator_cosine_past_1e154(self, capsys):
        # Printed an overflow warning and a mean of inf, with exit 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "predict", "--geometry", "operator", "--n-dim", "3",
                "--spectrum", "1e+308,-100000.0,1e+308", "--observable", "cosine", "--output", "json",
            )
        assert (code, err) == (EXIT_PASS, "")
        assert parse_json(out)["mean"] == pytest.approx(2 / math.sqrt(6), rel=1e-15)

    def test_missing_schedule_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--geometry", "sphere", "--n-dim", "5")
        assert code == EXIT_CONFIG
        assert "angles" in err


# Every kind of cell an output row holds: its text, the schedule cell as
# _schedule_cell writes a parsed schedule of each geometry, numbers of any
# size, and floats that are None, +-0, subnormal, inf or nan.
_FLOAT_CELLS = st.none() | st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_SCHEDULES = st.one_of(
    st.tuples(st.floats()) | st.lists(st.floats(), max_size=6).map(tuple),
    st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
             min_size=1, max_size=3).map(lambda factors: tuple(Spectrum(f) for f in factors)),
    st.sampled_from(_MONOMIAL_KINDS),
    st.integers(1, 10**20),
)
_ROWS = st.fixed_dictionaries({
    "experiment": st.sampled_from(["simulate", "compare", "table"]),
    "geometry": st.sampled_from(GEOMETRIES),
    "n_dim": st.integers(2, 10**300),
    "schedule": _SCHEDULES.map(cli._schedule_cell),
    "trials": st.integers(1, 10**20),
    "seed": st.integers(0, 2**64 - 1),
    **{column: _FLOAT_CELLS for column in cli._CSV_COLUMNS[6:14]},
    "verdict": st.sampled_from([None, "pass", "fail", "indeterminate"]),
})


class TestCsvRows:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(_ROWS, min_size=1, max_size=3))
    def test_joined_rows_equal_csv_writers(self, rows):
        # No cell holds a comma, a quote or a line break, so joining the
        # cells writes what csv.writer writes, which would quote such a cell.
        out = io.StringIO()
        cells = [[cli._cell(row[column], True) for column in cli._CSV_COLUMNS] for row in rows]
        csv.writer(out, lineterminator="\n").writerows([cli._CSV_COLUMNS, *cells])
        assert cli._render_rows(rows, SimpleNamespace(output="csv")) == out.getvalue().rstrip("\n")

    @pytest.mark.parametrize(
        "argv",
        [["--geometry", "flat", "--steps", "1,2"],
         ["--geometry", "flat", "--n-dim", "5", "--steps", "1,2"],
         ["--geometry", "sphere", "--angles", "0.7"],
         ["--geometry", "sphere", "--n-dim", "5", "--angles", "0.7"],
         ["--geometry", "hyperbolic", "--arcs", "0.5"],
         ["--geometry", "hyperbolic", "--n-dim", "5", "--arcs", "0.5"],
         ["--geometry", "operator", "--spectrum", "1,2,3"],
         ["--geometry", "operator", "--spectrum", "1,2,3", "--observable", "norm_ratio"],
         ["--geometry", "operator_product", "--spectrum", "1,2", "--spectrum", "3,4"],
         *(["--geometry", "monomial", "--n-dim", "5", "--kind", kind] for kind in _MONOMIAL_KINDS),
         ["--geometry", "marginal", "--n-dim", "5", "--power", "12"],
         ["--geometry", "kappa"]],
        ids=lambda argv: "-".join(argv[1::2]),
    )
    def test_predict_fields_equal_csv_writers(self, argv, tmp_path, monkeypatch, capsys):
        # Every row's texts, its observable and deviation order among them,
        # are written as csv.writer writes them.
        if argv[-1] == "kappa":
            (tmp_path / "path.txt").write_text("1.0 0.5 2.0\n0.5 1.0 -0.5\n")
            argv = [*argv, "--curvature-file", str(tmp_path / "path.txt")]
        seen, join = [], cli._csv_text
        monkeypatch.setattr(cli, "_csv_text", lambda rows: seen.append(list(rows)) or join(seen[-1]))
        assert main(["predict", *argv, "--output", "csv"]) == EXIT_PASS
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(seen[0])
        assert capsys.readouterr().out == out.getvalue()


class TestSimulate:
    def test_csv_row_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--geometry", "flat", "--n-dim", "10",
            "--steps", "1,1", "--trials", "2000", "--seed", "7", "--output", "csv",
        )
        assert code == EXIT_PASS
        header, rows = parse_row_csv(out)
        assert header == [
            "experiment", "geometry", "n_dim", "schedule", "trials", "seed",
            "prediction_mean", "sigma_exact", "sigma_bound", "mc_mean", "mc_std",
            "std_error", "z_mean", "std_ratio", "verdict",
        ]
        assert len(rows) == 1
        row = rows[0]
        assert row["experiment"] == "simulate"
        assert row["schedule"] == "1;1"
        assert int(row["trials"]) == 2000

    def test_csv_roundtrip_reproduces_estimate(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--geometry", "flat", "--n-dim", "10",
            "--steps", "1,0.5", "--trials", "2000", "--seed", "21", "--output", "csv",
        )
        assert code == EXIT_PASS
        _, rows = parse_row_csv(out)
        row = rows[0]
        schedule = tuple(float(v) for v in row["schedule"].split(";"))
        spec = ExperimentSpec(
            row["geometry"], int(row["n_dim"]), schedule, int(row["trials"]),
            int(row["seed"]),
        )
        est = estimate(spec)
        # %.17g output round-trips doubles exactly
        assert float(row["mc_mean"]) == est.mean
        assert float(row["mc_std"]) == est.sample_std

    def test_generated_seed_noted_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--geometry", "flat", "--n-dim", "5",
            "--steps", "1", "--trials", "10", "--output", "csv",
        )
        assert code == EXIT_PASS
        assert "generated seed:" in err
        _, rows = parse_row_csv(out)
        assert int(rows[0]["seed"]) >= 0

    def test_trials_required(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--geometry", "flat", "--n-dim", "5", "--steps", "1",
        )
        assert code == EXIT_CONFIG
        assert "trials" in err

    def test_single_trial_marked_in_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--geometry", "flat", "--n-dim", "5",
            "--steps", "1,1", "--trials", "1", "--seed", "3", "--output", "json",
        )
        assert code == EXIT_PASS
        payload = parse_json(out)
        assert payload[0]["insufficient_trials"] is True

    def test_pretty_output_has_the_csv_fields(self, capsys):
        # insufficient_trials is a json-only field.
        code, out, _ = run_cli(
            capsys, "simulate", "--geometry", "flat", "--n-dim", "5",
            "--steps", "1,1", "--trials", "1", "--seed", "3",
        )
        assert code == EXIT_PASS
        assert [line.split()[0] for line in out.splitlines()] == [
            "experiment", "geometry", "n_dim", "schedule", "trials", "seed",
            "prediction_mean", "sigma_exact", "sigma_bound", "mc_mean", "mc_std",
            "std_error", "z_mean", "std_ratio", "verdict",
        ]

    def test_flat_squared_norm_past_the_double_range_is_inf(self, capsys):
        # The flat chain runs in the frame of its longest step, so steps of
        # 1e200 overflow only in the final scale by 4^e: inf, with no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "simulate", "--geometry", "flat", "--n-dim", "3",
                "--steps", "1e200,1e200", "--trials", "8", "--seed", "1", "--output", "json",
            )
        assert (code, err) == (EXIT_PASS, "")
        assert parse_json(out)[0]["mc_mean"] == "inf"

    def test_operator_spectrum_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--geometry", "operator", "--spectrum", "1,1,1,1,1,1",
            "--trials", "50", "--seed", "2", "--output", "csv",
        )
        assert code == EXIT_PASS
        _, rows = parse_row_csv(out)
        assert float(rows[0]["mc_mean"]) == 1.0
        assert float(rows[0]["mc_std"]) == 0.0


class TestCompare:
    def test_deterministic_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--geometry", "sphere", "--n-dim", "12",
            "--angles", "1.0471975511965976", "--trials", "1000", "--seed", "5",
            "--output", "csv",
        )
        assert code == EXIT_PASS
        _, rows = parse_row_csv(out)
        assert rows[0]["verdict"] == "pass"
        assert float(rows[0]["z_mean"]) == 0.0

    def test_monomial_std_check_uses_the_exact_sigma(self, capsys):
        # The monomial row carries sigma_exact = sqrt(21)/80, so the std gate
        # applies; without it the row was indeterminate and exited 1.
        code, out, err = run_cli(
            capsys, "compare", "--geometry", "monomial", "--n-dim", "10", "--kind", "x1_4",
            "--trials", "100000", "--seed", "3", "--require-std", "--output", "csv",
        )
        assert code == EXIT_PASS, err
        _, rows = parse_row_csv(out)
        assert float(rows[0]["sigma_exact"]) == pytest.approx(math.sqrt(21) / 80, rel=1e-15)
        assert float(rows[0]["std_ratio"]) == pytest.approx(1.0062, abs=1e-4)

    def test_overflow_is_a_numeric_failure(self, capsys):
        # cosh of the 710 arc passes the double range in the hyperbolic
        # kernel: exit 3, where an OverflowError traceback ended the run.
        code, out, err = run_cli(
            capsys, "compare", "--geometry", "hyperbolic", "--n-dim", "10",
            "--arcs", "100000,710,100000", "--trials", "1", "--seed", "1",
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err == "numeric failure: cosh of the arc 100000.0 overflows\n"
        # Predicted and measured norm ratios of inf gave z = -inf, a fail
        # verdict and exit 1; simulate carries no verdict and still passes.
        argv = ["--geometry", "operator_product", "--n-dim", "2", "--spectrum", "1e200,0",
                "--spectrum", "1e200,0", "--observable", "norm_ratio", "--trials", "8",
                "--seed", "1"]
        code, out, err = run_cli(capsys, "compare", *argv)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err == "numeric failure: the predicted mean is inf; a verdict needs finite means\n"
        code, out, _ = run_cli(capsys, "simulate", *argv, "--output", "json")
        assert code == EXIT_PASS
        assert parse_json(out)[0]["mc_mean"] == "inf"

    @pytest.mark.parametrize(
        "command, n, spectrum",
        [("simulate", "2", "1e+200,0.0"), ("compare", "3", "1e+200,1e200,0.0")],
    )
    def test_operator_spectrum_past_1e154(self, capsys, command, n, spectrum):
        # Was: overflow and invalid-value warnings and mc_mean nan (simulate),
        # z = -inf (compare), as the squared spectrum passed the double range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, command, "--geometry", "operator", "--n-dim", n, "--spectrum", spectrum,
                "--observable", "cosine", "--trials", "64", "--seed", "1", "--output", "json",
            )
            assert code == EXIT_PASS, err
            row = parse_json(out)[0]
            assert 0.0 < row["mc_mean"] <= 1.0
            assert row["verdict"] in (None, "pass")
            # A zero factor after a norm past the double range: the ratio is
            # exactly 0, where inf * 0 gave an invalid-value warning and a
            # nan prediction.
            code, out, err = run_cli(
                capsys, "compare", "--geometry", "operator_product", "--n-dim", "2",
                "--spectrum", "1e200,0", "--spectrum", "1e200,0", "--spectrum", "0,0",
                "--observable", "norm_ratio", "--trials", "8", "--seed", "1", "--output", "json",
            )
        assert code == EXIT_PASS, err
        row = parse_json(out)[0]
        assert (row["prediction_mean"], row["mc_mean"], row["verdict"]) == (0.0, 0.0, "pass")

    def test_norm_product_past_the_double_range(self, capsys):
        # The running norm product passes the double range, the final one
        # does not: mc_mean read inf, with exit 3.
        argv = ["--geometry", "operator_product", "--n-dim", "2", "--spectrum", "1e200,1e199",
                "--spectrum", "1e200,1e199", "--spectrum", "1e-100,1e-101",
                "--observable", "norm_ratio", "--trials", "8", "--seed", "1", "--output", "json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "compare", *argv)
        assert (code, err) == (EXIT_PASS, "")
        assert parse_json(out)[0]["mc_mean"] == 2.5832831611067217e299

    @pytest.mark.parametrize("observable", ["cosine", "norm_ratio"])
    def test_tiny_spectrum_is_measured(self, capsys, observable):
        # Every row read as degenerate against an absolute norm of 1e-150:
        # the measured cosine mean was nan (exit 3), the norm ratio 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "compare", "--geometry", "operator", "--n-dim", "3",
                "--spectrum", "1e-200,2e-200,3e-200", "--observable", observable,
                "--trials", "64", "--seed", "1", "--output", "json",
            )
        assert code in (EXIT_PASS, EXIT_FAIL) and err == ""
        row = parse_json(out)[0]
        assert row["mc_mean"] == pytest.approx(row["prediction_mean"], rel=0.05, abs=0.0)

    def test_expect_mean_override_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--geometry", "sphere", "--n-dim", "12",
            "--angles", "1.0471975511965976", "--trials", "1000", "--seed", "5",
            "--expect-mean", "0.9", "--output", "csv",
        )
        assert code == EXIT_FAIL
        _, rows = parse_row_csv(out)
        assert rows[0]["verdict"] == "fail"

    def test_operator_spectrum_file(self, capsys, tmp_path):
        # Plumbing only: the row is the library's compare at the same seed.
        # The norm_ratio verdict itself is not pinned, because its target is
        # a concentration value about 2.5 standard errors above E[sqrt(Y)]
        # at 4000 trials (see test_operator_norm_ratio_concentration_bias).
        spectrum = [(j + 1) / 60 for j in range(60)]
        spec_file = tmp_path / "spectrum.txt"
        spec_file.write_text("".join(f"{v}\n" for v in spectrum))
        code, out, _ = run_cli(
            capsys, "compare", "--geometry", "operator", "--spectra-file",
            str(spec_file), "--observable", "norm_ratio", "--trials", "4000",
            "--seed", "11", "--output", "csv",
        )
        _, rows = parse_row_csv(out)
        pred = prediction_for("operator", [spectrum], 60, "norm_ratio")
        est = estimate(ExperimentSpec("operator", 60, [spectrum], 4000, 11, "norm_ratio"))
        report = compare(pred, est)

        def cell(value):
            return "" if value is None else "%.17g" % value

        assert rows == [{
            "experiment": "compare",
            "geometry": "operator",
            "n_dim": "60",
            "schedule": ";".join(cell(v) for v in sorted(spectrum, reverse=True)),
            "trials": "4000",
            "seed": "11",
            "prediction_mean": cell(pred.mean),
            "sigma_exact": cell(pred.sigma_exact),
            "sigma_bound": cell(pred.sigma_bound),
            "mc_mean": cell(est.mean),
            "mc_std": cell(est.sample_std),
            "std_error": cell(est.std_error),
            "z_mean": cell(report.z_mean),
            "std_ratio": cell(report.std_ratio),
            "verdict": report.verdict,
        }]
        assert code == {"pass": EXIT_PASS, "fail": EXIT_FAIL}[report.verdict]

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_operator_norm_ratio_concentration_bias(self, seed):
        # Y = ||Av||^2 has mean m = mean(s^2) and variance
        # 2 Var(s^2)/(n + 2), so E[sqrt(Y)] = sqrt(m) - Var(Y)/(8 m^1.5) to
        # second order.  The prediction is the concentration value sqrt(m),
        # about 20 standard errors above the estimate at 2^18 trials.
        n = 60
        s = np.arange(1, n + 1) / n
        m = float(np.mean(s**2))
        centre = math.sqrt(m) - 2.0 * float(np.var(s**2)) / (n + 2) / (8.0 * m**1.5)
        est = estimate(ExperimentSpec("operator", n, [s], 2**18, seed, "norm_ratio"))
        assert abs(est.mean - centre) <= 4.0 * est.std_error
        pred = prediction_for("operator", [s], n, "norm_ratio")
        assert (est.mean - pred.mean) / est.std_error < -4.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("--geometry", "flat", "--n-dim", "3", "--steps", "1e150,1e150", "--trials", "2048"),
            ("--geometry", "hyperbolic", "--n-dim", "3", "--arcs", "150,150,150", "--trials", "2048"),
            ("--geometry", "marginal", "--power", "2", "--n-dim", str(10**300), "--trials", "20000"),
            ("--geometry", "hyperbolic", "--n-dim", "3", "--arcs", "236,236,236", "--trials", "64"),
        ],
        ids=["flat-1e150", "hyperbolic-150", "marginal-n1e300", "hyperbolic-236"],
    )
    def test_spread_past_the_square_range_ends_in_a_verdict(self, capsys, argv):
        # Deviations of about 1e300, 1e194 and 1e-300, whose squares leave
        # the double range, and values near 1e306, whose chunk sum does: the
        # chunk statistics scale them, so each run ends in a verdict with the
        # spread measured.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "compare", *argv, "--seed", "1", "--output", "json")
        assert code == EXIT_PASS, err
        row = parse_json(out)[0]
        assert row["verdict"] == "pass"
        assert 0.9 <= row["std_ratio"] <= 1.1

    @pytest.mark.parametrize(
        "angles, trials",
        [("1e-12,1e-300,1.5707963267948966,0.0", "1"), ("3.141592653589793,1.4198346486560234", "4096")],
        ids=["right-angle", "pi-first"],
    )
    def test_kernel_snaps_angles_as_the_predictor_does(self, capsys, angles, trials):
        # Both chains are deterministic once sines within 1e-12 of 0 and pi
        # and cosines within 1e-12 of pi/2 are 0, and the kernel takes the
        # predictor's snapped steps, so it meets the prediction exactly.
        code, out, err = run_cli(
            capsys, "compare", "--geometry", "sphere", "--n-dim", "3", "--angles", angles,
            "--trials", trials, "--seed", "1", "--output", "json",
        )
        assert code == EXIT_PASS, err
        row = parse_json(out)[0]
        assert (row["verdict"], row["z_mean"], row["mc_mean"]) == ("pass", 0.0, row["prediction_mean"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--geometry", "sphere", "--n-dim", "3", "--angles", "0.3", "--trials", "35",
             "--seed", "8"],
            ["--geometry", "sphere", "--n-dim", "3", "--angles", "0.3,1e-12", "--trials", "35",
             "--seed", "8"],
            ["--geometry", "hyperbolic", "--n-dim", "10", "--arcs", "20", "--trials", "20",
             "--seed", "5"],
            ["--geometry", "flat", "--n-dim", "3", "--steps", "1e-150", "--trials", "25",
             "--seed", "1"],
        ],
        ids=["sphere", "sphere-snapped", "hyperbolic", "flat-1e-150"],
    )
    def test_constant_chain_mean_is_exact(self, capsys, argv):
        # fsum / count of these constants was an ulp off, so every deviation
        # was an ulp and z read 5.83, -4.36 and 4.90; the chunk mean is now
        # correctly rounded, in the chunk's frame.
        code, out, err = run_cli(capsys, "compare", *argv, "--output", "json")
        assert code == EXIT_PASS, err
        row = parse_json(out)[0]
        assert (row["verdict"], row["z_mean"], row["mc_std"]) == ("pass", 0.0, 0.0)
        assert row["mc_mean"] == row["prediction_mean"]

    def test_one_arc_hyperbolic_mean_is_exact(self, capsys):
        # The kernel reports cosh(20) exactly, and so does the prediction now
        # (exp of the log-cosh sum was 8 ulps off: z = -inf).
        code, out, err = run_cli(
            capsys, "compare", "--geometry", "hyperbolic", "--n-dim", "10", "--arcs", "20",
            "--trials", "32", "--seed", "5", "--output", "json",
        )
        assert code == EXIT_PASS, err
        row = parse_json(out)[0]
        assert (row["verdict"], row["z_mean"], row["mc_mean"]) == ("pass", 0.0, math.cosh(20.0))
        assert row["prediction_mean"] == math.cosh(20.0)

    def test_hyperbolic_with_std_gate(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--geometry", "hyperbolic", "--n-dim", "50",
            "--arcs", "0.5,0.5", "--trials", "20000", "--seed", "19",
            "--require-std", "--output", "csv",
        )
        assert code == EXIT_PASS
        _, rows = parse_row_csv(out)
        assert rows[0]["verdict"] == "pass"
        assert 0.9 <= float(rows[0]["std_ratio"]) <= 1.1

    def test_flat_short_step_sigma_is_checked(self, capsys):
        # sigma = 2e-9 / sqrt(10); the cancelling identity gave 0, and the
        # std gate then read indeterminate (exit 1)
        code, out, err = run_cli(
            capsys, "compare", "--geometry", "flat", "--n-dim", "10", "--steps", "1,1e-9",
            "--trials", "4096", "--seed", "1", "--require-std", "--output", "csv",
        )
        assert code == EXIT_PASS, err
        row = parse_row_csv(out)[1][0]
        assert row["verdict"] == "pass"
        assert float(row["sigma_exact"]) == pytest.approx(6.324555320336759e-10, rel=1e-15)
        assert 0.9 <= float(row["std_ratio"]) <= 1.1

    def test_hyperbolic_long_arcs_finish(self, capsys):
        # arcs of 5 at n=10 reach Minkowski products near 1e6; the scalar
        # recursion has no sheet to drift off, so this is a verdict, not a
        # configuration error
        code, out, _ = run_cli(
            capsys, "compare", "--geometry", "hyperbolic", "--n-dim", "10",
            "--arcs", "5,5,5", "--trials", "2048", "--seed", "23", "--output", "csv",
        )
        assert code in (EXIT_PASS, EXIT_FAIL)
        _, rows = parse_row_csv(out)
        assert len(rows) == 1
        for key in ("prediction_mean", "mc_mean", "mc_std", "std_error", "z_mean"):
            assert math.isfinite(float(rows[0][key]))


# Operator spectra from magnitudes that reach the subnormals, the edge of
# the double range and the values between, with either sign, zero included.
_MAGNITUDES = (0.0, 5e-324, 1e-300, 1e-5, 0.5, 1.0, 20.0, 1e150, 1e308)


@st.composite
def _operator_argvs(draw):
    # predict, simulate or compare on operator or operator_product, n in
    # {1, 2, 3, 4, 7}, 1 to 64 trials; each spectrum in the --spectrum=
    # form, so that a leading minus is a value, not a flag.
    command = draw(st.sampled_from(["predict", "simulate", "compare"]))
    geometry = draw(st.sampled_from(["operator", "operator_product"]))
    n = draw(st.sampled_from([1, 2, 3, 4, 7]))
    value = st.builds(lambda m, sign: sign * m, st.sampled_from(_MAGNITUDES), st.sampled_from([1.0, -1.0]))
    factors = draw(st.integers(1, 1 if geometry == "operator" else 3))
    argv = [command, "--geometry", geometry, "--output", "json"]
    for _ in range(factors):
        argv.append("--spectrum=" + ",".join(repr(v) for v in draw(st.lists(value, min_size=n, max_size=n))))
    argv += ["--observable", draw(st.sampled_from(["cosine", "norm_ratio"]))]
    if command != "predict":
        argv += ["--trials", str(draw(st.integers(1, 64))), "--seed", str(draw(st.integers(0, 9)))]
    return argv


class TestOperatorFuzz:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_operator_argvs())
    def test_operator_rows_exit_with_a_documented_code(self, argv):
        # No traceback and no warning over the operator rows' input domain:
        # a result, a verdict, or a documented exit code.
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_NUMERIC)


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "geometry": "flat", "n_dim": 10, "steps": "1,1",
            "trials": 500, "seed": 7, "output": "csv",
        }))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_PASS
        _, rows = parse_row_csv(out)
        assert rows[0]["geometry"] == "flat"
        assert int(rows[0]["seed"]) == 7

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "geometry": "flat", "n_dim": 10, "steps": "1,1",
            "trials": 500, "seed": 7,
        }))
        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--seed", "8", "--output", "csv",
        )
        assert code == EXIT_PASS
        _, rows = parse_row_csv(out)
        assert int(rows[0]["seed"]) == 8

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"geometry": "flat", "stepz": "1,1"}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "stepz" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "absent.json"),
        )
        assert code == EXIT_CONFIG

    @staticmethod
    def _run_config(capsys, tmp_path, command, fields):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(fields))
        return run_cli(capsys, command, "--config", str(cfg))

    _FLAT = {"geometry": "flat", "n_dim": 10, "steps": "1,1", "trials": 50, "seed": 7}

    @pytest.mark.parametrize(
        "command, fields, message",
        [
            ("simulate", {"geometry": "marginal", "power": 2.5},
             "field power: expected an integer, got 2.5"),
            ("simulate", {"trials": 100.7}, "field trials: expected an integer, got 100.7"),
            ("simulate", {"seed": 1.9}, "field seed: expected an integer, got 1.9"),
            ("simulate", {"workers": 2.7}, "field workers: expected an integer, got 2.7"),
            ("predict", {"n_dim": 7.5}, "field n_dim: expected an integer, got 7.5"),
            ("simulate", {"trials": True}, "field trials: expected an integer, got True"),
            ("compare", {"z_threshold": "four"}, "field z_threshold: invalid float value 'four'"),
            ("compare", {"expect_mean": [1.0]}, "field expect_mean: expected a number, got [1.0]"),
            ("compare", {"z_threshold": 10**400}, "field z_threshold: "),
            ("simulate", {"trials": "100.7"}, "field trials: invalid int value '100.7'"),
            ("predict", {"geometry": "sphere", "angles": [True]},
             "field angles: could not parse [True]"),
            # open() would take these integers as file descriptors.
            ("predict", {"output_path": 1}, "field output_path: expected a file path, got 1"),
            ("predict", {"geometry": "kappa", "curvature_file": 0},
             "field curvature_file: expected a file path, got 0"),
            ("predict", {"geometry": "operator", "spectra_file": [0]},
             "field spectra_file: expected a file path, got [0]"),
            ("predict", {"geometry": "operator", "spectra_file": 0},
             "field spectra_file: expected a file path, got 0"),
            # Only spectra_file, whose flag repeats, takes a list of paths.
            ("predict", {"output_path": ["x.csv"]},
             "field output_path: expected a file path, got ['x.csv']"),
            ("predict", {"geometry": "kappa", "curvature_file": ["p.txt"]},
             "field curvature_file: expected a file path, got ['p.txt']"),
        ],
    )
    def test_values_of_the_wrong_type_rejected(self, capsys, tmp_path, command, fields, message):
        # A cast would run power 2 for 2.5 and 100 trials for 100.7: each is an error.
        base = dict(self._FLAT)
        if fields.get("geometry", "flat") != "flat":
            del base["steps"]
        code, out, err = self._run_config(capsys, tmp_path, command, {**base, **fields})
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("config error: " + message), err

    def test_string_require_std_rejected(self, capsys, tmp_path):
        # Read for truth, "false" would demand the sigma gate: an indeterminate verdict.
        fields = {"geometry": "operator", "spectrum": "1,1,1,1", "trials": 64, "seed": 1,
                  "output": "csv"}
        code, out, err = self._run_config(capsys, tmp_path, "compare", {**fields, "require_std": "false"})
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "config error: field require_std: expected true or false, got 'false'\n"
        code, out, _ = self._run_config(capsys, tmp_path, "compare", {**fields, "require_std": False})
        assert code == EXIT_PASS
        assert parse_row_csv(out)[1][0]["verdict"] == "pass"
        code, out, _ = self._run_config(capsys, tmp_path, "compare", {**fields, "require_std": True})
        assert code == EXIT_FAIL
        assert parse_row_csv(out)[1][0]["verdict"] == "indeterminate"

    def test_strings_parse_as_flag_text(self, capsys, tmp_path):
        # A string value of every int and float option reads as the flag's
        # text would: "500" trials, "4.5" z.  power needs the marginal row.
        cases = [
            ({"geometry": "flat", "steps": "1,1", "n_dim": "10", "trials": "500", "seed": "7",
              "workers": "2", "expect_mean": "2.5", "z_threshold": "4.5", "std_tolerance": "0.2"},
             "prediction_mean", "2.5"),
            ({"geometry": "marginal", "power": "4", "n_dim": "6", "trials": "64", "seed": "3"},
             "schedule", "4"),
        ]
        for texts, column, want in cases:
            code, out, _ = self._run_config(capsys, tmp_path, "compare", {**texts, "output": "csv"})
            flags = ["compare", "--output", "csv"]
            for key, text in texts.items():
                flags += ["--" + key.replace("_", "-"), text]
            assert (code, out) == run_cli(capsys, *flags)[:2]
            row = parse_row_csv(out)[1][0]
            assert [row[key] for key in ("n_dim", "trials", "seed", column)] == [
                texts["n_dim"], texts["trials"], texts["seed"], want
            ]

    def test_spectrum_as_one_list_of_numbers(self, capsys, tmp_path):
        # A config spectrum that is one JSON list of numbers is one factor,
        # as the same numbers in a --spectrum flag are.
        want = prediction_for("operator", [0.5, 1.0], 2)
        for command, run in (("predict", {}), ("compare", {"trials": 64, "seed": 1})):
            fields = {"geometry": "operator", "spectrum": [0.5, 1.0], "output": "csv", **run}
            code, out, err = self._run_config(capsys, tmp_path, command, fields)
            flags = [command, "--geometry", "operator", "--spectrum", "0.5,1", "--output", "csv"]
            for key, value in run.items():
                flags += ["--" + key, str(value)]
            assert (code, out, err) == run_cli(capsys, *flags)
            assert code in (EXIT_PASS, EXIT_FAIL), err
            if command == "predict":
                assert float(parse_field_csv(out)["mean"]) == want.mean
            else:
                row = parse_row_csv(out)[1][0]
                assert (row["schedule"], float(row["prediction_mean"])) == ("1;0.5", want.mean)

    def test_integer_for_float_field_renders_as_float(self, capsys, tmp_path):
        fields = {**self._FLAT, "expect_mean": 2, "output": "json"}
        code, out, _ = self._run_config(capsys, tmp_path, "compare", fields)
        flags = ["compare", "--geometry", "flat", "--n-dim", "10", "--steps", "1,1",
                 "--trials", "50", "--seed", "7", "--expect-mean", "2", "--output", "json"]
        assert (code, out) == run_cli(capsys, *flags)[:2]
        assert '"prediction_mean": 2.0' in out


class TestInputFiles:
    def test_spectra_file_skips_blanks_and_comments(self, capsys, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("3\n2\n1\n")
        padded = tmp_path / "padded.txt"
        padded.write_text("# spectrum\n  3  \n\n\t2\n   # indented comment\n1\n\n")
        outs = []
        for path in (plain, padded):
            code, out, err = run_cli(
                capsys, "compare", "--geometry", "operator", "--spectra-file", str(path),
                "--trials", "64", "--seed", "2", "--output", "csv",
            )
            assert code in (EXIT_PASS, EXIT_FAIL), err
            outs.append(out)
        assert outs[0] == outs[1]
        assert parse_row_csv(outs[0])[1][0]["schedule"] == "3;2;1"

    def test_curvature_file_skips_blanks_and_comments(self, capsys, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("1.0 0.0 0.0 2.0\n0.5 1.0 1.0 1.0\n")
        padded = tmp_path / "padded.txt"
        padded.write_text("# d kappa...\n\n   1.0  0.0 0.0\t2.0  \n# between\n 0.5 1.0 1.0 1.0\n\n")
        outs = [
            run_cli(capsys, "predict", "--geometry", "kappa", "--curvature-file", str(path),
                    "--output", "csv")
            for path in (plain, padded)
        ]
        assert outs[0] == outs[1]
        assert outs[0][0] == EXIT_PASS
        assert parse_field_csv(outs[0][1])["steps"] == "2"

    @pytest.mark.parametrize(
        "geometry, flag, text, message",
        [
            ("operator", "--spectra-file", "1\n# note\n2 3\n",
             "field spectra_file: bad line '2 3' in {path!r}"),
            ("operator", "--spectra-file", "# only a comment\n\n  \n",
             "field spectra_file: no values in {path!r}"),
            ("operator", "--spectra-file", None,
             "field spectra_file: cannot read {path!r} ([Errno 2] No such file or directory: {path!r})"),
            ("kappa", "--curvature-file", "1.0 0.5 x\n",
             "field curvature_file: bad row '1.0 0.5 x' in {path!r}"),
            ("kappa", "--curvature-file", "# width 1\n 0.5 \n",
             "field curvature_file: row '0.5' needs a step width and at least one curvature"),
            ("kappa", "--curvature-file", "1.0 0.5 0.5\n1.0 0.5\n",
             "field curvature_file: all steps must list the same number of curvatures"),
            ("kappa", "--curvature-file", "\n# nothing\n",
             "field curvature_file: no rows in {path!r}"),
            ("kappa", "--curvature-file", None,
             "field curvature_file: cannot read {path!r} ([Errno 2] No such file or directory: {path!r})"),
        ],
    )
    def test_reader_errors(self, capsys, tmp_path, geometry, flag, text, message):
        path = tmp_path / "input.txt"
        if text is not None:
            path.write_text(text)
        code, out, err = run_cli(capsys, "predict", "--geometry", geometry, flag, str(path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "config error: " + message.format(path=str(path)) + "\n"

    @pytest.mark.parametrize("row", ["1e200 1e200 1e200", "1e200 1e200 1"])
    @pytest.mark.parametrize("command", ["predict", "compare"])
    def test_curvature_overflow_is_a_usage_error(self, capsys, tmp_path, row, command):
        # Was: numpy overflow warnings, then an all-zero-spectrum error (first
        # row), or a zero weight that predict accepted and compare ran to a
        # nan mean (second row).
        path = tmp_path / "curvature.txt"
        path.write_text(row + "\n")
        extra = ("--trials", "64", "--seed", "1") if command == "compare" else ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, command, "--geometry", "kappa", "--curvature-file", str(path), *extra
            )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (
            "config error: field curvature_file: step 0: 1 + d*kappa overflows the double range\n"
        )


class TestTable:
    def test_sweep_n_dim(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--geometry", "sphere", "--angles", "1.0471975511965976",
            "--sweep-n-dim", "5..8", "--trials", "200", "--seed", "9", "--output", "csv",
        )
        assert code == EXIT_PASS
        _, rows = parse_row_csv(out)
        assert [int(r["n_dim"]) for r in rows] == [5, 6, 7, 8]
        # deterministic single-step rows all pass with distinct derived seeds
        assert {r["verdict"] for r in rows} == {"pass"}
        assert [int(r["seed"]) for r in rows] == [9, 10, 11, 12]

    def test_sweep_m_repeats_schedule_head(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--geometry", "flat", "--n-dim", "30", "--steps", "1",
            "--sweep-m", "1,2,3", "--trials", "3000", "--seed", "14", "--output", "csv",
        )
        assert code == EXIT_PASS
        _, rows = parse_row_csv(out)
        assert [r["schedule"] for r in rows] == ["1", "1;1", "1;1;1"]
        assert {r["verdict"] for r in rows} == {"pass"}

    def test_requires_exactly_one_axis(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--geometry", "flat", "--n-dim", "5", "--steps", "1",
            "--trials", "10", "--seed", "1",
        )
        assert code == EXIT_CONFIG
        code, _, err = run_cli(
            capsys, "table", "--geometry", "flat", "--n-dim", "5", "--steps", "1",
            "--sweep-n-dim", "5..6", "--sweep-m", "1..2", "--trials", "10", "--seed", "1",
        )
        assert code == EXIT_CONFIG

    def test_config_sweep_takes_integers(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        base = {"geometry": "sphere", "angles": "1.0471975511965976", "trials": 10, "seed": 1,
                "output": "csv"}
        cfg.write_text(json.dumps({**base, "sweep_n_dim": [3, "5"]}))
        code, out, _ = run_cli(capsys, "table", "--config", str(cfg))
        assert code == EXIT_PASS
        assert [row["n_dim"] for row in parse_row_csv(out)[1]] == ["3", "5"]
        for sweep in ([3.7, 5], [True]):  # a cast would run n = 3 and n = 1
            cfg.write_text(json.dumps({**base, "sweep_n_dim": sweep}))
            code, out, err = run_cli(capsys, "table", "--config", str(cfg))
            assert (code, out) == (EXIT_CONFIG, "")
            assert err == f"config error: field sweep_n_dim: could not parse {sweep!r}\n"

    def test_every_point_checked_before_any_runs(self, capsys):
        # n = 5 is valid, n = 2 is not: nothing runs and nothing is written.
        code, out, err = run_cli(
            capsys, "table", "--geometry", "sphere", "--angles", "0.5",
            "--sweep-n-dim", "5,2", "--trials", "10", "--seed", "1",
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "config error: sphere experiments need n_dim >= 3, got 2\n"

    def test_seeds_wrap_in_table_only(self, capsys):
        sphere = ["--geometry", "sphere", "--n-dim", "4", "--angles", "0.5", "--trials", "10"]
        code, out, _ = run_cli(
            capsys, "table", *sphere, "--sweep-n-dim", "4,5", "--seed", str(2**64 - 1),
            "--output", "csv",
        )
        assert code == EXIT_PASS
        assert [row["seed"] for row in parse_row_csv(out)[1]] == [str(2**64 - 1), "0"]
        for command, sweep in (("compare", []), ("table", ["--sweep-n-dim", "4,5"])):
            for seed in (-1, 2**64):
                code, out, err = run_cli(capsys, command, *sphere, *sweep, "--seed", str(seed))
                assert (code, out) == (EXIT_CONFIG, "")
                assert err == "config error: seed must fit in an unsigned 64-bit integer\n"

    def test_empty_sweep_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--geometry", "flat", "--n-dim", "5", "--steps", "1",
            "--sweep-m", "", "--trials", "10", "--seed", "1",
        )
        assert code == EXIT_CONFIG

    def test_operator_sweep_m_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--geometry", "operator", "--spectrum", "1,2",
            "--sweep-m", "1..2", "--trials", "10", "--seed", "1",
        )
        assert code == EXIT_CONFIG
        assert "operator_product" in err


# A valid value for every schedule flag, and the flags each geometry reads.
_SCHEDULE_FLAGS = {
    "--angles": "0.5", "--steps": "1", "--arcs": "1", "--spectrum": "1,2,3",
    "--spectra-file": None, "--curvature-file": None, "--kind": "x1_sq", "--power": "2",
}
_GEOMETRY_FLAGS = {
    "sphere": ("--angles",), "flat": ("--steps",), "hyperbolic": ("--arcs",),
    "operator": ("--spectrum", "--spectra-file"),
    "operator_product": ("--spectrum", "--spectra-file"),
    "monomial": ("--kind",), "marginal": ("--power",), "kappa": ("--curvature-file",),
}


class TestScheduleFlags:
    def test_table_covers_every_geometry(self):
        assert set(_GEOMETRY_FLAGS) == set(randsteps.GEOMETRIES)
        flags = {g: tuple("--" + f.replace("_", "-") for f in fields)
                 for g, (fields, _) in randsteps.cli._SCHEDULES.items()}
        assert flags == _GEOMETRY_FLAGS

    @pytest.mark.parametrize("geometry", sorted(_GEOMETRY_FLAGS))
    def test_unused_schedule_flags_exit_2(self, capsys, tmp_path, geometry):
        spectrum_file = tmp_path / "spectrum.txt"
        spectrum_file.write_text("1\n2\n3\n")
        path_file = tmp_path / "path.txt"
        path_file.write_text("1.0 0.0 0.5 2.0\n")
        values = dict(_SCHEDULE_FLAGS)
        values["--spectra-file"] = str(spectrum_file)
        values["--curvature-file"] = str(path_file)
        used = _GEOMETRY_FLAGS[geometry]
        base = ["predict", "--geometry", geometry, "--n-dim", "3", used[0], values[used[0]]]
        code, _, err = run_cli(capsys, *base)
        assert code == EXIT_PASS, err
        for flag in values:
            if flag not in used:
                code, _, err = run_cli(capsys, *base, flag, values[flag])
                assert code == EXIT_CONFIG, flag
                assert "not used by geometry" in err


_SPHERE_RUN = ["--geometry", "sphere", "--n-dim", "12", "--angles", "1.0", "--trials", "64",
               "--seed", "5"]

# Every subcommand's flags; values that their kinds and choices take or
# reject, among them negative numbers and the empty text; and tokens that
# only the full parser reads.
_FLAG_OPTIONS = {flag: option for command in _SUBCOMMANDS
                 for flag, (_, option) in _flags(command).items()}
_FLAG_TOKENS = sorted(_FLAG_OPTIONS)
_VALUE_TOKENS = ["3", " 7", "1.5", "1e3", "nan", "-2", "-0.5", "", "1,0.5", "3..5", "csv", "xml",
                 "sphere", "bogus", "degrees", "norm_ratio", "x1_4"]
_OTHER_TOKENS = ["--geom", "--angles=1.0", "--seed=1", "--out", "-h", "--help", "--", "stray"]


def _fitting(flag):
    # A value that the flag's kind and choices take.
    option = _FLAG_OPTIONS[flag]
    if option.choices:
        return option.choices[-1]
    return {"int": "12", "float": "0.25"}.get(option.kind, "1,0.5")


@st.composite
def _argvs(draw):
    """A subcommand, then 0 to 8 tokens: flag and value pairs, the flag its
    own or another subcommand's; flags alone (a trailing one among them);
    and the full parser's own tokens."""
    command = draw(st.sampled_from(list(_SUBCOMMANDS)))
    flag = st.sampled_from(list(_flags(command))) | st.sampled_from(_FLAG_TOKENS)
    value = st.sampled_from(_VALUE_TOKENS)
    pair = flag.flatmap(lambda f: st.tuples(st.just(f), st.just(_fitting(f)) | value))
    single = st.sampled_from(_FLAG_TOKENS + _OTHER_TOKENS + _VALUE_TOKENS).map(lambda t: (t,))
    chunks = draw(st.lists(pair | single, max_size=4))
    return [command, *(token for chunk in chunks for token in chunk)]


class TestParsing:
    @pytest.mark.parametrize("argv", [
        ["predict", "--geometry", "sphere", "--n-dim", "5", "--angles", "0.5,1",
         "--angle-unit", "degrees"],
        ["predict"],
        ["simulate", "--geometry", "flat", "--steps", "1,2", "--trials", "64", "--seed", "-3"],
        ["compare", "--geometry", "operator_product", "--spectrum", "1,2", "--spectrum", "3,4",
         "--observable", "norm_ratio", "--require-std", "--z-threshold", "3", "--output", "json",
         "--trials", "64", "--seed", "5"],
        ["compare", "--geom", "sphere", "--angles=1.0", "--n-dim", "5"],
        ["table", "--geometry", "sphere", "--angles", "1", "--sweep-n-dim", "3..5",
         "--config", "run.json", "--output-path", "out.csv", "--workers", "2"],
        ["selftest", "--workers", "2", "--output", "csv"],
        ["compare", "--seed", "1", "--seed", "2"],
    ])
    def test_subcommand_parser_gives_the_full_parsers_namespace(self, argv):
        assert vars(_parse(argv)) == vars(build_parser().parse_args(argv))

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_argvs())
    def test_walk_reads_argv_as_the_full_parser_does(self, argv):
        # The walk hands any argv it cannot read exactly to the full parser;
        # what it reads, it reads to the same keys, in the same order, and
        # to values of the same type (repr tells True from 1, and nan is
        # not equal to itself).
        args = _walk(argv)
        if args is not None:
            assert repr(vars(args)) == repr(vars(build_parser().parse_args(argv)))

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["compare", "--help"], ["bogus"], ["--seed", "1", "compare"],
        ["--seed", "1", "compare", *_SPHERE_RUN], ["compare", *_SPHERE_RUN, "stray"],
        ["compare", "--geom", "sphere", *_SPHERE_RUN[2:]], ["predict", "--bogus"],
        ["compare", *_SPHERE_RUN, "--trials", "1.5"], ["compare", "--", "x"],
        ["compare", *_SPHERE_RUN, "--seed"], ["compare", *_SPHERE_RUN, "--output", "xml"],
    ])
    def test_outputs_match_the_full_parsers(self, capsys, monkeypatch, argv):
        # Exit code, stdout and stderr of main against main through the full
        # parser alone, usage lines and help text among them.
        monkeypatch.setenv("COLUMNS", "80")
        fast = run_cli(capsys, *argv)
        monkeypatch.setattr(randsteps.cli, "_parse", lambda argv: build_parser().parse_args(argv))
        assert fast == run_cli(capsys, *argv)

    def test_no_subcommand_is_config_error(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_PASS

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["predict", "--bogus"]) == EXIT_CONFIG

    def test_parser_keeps_no_state_between_calls(self, capsys):
        # main() reuses one parser per process: repeated --spectrum flags of
        # one call must not reach the next, and usage errors still exit 2.
        code, out, _ = run_cli(
            capsys, "predict", "--geometry", "operator_product",
            "--spectrum", "1,2,3", "--spectrum", "0.5,1,2", "--output", "csv",
        )
        assert code == EXIT_PASS
        two_factors = float(parse_field_csv(out)["mean"])
        code, _, err = run_cli(
            capsys, "predict", "--geometry", "sphere", "--n-dim", "5", "--angles", "0.5",
        )
        assert code == EXIT_PASS, err
        assert main(["predict", "--geometry", "sphere", "--bogus"]) == EXIT_CONFIG
        code, out, _ = run_cli(
            capsys, "predict", "--geometry", "operator_product",
            "--spectrum", "1,2,3", "--output", "csv",
        )
        assert code == EXIT_PASS
        one_factor = float(parse_field_csv(out)["mean"])
        assert one_factor == pytest.approx(2.0 / math.sqrt(14.0 / 3.0), rel=1e-15)
        assert two_factors != one_factor

    def test_output_path_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys, "predict", "--geometry", "flat", "--steps", "3,4",
            "--output", "csv", "--output-path", str(target),
        )
        assert code == EXIT_PASS
        assert target.read_text() == out

    def test_unwritable_output_path_is_config_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(
            capsys, "predict", "--geometry", "flat", "--steps", "1,1",
            "--output-path", str(target),
        )
        assert code == EXIT_CONFIG
        assert err.startswith("config error: field output_path: cannot write")
        assert out == ""

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["predict", "--geometry", "flat", "--n-dim", "5", "--steps", "1,1",
              "--output", "json"], EXIT_PASS),
            (["compare", "--geometry", "flat", "--n-dim", "5", "--steps", "1,1", "--trials",
              "64", "--seed", "3", "--expect-mean", "5", "--output", "json"], EXIT_FAIL),
        ],
    )
    def test_closed_pipe_keeps_exit_code(self, argv, want):
        # The reader closes the pipe before the command writes, as `| head -1`
        # may: no traceback, and the command's own exit code.
        src = str(Path(randsteps.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "randsteps.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == want, err
        assert "Traceback" not in err

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "randsteps.cli", "predict", "--geometry", "flat",
             "--steps", "3,4", "--output", "csv"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_PASS
        assert "expected_norm" in proc.stdout

    @staticmethod
    def _fresh_import(check):
        # Run check in a new interpreter after importing the package and its CLI.
        src = str(Path(randsteps.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import randsteps, randsteps.cli, sys; " + check],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_no_scipy(self):
        # The package needs numpy alone; scipy is a test-only dependency.
        self._fresh_import("assert not any(m.startswith('scipy') for m in sys.modules)")

    def test_battery_quadrature_loads_no_scipy(self):
        # C11 and C13 integrate with Gauss rules built from numpy.
        self._fresh_import(
            "from randsteps import selftest; "
            "run = selftest._Run(1); "
            "assert selftest._c11_marginal(run)[0] and selftest._c13_pnorm(run)[0]; "
            "loaded = [m for m in sys.modules if m.startswith('scipy')]; assert not loaded, loaded"
        )

    def test_import_loads_no_process_machinery(self):
        # Monte Carlo chunks fan out to threads, so nothing loads multiprocessing.
        self._fresh_import(
            "loaded = [m for m in sys.modules if m.startswith('multiprocessing') "
            "or m == 'concurrent.futures.process']; assert not loaded, loaded"
        )
