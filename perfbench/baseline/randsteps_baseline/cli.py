"""Command-line front door for predictions, simulations, and comparisons.

Subcommands: predict (closed forms only), simulate (Monte Carlo only),
compare (both plus verdict), table (one comparison per sweep point), and
selftest (the fixed-seed acceptance battery).  Output renders as csv, json,
or pretty text; csv scalars use 17 significant digits so every row
re-parses to the exact values that produced it.

Exit codes: 0 pass, 1 statistical fail, 2 usage or config error, 3 numeric
failure (precision loss in a closed form).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import secrets
import sys
from dataclasses import dataclass, replace

import numpy as np

from .montecarlo import GEOMETRIES, ExperimentSpec, compare, estimate
from .predictors import (
    CurvaturePath,
    PrecisionLossError,
    _MONOMIAL_KINDS,
    flat_expected_norm,
    flat_expected_sq_norm,
    hyperbolic_expected_cosh,
    kappa_cosine_product,
    kappa_norm_product,
    prediction_for,
    sphere_expected_cosine,
)
from .sampling import Spectrum
from .selftest import battery_passed, render_csv, render_table, run_battery

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_CSV_COLUMNS = (
    "experiment",
    "geometry",
    "n_dim",
    "schedule",
    "trials",
    "seed",
    "prediction_mean",
    "sigma_exact",
    "sigma_bound",
    "mc_mean",
    "mc_std",
    "std_error",
    "z_mean",
    "std_ratio",
    "verdict",
)

_SIM_GEOMETRIES = GEOMETRIES
_ALL_GEOMETRIES = GEOMETRIES + ("kappa",)


class ConfigError(Exception):
    """Invalid flag, config field, or input file; exits with code 2."""


@dataclass
class RunConfig:
    """Merged view of config-file fields and command-line flags."""

    command: str
    geometry: str | None = None
    n_dim: int | None = None
    angles: object = None
    steps: object = None
    arcs: object = None
    spectrum: object = None
    spectra_file: object = None
    curvature_file: str | None = None
    angle_unit: str = "radians"
    kind: str | None = None
    power: int | None = None
    observable: str | None = None
    trials: int | None = None
    seed: int | None = None
    workers: int = 1
    output: str = "pretty"
    output_path: str | None = None
    expect_mean: float | None = None
    z_threshold: float = 4.0
    std_tolerance: float = 0.1
    require_std: bool = False
    sweep_n_dim: object = None
    sweep_m: object = None


_CONFIG_DEFAULTS = {
    "angle_unit": "radians",
    "workers": 1,
    "output": "pretty",
    "z_threshold": 4.0,
    "std_tolerance": 0.1,
    "require_std": False,
}

_CONFIG_KEYS = (
    "geometry",
    "n_dim",
    "angles",
    "steps",
    "arcs",
    "spectrum",
    "spectra_file",
    "curvature_file",
    "angle_unit",
    "kind",
    "power",
    "observable",
    "trials",
    "seed",
    "workers",
    "output",
    "output_path",
    "expect_mean",
    "z_threshold",
    "std_tolerance",
    "require_std",
    "sweep_n_dim",
    "sweep_m",
)


def _fmt17(value):
    return "%.17g" % value


def _fmt10(value):
    return "%.10g" % value


def _float_list(raw, field):
    """Comma string or number sequence to a list of floats."""
    if isinstance(raw, str):
        parts = [p.strip() for p in raw.split(",")]
        if any(p == "" for p in parts):
            raise ConfigError(f"field {field}: empty entry in {raw!r}")
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"field {field}: could not parse {raw!r}") from None
    if isinstance(raw, (list, tuple, np.ndarray)):
        try:
            return [float(v) for v in raw]
        except (TypeError, ValueError):
            raise ConfigError(f"field {field}: could not parse {raw!r}") from None
    raise ConfigError(f"field {field}: expected a comma list, got {raw!r}")


def _int_list(raw, field):
    """Sweep axis: 'a..b' inclusive range, comma list, or int sequence."""
    if isinstance(raw, str):
        text = raw.strip()
        if ".." in text:
            lo, _, hi = text.partition("..")
            try:
                values = list(range(int(lo), int(hi) + 1))
            except ValueError:
                raise ConfigError(f"field {field}: could not parse range {raw!r}") from None
        else:
            try:
                values = [int(p.strip()) for p in text.split(",") if p.strip() != ""]
            except ValueError:
                raise ConfigError(f"field {field}: could not parse {raw!r}") from None
    elif isinstance(raw, (list, tuple)):
        try:
            values = [int(v) for v in raw]
        except (TypeError, ValueError):
            raise ConfigError(f"field {field}: could not parse {raw!r}") from None
    else:
        raise ConfigError(f"field {field}: expected a range or comma list, got {raw!r}")
    if not values:
        raise ConfigError(f"field {field}: sweep list is empty")
    return values


def _read_column_file(path, field):
    """One float per line; blank lines and '#' comments ignored."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"field {field}: cannot read {path!r} ({exc})") from None
    values = []
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise ConfigError(f"field {field}: bad line {text!r} in {path!r}") from None
    if not values:
        raise ConfigError(f"field {field}: no values in {path!r}")
    return values


def _read_curvature_file(path, field):
    """Rows of 'd kappa_1 ... kappa_w'; every row the same width."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"field {field}: cannot read {path!r} ({exc})") from None
    steps = []
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) < 2:
            raise ConfigError(
                f"field {field}: row {text!r} needs a step width and at least one curvature"
            )
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"field {field}: bad row {text!r} in {path!r}") from None
        steps.append((row[0], tuple(row[1:])))
    if not steps:
        raise ConfigError(f"field {field}: no rows in {path!r}")
    try:
        return CurvaturePath(steps)
    except ValueError as exc:
        raise ConfigError(f"field {field}: {exc}") from None


def _load_config_file(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r} ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must hold a single JSON object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config field {key!r}: unknown")
    return data


def _resolve(args):
    """Merge config file and flags (flags win), then apply defaults."""
    file_cfg = {}
    if getattr(args, "config", None) is not None:
        file_cfg = _load_config_file(args.config)
    merged = {"command": args.command}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else file_cfg.get(key)
    for key, default in _CONFIG_DEFAULTS.items():
        if merged[key] is None:
            merged[key] = default
    cfg = RunConfig(**merged)
    if cfg.geometry is not None and cfg.geometry not in _ALL_GEOMETRIES:
        raise ConfigError(f"field geometry: unknown geometry {cfg.geometry!r}")
    if cfg.angle_unit not in ("radians", "degrees"):
        raise ConfigError(f"field angle_unit: expected radians or degrees, got {cfg.angle_unit!r}")
    if cfg.output not in ("csv", "json", "pretty"):
        raise ConfigError(f"field output: expected csv, json, or pretty, got {cfg.output!r}")
    if cfg.observable is not None and cfg.observable not in ("cosine", "norm_ratio"):
        raise ConfigError(f"field observable: expected cosine or norm_ratio, got {cfg.observable!r}")
    if cfg.kind is not None and cfg.kind not in _MONOMIAL_KINDS:
        raise ConfigError(f"field kind: expected one of {_MONOMIAL_KINDS}, got {cfg.kind!r}")
    return cfg


def _reject_unused_schedule_flags(cfg, used):
    provided = {
        "angles": cfg.angles,
        "steps": cfg.steps,
        "arcs": cfg.arcs,
        "spectrum": cfg.spectrum,
        "spectra_file": cfg.spectra_file,
        "curvature_file": cfg.curvature_file,
        "kind": cfg.kind,
        "power": cfg.power,
    }
    for field, value in provided.items():
        if value is not None and field not in used:
            raise ConfigError(f"field {field}: not used by geometry {cfg.geometry!r}")


def _spectra_from_config(cfg):
    """Spectrum factors from inline lists and one-column files, in order."""
    factors = []
    raw = cfg.spectrum
    if raw is not None:
        if isinstance(raw, str):
            groups = [raw]
        elif isinstance(raw, (list, tuple)) and raw and all(
            isinstance(g, (str, list, tuple, np.ndarray)) for g in raw
        ):
            groups = list(raw)  # one group per --spectrum flag or config sublist
        else:
            groups = [raw]  # config file: a single list of numbers
        for group in groups:
            factors.append(_float_list(group, "spectrum"))
    files = cfg.spectra_file
    if files is not None:
        if isinstance(files, str):
            files = [files]
        for path in files:
            factors.append(_read_column_file(path, "spectra_file"))
    if not factors:
        raise ConfigError("field spectrum: operator geometries need --spectrum or --spectra-file")
    return [Spectrum(np.asarray(values)) for values in factors]


def _schedule_from_config(cfg):
    """(schedule, n_dim) for the configured geometry; n_dim may stay None."""
    geometry = cfg.geometry
    if geometry is None:
        raise ConfigError("field geometry: required")
    if geometry == "sphere":
        _reject_unused_schedule_flags(cfg, ("angles",))
        if cfg.angles is None:
            raise ConfigError("field angles: required for sphere geometry")
        values = _float_list(cfg.angles, "angles")
        if cfg.angle_unit == "degrees":
            values = [math.radians(v) for v in values]
        return tuple(values), cfg.n_dim
    if geometry == "flat":
        _reject_unused_schedule_flags(cfg, ("steps",))
        if cfg.steps is None:
            raise ConfigError("field steps: required for flat geometry")
        return tuple(_float_list(cfg.steps, "steps")), cfg.n_dim
    if geometry == "hyperbolic":
        _reject_unused_schedule_flags(cfg, ("arcs",))
        if cfg.arcs is None:
            raise ConfigError("field arcs: required for hyperbolic geometry")
        return tuple(_float_list(cfg.arcs, "arcs")), cfg.n_dim
    if geometry in ("operator", "operator_product"):
        _reject_unused_schedule_flags(cfg, ("spectrum", "spectra_file"))
        factors = _spectra_from_config(cfg)
        if geometry == "operator" and len(factors) != 1:
            raise ConfigError("field spectrum: operator geometry takes exactly one spectrum")
        n_dim = cfg.n_dim
        for factor in factors:
            width = factor.values.shape[0]
            if n_dim is None:
                n_dim = width
            elif width != n_dim:
                raise ConfigError(
                    f"field n_dim: spectrum has {width} values but n_dim is {n_dim}"
                )
        return tuple(factors), n_dim
    if geometry == "monomial":
        _reject_unused_schedule_flags(cfg, ("kind",))
        if cfg.kind is None:
            raise ConfigError("field kind: required for monomial geometry")
        return cfg.kind, cfg.n_dim
    if geometry == "marginal":
        _reject_unused_schedule_flags(cfg, ("power",))
        if cfg.power is None:
            raise ConfigError("field power: required for marginal geometry")
        return int(cfg.power), cfg.n_dim
    if geometry == "kappa":
        _reject_unused_schedule_flags(cfg, ("curvature_file",))
        if cfg.curvature_file is None:
            raise ConfigError("field curvature_file: required for kappa geometry")
        return _read_curvature_file(cfg.curvature_file, "curvature_file"), cfg.n_dim
    raise ConfigError(f"field geometry: unknown geometry {geometry!r}")


def _schedule_cell(geometry, schedule):
    """Schedule column text: ';' within a factor, '|' between factors."""
    if geometry in ("operator", "operator_product"):
        return "|".join(
            ";".join(_fmt17(v) for v in factor.values) for factor in schedule
        )
    if geometry == "monomial":
        return str(schedule)
    if geometry == "marginal":
        return str(schedule)
    return ";".join(_fmt17(v) for v in schedule)


def _require_seed(cfg):
    if cfg.seed is not None:
        return int(cfg.seed)
    seed = secrets.randbits(64)
    print(f"generated seed: {seed}", file=sys.stderr)
    return seed


def _require_trials(cfg):
    if cfg.trials is None:
        raise ConfigError("field trials: required")
    return int(cfg.trials)


def _emit(text, cfg):
    print(text)
    if cfg.output_path is not None:
        with open(cfg.output_path, "w") as handle:
            handle.write(text + "\n")


def _render_fields(fields, cfg):
    """Render an ordered field->value mapping for predict-style output."""
    if cfg.output == "json":
        return json.dumps(fields, indent=2)
    if cfg.output == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["field", "value"])
        for key, value in fields.items():
            if isinstance(value, float):
                writer.writerow([key, _fmt17(value)])
            elif value is None:
                writer.writerow([key, ""])
            else:
                writer.writerow([key, value])
        return out.getvalue().rstrip("\n")
    width = max(len(k) for k in fields)
    lines = []
    for key, value in fields.items():
        if isinstance(value, float):
            text = _fmt10(value)
        elif value is None:
            text = "none"
        else:
            text = str(value)
        lines.append(f"{key:<{width}}  {text}")
    return "\n".join(lines)


def _render_rows(rows, cfg):
    """Render comparison/simulation rows in the unified column schema."""
    if cfg.output == "json":
        return json.dumps(rows, indent=2)
    if cfg.output == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for row in rows:
            cells = []
            for column in _CSV_COLUMNS:
                value = row[column]
                if value is None:
                    cells.append("")
                elif isinstance(value, float):
                    cells.append(_fmt17(value))
                else:
                    cells.append(str(value))
            writer.writerow(cells)
        return out.getvalue().rstrip("\n")
    blocks = []
    for row in rows:
        width = max(len(k) for k in row)
        lines = []
        for key, value in row.items():
            if isinstance(value, float):
                text = _fmt10(value)
            elif value is None:
                text = "none"
            else:
                text = str(value)
            lines.append(f"{key:<{width}}  {text}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _comparison_row(experiment, spec, pred, est, report):
    row = {
        "experiment": experiment,
        "geometry": spec.geometry,
        "n_dim": spec.n_dim,
        "schedule": _schedule_cell(spec.geometry, spec.schedule),
        "trials": spec.trials,
        "seed": spec.seed,
        "prediction_mean": None if pred is None else pred.mean,
        "sigma_exact": None if pred is None else pred.sigma_exact,
        "sigma_bound": None if pred is None else pred.sigma_bound,
        "mc_mean": est.mean,
        "mc_std": est.sample_std,
        "std_error": est.std_error,
        "z_mean": None if report is None else report.z_mean,
        "std_ratio": None if report is None else report.std_ratio,
        "verdict": None if report is None else report.verdict,
        "insufficient_trials": bool(est.insufficient_trials),
    }
    return row


def _strip_json_only(rows, cfg):
    """CSV keeps the fixed 15 columns; json carries insufficient_trials too."""
    if cfg.output == "json":
        return rows
    return [{k: v for k, v in row.items() if k in _CSV_COLUMNS} for row in rows]


def _build_spec(cfg, schedule, n_dim, seed, trials):
    if cfg.geometry not in _SIM_GEOMETRIES:
        raise ConfigError(f"field geometry: {cfg.geometry!r} supports predict only")
    if n_dim is None:
        raise ConfigError("field n_dim: required")
    observable = cfg.observable if cfg.geometry in ("operator", "operator_product") else None
    return ExperimentSpec(
        geometry=cfg.geometry,
        n_dim=n_dim,
        schedule=schedule,
        trials=trials,
        seed=seed,
        observable=observable,
    )


def _prediction(cfg, schedule, n_dim):
    pred = prediction_for(cfg.geometry, schedule, n_dim, observable=cfg.observable)
    if cfg.expect_mean is not None:
        pred = replace(pred, mean=float(cfg.expect_mean))
    return pred


def cmd_predict(cfg):
    schedule, n_dim = _schedule_from_config(cfg)
    if cfg.geometry == "kappa":
        fields = {
            "observable": "curvature_products",
            "steps": len(schedule.steps),
            "norm_product": kappa_norm_product(schedule),
            "cosine_product": kappa_cosine_product(schedule),
        }
        _emit(_render_fields(fields, cfg), cfg)
        return EXIT_PASS
    if n_dim is None:
        if cfg.geometry not in _DIMFREE_MEANS:
            raise ConfigError("field n_dim: required")
        # Dimension-free output: the mean needs no n, the sigmas do.
        observable, mean_fn = _DIMFREE_MEANS[cfg.geometry]
        fields = {
            "observable": observable,
            "mean": mean_fn(schedule),
            "sigma_exact": None,
            "sigma_bound": None,
            "deviation_order": None,
        }
    else:
        pred = _prediction(cfg, schedule, n_dim)
        fields = {
            "observable": pred.observable,
            "mean": pred.mean,
            "sigma_exact": pred.sigma_exact,
            "sigma_bound": pred.sigma_bound,
            "deviation_order": pred.deviation_order,
        }
    if cfg.geometry == "flat":
        fields["expected_norm"] = flat_expected_norm(schedule)
    _emit(_render_fields(fields, cfg), cfg)
    return EXIT_PASS


# Chain means are dimension-independent, so predict accepts these three
# geometries without --n-dim and reports the mean alone.
_DIMFREE_MEANS = {
    "sphere": ("cosine", sphere_expected_cosine),
    "flat": ("squared_norm", flat_expected_sq_norm),
    "hyperbolic": ("minkowski_inner", hyperbolic_expected_cosh),
}


def cmd_simulate(cfg):
    schedule, n_dim = _schedule_from_config(cfg)
    seed = _require_seed(cfg)
    trials = _require_trials(cfg)
    spec = _build_spec(cfg, schedule, n_dim, seed, trials)
    est = estimate(spec, workers=int(cfg.workers))
    rows = _strip_json_only([_comparison_row("simulate", spec, None, est, None)], cfg)
    _emit(_render_rows(rows, cfg), cfg)
    return EXIT_PASS


def cmd_compare(cfg):
    schedule, n_dim = _schedule_from_config(cfg)
    seed = _require_seed(cfg)
    trials = _require_trials(cfg)
    spec = _build_spec(cfg, schedule, n_dim, seed, trials)
    pred = _prediction(cfg, schedule, spec.n_dim)
    est = estimate(spec, workers=int(cfg.workers))
    report = compare(
        pred,
        est,
        z_threshold=float(cfg.z_threshold),
        std_tolerance=float(cfg.std_tolerance),
        require_std=bool(cfg.require_std),
    )
    rows = _strip_json_only([_comparison_row("compare", spec, pred, est, report)], cfg)
    _emit(_render_rows(rows, cfg), cfg)
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def cmd_table(cfg):
    schedule, n_dim = _schedule_from_config(cfg)
    axes = [axis for axis in (cfg.sweep_n_dim, cfg.sweep_m) if axis is not None]
    if len(axes) != 1:
        raise ConfigError("field sweep: exactly one of --sweep-n-dim or --sweep-m")
    seed = _require_seed(cfg)
    trials = _require_trials(cfg)
    rows = []
    worst = EXIT_PASS
    if cfg.sweep_n_dim is not None:
        points = _int_list(cfg.sweep_n_dim, "sweep_n_dim")
        variants = [(point, schedule) for point in points]
    else:
        if cfg.geometry in ("monomial", "marginal"):
            raise ConfigError("field sweep_m: not defined for this geometry")
        if cfg.geometry == "operator":
            raise ConfigError("field sweep_m: use operator_product to sweep factor counts")
        points = _int_list(cfg.sweep_m, "sweep_m")
        if len(schedule) == 0:
            raise ConfigError("field sweep_m: schedule needs at least one entry to repeat")
        if min(points) < 0:
            raise ConfigError("field sweep_m: step counts must be >= 0")
        variants = [(n_dim, (schedule[0],) * point) for point in points]
    for index, (point_n, point_schedule) in enumerate(variants):
        row_seed = (seed + index) % 2**64
        spec = _build_spec(cfg, point_schedule, point_n, row_seed, trials)
        pred = _prediction(cfg, point_schedule, spec.n_dim)
        est = estimate(spec, workers=int(cfg.workers))
        report = compare(
            pred,
            est,
            z_threshold=float(cfg.z_threshold),
            std_tolerance=float(cfg.std_tolerance),
            require_std=bool(cfg.require_std),
        )
        if report.verdict != "pass":
            worst = EXIT_FAIL
        rows.append(_comparison_row("table", spec, pred, est, report))
    _emit(_render_rows(_strip_json_only(rows, cfg), cfg), cfg)
    return worst


def cmd_selftest(cfg):
    results = run_battery(workers=int(cfg.workers))
    if cfg.output == "csv":
        text = render_csv(results).rstrip("\n")
    elif cfg.output == "json":
        text = json.dumps(
            [
                {
                    "criterion": r.criterion,
                    "description": r.description,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ],
            indent=2,
        )
    else:
        text = render_table(results)
    _emit(text, cfg)
    return EXIT_PASS if battery_passed(results) else EXIT_FAIL


_COMMANDS = {
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "table": cmd_table,
    "selftest": cmd_selftest,
}


def _add_io_flags(sub):
    sub.add_argument("--config", help="JSON file mirroring the flags; flags override it")
    sub.add_argument("--output", choices=("csv", "json", "pretty"), help="render format")
    sub.add_argument("--output-path", help="also write the rendered output to this file")
    sub.add_argument("--workers", type=int, help="worker cap for Monte Carlo chunks")


def _add_schedule_flags(sub):
    sub.add_argument("--geometry", choices=_ALL_GEOMETRIES)
    sub.add_argument("--n-dim", type=int, help="ambient dimension N")
    sub.add_argument("--angles", help="sphere step angles, comma list")
    sub.add_argument("--steps", help="flat step lengths, comma list")
    sub.add_argument("--arcs", help="hyperbolic step arcs, comma list")
    sub.add_argument(
        "--spectrum",
        action="append",
        help="spectrum values, comma list; repeat for several factors",
    )
    sub.add_argument(
        "--spectra-file",
        action="append",
        help="one-column file of spectrum values; repeat for several factors",
    )
    sub.add_argument(
        "--curvature-file",
        help="curvature path file: rows of step width then curvatures",
    )
    sub.add_argument("--angle-unit", choices=("radians", "degrees"))
    sub.add_argument("--kind", choices=_MONOMIAL_KINDS, help="monomial to integrate")
    sub.add_argument("--power", type=int, help="marginal moment power")
    sub.add_argument(
        "--observable",
        choices=("cosine", "norm_ratio"),
        help="operator observable (default cosine)",
    )


def _add_run_flags(sub):
    sub.add_argument("--trials", type=int, help="Monte Carlo trial count")
    sub.add_argument("--seed", type=int, help="64-bit seed; generated when omitted")


def _add_compare_flags(sub):
    sub.add_argument("--expect-mean", type=float, help="override the predicted mean")
    sub.add_argument("--z-threshold", type=float, help="mean z-score limit (default 4)")
    sub.add_argument("--std-tolerance", type=float, help="std ratio tolerance (default 0.1)")
    sub.add_argument(
        "--require-std",
        action="store_true",
        default=None,
        help="demand the sigma comparison; indeterminate when unavailable",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="randsteps",
        description="Closed-form predictions and Monte Carlo checks for accumulated random steps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    predict = subs.add_parser("predict", help="print the closed-form prediction")
    _add_schedule_flags(predict)
    _add_io_flags(predict)

    simulate = subs.add_parser("simulate", help="run the Monte Carlo estimate")
    _add_schedule_flags(simulate)
    _add_run_flags(simulate)
    _add_io_flags(simulate)

    cmp_sub = subs.add_parser("compare", help="simulate and compare against the prediction")
    _add_schedule_flags(cmp_sub)
    _add_run_flags(cmp_sub)
    _add_compare_flags(cmp_sub)
    _add_io_flags(cmp_sub)

    table = subs.add_parser("table", help="one comparison per sweep point")
    _add_schedule_flags(table)
    _add_run_flags(table)
    _add_compare_flags(table)
    _add_io_flags(table)
    table.add_argument("--sweep-n-dim", help="dimensions to sweep: 'a..b' or comma list")
    table.add_argument("--sweep-m", help="step counts to sweep: 'a..b' or comma list")

    selftest = subs.add_parser("selftest", help="run the fixed-seed acceptance battery")
    _add_io_flags(selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return EXIT_PASS
        return EXIT_CONFIG
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PrecisionLossError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
