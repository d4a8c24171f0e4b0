"""Command-line front door for predictions, simulations, and comparisons.

Subcommands: predict (closed forms only), simulate (Monte Carlo only),
compare (both plus verdict), table (one comparison per sweep point), and
selftest (the fixed-seed acceptance battery).  Output renders as csv, json,
or pretty text; csv scalars use 17 significant digits so every row
re-parses to the exact values that produced it.

Every option is one entry of _OPTIONS: the subcommands that take it, its
kind, choices, default and help.  The parser's flags, the config-file keys
and their checks, and the merged run configuration all come from it.  A
subcommand and its exact --flag value pairs are read by a walk over the
table; argparse reads any other argv, and writes every help and error text.

Exit codes: 0 pass, 1 statistical fail, 2 usage or config error, 3 numeric
failure (a closed-form moment below the double range, or an overflow no
result can hold).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import secrets
import sys
from dataclasses import dataclass, replace
from functools import cache
from types import SimpleNamespace

import numpy as np

from .montecarlo import (
    GEOMETRIES,
    ExperimentSpec,
    RandomStream,
    Spectrum,
    _geometry,
    compare,
    estimate,
    prediction_for,
)
from .predictors import (
    CurvaturePath,
    PrecisionLossError,
    _MONOMIAL_KINDS,
    _OPERATOR_OBSERVABLES,
    flat_expected_norm,
)
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

class ConfigError(Exception):
    """Invalid flag, config field, or input file; exits with code 2."""


@dataclass(frozen=True)
class _Option:
    """One option: the flag --name (its underscores as dashes) and the config key name.

    group names the subcommands that take it (see _SUBCOMMANDS).  kind is
    int, float, switch, path or text: an int or float flag parses its text
    by that type, and a config value must be of it or be such text.  A
    config value outside choices is an error, unless by_table: the geometry
    table checks geometry, and its monomial row checks kind.  default holds
    when neither flag nor config sets the option; "{}" in help shows it.
    append collects a repeated flag's values in a list.
    """

    group: str
    kind: str = "text"
    help: str | None = None
    choices: tuple | None = None
    default: object = None
    append: bool = False
    by_table: bool = False

    def flag_arguments(self):
        """add_argument's keywords; the flag's own default is None, so config can fill it."""
        arguments = {"help": self.help and self.help.format(self.default)}
        if self.kind == "switch":
            arguments.update(action="store_true", default=None)
        elif self.append:
            arguments["action"] = "append"
        if self.kind in _NUMBER_KINDS:
            arguments["type"] = _NUMBER_KINDS[self.kind]
        if self.choices:
            arguments["choices"] = self.choices
        return arguments


_NUMBER_KINDS = {"int": int, "float": float}

# Every option, in the order a subcommand's --help lists its groups' flags.
_OPTIONS = {
    "geometry": _Option("schedule", choices=GEOMETRIES, by_table=True),
    "n_dim": _Option("schedule", "int", "ambient dimension N"),
    "angles": _Option("schedule", "text", "sphere step angles, comma list"),
    "steps": _Option("schedule", "text", "flat step lengths, comma list"),
    "arcs": _Option("schedule", "text", "hyperbolic step arcs, comma list"),
    "spectrum": _Option("schedule", "text",
                        "spectrum values, comma list; repeat for several factors", append=True),
    "spectra_file": _Option("schedule", "path",
                            "one-column file of spectrum values; repeat for several factors",
                            append=True),
    "curvature_file": _Option("schedule", "path",
                              "curvature path file: rows of step width then curvatures"),
    "angle_unit": _Option("schedule", choices=("radians", "degrees"), default="radians"),
    "kind": _Option("schedule", "text", "monomial to integrate", _MONOMIAL_KINDS, by_table=True),
    "power": _Option("schedule", "int", "marginal moment power"),
    "observable": _Option("schedule", "text", "operator or kappa observable (default cosine)",
                          _OPERATOR_OBSERVABLES),
    "trials": _Option("run", "int", "Monte Carlo trial count"),
    "seed": _Option("run", "int", "64-bit seed; generated when omitted"),
    "expect_mean": _Option("compare", "float", "override the predicted mean"),
    "z_threshold": _Option("compare", "float", "mean z-score limit (default {:g})", default=4.0),
    "std_tolerance": _Option("compare", "float", "std ratio tolerance (default {:g})", default=0.1),
    "require_std": _Option("compare", "switch",
                           "demand the sigma comparison; indeterminate when unavailable",
                           default=False),
    "config": _Option("io", "path", "JSON file mirroring the flags; flags override it"),
    "output": _Option("io", "text", "render format", ("csv", "json", "pretty"), "pretty"),
    "output_path": _Option("io", "path", "also write the rendered output to this file"),
    "workers": _Option("io", "int", "Monte Carlo threads; results do not depend on it", default=1),
    "sweep_n_dim": _Option("sweep", "text", "dimensions to sweep: 'a..b' or comma list"),
    "sweep_m": _Option("sweep", "text", "step counts to sweep: 'a..b' or comma list"),
}

# The config keys and the values they hold when unset: every option but
# config, which names the file of the others.
_DEFAULTS = {key: option.default for key, option in _OPTIONS.items() if key != "config"}
# The config values that _resolve checks against their choices.
_CHOICES = {key: option.choices for key, option in _OPTIONS.items()
            if option.choices and not option.by_table}


def _fmt17(value):
    return "%.17g" % value


def _fmt10(value):
    return "%.10g" % value


def _json(payload):
    # Strict JSON (RFC 8259) has no Infinity or NaN: non-finite floats are
    # written as the CSV's text for them, the strings "inf", "-inf", "nan".
    def strict(value):
        if isinstance(value, float) and not math.isfinite(value):
            return _fmt17(value)
        if isinstance(value, dict):
            return {key: strict(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [strict(item) for item in value]
        return value

    return json.dumps(strict(payload), indent=2, allow_nan=False)


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
        if any(isinstance(v, bool) for v in raw):  # float() would read true as 1
            raise ConfigError(f"field {field}: could not parse {raw!r}")
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
        if any(isinstance(v, (bool, float)) for v in raw):  # int() would truncate 3.7 to 3
            raise ConfigError(f"field {field}: could not parse {raw!r}")
        try:
            values = [int(v) for v in raw]
        except (TypeError, ValueError):
            raise ConfigError(f"field {field}: could not parse {raw!r}") from None
    else:
        raise ConfigError(f"field {field}: expected a range or comma list, got {raw!r}")
    if not values:
        raise ConfigError(f"field {field}: sweep list is empty")
    return values


def _file_lines(path, field):
    """The stripped lines of path, without blank lines and '#' comments."""
    try:
        with open(path) as handle:
            lines = [line.strip() for line in handle]
    except OSError as exc:
        raise ConfigError(f"field {field}: cannot read {path!r} ({exc})") from None
    return [text for text in lines if text and not text.startswith("#")]


def _read_column_file(path, field):
    """One float per line."""
    values = []
    for text in _file_lines(path, field):
        try:
            values.append(float(text))
        except ValueError:
            raise ConfigError(f"field {field}: bad line {text!r} in {path!r}") from None
    if not values:
        raise ConfigError(f"field {field}: no values in {path!r}")
    return values


def _read_curvature_file(path, field):
    """Rows of 'd kappa_1 ... kappa_w'; every row the same width."""
    steps = []
    for text in _file_lines(path, field):
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
        if key not in _DEFAULTS:
            raise ConfigError(f"config field {key!r}: unknown")
    return data


def _checked(key, value):
    """A config value as its flag would give it; values are not cast."""
    option = _OPTIONS[key]
    if option.kind == "switch":
        if not isinstance(value, bool):
            raise ConfigError(f"field {key}: expected true or false, got {value!r}")
        return value
    if option.kind == "path":
        # open() takes an integer as a file descriptor: 1 would be stdout.
        paths = value if option.append and isinstance(value, list) else [value]
        if not all(isinstance(path, str) for path in paths):
            raise ConfigError(f"field {key}: expected a file path, got {value!r}")
        return value
    kind = _NUMBER_KINDS.get(option.kind)
    if kind is None:
        return value
    if isinstance(value, str):  # the flag's text
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"field {key}: invalid {kind.__name__} value {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"field {key}: expected {expected}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"field {key}: {value!r} is out of the double range") from None


def _resolve(args):
    """Defaults, overridden by the config file, overridden by flags; types checked, then choices."""
    file_cfg = {}
    if getattr(args, "config", None) is not None:
        file_cfg = _load_config_file(args.config)
    cfg = SimpleNamespace(command=args.command, **_DEFAULTS)
    for key in _DEFAULTS:
        value = getattr(args, key, None)  # argparse has typed the flag's text
        if value is None:
            value = file_cfg.get(key)
            if value is None:
                continue
            value = _checked(key, value)
        setattr(cfg, key, value)
    if cfg.geometry is not None:
        _geometry(cfg.geometry)  # rejects an unknown geometry
    for key, choices in _CHOICES.items():
        value = getattr(cfg, key)
        if value is not None and value not in choices:
            *rest, last = choices
            expected = f"{', '.join(rest)}{',' if len(rest) > 1 else ''} or {last}"
            raise ConfigError(f"field {key}: expected {expected}, got {value!r}")
    return cfg


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
    return factors


def _angles_from_config(cfg):
    values = _float_list(cfg.angles, "angles")
    if cfg.angle_unit == "degrees":
        values = [math.radians(v) for v in values]
    return values


# Per geometry, the flags and config keys that carry its schedule, and the
# reader that turns them into the schedule its row of the geometry table
# parses; spectrum and spectra_file are read together.
_SPECTRA = (("spectrum", "spectra_file"), _spectra_from_config)
_SCHEDULES = {
    "flat": (("steps",), lambda cfg: _float_list(cfg.steps, "steps")),
    "sphere": (("angles",), _angles_from_config),
    "hyperbolic": (("arcs",), lambda cfg: _float_list(cfg.arcs, "arcs")),
    "operator": _SPECTRA,
    "operator_product": _SPECTRA,
    "monomial": (("kind",), lambda cfg: cfg.kind),
    "marginal": (("power",), lambda cfg: cfg.power),
    "kappa": (
        ("curvature_file",),
        lambda cfg: _read_curvature_file(cfg.curvature_file, "curvature_file"),
    ),
}
_SCHEDULE_FIELDS = tuple(dict.fromkeys(f for fields, _ in _SCHEDULES.values() for f in fields))


def _schedule_from_config(cfg):
    """(schedule as read, schedule as parsed, n_dim) for the configured geometry.

    The geometry's parser validates the schedule and, for spectra and
    curvature paths, supplies n_dim when none is configured; otherwise
    n_dim may stay None.
    """
    if cfg.geometry is None:
        raise ConfigError("field geometry: required")
    row = _geometry(cfg.geometry)
    fields, read = _SCHEDULES[cfg.geometry]
    for field in _SCHEDULE_FIELDS:
        if getattr(cfg, field) is not None and field not in fields:
            raise ConfigError(f"field {field}: not used by geometry {cfg.geometry!r}")
    if all(getattr(cfg, field) is None for field in fields):
        raise ConfigError(f"field {fields[0]}: required for {cfg.geometry} geometry")
    raw = read(cfg)
    return (raw, *row.parse(raw, cfg.n_dim))


def _schedule_cell(schedule):
    """Schedule column text: ';' within a factor, '|' between factors."""
    if not isinstance(schedule, tuple):
        return str(schedule)  # a monomial kind or a marginal power
    if schedule and isinstance(schedule[0], Spectrum):
        return "|".join(";".join(_fmt17(v) for v in factor.values) for factor in schedule)
    return ";".join(_fmt17(v) for v in schedule)


def _observable(cfg):
    # --observable applies to the geometries that have observables only.
    return cfg.observable if _geometry(cfg.geometry).observables else None


def _emit(text, cfg):
    if cfg.output_path is not None:
        try:
            with open(cfg.output_path, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise ConfigError(
                f"field output_path: cannot write {cfg.output_path!r} ({exc})"
            ) from None
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader has gone (say, `| head -1`).  Point stdout at devnull so
        # the flush at exit cannot fail again, and let the command finish.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cell(value, csv_text):
    """A field's text: 17 significant digits in csv, 10 in pretty output."""
    if value is None:
        return "" if csv_text else "none"
    if isinstance(value, float):
        return _fmt17(value) if csv_text else _fmt10(value)
    return str(value)


def _csv_text(rows):
    # No cell holds a comma, a quote or a line break, so the cells joined are
    # what csv.writer writes: it quotes only such cells.
    return "\n".join(",".join(row) for row in rows)


def _pretty(fields):
    width = max(len(k) for k in fields)
    return "\n".join(f"{key:<{width}}  {_cell(value, False)}" for key, value in fields.items())


def _render_fields(fields, cfg):
    """Render an ordered field->value mapping for predict-style output."""
    if cfg.output == "json":
        return _json(fields)
    if cfg.output == "csv":
        return _csv_text([("field", "value"), *((k, _cell(v, True)) for k, v in fields.items())])
    return _pretty(fields)


def _render_rows(rows, cfg):
    """Render comparison/simulation rows in the unified column schema."""
    if cfg.output == "json":
        return _json(rows)
    if cfg.output == "csv":
        cells = ([_cell(row[column], True) for column in _CSV_COLUMNS] for row in rows)
        return _csv_text([_CSV_COLUMNS, *cells])
    return "\n\n".join(_pretty(row) for row in rows)


def _comparison_row(cfg, spec, pred, est, report):
    row = {
        "experiment": cfg.command,
        "geometry": spec.geometry,
        "n_dim": spec.n_dim,
        "schedule": _schedule_cell(spec.schedule),
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
    }
    if cfg.output == "json":  # csv and pretty output keep the fixed 15 columns
        row["insufficient_trials"] = bool(est.insufficient_trials)
    return row


def _prediction(cfg, schedule, n_dim):
    """The prediction for a parsed schedule and dimension, its mean set by --expect-mean."""
    row = _geometry(cfg.geometry)
    pred = row.predict(schedule, n_dim, row.observable(_observable(cfg)))
    if cfg.expect_mean is not None:
        pred = replace(pred, mean=cfg.expect_mean)
    return pred


def cmd_predict(cfg):
    raw, schedule, n_dim = _schedule_from_config(cfg)
    if cfg.geometry == "kappa":
        fields = {
            "observable": "curvature_products",
            "steps": len(raw.steps),
            "norm_product": prediction_for("kappa", schedule, n_dim, "norm_ratio").mean,
            "cosine_product": prediction_for("kappa", schedule, n_dim, "cosine").mean,
        }
        _emit(_render_fields(fields, cfg), cfg)
        return EXIT_PASS
    row = _geometry(cfg.geometry)
    if n_dim is not None:
        pred = _prediction(cfg, schedule, n_dim)
    elif row.dimfree:
        # Dimension-free output: the row's mean at n = inf; the sigmas need n.
        pred = row.predict(schedule, math.inf, None)
        pred = replace(pred, sigma_exact=None, sigma_bound=None, deviation_order=None)
    else:
        raise ConfigError("field n_dim: required")
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


def _sweep(cfg, schedule, n_dim):
    """table's (n_dim, schedule) points, one per value of its sweep axis."""
    if cfg.sweep_n_dim is not None:
        return [(point, schedule) for point in _int_list(cfg.sweep_n_dim, "sweep_n_dim")]
    if not isinstance(schedule, tuple):
        raise ConfigError("field sweep_m: not defined for this geometry")
    points = _int_list(cfg.sweep_m, "sweep_m")
    if len(schedule) == 0:
        raise ConfigError("field sweep_m: schedule needs at least one entry to repeat")
    if min(points) < 0:
        raise ConfigError("field sweep_m: step counts must be >= 0")
    return [(n_dim, (schedule[0],) * point) for point in points]


def _cmd_experiments(cfg):
    """simulate, compare and table: one output row per experiment point.

    simulate and compare run the configured point; table runs one point per
    sweep value, seeded (seed + i) mod 2^64.  Every point is checked before
    any runs; simulate predicts nothing and always exits 0.  A predicted or
    measured mean that is inf or nan is a numeric failure, not a verdict.
    """
    _, schedule, n_dim = _schedule_from_config(cfg)
    table = cfg.command == "table"
    if table and (cfg.sweep_n_dim is None) == (cfg.sweep_m is None):
        raise ConfigError("field sweep: exactly one of --sweep-n-dim or --sweep-m")
    seed = cfg.seed
    if seed is None:
        seed = secrets.randbits(64)
        print(f"generated seed: {seed}", file=sys.stderr)
    RandomStream(seed)  # validates the 64-bit seed range
    if cfg.trials is None:
        raise ConfigError("field trials: required")
    points = _sweep(cfg, schedule, n_dim) if table else [(n_dim, schedule)]
    specs = []
    for index, (point_n, point_schedule) in enumerate(points):
        if point_n is None:
            raise ConfigError("field n_dim: required")
        specs.append(ExperimentSpec(
            cfg.geometry, point_n, point_schedule, cfg.trials, (seed + index) % 2**64,
            _observable(cfg),
        ))
    rows = []
    for spec in specs:
        pred = report = None
        if cfg.command != "simulate":
            pred = _prediction(cfg, spec.schedule, spec.n_dim)
        est = estimate(spec, workers=cfg.workers)
        if pred is not None:
            for name, mean in (("predicted", pred.mean), ("measured", est.mean)):
                if not math.isfinite(mean):
                    raise OverflowError(f"the {name} mean is {mean!r}; a verdict needs finite means")
            report = compare(pred, est, z_threshold=cfg.z_threshold,
                             std_tolerance=cfg.std_tolerance, require_std=cfg.require_std)
        rows.append(_comparison_row(cfg, spec, pred, est, report))
    _emit(_render_rows(rows, cfg), cfg)
    return EXIT_PASS if all(row["verdict"] in (None, "pass") for row in rows) else EXIT_FAIL


def cmd_selftest(cfg):
    results = run_battery(workers=cfg.workers)
    if cfg.output == "csv":
        text = render_csv(results).rstrip("\n")
    elif cfg.output == "json":
        text = _json([dataclasses.asdict(r) for r in results])
    else:
        text = render_table(results)
    _emit(text, cfg)
    return EXIT_PASS if battery_passed(results) else EXIT_FAIL


# Each subcommand: its help, the option groups it takes in the order its
# --help lists them, and the function that runs it.
_SUBCOMMANDS = {
    "predict": ("print the closed-form prediction", ("schedule", "io"), cmd_predict),
    "simulate": ("run the Monte Carlo estimate", ("schedule", "run", "io"), _cmd_experiments),
    "compare": ("simulate and compare against the prediction",
                ("schedule", "run", "compare", "io"), _cmd_experiments),
    "table": ("one comparison per sweep point",
              ("schedule", "run", "compare", "io", "sweep"), _cmd_experiments),
    "selftest": ("run the fixed-seed acceptance battery", ("io",), cmd_selftest),
}


@cache
def _flags(command):
    """command's flags, --name to (key, option), in the order its parser adds them."""
    return {"--" + key.replace("_", "-"): (key, option)
            for group in _SUBCOMMANDS[command][1]
            for key, option in _OPTIONS.items() if option.group == group}


@cache
def build_parser():
    # Built once per process: parse_args reads the tree and never changes it.
    parser = argparse.ArgumentParser(
        prog="randsteps",
        description="Closed-form predictions and Monte Carlo checks for accumulated random steps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, _) in _SUBCOMMANDS.items():
        sub = subs.add_parser(command, help=text)
        for flag, (_, option) in _flags(command).items():
            sub.add_argument(flag, **option.flag_arguments())
    return parser


def _walk(argv):
    """build_parser's Namespace for a subcommand and its exact --flag value pairs and
    switches, each value of its kind and choices and not opening with "-"; else None."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    flags = _flags(argv[0])
    args = dict.fromkeys(key for key, _ in flags.values())
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in flags:
            return None
        key, option = flags[token]
        if option.kind == "switch":
            args[key] = True
            continue
        text = next(tokens, "-")  # a trailing flag has no value
        if text.startswith("-"):
            return None
        try:
            value = _NUMBER_KINDS.get(option.kind, str)(text)
        except ValueError:
            return None
        if option.choices and value not in option.choices:
            return None
        args[key] = [*(args[key] or ()), value] if option.append else value
    return argparse.Namespace(command=argv[0], **args)


def _parse(argv):
    argv = sys.argv[1:] if argv is None else argv
    args = _walk(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None):
    try:
        args = _parse(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return EXIT_PASS
        return EXIT_CONFIG
    try:
        cfg = _resolve(args)
        return _SUBCOMMANDS[cfg.command][2](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OverflowError, PrecisionLossError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
