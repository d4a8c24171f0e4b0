"""Print SHA-256 digests of the runners', the engine's and the predictors' outputs.

Line 1 digests the chain runners, one-trial calls of the engine's kernels:
the floats that run_sphere_chain, run_flat_chain and run_hyperbolic_chain
return, and run_operator_product's norm ratio, cosine and degenerate flag
(every fifth seed puts a negative scalar factor second), over seeds 0-199
and n in {3, 5, 10, 50}.  The flag is math.isnan(cosine): a live trial's
cosine is finite, and a dead one's is nan.

Line 2 digests estimate() over a fixed grid of the sphere, flat,
hyperbolic, operator, operator_product, monomial and marginal geometries:
two seeds, 2049 trials (so the last chunk is partial), small and large n,
one-factor operator specs, a product with a negative scalar factor, the
edge schedules of the benchmark's sweep (one step; n = 3 with theta = 0 or
pi), and sphere chains through angles of 1e-13, pi/2 - 1e-13, pi/2 + 1e-13
and pi - 1e-13, which the kernel snaps to a sine or cosine of exactly 0, as
the predictor does; and marginal powers 1 to 8 at n = 2, and 5 to 7 at
n = 3, small n where coordinates are large and half of them negative.

Line 3 digests the numeric fields (mean, sigma_exact, sigma_bound) of
prediction_for over normal-range schedules of the same seven geometries.

Line 4 digests prediction_for over a wider grid, and beside it the two
public functions that give a number no Prediction field holds:
flat_expected_norm and hyperbolic_log_expected_cosh, each finite where the
row's mean passes the double range.  The grid has up to 64 steps, n up to
1e300, angles of exactly pi/2 and pi, hyperbolic arcs from 100 to 400
(whose cosh products pass the double range) and of about 1e-9, single arcs
of 20, 300 and 710 (whose means are their cosh), 2000 arcs of 5 and then a
zero arc (whose variance passes the double range before the zero arc), more
flat steps than dimensions, invalid schedules, schedules given as float64,
float32 and object arrays, int lists and numeric text, sphere steps of 1e-5
and 1e-11 (whose variance at n = 1e300 is below the normal double range),
operator spectra given both as lists and as Spectrum, a cosine of a
spectrum whose sum passes the double range, a norm-ratio product of
1e200 whose running product passes it, and one spectrum and one
three-factor product, on both observables, at n = 3 and 1000, scaled by
2^k for k from -1000 to 1020 (at n = 1000 the largest |eigenvalue| times n
passes the double range from k = 1015 on).  Each call feeds either its
numeric fields or its exception's type and message.

Line 5 digests estimate() where the chunk sums need many extraction rounds
or leave every value to the final sum (the mean's integer sum over the
trial count, M2's math.fsum): marginal powers 7 and 8 at n up to 1e6, flat
steps from 1e-150 to 1e100 and the flat 1e150 edge (whose squared
deviations overflow), hyperbolic arcs up to about 300, one-step chains, and
1, 17 and 2049 trials; chains whose every trial is one constant (one
step, or a later step snapped to 0) at 11 to 59 trials, where fsum divided
by the count would be an ulp off the constant, among them flat steps
of 1e-150, 1e150 and 1e154 and a hyperbolic arc of 700; and operator
products on both observables whose running norm product passes the double
range, spectra of about 1e-200, and a product beside the same product with
its first factor scaled by 2^-700 and by 2^600; and estimates over four
chunks whose frames differ from chunk to chunk (hyperbolic arcs of 150, and
flat steps of 1e150 and of 1e-150).  Each estimate feeds either its fields
or its exception's type and message, as on line 4.

Line 6 digests cli.main: its exit code, stdout and stderr (or an escaped
exception's type and message), with the temporary directory's path masked.
The grid runs predict, simulate and compare on every geometry with no
--n-dim and with n = 3, 7 and 1, in csv, json and pretty output; table
sweeps over both axes; compare's gate flags; spectrum and curvature files
with comments, blank lines and padded values, and the reader errors (bad
line, short row, empty file, unreadable path); config files and their
errors, among them values of the wrong type (numbers where integers are
due, strings that do not parse, integers and lists where a path is due),
a monomial kind that the monomial row rejects, and a wrongly typed n_dim
beside an unknown geometry; usage errors, among them flag text that does
not parse or is not among the flag's choices; and the argvs that the full
parser reads rather than a subcommand's own: none, --help, a first word
that is no subcommand, a flag before the subcommand, and a stray word after
a valid compare, beside compare --help and a flag abbreviation; and the
subcommand argvs that the exact --flag value walk hands to the full parser:
a value opening with "-" (--seed -3), an "=" form (--angles=1.0), a
trailing flag with no value and a value outside the flag's choices (--output
xml), beside a repeated flag and switch that the walk reads itself.  Every
run has a fixed seed.

Each line is "<values hashed> <hex digest>".  Run it on two commits to check
that a change leaves these outputs byte-identical:

    PYTHONPATH=src python scripts/runner_digest.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

import randsteps as rs
import randsteps.cli


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def feed(self, *values):
        for value in values:
            self.count += 1
            self.sha.update(b"None" if value is None else np.asarray(value, dtype=np.float64).tobytes())

    def feed_text(self, text):
        self.count += 1
        self.sha.update(text.encode())

    def line(self):
        return f"{self.count} {self.sha.hexdigest()}"


def runner_digest():
    out = Digest()
    for n in (3, 5, 10, 50):
        e1 = np.zeros(n)
        e1[0] = 1.0
        u, h = rs.UnitVector(e1), rs.HyperboloidPoint(e1)
        for seed in range(200):
            gen = np.random.default_rng(seed)
            m = 1 + seed % 6
            thetas = list(gen.uniform(0.0, math.pi, m))
            ds = list(gen.uniform(0.0, 3.0, m))
            xis = list(gen.uniform(0.0, 2.0, m))
            stream = partial(rs.RandomStream, seed, n)
            out.feed(
                rs.run_sphere_chain(u, thetas, stream()),
                rs.run_flat_chain(ds, n, stream()),
                rs.run_hyperbolic_chain(h, xis, stream()),
            )
            spectra = [gen.normal(size=n) for _ in range(m)]
            if seed % 5 == 0:
                spectra.insert(1, np.full(n, -1.5))
            ratio, cosine = rs.run_operator_product(spectra, u, stream())
            out.feed(ratio, cosine, math.isnan(cosine))
    return out.line()


def _estimate_grid():
    # (geometry, n, schedule, observable)
    gen = np.random.default_rng(2049)
    grid = []
    for n in (3, 200):
        grid += [
            ("sphere", n, (0.7, 1.1, 2.0), None),
            ("sphere", n, (1.0,), None),
            ("flat", n, (1.0, 0.5, 2.0), None),
            ("flat", n, (1.5,), None),
            ("hyperbolic", n, (0.5, 1.0, 0.2), None),
            ("hyperbolic", n, (0.8,), None),
        ]
        spectrum = rs.Spectrum(gen.uniform(-0.5, 2.0, n))
        other = rs.Spectrum(gen.uniform(0.05, 1.0, n))
        for observable in ("cosine", "norm_ratio"):
            grid += [
                ("operator", n, (spectrum,), observable),
                ("operator", n, (rs.Spectrum(np.full(n, -1.5)),), observable),
                ("operator_product", n, (spectrum, other), observable),
                ("operator_product", n, (spectrum, rs.Spectrum(np.full(n, -1.5)), other), observable),
            ]
    for theta in (0.0, math.pi):
        for m in (1, 2, 5):
            grid.append(("sphere", 3, (theta,) * m, None))
    for theta in (1e-13, math.pi / 2 - 1e-13, math.pi / 2 + 1e-13, math.pi - 1e-13):
        grid += [("sphere", 3, (theta,), None), ("sphere", 3, (1.0, theta, 0.5), None)]
    grid.append(("flat", 2, (1.0, 1.0), None))
    for n in (3, 1000):
        grid += [("monomial", n, kind, None) for kind in ("x1_sq", "x1_4", "x1sq_x2sq")]
    for n in (2, 10**6):
        grid += [("marginal", n, power, None) for power in (1, 2, 3, 4, 8)]
    grid += [("marginal", n, power, None) for n in (2, 3) for power in (5, 6, 7)]
    return grid


def estimate_digest():
    out = Digest()
    for geometry, n, schedule, observable in _estimate_grid():
        for seed in (0, 2**63 + 5):
            est = rs.estimate(rs.ExperimentSpec(geometry, n, schedule, 2049, seed, observable))
            out.feed(est.mean, est.sample_std, est.std_error, est.trials, est.insufficient_trials)
    return out.line()


def prediction_digest():
    out = Digest()
    gen = np.random.default_rng(7)
    points = []
    for n in (3, 10, 1000):
        for m in range(1, 7):
            points += [
                ("sphere", tuple(gen.uniform(0.0, math.pi, m)), n, None),
                ("flat", tuple(gen.uniform(0.0, 3.0, m)), n, None),
                ("hyperbolic", tuple(gen.uniform(0.05, 2.0, m)), n, None),
            ]
        for observable in ("cosine", "norm_ratio"):
            spectra = tuple(rs.Spectrum(gen.uniform(0.05, 1.0, n)) for _ in range(3))
            points += [
                ("operator", spectra[0], n, observable),
                ("operator", spectra[:1], n, observable),
                ("operator_product", spectra, n, observable),
            ]
        points += [("monomial", kind, n, None) for kind in ("x1_sq", "x1_4", "x1sq_x2sq")]
        points += [("marginal", power, n, None) for power in range(1, 9)]
    for geometry, schedule, n, observable in points:
        pred = rs.prediction_for(geometry, schedule, n, observable)
        out.feed(pred.mean, pred.sigma_exact, pred.sigma_bound)
    return out.line()


# Powers of two that scale line 4's operator spectra: at n = 1000 a largest
# |eigenvalue| times n passes the double range from 2^1015 on.
_SCALES = (-1000, -500, 0, 500, 1010, 1015, 1020)


def _wide_points():
    # (geometry, schedule, n, observable)
    gen = np.random.default_rng(8)
    draws = {
        "sphere": lambda m: gen.uniform(0.0, math.pi, m),
        "flat": lambda m: gen.uniform(0.0, 3.0, m) * 10.0 ** gen.integers(-150, 150, m),
        "hyperbolic": lambda m: gen.uniform(0.0, 2.0, m),
    }
    points = []
    for n in (3, 4, 10, 1000, 10**6, 10**300):
        for m in (0, 1, 2, 3, 5, 16, 64):
            for geometry, draw in draws.items():
                points.append((geometry, tuple(draw(m)), n, None))
            snapped = gen.uniform(0.0, math.pi, m)
            snapped[gen.random(m) < 0.5] = math.pi / 2
            snapped[gen.random(m) < 0.3] = math.pi
            points.append(("sphere", tuple(snapped), n, None))
            points.append(("hyperbolic", tuple(gen.uniform(100.0, 400.0, m)), n, None))
            points.append(("hyperbolic", tuple(gen.uniform(0.5e-9, 2e-9, m)), n, None))
        points += [
            ("sphere", (math.pi, 1.4198346486560234), n, None),
            ("sphere", (1.4001126639424055, 0.0), n, None),
            ("sphere", (math.pi / 2,) * 64, n, None),
            ("sphere", (math.pi,) * 5, n, None),
            ("sphere", (0.5, 3.5), n, None),
            ("sphere", (0.5, -0.1), n, None),
            ("flat", (1e200, 1e200), n, None),
            ("flat", (1.0, math.inf), n, None),
            ("hyperbolic", (1e5, 1e5), n, None),
            ("hyperbolic", (0.0, 0.0, 1.0), n, None),
            ("hyperbolic", (0.5, math.nan), n, None),
            ("hyperbolic", (20.0,), n, None),
            ("hyperbolic", (300.0,), n, None),
            ("hyperbolic", (710.0,), n, None),
            ("hyperbolic", (5.0,) * 2000 + (0.0,), n, None),
            ("sphere", (1e-5, 1e-5), n, None),
            ("sphere", (1e-11, 1e-11), n, None),
            ("sphere", np.array([0.5, 1.0, 2.5]), n, None),
            ("sphere", np.array([0.5, 1.0, 2.5], dtype=np.float32), n, None),
            ("sphere", ["0.5", " 1.0", "2.5e0"], n, None),
            ("flat", np.array([1e-5, 3.0, 1e200]), n, None),
            ("flat", [1, 2, 3], n, None),
            ("flat", np.array([0.1, 2.0], dtype=np.float32), n, None),
            ("flat", ["1.5", "2"], n, None),
            ("flat", np.array([Fraction(1, 3), True, 2.5], dtype=object), n, None),
            ("hyperbolic", np.array([0.5, 20.0]), n, None),
            ("hyperbolic", [0, 1, 300], n, None),
            ("hyperbolic", np.array([0.3, 1.7], dtype=np.float32), n, None),
            ("hyperbolic", ["0.5", "1e-9"], n, None),
        ]
        if n <= 1000:
            for observable in ("cosine", "norm_ratio"):
                spectra = [gen.uniform(-0.5, 2.0, n).tolist() for _ in range(3)]
                points += [
                    ("operator", spectra[0], n, observable),
                    ("operator", rs.Spectrum(spectra[0]), n, observable),
                    ("operator_product", spectra, n, observable),
                    ("operator_product", [rs.Spectrum(s) for s in spectra], n, observable),
                    ("operator", [0.0] * n, n, observable),
                    ("operator_product", [[1.0] * n, [0.0] * n], n, observable),
                ]
    for n in (2, 1):
        points += [("sphere", (0.5, 0.5), n, None), ("flat", (1.0,), n, None)]
    points += [
        ("operator", [1e308, -1e5, 1e308], 3, "cosine"),
        ("operator_product", [[1e200] * 2, [1e200] * 2, [1e-200] * 2], 2, "norm_ratio"),
    ]
    for n in (3, 1000):
        spectra = [gen.uniform(-0.5, 2.0, n) for _ in range(3)]
        for k in _SCALES:
            for observable in ("cosine", "norm_ratio"):
                points += [
                    ("operator", np.ldexp(spectra[0], k).tolist(), n, observable),
                    ("operator_product", [np.ldexp(s, k).tolist() for s in spectra], n, observable),
                ]
    return points


def _public_calls(geometry, schedule):
    # The public functions beside prediction_for's row; the others have none.
    fns = {"flat": rs.flat_expected_norm, "hyperbolic": rs.hyperbolic_log_expected_cosh}
    return [partial(fns[geometry], schedule)] if geometry in fns else []


def wide_prediction_digest():
    out = Digest()

    def feed(fn):
        try:
            value = fn()
        except (ArithmeticError, TypeError, ValueError) as exc:
            out.feed_text(f"{type(exc).__name__}: {exc}")
            return
        if isinstance(value, rs.Prediction):
            out.feed(value.mean, value.sigma_exact, value.sigma_bound)
            out.feed_text(f"{value.observable} {value.deviation_order}")
        else:
            out.feed(value)

    for geometry, schedule, n, observable in _wide_points():
        feed(partial(rs.prediction_for, geometry, schedule, n, observable))
        for call in _public_calls(geometry, schedule):
            feed(call)
    return out.line()


def _summation_grid():
    # (geometry, n, schedule)
    grid = [("marginal", n, power) for n in (2, 3, 10, 1000, 10**6) for power in (7, 8)]
    for n in (2, 1000):
        for d in (1e-150, 1e-100, 1e-50, 1.0, 1e50, 1e100):
            grid += [("flat", n, (d, d)), ("flat", n, (d, 2.0 * d, 0.5 * d))]
        grid += [("flat", n, (1e-150, 1.0, 1e100)), ("flat", n, (1e150, 1e150))]
    for n in (3, 1000):
        for arcs in ((300.0,) * 2, (1.0, 300.0), (100.0, 200.0, 0.5), (150.0,) * 3):
            grid.append(("hyperbolic", n, arcs))
        grid += [("sphere", n, (1.0,)), ("flat", n, (2.0,)), ("hyperbolic", n, (0.5,))]
    return grid


# Chains whose every trial gives one constant, at trial counts where the
# constant's fsum divided by the count is off by an ulp, the last four with
# constants near the ends of the double range: (geometry, n, schedule,
# trials, seed).
_CONSTANT_RUNS = [
    ("sphere", 3, (0.3,), 35, 8),
    ("sphere", 3, (0.3, 1e-12), 35, 8),
    ("flat", 3, (1e-5,), 41, 1),
    ("hyperbolic", 10, (20.0,), 20, 5),
    ("hyperbolic", 10, (20.0, 0.0), 20, 5),
    ("flat", 3, (1e-150,), 25, 1),
    ("flat", 3, (1e150,), 11, 1),
    ("flat", 3, (1e154,), 59, 1),
    ("hyperbolic", 10, (700.0,), 11, 1),
]


# Estimates over four chunks whose frames differ from chunk to chunk, their
# squared deviations outside the double range: (geometry, n, schedule, trials, seed).
_FRAME_RUNS = [
    ("hyperbolic", 3, (150.0,) * 3, 3 * 2048 + 5, 1),
    ("flat", 3, (1e150, 1e150), 3 * 2048 + 5, 1),
    ("flat", 3, (1e-150, 1e-150), 3 * 2048 + 5, 1),
]


def _operator_range_runs():
    # Operator products whose running norm product passes the double range
    # while the final one fits, spectra of about 1e-200, and one product
    # beside the same product with its first factor scaled by 2^-700 or
    # 2^600: (geometry, n, schedule, trials, seed, observable).
    scaled = [[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]]
    runs = []
    for observable in ("cosine", "norm_ratio"):
        runs += [
            ("operator_product", 2, [[1e200, 1e199], [1e200, 1e199], [1e-100, 1e-101]], 8, 1, observable),
            ("operator_product", 2, [[1e200] * 2, [1e200] * 2, [1e-200] * 2], 8, 1, observable),
            ("operator", 3, [1e-200, 2e-200, 3e-200], 64, 1, observable),
        ]
        for k in (0, -700, 600):
            first = [math.ldexp(v, k) for v in scaled[0]]
            runs.append(("operator_product", 3, [first, scaled[1]], 4097, 3, observable))
    return runs


def summation_digest():
    out = Digest()
    runs = [(*point, trials, trials, None) for point in _summation_grid() for trials in (1, 17, 2049)]
    runs += [(*run, None) for run in _CONSTANT_RUNS + _FRAME_RUNS] + _operator_range_runs()
    for geometry, n, schedule, trials, seed, observable in runs:
        try:
            est = rs.estimate(rs.ExperimentSpec(geometry, n, schedule, trials, seed, observable))
        except (ArithmeticError, ValueError) as exc:
            out.feed_text(f"{type(exc).__name__}: {exc}")
            continue
        out.feed(est.mean, est.sample_std, est.std_error, est.trials, est.insufficient_trials)
    return out.line()


_CLI_SCHEDULES = {
    "sphere": ["--angles", "0.5,1.0"],
    "flat": ["--steps", "1,0.5"],
    "hyperbolic": ["--arcs", "0.5,0.3"],
    "operator": ["--spectrum", "1,0.5,0.25"],
    "operator_product": ["--spectrum", "1,0.5,0.25", "--spectrum", "0.2,0.4,0.6",
                         "--observable", "norm_ratio"],
    "monomial": ["--kind", "x1_4"],
    "marginal": ["--power", "4"],
    "kappa": ["--curvature-file", "{tmp}/path.txt"],
}

# Input files of the CLI grid, by name under the temporary directory.
_CLI_FILES = {
    "path.txt": "# width 3\n1.0 0.0 0.5 2.0\n\n  0.5 1.0 1.0 1.0  \n",
    "spectrum.txt": "# spectrum\n 1.0\n\n0.5 \n  # indented comment\n0.25\n",
    "bad_line.txt": "1.0\nx\n",
    "comments_only.txt": "# nothing\n\n   \n",
    "short_row.txt": "1.0 0.5\n0.5\n",
    "bad_row.txt": "1.0 0.5 y\n",
    "ragged.txt": "1.0 0.5 0.5\n1.0 0.5\n",
    "run.json": '{"geometry": "flat", "n_dim": 10, "steps": "1,1", "trials": 64, "seed": 7, "output": "csv"}',
    "lists.json": '{"geometry": "operator_product", "spectrum": [[1, 2], [0.5, 0.25]], "trials": "64", "seed": 3}',
    "sweep.json": '{"geometry": "sphere", "angles": [0.5], "sweep_n_dim": [3, 5], "trials": 64, "seed": 2}',
    "unknown.json": '{"geometry": "flat", "stepz": "1,1"}',
    "not_json.json": "{geometry: flat}",
    "list.json": "[1, 2]",
    "bad_output.json": '{"output": "xml"}',
    "bad_unit.json": '{"angle_unit": "grads"}',
    "bad_geometry.json": '{"geometry": "bogus"}',
    "bad_observable.json": '{"observable": "bogus"}',
}

# Config files run by one command each, over the flat run in _CONFIG_BASE
# (without its steps when another geometry is set).
_CONFIG_BASE = {"geometry": "flat", "n_dim": 10, "steps": "1,1", "trials": 50, "seed": 7}
_CLI_CONFIGS = [
    ("simulate", {"geometry": "marginal", "power": 2.5}),
    ("simulate", {"trials": 100.7}),
    ("simulate", {"seed": 1.9}),
    ("simulate", {"workers": 2.7}),
    ("predict", {"n_dim": 7.5}),
    ("simulate", {"trials": True}),
    ("compare", {"z_threshold": "four"}),
    ("compare", {"expect_mean": [1.0]}),
    ("compare", {"z_threshold": 10**400}),
    ("simulate", {"trials": "100.7"}),
    ("predict", {"geometry": "sphere", "angles": [True]}),
    ("predict", {"output_path": 1}),
    ("predict", {"geometry": "kappa", "curvature_file": 0}),
    ("predict", {"geometry": "operator", "spectra_file": [0]}),
    ("predict", {"geometry": "operator", "spectra_file": 0}),
    ("predict", {"output_path": ["x.csv"]}),
    ("predict", {"geometry": "kappa", "curvature_file": ["p.txt"]}),
    ("predict", {"geometry": "monomial", "kind": "x9"}),
    ("predict", {"n_dim": 7.5, "geometry": "bogus"}),
]


def _config_text(fields):
    base = dict(_CONFIG_BASE)
    if fields.get("geometry", "flat") != "flat":
        del base["steps"]
    return json.dumps({**base, **fields})


def _cli_cases():
    """argv lists for cli.main; "{tmp}" stands for the temporary directory."""
    run = ["--trials", "64", "--seed", "5"]
    cases = []
    for command in ("predict", "simulate", "compare"):
        for geometry, schedule in _CLI_SCHEDULES.items():
            for n in (None, 3, 7, 1):
                for output in ("csv", "json", "pretty"):
                    cases.append([
                        command, "--geometry", geometry, *schedule,
                        *([] if n is None else ["--n-dim", str(n)]), "--output", output,
                        *([] if command == "predict" else run),
                    ])
    sweeps = [
        ["--geometry", "sphere", "--angles", "1.0", "--sweep-n-dim", "3..6"],
        ["--geometry", "sphere", "--angles", "0.5", "--sweep-n-dim", "5,2"],
        ["--geometry", "flat", "--n-dim", "10", "--steps", "1,2", "--sweep-m", "0,1,3"],
        ["--geometry", "hyperbolic", "--arcs", "0.5", "--sweep-n-dim", "4,40"],
        ["--geometry", "operator", "--spectrum", "1,2", "--sweep-n-dim", "2"],
    ]
    for sweep in sweeps:
        for output in ("csv", "json", "pretty"):
            cases.append(["table", *sweep, *run, "--output", output])
    sphere = ["--geometry", "sphere", "--n-dim", "12", "--angles", "1.0471975511965976"]
    for extra in (
        ["--expect-mean", "0.9"], ["--require-std"], ["--z-threshold", "1e-9"],
        ["--std-tolerance", "0"], ["--workers", "2"], ["--trials", "1"],
        ["--angles", "60", "--angle-unit", "degrees"], ["--seed", "-1"],
        ["--seed", str(2**64)], ["--output-path", "{tmp}/missing/out.csv"],
    ):
        cases.append(["compare", *sphere, *run, "--output", "json", *extra])
    for extra in (["--seed", str(2**64 - 1)], ["--seed", "-1"]):
        cases.append(["table", *sphere, "--sweep-n-dim", "3,4", *run, "--output", "csv", *extra])
    cases.append(["simulate", *sphere, "--trials", "1", "--seed", "1", "--output", "json"])
    readers = [("operator", "--spectra-file", name) for name in
               ("spectrum.txt", "bad_line.txt", "comments_only.txt", "absent.txt", "")]
    readers += [("kappa", "--curvature-file", name) for name in
                ("path.txt", "short_row.txt", "bad_row.txt", "ragged.txt", "comments_only.txt",
                 "absent.txt")]
    for geometry, flag, name in readers:
        read = ["--geometry", geometry, flag, "{tmp}/" + name]
        cases += [["predict", *read], ["compare", *read, *run, "--output", "csv"]]
    for name in _CLI_FILES:
        if name.endswith(".json"):
            for command in ("simulate", "table"):
                cases.append([command, "--config", "{tmp}/" + name])
    for index, (command, _) in enumerate(_CLI_CONFIGS):
        cases.append([command, "--config", f"{{tmp}}/config{index}.json"])
    for extra in (
        ["--trials", "1.5"], ["--output", "xml"], ["--angle-unit", "grads"],
        ["--observable", "bogus"], ["--kind", "x9"],
    ):
        cases.append(["compare", *sphere, *run, *extra])
    cases += [
        ["simulate", "--config", "{tmp}/run.json", "--seed", "8", "--output", "pretty"],
        ["compare", "--config", "{tmp}/absent.json"],
        [],
        ["predict", "--bogus"],
        ["predict", "--geometry", "nope"],
        ["predict", "--geometry", "sphere", "--n-dim", "abc", "--angles", "1"],
        ["predict", "--angles", "1"],
        ["predict", "--geometry", "sphere", "--n-dim", "5"],
        ["predict", "--geometry", "sphere", "--angles", "1", "--steps", "1"],
        ["predict", "--geometry", "sphere", "--angles", "0.5,,1"],
        ["predict", "--geometry", "sphere", "--angles", "x"],
        ["compare", *sphere, "--seed", "1"],
        ["table", *sphere, *run],
        ["table", *sphere, *run, "--sweep-n-dim", "3", "--sweep-m", "1"],
        ["table", *sphere, *run, "--sweep-m", ""],
        ["table", *sphere, *run, "--sweep-m", "1,-1"],
        ["table", *sphere, *run, "--sweep-n-dim", "a..b"],
        ["table", "--geometry", "monomial", "--kind", "x1_sq", "--n-dim", "4", *run,
         "--sweep-m", "1"],
        ["table", "--geometry", "operator", "--spectrum", "1,2", *run, "--sweep-m", "1..2"],
        ["--help"],
        ["compare", "--help"],
        ["bogus"],
        ["--seed", "1", "compare", *sphere, *run],
        ["compare", *sphere, *run, "stray"],
        ["compare", "--geom", "sphere", "--n-dim", "12", "--angles", "1.0", *run],
        ["simulate", "--geometry", "flat", "--n-dim", "3", "--steps", "1,2", "--trials", "64",
         "--seed", "-3"],
        ["predict", "--geometry", "sphere", "--n-dim", "5", "--angles=1.0"],
        ["compare", *sphere, *run, "--seed", "6", "--require-std", "--require-std"],
        ["compare", *sphere, *run, "--seed"],
        ["predict", "--geometry", "flat", "--steps", "1,2", "--output", "xml"],
    ]
    return cases


def cli_digest():
    out = Digest()
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _CLI_FILES.items():
            Path(tmp, name).write_text(text)
        for index, (_, fields) in enumerate(_CLI_CONFIGS):
            Path(tmp, f"config{index}.json").write_text(_config_text(fields))
        for argv in _cli_cases():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = str(rs.cli.main([arg.replace("{tmp}", tmp) for arg in argv]))
                except Exception as exc:
                    code = f"{type(exc).__name__}: {exc}"
            out.feed_text(f"{code}\n{stdout.getvalue()}\n{stderr.getvalue()}".replace(tmp, "<tmp>"))
    return out.line()


def main():
    print(runner_digest())
    print(estimate_digest())
    print(prediction_digest())
    print(wide_prediction_digest())
    print(summation_digest())
    print(cli_digest())


if __name__ == "__main__":
    main()
