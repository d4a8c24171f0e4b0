"""The benchmark's three workloads: operations generated from a seed.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one returns.  A workload is a stream of
passes, each pass a list of Op with a fixed structure (which geometries,
dimensions and step counts, in which order) and seeded values, so a pass
costs about the same whatever the seed.

Every pass is drawn afresh, so no two operations of a run share their
inputs, apart from what a workload's structure fixes: the five chains-highdim
schedules (each op draws a new seed), and the sweep's monomial, marginal and
fixed edge points, whose predictions repeat while their Monte Carlo seeds do
not.

An Op's run(api) is the timed call into randsteps; its check(result) returns
the failure kinds found in the output ([] when correct), and its baseline
names the failure kinds the baseline program is known to show on that input.
A prediction op instead carries baseline_point, the prediction_for input that
the frozen copy of the baseline answers when the op fails (calibration.py):
the baseline's marginal quadrature goes wrong at scattered sizes, too many to
list.
"""

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

import numpy as np

import reference

WORKERS = 2
CHUNK = 2048
CHAINS_TRIALS = 16 * CHUNK
SWEEP_TRIALS = CHUNK
Z_THRESHOLD = 4.0
STD_TOLERANCE = 0.1
Z_PLAUSIBLE = 6.0  # a correct sampler strays this far about once in 5e8 estimates
CSV_COLUMNS = (
    "experiment", "geometry", "n_dim", "schedule", "trials", "seed", "prediction_mean",
    "sigma_exact", "sigma_bound", "mc_mean", "mc_std", "std_error", "z_mean", "std_ratio",
    "verdict",
)


@dataclass
class Op:
    tag: str
    run: object
    check: object
    trials: int = 0
    predictions: int = 1
    baseline: frozenset = frozenset()
    baseline_point: tuple = None  # (geometry, values, n, observable)


# The randsteps functions cli.main calls through its own module globals;
# tracing.Patch wraps them there so cli.main gets child spans.
CLI_CALLS = {
    "estimate": "montecarlo.estimate",
    "compare": "montecarlo.compare",
    "prediction_for": "predictors.prediction_for",
}


def bind(tracer):
    """The randsteps entry points the workloads call, span-wrapped when tracing."""
    import randsteps
    import randsteps.cli

    entry = {
        "montecarlo.estimate": randsteps.estimate,
        "montecarlo.compare": randsteps.compare,
        "predictors.prediction_for": randsteps.prediction_for,
        "cli.main": randsteps.cli.main,
    }
    return SimpleNamespace(
        **{
            name.split(".", 1)[1]: fn if tracer is None else tracer.wrap(name, fn)
            for name, fn in entry.items()
        }
    )


def verdict_of(pred_mean, sigma_exact, mc_mean, sample_std, std_error):
    """compare()'s documented rule at its default thresholds, restated."""
    diff = mc_mean - pred_mean
    if std_error > 0.0:
        z = diff / std_error
    else:
        z = 0.0 if diff == 0.0 else math.inf
    ok = abs(z) <= Z_THRESHOLD
    if sigma_exact:
        ok = ok and abs(sample_std / sigma_exact - 1.0) <= STD_TOLERANCE
    return "pass" if ok else "fail"


def _raised(result):
    return [f"raised_{type(result).__name__}"]


# chains-highdim: the battery's five high-dimensional experiments.

_LINEAR = tuple(j / 400 for j in range(1, 401))
CHAINS_SPECS = (
    ("sphere", 200, (math.pi / 3,) * 5, None),
    ("flat", 500, (1.0,) * 10, None),
    ("hyperbolic", 300, (1.0,) * 3, None),
    ("operator", 400, (_LINEAR,), "norm_ratio"),
    ("operator_product", 400, (_LINEAR, _LINEAR), "cosine"),
)
_EXACT_MEAN = ("sphere", "flat", "hyperbolic")


def chains_spec(rs, index, trials, seed):
    geometry, n, schedule, observable = CHAINS_SPECS[index]
    if geometry.startswith("operator"):
        schedule = tuple(rs.Spectrum(values) for values in schedule)
    return rs.ExperimentSpec(geometry, n, schedule, trials, seed, observable)


def _chains_run(spec, api):
    pred = api.prediction_for(spec.geometry, spec.schedule, spec.n_dim, observable=spec.observable)
    est = api.estimate(spec, workers=WORKERS)
    return api.compare(pred, est)


def _estimate_kinds(spec, est):
    if est.trials != spec.trials or est.seed != spec.seed:
        return ["estimate_echo_mismatch"]
    if not (math.isfinite(est.mean) and math.isfinite(est.sample_std)):
        return ["estimate_not_finite"]
    if not reference.close(est.std_error, est.sample_std / math.sqrt(est.trials), est.std_error):
        return ["std_error_inconsistent"]
    return []


def _chains_check(index, spec, report):
    if isinstance(report, Exception):
        return _raised(report)
    geometry, n, schedule, observable = CHAINS_SPECS[index]
    pred, est = report.prediction, report.estimate
    want, _ = reference.expected(geometry, schedule, n, observable)
    kinds = [] if reference.close(pred.mean, want, want) else ["mean_off"]
    kinds += _estimate_kinds(spec, est)
    rule = verdict_of(pred.mean, pred.sigma_exact, est.mean, est.sample_std, est.std_error)
    if report.verdict != rule:
        kinds.append("verdict_inconsistent")
    # compare() fails a correct sampler at |z| > 4 about once in 16 000
    # operations, so its verdict is not required to pass.  The estimate must
    # lie within Z_PLAUSIBLE standard errors of the reference, plus, for the
    # operator laws, which are concentration values, their O(M/n) bias.
    bias = 0.0 if geometry in _EXACT_MEAN else len(schedule) / n * abs(want)
    if not abs(est.mean - want) <= Z_PLAUSIBLE * est.std_error + bias:
        kinds.append("mc_off_reference")
    return kinds


def chains_pass(rng, rs):
    ops = []
    for index, (geometry, n, _, _) in enumerate(CHAINS_SPECS):
        spec = chains_spec(rs, index, CHAINS_TRIALS, rng.getrandbits(63))
        ops.append(
            Op(f"{geometry} n={n}", partial(_chains_run, spec), partial(_chains_check, index, spec), CHAINS_TRIALS)
        )
    return ops


def determinism_op(rng, rs):
    """Rerun one chains-highdim spec: reruns and worker counts must give == estimates."""
    index = rng.randrange(len(CHAINS_SPECS))
    spec = chains_spec(rs, index, 4 * CHUNK, rng.getrandbits(63))

    def run(api):
        return (
            api.estimate(spec, workers=WORKERS),
            api.estimate(spec, workers=WORKERS),
            api.estimate(spec, workers=1),
        )

    def check(result):
        if isinstance(result, Exception):
            return _raised(result)
        first, rerun, single = result
        kinds = [] if first == rerun else ["rerun_mismatch"]
        return kinds + ([] if first == single else ["workers_mismatch"])

    return Op(f"determinism {CHAINS_SPECS[index][0]}", run, check, 3 * spec.trials, predictions=0)


# sweep-lowdim: short compare runs through the command line, in-process.

_SWEEP_PASS = 140  # one edge point every 20 operations, one of each kind per pass
_EDGES = (
    "sphere_n3_theta0",
    "sphere_n3_thetapi",
    "one_step_sphere",
    "one_step_flat",
    "one_step_hyperbolic",
    "hyperbolic_arcs_555_n10",
    "flat_steps_1e150",
)
_SWEEP_BASELINE = {
    # The boost loses the sheet at arcs of 5; the numeric failure exits 2.
    "hyperbolic_arcs_555_n10": frozenset({"exit_2"}),
    # flat_sigma squares 1e300 and raises through cli.main.
    "flat_steps_1e150": frozenset({"raised_OverflowError"}),
}
_FLAG = {"sphere": "--angles", "flat": "--steps", "hyperbolic": "--arcs"}


def cli_run(argv, api):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.main(argv)
    return code, out.getvalue()


def _cli_check(geometry, n, schedule, seed, result):
    if isinstance(result, Exception):
        return _raised(result)
    code, out = result
    if code not in (0, 1, 2, 3):
        return ["exit_code_invalid"]
    if code in (2, 3):
        return [f"exit_{code}"]
    rows = list(csv.reader(io.StringIO(out)))
    if len(rows) != 2 or tuple(rows[0]) != CSV_COLUMNS:
        return ["csv_malformed"]
    row = dict(zip(CSV_COLUMNS, rows[1]))
    try:
        pred_mean, mc_mean, mc_std, std_error = (
            float(row[k]) for k in ("prediction_mean", "mc_mean", "mc_std", "std_error")
        )
        sigma = float(row["sigma_exact"]) if row["sigma_exact"] else None
    except ValueError:
        return ["csv_malformed"]
    echo = (row["geometry"], row["n_dim"], row["trials"], row["seed"])
    kinds = [] if echo == (geometry, str(n), str(SWEEP_TRIALS), str(seed)) else ["csv_echo_mismatch"]
    moment = geometry in ("monomial", "marginal")
    kinds += reference.check_prediction(geometry, schedule, n, None, pred_mean, sigma if moment else None)
    verdict = row["verdict"]
    if verdict not in ("pass", "fail"):
        return kinds + ["verdict_invalid"]
    if code != (0 if verdict == "pass" else 1):
        kinds.append("exit_code_mismatch")
    if verdict != verdict_of(pred_mean, sigma, mc_mean, mc_std, std_error):
        kinds.append("verdict_inconsistent")
    # As in _chains_check: the verdict may fail by chance, the estimate may
    # not stray from the reference.  All of the sweep's laws are exact.  A
    # heavy-tailed moment, such as t^8 at n=62, often misses its rare large
    # values and then understates its own standard error, so the exact
    # sigma sets a floor under it.
    want, want_sigma = reference.expected(geometry, schedule, n)
    spread = max(std_error, (want_sigma or 0.0) / math.sqrt(SWEEP_TRIALS))
    if not reference.close(mc_mean, want, want, Z_PLAUSIBLE * spread):
        kinds.append("mc_off_reference")
    return kinds


def _sweep_op(rng, tag, geometry, n, schedule):
    seed = rng.getrandbits(63)
    if geometry == "monomial":
        flag, text = "--kind", schedule
    elif geometry == "marginal":
        flag, text = "--power", str(schedule)
    else:
        flag, text = _FLAG[geometry], ",".join(repr(v) for v in schedule)
    argv = [
        "compare", "--geometry", geometry, "--n-dim", str(n), flag, text,
        "--trials", str(SWEEP_TRIALS), "--seed", str(seed), "--workers", str(WORKERS),
        "--output", "csv",
    ]
    return Op(
        tag,
        partial(cli_run, argv),
        partial(_cli_check, geometry, n, schedule, seed),
        SWEEP_TRIALS,
        baseline=_SWEEP_BASELINE.get(tag, frozenset()),
    )


def _draw_step(rng, geometry):
    if geometry == "sphere":
        return rng.uniform(0.0, math.pi)
    if geometry == "flat":
        return rng.uniform(0.1, 2.0)
    return rng.uniform(0.05, 1.5)


def _regular_sweep_op(rng, geometry, k):
    # The k-th op of a geometry in a pass: sizes and step counts follow k,
    # so every pass costs the same; the seed draws the step values.
    if geometry == "monomial":
        return _sweep_op(rng, geometry, geometry, 10, reference.MONOMIAL_KINDS[k % 3])
    if geometry == "marginal":
        return _sweep_op(rng, geometry, geometry, 2 + (37 * k) % 99, 1 + k % 8)
    n, m = 3 + (7 * k) % 22, 1 + k % 6
    return _sweep_op(rng, geometry, geometry, n, tuple(_draw_step(rng, geometry) for _ in range(m)))


def _edge_sweep_op(rng, edge):
    if edge.startswith("sphere_n3"):
        theta = 0.0 if edge.endswith("theta0") else math.pi
        return _sweep_op(rng, edge, "sphere", 3, (theta,) * rng.randint(1, 6))
    if edge.startswith("one_step"):
        geometry = edge.rsplit("_", 1)[1]
        return _sweep_op(rng, edge, geometry, rng.randint(3, 24), (_draw_step(rng, geometry),))
    if edge == "hyperbolic_arcs_555_n10":
        return _sweep_op(rng, edge, "hyperbolic", 10, (5.0, 5.0, 5.0))
    return _sweep_op(rng, edge, "flat", rng.randint(3, 24), (1e150,) * rng.randint(2, 6))


_SWEEP_GEOMETRIES = ("sphere", "flat", "hyperbolic", "monomial", "marginal")


def sweep_pass(rng, rs):
    ops, edges = [], iter(_EDGES)
    for i in range(_SWEEP_PASS):
        if i % 20 == 19:
            ops.append(_edge_sweep_op(rng, next(edges)))
        else:
            k = i - i // 20
            ops.append(_regular_sweep_op(rng, _SWEEP_GEOMETRIES[k % 5], k // 5))
    return ops


# predict-grid: prediction_for alone over a grid of geometries and sizes.

# Marginal sizes: one log-uniform draw in each decade from 3 to 10^6.
_MARGINAL_DECADES = ((3, 10), (10, 100), (100, 10**3), (10**3, 10**4), (10**4, 10**5), (10**5, 10**6))


def _predict_run(geometry, schedule, n, observable, api):
    return api.prediction_for(geometry, schedule, n, observable=observable)


def _predict_check(geometry, values, n, observable, pred):
    if isinstance(pred, Exception):
        return _raised(pred)
    sigma = pred.sigma_exact if geometry in ("monomial", "marginal") else None
    return reference.check_prediction(geometry, values, n, observable, pred.mean, sigma)


def predict_op(rs, geometry, values, n, observable=None, tag=None):
    schedule = values
    if geometry.startswith("operator"):
        schedule = tuple(rs.Spectrum(v) for v in values)
    if tag is None:
        tag = geometry if observable is None else f"{geometry}:{observable}"
    return Op(
        tag,
        partial(_predict_run, geometry, schedule, n, observable),
        partial(_predict_check, geometry, values, n, observable),
        baseline_point=(geometry, values, n, observable),
    )


def _log_uniform_n(rng, low=3, high=10**6):
    return max(low, min(high, int(round(10 ** rng.uniform(math.log10(low), math.log10(high))))))


def _spectrum(rng, n):
    return tuple(np.random.default_rng(rng.getrandbits(63)).uniform(0.05, 1.0, n).tolist())


def grid_pass(rng, rs):
    ops = []
    for geometry in ("sphere", "flat", "hyperbolic"):
        for m in (1, 4, 16, 64):
            for _ in range(4):
                n = _log_uniform_n(rng)
                steps = tuple(_draw_step(rng, geometry) for _ in range(m))
                ops.append(predict_op(rs, geometry, steps, n))
    for n in (10, 100, 1000, 10**4):
        for observable in ("cosine", "norm_ratio"):
            for _ in range(2):
                ops.append(predict_op(rs, "operator", (_spectrum(rng, n),), n, observable))
    for factors in (1, 2, 3, 4):
        for i, n in enumerate((10, 100, 1000)):
            observable = ("cosine", "norm_ratio")[(factors + i) % 2]
            spectra = tuple(_spectrum(rng, n) for _ in range(factors))
            ops.append(predict_op(rs, "operator_product", spectra, n, observable))
    for kind in reference.MONOMIAL_KINDS:
        for _ in range(4):
            ops.append(predict_op(rs, "monomial", kind, _log_uniform_n(rng)))
    for decade, (low, high) in enumerate(_MARGINAL_DECADES):
        for power in range(1, 9):
            n = _log_uniform_n(rng, low, high)
            ops.append(predict_op(rs, "marginal", power, n, tag=f"marginal:p={power},n<1e{decade + 1}"))
    rng.shuffle(ops)
    return ops


# Reference operations for calibration.py, run on the frozen package fb:
# one small operation of each workload's kind, so that it slows down with
# the host as that workload does.


def chains_reference(fb):
    # Four chunks: enough that the pool start-up, which the host's load
    # moves differently from the trials, stays a minor share.
    spec = chains_spec(fb, 0, 4 * CHUNK, 1)
    return lambda: fb.estimate(spec, workers=WORKERS)


def sweep_reference(fb):
    argv = [
        "compare", "--geometry", "sphere", "--n-dim", "10", "--angles", "0.5,0.5,0.5",
        "--trials", "256", "--seed", "1", "--workers", str(WORKERS), "--output", "csv",
    ]
    api = SimpleNamespace(main=fb.cli.main)
    return lambda: cli_run(argv, api)


def grid_reference(fb):
    ops = grid_pass(random.Random(0), fb)[::6]
    api = SimpleNamespace(prediction_for=fb.prediction_for)

    def run():
        for op in ops:
            try:
                op.run(api)
            except Exception:  # a baseline failure is timed like any prediction
                pass

    return run


@dataclass
class Workload:
    name: str
    make_pass: object  # (rng, rs) -> list of Op
    warmup_ops: int  # leading ops of the first pass run once, untimed
    traced_passes: int  # passes in each fixed-size segment of the traced run
    reference: object  # fb -> the workload's calibration reference operation
    reference_nominal_s: float  # its time on the reference machine
    # Take latency percentiles over each tag's median latency rather than
    # over single operations: chains-highdim runs each of its five specs
    # only two or three times in a run, too few to rank one by one.
    rank_by_tag: bool = False
    # Time the reference on the CPU the measured process is on: the two
    # CPUs of a shared machine can differ in speed by half.  Not for
    # chains-highdim, whose reference, like its operations, uses both.
    reference_on_own_cpu: bool = True

    def passes(self, rng, rs):
        """Passes drawn from rng, each one new."""
        while True:
            yield self.make_pass(rng, rs)


WORKLOADS = {
    "chains-highdim": Workload(
        "chains-highdim", chains_pass, 1, 1, chains_reference, 0.5,
        rank_by_tag=True, reference_on_own_cpu=False,
    ),
    "sweep-lowdim": Workload("sweep-lowdim", sweep_pass, 5, 1, sweep_reference, 0.012),
    "predict-grid": Workload("predict-grid", grid_pass, 1000, 20, grid_reference, 0.0035),
}
