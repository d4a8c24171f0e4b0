"""Deterministic Monte Carlo engine for chain experiments.

estimate() runs exactly `trials` independent trials of an experiment, each a
pure function of the stream address (seed, trial_index), and aggregates the
observable's mean and standard deviation.  Trials are processed in fixed
chunks of 2048 whose statistics are computed by exact compensated summation
and merged in chunk order, so the result is bitwise identical no matter how
many workers participate or how the OS schedules them.

Chains start from deterministic configurations: the first basis vector e1 on
the sphere and hyperboloid (their distributions are rotation and boost
invariant, so nothing is lost), the origin in flat space, and e1 as the
operator-product input.  compare() turns an estimate plus a closed-form
Prediction into a pass/fail/indeterminate verdict on standardized z-scores.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chains import (
    _flat_kernel,
    _hyperbolic_kernel,
    _operator_kernel,
    _schedule,
    _sphere_kernel,
)
from .predictors import Prediction
from .sampling import RandomStream, Spectrum

__all__ = [
    "GEOMETRIES",
    "ExperimentSpec",
    "MonteCarloEstimate",
    "ComparisonReport",
    "estimate",
    "compare",
]

GEOMETRIES = (
    "flat",
    "sphere",
    "hyperbolic",
    "operator",
    "operator_product",
    "monomial",
    "marginal",
)

_OPERATOR_GEOMETRIES = ("operator", "operator_product")
_OPERATOR_OBSERVABLES = ("cosine", "norm_ratio")
_MONOMIAL_KINDS = ("x1_sq", "x1_4", "x1sq_x2sq")

# Trials are aggregated in fixed chunks of this size; the chunk layout is
# part of the determinism contract and never depends on the worker count.
_CHUNK = 2048


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully specified chain experiment.

    schedule is geometry-dependent: step angles for sphere, step lengths for
    flat, arc lengths for hyperbolic, one Spectrum (or a list with one) for
    operator, a list of Spectrum for operator_product, a moment kind string
    for monomial, and a positive integer power for marginal.  observable
    selects "cosine" or "norm_ratio" for the operator geometries and must be
    left None elsewhere.
    """

    geometry: str
    n_dim: int
    schedule: object
    trials: int
    seed: int
    observable: Optional[str] = None

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(
                f"unknown geometry {self.geometry!r}; expected one of {GEOMETRIES}"
            )
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        RandomStream(self.seed)  # validates the 64-bit seed range
        if not isinstance(self.n_dim, (int, np.integer)):
            raise ValueError(f"n_dim must be an integer, got {self.n_dim!r}")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "n_dim", int(self.n_dim))
        if self.geometry in _OPERATOR_GEOMETRIES:
            if self.observable is None:
                object.__setattr__(self, "observable", "cosine")
            elif self.observable not in _OPERATOR_OBSERVABLES:
                raise ValueError(
                    f"observable must be one of {_OPERATOR_OBSERVABLES}, "
                    f"got {self.observable!r}"
                )
        elif self.observable is not None:
            raise ValueError(
                f"observable is only meaningful for operator geometries, "
                f"got {self.observable!r} for {self.geometry}"
            )
        object.__setattr__(self, "schedule", self._canonical_schedule())

    def _canonical_schedule(self):
        geometry, n, schedule = self.geometry, self.n_dim, self.schedule
        if geometry == "sphere":
            if n < 3:
                raise ValueError(f"sphere experiments need n_dim >= 3, got {n}")
            return tuple(float(t) for t in _schedule(schedule, "thetas", upper=math.pi))
        if geometry == "flat":
            if n < 2:
                raise ValueError(f"flat experiments need n_dim >= 2, got {n}")
            return tuple(float(d) for d in _schedule(schedule, "ds"))
        if geometry == "hyperbolic":
            if n < 3:
                raise ValueError(f"hyperbolic experiments need n_dim >= 3, got {n}")
            return tuple(float(x) for x in _schedule(schedule, "xis"))
        if geometry in _OPERATOR_GEOMETRIES:
            if isinstance(schedule, Spectrum) or (
                len(schedule) > 0 and np.isscalar(schedule[0])
            ):
                spectra = [schedule]
            else:
                spectra = list(schedule)
            if geometry == "operator" and len(spectra) != 1:
                raise ValueError("operator experiments take exactly one spectrum")
            if not spectra:
                raise ValueError("operator_product experiments need >= 1 spectrum")
            prepared = tuple(
                sp if isinstance(sp, Spectrum) else Spectrum(sp) for sp in spectra
            )
            for sp in prepared:
                if sp.n != n:
                    raise ValueError(
                        f"spectrum length {sp.n} does not match n_dim {n}"
                    )
            return prepared
        if geometry == "monomial":
            if schedule not in _MONOMIAL_KINDS:
                raise ValueError(
                    f"monomial schedule must be one of {_MONOMIAL_KINDS}, "
                    f"got {schedule!r}"
                )
            if n < 2 or (schedule == "x1sq_x2sq" and n < 3):
                raise ValueError(f"n_dim {n} too small for monomial {schedule!r}")
            return schedule
        # marginal
        if not isinstance(schedule, (int, np.integer)) or schedule < 1:
            raise ValueError(
                f"marginal schedule must be a positive integer power, got {schedule!r}"
            )
        if n < 2:
            raise ValueError(f"marginal experiments need n_dim >= 2, got {n}")
        return int(schedule)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Aggregated result of a Monte Carlo run.

    Deterministic given the experiment: rerunning the same spec reproduces
    every field bitwise.  insufficient_trials marks single-trial runs, whose
    sample_std and std_error are reported as 0.
    """

    mean: float
    sample_std: float
    std_error: float
    trials: int
    seed: int
    insufficient_trials: bool = False

    def __post_init__(self):
        if self.sample_std < 0.0 or self.std_error < 0.0:
            raise ValueError("spread fields must be >= 0")
        if self.std_error > self.sample_std:
            raise ValueError("std_error cannot exceed sample_std")


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of comparing an estimate against a closed-form prediction.

    z_mean standardizes the mean discrepancy by the standard error;
    std_ratio is sample_std / sigma_exact when the prediction carries an
    exact sigma greater than 0, else None.  verdict is "pass" when the mean
    lies within z_threshold standard errors and any applicable std check
    passes, "fail" otherwise, and "indeterminate" when a std comparison was
    required but no exact sigma exists.
    """

    prediction: Prediction
    estimate: MonteCarloEstimate
    z_mean: float
    std_ratio: Optional[float]
    verdict: str


class _TrialPool:
    """Reusable Philox generator readdressed to (seed, trial_index) per trial.

    Resetting the key and counter of one bit generator reproduces, bitwise,
    the draws of a freshly constructed RandomStream(seed, index) at a small
    fraction of the construction cost.  Not thread-safe; one pool per worker.
    """

    __slots__ = ("_bg", "_gen", "_state", "_key", "_counter")

    def __init__(self, seed):
        self._bg = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        state = self._bg.state
        self._state = state
        self._key = state["state"]["key"]
        self._counter = state["state"]["counter"]

    def generator_for(self, index):
        self._key[1] = index
        self._counter[:] = 0
        state = self._state
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bg.state = state
        return self._gen


def _make_trial_fn(geometry, n_dim, schedule, observable):
    # Build the per-trial observable function for a payload; called once per
    # chunk, so precomputing schedules and basis vectors here is cheap.
    if geometry == "sphere":
        if not schedule:
            return lambda gen: 1.0
        steps = [(math.cos(t), math.sin(t)) for t in schedule]
        e1 = np.zeros(n_dim)
        e1[0] = 1.0
        return lambda gen: float(_sphere_kernel(e1, steps, gen)[0])
    if geometry == "flat":
        if not schedule:
            return lambda gen: 0.0
        return lambda gen: _flat_kernel(schedule, n_dim, gen)[1]
    if geometry == "hyperbolic":
        if not schedule:
            return lambda gen: 1.0
        steps = [(math.cosh(x), math.sinh(x)) for x in schedule]
        e1 = np.zeros(n_dim)
        e1[0] = 1.0
        return lambda gen: float(_hyperbolic_kernel(e1, steps, gen)[0])
    if geometry in _OPERATOR_GEOMETRIES:
        values = [np.asarray(s, dtype=np.float64) for s in schedule]
        e1 = np.zeros(n_dim)
        e1[0] = 1.0
        want_ratio = observable == "norm_ratio"

        def fn(gen):
            ratio, cosine, _, _ = _operator_kernel(values, e1, gen)
            return ratio if want_ratio else cosine

        return fn
    if geometry == "monomial":
        kind = schedule
        return _coordinate_fn(
            n_dim,
            {
                "x1_sq": lambda t0, t1: t0 * t0,
                "x1_4": lambda t0, t1: (t0 * t0) * (t0 * t0),
                "x1sq_x2sq": lambda t0, t1: (t0 * t0) * (t1 * t1),
            }[kind],
        )
    # marginal
    power = schedule
    return _coordinate_fn(n_dim, lambda t0, t1: t0**power)


def _coordinate_fn(n_dim, reduce_fn):
    # Observable depending on the first two coordinates of a uniform point on
    # the sphere in R^n_dim.
    def fn(gen):
        g = gen.standard_normal(n_dim)
        nrm = math.sqrt(float(g @ g))
        while nrm <= 1e-150:
            g = gen.standard_normal(n_dim)
            nrm = math.sqrt(float(g @ g))
        return reduce_fn(float(g[0]) / nrm, float(g[1]) / nrm)

    return fn


def _chunk_stats(task):
    """Exact (count, mean, M2) for one chunk of trials; pure in the task."""
    (geometry, n_dim, schedule, seed, observable), start, stop = task
    fn = _make_trial_fn(geometry, n_dim, schedule, observable)
    pool = _TrialPool(seed)
    values = [fn(pool.generator_for(i)) for i in range(start, stop)]
    count = len(values)
    mean = math.fsum(values) / count
    m2 = math.fsum((v - mean) ** 2 for v in values)
    return count, mean, m2


def _payload(spec):
    if spec.geometry in _OPERATOR_GEOMETRIES:
        schedule = tuple(tuple(float(v) for v in sp.values) for sp in spec.schedule)
    else:
        schedule = spec.schedule
    return (spec.geometry, spec.n_dim, schedule, spec.seed, spec.observable)


def estimate(spec, workers=1):
    """Run spec.trials independent trials and aggregate the observable.

    Trial i draws from the stream (spec.seed, i); results are bitwise
    independent of the worker count because chunk statistics are exact and
    merged in a fixed order.

    Parameters
    ----------
    spec : ExperimentSpec
    workers : int
        Process count for fanning out chunks; 1 runs in-process.
    """
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"expected ExperimentSpec, got {type(spec).__name__}")
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    payload = _payload(spec)
    tasks = [
        (payload, start, min(start + _CHUNK, spec.trials))
        for start in range(0, spec.trials, _CHUNK)
    ]
    if workers == 1 or len(tasks) == 1:
        stats = [_chunk_stats(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(int(workers), len(tasks))) as pool:
            stats = list(pool.map(_chunk_stats, tasks))
    count, mean, m2 = stats[0]
    for k, m, s2 in stats[1:]:
        total = count + k
        delta = m - mean
        mean = mean + delta * (k / total)
        m2 = m2 + s2 + delta * delta * (count * k / total)
        count = total
    if count != spec.trials:
        raise AssertionError(f"aggregated {count} of {spec.trials} trials")
    if spec.trials >= 2:
        sample_std = math.sqrt(max(m2 / (spec.trials - 1), 0.0))
        return MonteCarloEstimate(
            mean=mean,
            sample_std=sample_std,
            std_error=sample_std / math.sqrt(spec.trials),
            trials=spec.trials,
            seed=spec.seed,
        )
    return MonteCarloEstimate(
        mean=mean,
        sample_std=0.0,
        std_error=0.0,
        trials=spec.trials,
        seed=spec.seed,
        insufficient_trials=True,
    )


def compare(pred, est, z_threshold=4.0, std_tolerance=0.1, require_std=False):
    """Compare a Monte Carlo estimate against a closed-form prediction.

    The mean check is |z_mean| <= z_threshold with z_mean = (estimate mean -
    predicted mean) / std_error; a zero std_error passes only on exact
    agreement.  When the prediction carries sigma_exact > 0 the sample
    standard deviation must additionally satisfy |std_ratio - 1| <=
    std_tolerance.  require_std=True demands that std check; if no exact
    sigma exists the verdict is "indeterminate".

    Raises
    ------
    ValueError
        When a std comparison applies but the estimate has fewer than 2
        trials, or thresholds are not positive.
    """
    if not z_threshold > 0.0:
        raise ValueError(f"z_threshold must be > 0, got {z_threshold!r}")
    if not std_tolerance > 0.0:
        raise ValueError(f"std_tolerance must be > 0, got {std_tolerance!r}")
    diff = est.mean - pred.mean
    if est.std_error > 0.0:
        z_mean = diff / est.std_error
    elif diff == 0.0:
        z_mean = 0.0
    else:
        z_mean = math.copysign(math.inf, diff)
    applicable = pred.sigma_exact is not None and pred.sigma_exact > 0.0
    std_ratio = None
    std_ok = True
    if applicable:
        if est.trials < 2:
            raise ValueError("variance comparison needs at least 2 trials")
        std_ratio = est.sample_std / pred.sigma_exact
        std_ok = abs(std_ratio - 1.0) <= std_tolerance
    if require_std and not applicable:
        verdict = "indeterminate"
    else:
        z_ok = not math.isnan(z_mean) and abs(z_mean) <= z_threshold
        verdict = "pass" if (z_ok and std_ok) else "fail"
    return ComparisonReport(
        prediction=pred,
        estimate=est,
        z_mean=z_mean,
        std_ratio=std_ratio,
        verdict=verdict,
    )
