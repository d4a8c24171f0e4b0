"""Deterministic Monte Carlo engine for chain experiments: its random streams,
spectra and point types, and the geometry table.

All randomness flows through RandomStream, an SFC64 stream addressed by
(seed, stream_id): equal addresses give bitwise equal streams.  Spectrum is
an operator's eigenvalues; UnitVector and HyperboloidPoint, read-only
points, give the run_* runners the dimension of their start point.

Every geometry is one row of _GEOMETRY_TABLE: the parser that validates a
schedule against the dimension, the closed-form predictor, the
dimension-reduced kernel that samples the observable, the variates that
kernel draws per trial, the allowed observables, and whether its mean
needs no dimension.  ExperimentSpec, prediction_for, estimate and the CLI
all dispatch through it.  "operator" is
"operator_product" with exactly one factor, and "kappa" is
"operator_product" over the spectra v_k = 1/(1 + d_k kappa_k) of a curvature
path, with n the path's width: the three rows differ only in their parsers.

estimate() runs exactly `trials` independent trials of an experiment in
fixed chunks of 2048.  Chunk k draws all its trials at once, vectorised,
from the stream addressed by (seed, k).  Each chunk works in its frame,
its values scaled by a power of two so that the largest lies in [1/2, 1),
where nothing overflows.  Its mean is its exact sum over the trial count,
rounded once (by math.fsum and an exact power-of-two scale for a count of
2^k, as every full chunk has, else by integer division), and its sum of
squared deviations, rounded as math.fsum rounds it, rides through the merge
with its exponent; one extraction round, with a certified bound on its
residuals, settles each rounding (_certified).
Chunks merge in chunk order, so the result is bitwise identical no matter
how many workers participate or how the OS schedules them.  Chunks go to
threads only where each draws at least 2^17 variates, 64 per trial.

Chains start from e1 on the sphere and hyperboloid (their laws are rotation
and boost invariant), the origin in flat space, and e1 as the operator
input.  Each follows the paper's step map, with the law of the full walk,
driven per step by one coordinate t of a uniform point on the unit sphere of
R^m (m = n, or n - 1 when curved), as one map at curvature kappa = +1, 0 and
-1 on delta = 1 - c, r^2 / 2 or a - 1 (c the cosine, r = ||x||, a the
Minkowski inner product).  With c_kappa = 1 - kappa delta, and each step's
(V, C, S) = (2 sin^2(theta/2), cos theta, sin theta), (d^2 / 2, 1, d) or
(2 sinh^2(xi/2), cosh xi, sinh xi), so that C + kappa V = 1,

    delta' = V + C delta + t s S,    s = sqrt(delta (1 + c_kappa)).

The sphere also steps eps = 1 + c by -t s S, reads c = (eps - delta) / 2,
and reflects c -> -c (swaps delta and eps) before a step past pi/2, so no
term but t s S cancels at either pole.  The flat chain steps by d 2^-e, e
the exponent of the longest step, and scales r^2 by 4^e.  The first step
with S != 0 starts at a pole and draws no t; a chain with no other reports
the product of its Cs, or d^2, exactly.  The sphere's (cos theta, sin theta)
are the predictor's own, snapped near 0, pi/2 and pi (_sphere_steps).
One sampler draws every coordinate from two uniforms U and V, by the polar
law of a uniform point's first two coordinates (Ulrich, Appl. Statist.
33(2), 1984): t = r cos(pi V) with r^2 = 1 - U^(2/(m - 2)), which is Beta(1,
(m - 2)/2); m = 2 draws V alone, and m = 1 a fair sign.  Monomial and
marginal trials take t0 in R^n and, if needed, t1 = sqrt(1 - t0^2) times one
in R^(n-1), and raise them to integer powers by squaring, in IEEE
multiplications alone.  Operator factors need only the squares g_i^2 of a
Gaussian row, drawn in Box-Muller pairs (Box and Muller, Ann. Math. Statist.
29, 1958) from uniforms alone: (g_2j^2, g_2j+1^2) = 2E (1 - C, C), E =
-log1p(-U) and C = 1 / (1 + tan^2(pi V / 2)); an odd n pads a zero weight.
Each factor works in its own frame, as a chunk does, and steps its cosine by
the kappa = +1 map, the first non-scalar one from a pole, with no t.  The
run_* chain runners are one-trial calls of the same kernels: run_*(...,
RandomStream(s, 0)) returns the mean of a one-trial estimate with seed s, bit
for bit, as a float, or as the pair (norm_ratio, cosine) from
run_operator_product.  compare() turns an estimate plus a closed-form
Prediction into a pass/fail/indeterminate verdict on standardized z-scores.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .predictors import (
    _MONOMIAL_KINDS,
    _MONOMIALS,
    _OPERATOR_OBSERVABLES,
    CurvaturePath,
    Prediction,
    _dimension,
    _exact_terms,
    _exponent,
    _flat,
    _hyperbolic,
    _is_integer,
    _moment_prediction,
    _operator,
    _schedule_tuple,
    _sphere,
    _sphere_steps,
    as_vector,
)

__all__ = [
    "GEOMETRIES",
    "ExperimentSpec",
    "MonteCarloEstimate",
    "ComparisonReport",
    "estimate",
    "compare",
    "prediction_for",
    "run_sphere_chain",
    "run_flat_chain",
    "run_hyperbolic_chain",
    "run_operator_product",
    "RandomStream",
    "Spectrum",
    "UnitVector",
    "HyperboloidPoint",
]

# Trials are aggregated in fixed chunks of this size; the chunk layout is
# part of the determinism contract and never depends on the worker count.
_CHUNK = 2048
# Operator factors draw their rows of uniforms in blocks of about this
# many doubles (1 MiB), n + n % 2 per row.
_BLOCK_DRAWS = 1 << 17
# A chunk goes to a thread only if it draws at least this many variates (64
# per trial): below it, hand-offs of the interpreter lock between numpy's
# short calls cost about what the overlap saves, or more.
_FANOUT_DRAWS = 1 << 17
_UINT64_MAX = 2**64 - 1
# Below this norm a draw is treated as degenerate and redrawn; the event has
# probability zero in exact arithmetic.
_DEGENERATE_NORM = 1e-150


def _sfc64(seed, stream_id):
    # The generator of the stream (seed, stream_id), for integers already checked.
    seq = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.SFC64(seq))


class RandomStream:
    """Random stream addressed by (seed, stream_id).

    An SFC64 generator seeded from ``SeedSequence(seed, spawn_key=(stream_id,))``,
    child stream_id of ``SeedSequence(seed)``, which hashes the whole address
    into the state: distinct addresses give independent streams, and equal
    addresses reproduce the same sequence bitwise.  A stream is cheap to
    create and holds its own generator state, so a single stream must not be
    shared by concurrent writers; hand each worker its own.
    """

    __slots__ = ("seed", "stream_id", "_generator")

    def __init__(self, seed, stream_id=0):
        for label, value in (("seed", seed), ("stream_id", stream_id)):
            if not _is_integer(value):
                raise TypeError(f"{label} must be an integer, got {type(value).__name__}")
            if not (0 <= int(value) <= _UINT64_MAX):
                raise ValueError(f"{label} must fit in an unsigned 64-bit integer")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._generator = None

    @property
    def generator(self):
        """The underlying numpy Generator, created on first use."""
        if self._generator is None:
            self._generator = _sfc64(self.seed, self.stream_id)
        return self._generator

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"


def _gen_of(rng):
    if isinstance(rng, RandomStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(
        f"expected a RandomStream or numpy Generator, got {type(rng).__name__}"
    )


def _freeze(arr):
    arr.flags.writeable = False
    return arr


class Spectrum:
    """A prescribed multiset of eigenvalues for a random symmetric operator.

    Values are stored sorted in descending order so two spectra compare
    canonically regardless of input order.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = _freeze(np.sort(as_vector(values, "spectrum"))[::-1].copy())

    @property
    def n(self):
        return self.values.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.n == other.n and bool(np.all(self.values == other.values))

    def __hash__(self):
        return hash(self.values.tobytes())

    def __repr__(self):
        return f"Spectrum(n={self.n})"


def _prepare_spectra(spectra, n=None):
    """spectra as a tuple of Spectrum, all of length n (by default the first's)."""
    prepared = tuple(sp if isinstance(sp, Spectrum) else Spectrum(sp) for sp in spectra)
    for sp in prepared:
        n = sp.n if n is None else n
        if sp.n != n:
            raise ValueError(f"spectrum length {sp.n} does not match dimension {n}")
    return prepared


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully specified chain experiment.

    geometry is one of GEOMETRIES, and its row of the geometry table parses
    the schedule into canonical form: a tuple of floats of step angles
    (sphere), step lengths (flat) or arc lengths (hyperbolic); a tuple of
    Spectrum, from one Spectrum or eigenvalue list (operator, exactly one),
    a list of them (operator_product), or a CurvaturePath (kappa, the
    spectra v_k); a monomial kind string (monomial); or a positive integer
    power (marginal).  Every spectrum's length must equal n_dim.  observable
    selects "cosine" (the default) or "norm_ratio" for operator,
    operator_product and kappa, and must be left None elsewhere.
    """

    geometry: str
    n_dim: int
    schedule: object
    trials: int
    seed: int
    observable: Optional[str] = None

    def __post_init__(self):
        row = _geometry(self.geometry)
        if not _is_integer(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        RandomStream(self.seed)  # validates the 64-bit seed range
        n_dim = _dimension(self.n_dim)
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "n_dim", n_dim)
        object.__setattr__(self, "observable", row.observable(self.observable))
        object.__setattr__(self, "schedule", row.parse(self.schedule, self.n_dim)[0])


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


def _cos_pi(v):
    # cos(pi v) for v in [0, 1) as 2 tau / (1 + tau^2), tau = tan(pi (1/2 - v) / 2)
    # in (-1, 1]: 1/2 - v is exact near v = 1/2, where the cosine is small.
    tau = np.subtract(0.5, v)
    tau *= math.pi / 2
    np.tan(tau, out=tau)
    w = tau * tau
    w += 1.0
    np.divide(tau, w, out=tau)
    tau *= 2.0
    return tau


def _sphere_coordinate(gen, m, shape):
    # One coordinate t of uniform points on the unit sphere of R^m, as in the
    # module docstring, from one uniform pair (U, V) per coordinate, drawn
    # side by side so that a shorter draw is a prefix of a longer one.
    if m == 1:
        return np.where(gen.random(shape) < 0.5, 1.0, -1.0)
    if m == 2:
        return _cos_pi(gen.random(shape))
    uv = gen.random((*shape, 2) if isinstance(shape, tuple) else (shape, 2))
    # r = sqrt(1 - (1 - U)^c), c = 2 / (m - 2), as sqrt(-expm1(c log1p(-U))):
    # no log(0), and full relative precision at any m.  Past m of about
    # 2^61, |c log1p(-U)| < 2^-54, where expm1 is the identity, and r is
    # sqrt(-log1p(-U)) sqrt(c), so r^2 never falls below the normal range.
    c = 2.0 / (m - 2)
    r = np.negative(uv[..., 0])
    np.log1p(r, out=r)
    if c < 2.0**-60:
        np.negative(r, out=r)
        np.sqrt(r, out=r)
        r *= math.sqrt(c)
    else:
        r *= c
        np.expm1(r, out=r)
        np.negative(r, out=r)
        np.sqrt(r, out=r)
    r *= _cos_pi(uv[..., 1])
    return r


def _power(x, p):
    # x^p, p >= 0, by squaring, within p - 1 roundings; numpy sends negative bases to libm's pow.
    result = None
    while p:
        if p & 1:
            result = x if result is None else result * x
        p >>= 1
        if p:
            x = x * x
    return np.ones_like(x) if result is None else result


def _coordinate_values(gen, n, count, p0, p1):
    # t0^p0 t1^p1 for count uniform points on the sphere of R^n; t1 is
    # sqrt(1 - t0^2) times a coordinate in R^(n-1), drawn only when p1 > 0.
    t0 = _sphere_coordinate(gen, n, count)
    if not p1:
        return _power(t0, p0)
    radius = np.sqrt((1.0 - t0) * (1.0 + t0))
    return _power(t0, p0) * _power(radius * _sphere_coordinate(gen, n - 1, count), p1)


def _pair_moments(gen, count, w):
    # Rows (sum g^2 w) / 2 over count Gaussian rows g of length n = len(w),
    # by Box-Muller pairs: (g_2j^2, g_2j+1^2) = 2E (1 - C, C), E = -log1p(-U)
    # and C = 1 / (1 + tan^2(pi V / 2)) = cos^2(pi V / 2), U and V uniform.
    # An odd n pads w with a zero row: its last pair adds E (1 - C) w[-1], g^2 / 2.
    # Each block's Us, then Vs, come from one random call into one reused
    # buffer (small at any n, no fresh page faults) and give the rows negated,
    # from -E and -E C; a row of degenerate total (probability zero) is redrawn.
    h = (len(w) + 1) // 2
    w = np.concatenate([w, np.zeros((2 * h - len(w), w.shape[1]))])
    even, step = w[0::2], w[1::2] - w[0::2]
    rows = max(1, _BLOCK_DRAWS // (2 * h))
    buf = np.empty(2 * min(rows, count) * h)

    def draw(k):
        e, ec = gen.random(out=buf[: 2 * k * h].reshape(2, k, h))
        np.log1p(np.negative(e, out=e), out=e)
        ec *= math.pi / 2
        np.tan(ec, out=ec)
        ec *= ec
        ec += 1.0
        np.divide(e, ec, out=ec)
        return -(e @ even + ec @ step)

    out = np.empty((count, w.shape[1]))
    for lo in range(0, count, rows):
        block = out[lo : lo + rows]
        block[:] = draw(block.shape[0])
        bad = np.flatnonzero(2.0 * block[:, 0] <= _DEGENERATE_NORM**2)
        while bad.size:
            block[bad] = draw(bad.size)
            bad = bad[2.0 * block[bad, 0] <= _DEGENERATE_NORM**2]
    return out


def _chain_step(kappa, state, v, c, sin, t):
    # The map on state = (delta, eps) in place, C >= 0 (1 when flat, so no
    # multiply); s is sqrt(delta eps), sqrt(2 delta) or two roots (delta (2 +
    # delta) overflows past 1e154), with a delta rounded below 0 as 0, and 0
    # at a pole, where t is None.
    delta, eps = state
    if t is not None:
        if kappa < 0:
            s = np.sqrt(np.maximum(delta, 0.0))
            s *= np.sqrt(delta + 2.0)
        else:
            s = np.multiply(delta, eps if kappa else 2.0)
            np.sqrt(np.maximum(s, 0.0, out=s), out=s)
        s *= t
        s *= sin
    row = state if kappa > 0 else delta
    if kappa:
        row *= c
    row += v
    if t is not None:
        delta += s
        if kappa > 0:
            eps -= s


def _displacements(kappa, steps, gen, count, m):
    # (delta, eps) from the pole (0, 2), one column while all trials are
    # alike.  C < 0 swaps them (c -> -c) before a step by -C, the identity if
    # S = 0; each step with S != 0 but the first draws t in R^m per trial.
    state, later = np.array([[0.0], [2.0]]), sum(s != 0.0 for _, _, s in steps) - 1
    ts, t = iter(_sphere_coordinate(gen, m, (later, count)) if later > 0 else ()), None
    for v, c, s in steps:
        if c < 0.0:
            state, c = state[::-1], -c
        if s:
            if t is not None and state.shape[1] == 1:
                state = np.repeat(state, count, axis=1)
            _chain_step(kappa, state, v, c, s, t)
            t = next(ts, None)
    return state


def _triples(kappa, schedule):
    # (V, C, S) per step, and the flat frame's exponent e.  Sphere steps snap
    # as _sphere_steps does, with V 1 where C is 0, and past pi/2 V is the
    # step pi - theta's, 2 cos^2(theta/2); a step with S = 0 only reflects.
    if kappa == 0:
        e = _exponent(max(schedule, default=0.0))
        return [(d * d / 2.0, 1.0, d) for d in (math.ldexp(x, -e) for x in schedule)], e
    steps = []
    if kappa > 0:
        for x, (c, s) in zip(schedule, _sphere_steps(schedule)):
            h = (math.sin if c > 0.0 else math.cos)(x / 2.0)
            steps.append((2.0 * h * h if c else 1.0, c, s))
        return steps, 0
    try:
        for x in schedule:
            h = math.sinh(x / 2.0)
            steps.append((2.0 * h * h, math.cosh(x), math.sinh(x)))
    except OverflowError:
        raise OverflowError(f"cosh of the arc {x!r} overflows") from None
    return steps, 0


def _chain_values(kappa, gen, count, n, schedule, observable):
    # The chain kernels: c, 2 delta 4^e or 1 + delta, or the product of the
    # Cs where at most one step has S != 0 and so every trial is alike.
    steps, e = _triples(kappa, schedule)
    if kappa and sum(s != 0.0 for _, _, s in steps) <= 1:
        return np.full(count, math.prod(c for _, c, _ in steps))
    state = _displacements(kappa, steps, gen, count, n - abs(kappa))
    if kappa == 0:
        with np.errstate(over="ignore"):
            values = np.ldexp(state[0], 2 * e + 1, out=state[0])
    else:
        values = (state[1] - state[0]) * 0.5 if kappa > 0 else np.add(state[0], 1.0, out=state[0])
    return values if len(values) == count else np.full(count, values[0])


def _coordinate_draws(m):
    # The uniforms _sphere_coordinate draws per coordinate in R^m.
    return 1 if m <= 2 else 2


def _chain_draws(kappa, schedule, n):
    # One coordinate in R^(n - |kappa|) per step with S != 0 after the first.
    moving = sum(s != 0.0 for _, _, s in _triples(kappa, schedule)[0])
    return max(moving - 1, 0) * _coordinate_draws(n - abs(kappa))


def _operator_trials(gen, count, n, spectra):
    # (norm ratio, cosine, degenerate) of count products of random factors U^T
    # diag(s) U, U Haar, applied to e1.  Per non-scalar factor: x = U v is
    # uniform on the sphere, so the image has the component alpha = x.diag(s)x
    # along the input v and beta orthogonal to it, pointing uniformly within v's
    # complement.  So the norm grows by r = hypot(alpha, beta), and the cosine
    # takes the kappa = +1 step (C, S) = (|alpha|, beta) / r, V = S^2 / (1 +
    # C), reflected first where alpha < 0, as by a negative scalar factor.
    # x_i^2 = g_i^2 / sum g^2 for a Gaussian row g, so alpha and beta need only
    # sum g^2 times 1, a and a^2, a = s - mean(s), which _pair_moments draws;
    # moments about the mean keep beta^2 = E[a^2] - E[a]^2 free of cancellation.
    # Scalar factors draw nothing, and the first other factor steps from a
    # pole, where s = 0, so it draws no coordinate.  Each factor runs in its
    # frame, s scaled by 2^-e, e the exponent of max |s|: a^2 stays in range,
    # the cosine does not move, a row is dead where r <= _DEGENERATE_NORM
    # relative to max |s|, and the norm ratio is a mantissa per row times
    # 2^(sum of e), or inf.
    ratio, state, moved = np.ones(count), np.repeat([[0.0], [2.0]], count, axis=1), False
    exponent, dead = np.zeros(count, dtype=np.int64), np.zeros(count, dtype=bool)
    for s in (sp.values for sp in spectra):
        e = _exponent(max(s[0], -s[-1]))
        s = np.ldexp(s, -e)
        if np.all(s == s[0]):
            r = abs(s[0])
            state = state[::-1] if s[0] < 0.0 else state
        else:
            shift = float(np.mean(s))
            a = s - shift
            mom = _pair_moments(gen, count, np.stack([np.ones(n), a, a * a], axis=1))
            mom = mom[:, 1:] / mom[:, :1]
            alpha = shift + mom[:, 0]
            beta = np.sqrt(np.maximum(mom[:, 1] - mom[:, 0] ** 2, 0.0))
            r = np.hypot(alpha, beta)
            state = np.where(alpha < 0.0, state[::-1], state)
            with np.errstate(invalid="ignore"):  # 0 / 0 only on rows now dead
                c, sin = np.abs(alpha) / r, beta / r
            t = _sphere_coordinate(gen, n - 1, count) if moved else None
            _chain_step(1, state, sin * sin / (1.0 + c), c, sin, t)
            moved = True
        ratio, k = np.frexp(ratio * r)
        exponent += k + e
        dead |= r <= _DEGENERATE_NORM
    with np.errstate(over="ignore"):
        return np.ldexp(ratio, exponent), (state[1] - state[0]) * 0.5, dead


def _operator_draws(spectra, n):
    # A U and a V per pair, n + n % 2 uniforms, per factor with more than one
    # eigenvalue, and a coordinate per such factor after the first.
    moving = sum(sp.values[0] != sp.values[-1] for sp in spectra)
    return moving * (n + n % 2) + max(moving - 1, 0) * _coordinate_draws(n - 1)


def _operator_values(gen, count, n, spectra, observable):
    ratio, c, dead = _operator_trials(gen, count, n, spectra)
    if observable == "norm_ratio":
        return np.where(dead, 0.0, ratio)
    return np.where(dead, math.nan, c)


def _check_n(n, least, geometry, capped=True):
    # n as _dimension gives it, and at least least; None stays None.
    if n is None:
        return None
    n = _dimension(n, capped)
    if n < least:
        raise ValueError(f"{geometry} experiments need n_dim >= {least}, got {n}")
    return n


def _parse_steps(name, upper, least, geometry, schedule, n):
    # A sphere, flat or hyperbolic schedule, the tuple of floats in [0,
    # upper] that _schedule_tuple checks.  Its predictor divides by n in
    # floats, so n must lie in the double range.
    n = _check_n(n, least, geometry)
    return _schedule_tuple(schedule, name, upper), n


def _parse_product(schedule, n):
    # One spectrum (a Spectrum or a list of eigenvalues) or a sequence of
    # them; n defaults to their common length.
    n = None if n is None else _dimension(n)
    if isinstance(schedule, Spectrum) or (len(schedule) > 0 and np.isscalar(schedule[0])):
        schedule = [schedule]
    spectra = _prepare_spectra(schedule, n)
    if not spectra:
        raise ValueError("operator_product experiments need >= 1 spectrum")
    return spectra, spectra[0].n


def _parse_operator(schedule, n):
    spectra, n = _parse_product(schedule, n)
    if len(spectra) != 1:
        raise ValueError(
            "operator experiments take exactly one spectrum; use operator_product for several"
        )
    return spectra, n


def _parse_kappa(schedule, n):
    # A CurvaturePath, or its (d, kappas) steps, becomes the spectra
    # v_k = 1/(1 + d_k kappa_k); spectra made from one pass through.
    if isinstance(schedule, CurvaturePath) or not all(isinstance(sp, Spectrum) for sp in schedule):
        path = schedule if isinstance(schedule, CurvaturePath) else CurvaturePath(schedule)
        schedule = [Spectrum(v) for v in path.weight_vectors()]
    return _parse_product(schedule, n)


def _parse_kind(kind, n):
    # n is not capped: the moment cores take it in exact integer ratios, and
    # a moment that underflows raises PrecisionLossError.
    if kind not in _MONOMIAL_KINDS:
        raise ValueError(f"monomial schedule must be one of {_MONOMIAL_KINDS}, got {kind!r}")
    return kind, _check_n(n, 3 if kind == "x1sq_x2sq" else 2, "monomial", capped=False)


def _parse_power(power, n):
    if not _is_integer(power) or power < 1:
        raise ValueError(f"marginal schedule must be a positive integer power, got {power!r}")
    return int(power), _check_n(n, 2, "marginal", capped=False)


@dataclass(frozen=True)
class _Geometry:
    """One row of the geometry table.

    parse(schedule, n) validates schedule and the dimension n, an integer
    (None skips the dimension checks), and returns (canonical schedule, n),
    with n taken from the schedule where it fixes it.
    predict(schedule, n, observable) and
    kernel(gen, count, n, schedule, observable) take the canonical
    schedule and check it no further; the kernel returns count observables.
    draws(schedule, n) is the variates the kernel draws per trial, doubles
    from its generator; estimate fans out only chunks that draw many.
    observables are the allowed observables (the default first), and dimfree
    is set where the mean needs no n: predict(schedule, inf, None) then
    gives that mean, with sigmas of 0.
    """

    parse: Callable
    predict: Callable
    kernel: Callable
    draws: Callable
    observables: tuple = ()
    dimfree: bool = False

    def observable(self, observable):
        """observable validated against this geometry, or its default when None."""
        if not self.observables:
            if observable is not None:
                raise ValueError(
                    f"observable is only meaningful for operator geometries, got {observable!r}"
                )
            return None
        if observable is None:
            return self.observables[0]
        if observable not in self.observables:
            raise ValueError(f"observable must be one of {self.observables}, got {observable!r}")
        return observable


_PRODUCT = dict(
    predict=lambda spectra, _, obs: _operator([sp.values for sp in spectra], obs),
    kernel=_operator_values,
    draws=_operator_draws,
    observables=_OPERATOR_OBSERVABLES,
)


def _chain_row(kappa, geometry, name, upper, least, predict):
    return _Geometry(
        partial(_parse_steps, name, upper, least, geometry),
        lambda steps, n, _: predict(steps, n),
        partial(_chain_values, kappa),
        partial(_chain_draws, kappa),
        dimfree=True,
    )


_GEOMETRY_TABLE = {
    "flat": _chain_row(0, "flat", "steps", math.inf, 2, _flat),
    "sphere": _chain_row(1, "sphere", "angles", math.pi, 3, _sphere),
    "hyperbolic": _chain_row(-1, "hyperbolic", "arcs", math.inf, 3, _hyperbolic),
    "operator": _Geometry(_parse_operator, **_PRODUCT),
    "operator_product": _Geometry(_parse_product, **_PRODUCT),
    "monomial": _Geometry(
        _parse_kind,
        lambda kind, n, _: _moment_prediction(
            *_MONOMIALS[kind], n, kind, "exact moment of the uniform sphere measure"
        ),
        lambda gen, count, n, kind, _: _coordinate_values(gen, n, count, *_MONOMIALS[kind]),
        lambda kind, n: _coordinate_draws(n) + (_MONOMIALS[kind][1] > 0) * _coordinate_draws(n - 1),
    ),
    "marginal": _Geometry(
        _parse_power,
        lambda power, n, _: _moment_prediction(power, 0, n, f"t^{power}", "exact Beta moment"),
        lambda gen, count, n, power, _: _coordinate_values(gen, n, count, power, 0),
        lambda power, n: _coordinate_draws(n),
    ),
    "kappa": _Geometry(_parse_kappa, **_PRODUCT),
}

GEOMETRIES = tuple(_GEOMETRY_TABLE)


def _geometry(name):
    """The table row of the geometry called name."""
    try:
        return _GEOMETRY_TABLE[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown geometry {name!r}; expected one of {GEOMETRIES}") from None


def prediction_for(geometry, schedule, n_dim, observable=None):
    """The closed-form Prediction for an experiment, from its geometry's row.

    schedule, n_dim and observable are as for ExperimentSpec, and are
    validated the same way: a step list, spectra, a curvature path, a
    monomial kind or a marginal power; observable defaults to "cosine"
    where it applies.  n_dim must be an integer; the monomial and marginal
    rows, alone, accept one past the double range.  This is the one
    checked entry to every closed-form mean and sigma.
    """
    row = _geometry(geometry)
    schedule, n = row.parse(schedule, n_dim)
    if n is None:
        raise ValueError(f"{geometry} predictions need n_dim, got None")
    return row.predict(schedule, n, row.observable(observable))


def _trial_values(spec, index, count):
    """Observables of count trials of spec, all drawn from the stream (seed, index)."""
    row = _GEOMETRY_TABLE[spec.geometry]
    return row.kernel(_sfc64(spec.seed, index), count, spec.n_dim, spec.schedule, spec.observable)


def _one_trial(geometry, schedule, n, rng):
    # The observable of one trial of geometry's kernel, drawn from rng.
    row = _GEOMETRY_TABLE[geometry]
    schedule, n = row.parse(schedule, _dimension(n))
    return float(row.kernel(_gen_of(rng), 1, n, schedule, None)[0])


# Point constructors accept inputs this far from the exact invariant and
# renormalize; anything farther is rejected as a likely caller bug.
CONSTRUCTION_TOL = 1e-6


class UnitVector:
    """A Euclidean unit vector, read-only; the runners read only its dimension.

    Construction renormalizes inputs whose norm is within CONSTRUCTION_TOL of
    1 and rejects anything farther.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = as_vector(values, "unit vector")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"norm {nrm!r} is not within {CONSTRUCTION_TOL} of 1")
        self.values = _freeze(v / nrm)

    @property
    def dim(self):
        return self.values.shape[0]

    def __repr__(self):
        return f"UnitVector(dim={self.dim})"


class HyperboloidPoint:
    """A point on the future sheet of the unit hyperboloid, read-only.

    Coordinates x = (x1, x~) with Minkowski square x1^2 - ||x~||^2 = 1 and x1 > 0.
    Construction renormalizes inputs whose Minkowski square is within
    CONSTRUCTION_TOL of 1; :meth:`from_spatial` lifts a spatial vector by
    solving for the timelike coordinate.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = as_vector(values, "hyperboloid point")
        if v.shape[0] < 2:
            raise ValueError("hyperboloid points need dimension >= 2")
        if v[0] <= 0.0:
            raise ValueError("timelike coordinate must be positive")
        q = float(v[0] * v[0] - v[1:] @ v[1:])
        if abs(q - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(
                f"Minkowski square {q!r} is not within {CONSTRUCTION_TOL} of 1"
            )
        self.values = _freeze(v / math.sqrt(q))

    @classmethod
    def from_spatial(cls, spatial):
        """Lift a spatial vector to the hyperboloid via x1 = sqrt(1 + ||s||^2)."""
        s = as_vector(spatial, "spatial part")
        v = np.empty(s.shape[0] + 1)
        v[0] = math.sqrt(1.0 + float(s @ s))
        v[1:] = s
        return cls(v)

    @property
    def dim(self):
        return self.values.shape[0]

    def __repr__(self):
        return f"HyperboloidPoint(dim={self.dim})"


def _dim(point, kind):
    # The start point's dimension: the observables' laws do not depend on
    # the point itself, by rotation (or boost) invariance.
    return (point if isinstance(point, kind) else kind(point)).dim


def run_sphere_chain(u0, thetas, rng):
    """One trial of the sphere chain: fixed-angle steps from u0, each in a
    uniformly random direction; returns the float <u_M, u_0> (1 for no steps).

    u0 is a UnitVector (or its coordinates) of dimension >= 3; thetas are
    angles in [0, pi]; rng is a RandomStream or numpy Generator.  This is the
    sphere kernel of estimate() on one trial, so on RandomStream(s, 0) it
    equals the mean of a one-trial estimate with seed s, bit for bit.
    """
    return _one_trial("sphere", thetas, _dim(u0, UnitVector), rng)


def run_flat_chain(ds, n, rng):
    """One trial of the flat chain: steps of lengths ds >= 0 from the origin
    of R^n (n >= 2), each in a uniformly random direction; returns the float
    ||x_M||^2 (0 for no steps).  As in run_sphere_chain, this is one trial
    of estimate()'s kernel.
    """
    return _one_trial("flat", ds, n, rng)


def run_hyperbolic_chain(u0, xis, rng):
    """One trial of the hyperbolic chain: steps of arc lengths xis >= 0 from
    the HyperboloidPoint u0 (dimension >= 3), each uniform over the sphere of
    directions; returns the float <u_M, u_0>_H (1 for no steps).  As in
    run_sphere_chain, this is one trial of estimate()'s kernel.
    """
    return _one_trial("hyperbolic", xis, _dim(u0, HyperboloidPoint), rng)


def run_operator_product(spectra, u, rng):
    """One trial of A_M ... A_1 u, each A_i symmetric with the spectrum
    spectra[i] and an independent uniformly random eigenframe.

    spectra are Spectrum objects or eigenvalue lists, each as long as the
    UnitVector u.  Returns the floats (||A_M ... A_1 u|| / ||u||, cosine of
    image and input), or (0.0, nan) where the image vanished: the two
    observables of one operator_product kernel walk, so on RandomStream(s, 0)
    each equals the mean of a one-trial estimate with seed s, bit for bit.
    """
    spectra, n = _parse_product(spectra, _dim(u, UnitVector))
    ratio, cosine, dead = _operator_trials(_gen_of(rng), 1, n, spectra)
    if dead[0]:
        return 0.0, math.nan
    return float(ratio[0]), float(cosine[0])


def _chunk_mean(terms, count, s=0):
    """The exact sum of terms over count, times 2^s, correctly rounded.

    For a count that is a power of two, math.fsum rounds the exact sum once
    (Shewchuk's summation) and the power-of-two scale is exact wherever the
    result is a normal, finite, nonzero double.  Otherwise, since every
    finite double is an integer times 2^-1074, the terms sum exactly in
    those units, and integer true division rounds the quotient once,
    correctly, subnormals and the sign of a zero included; s <= 1024.  A
    non-finite term gives math.fsum(terms) / count, times 2^s.
    """
    if not count & (count - 1):
        try:
            mean = math.ldexp(math.fsum(terms), s + 1 - count.bit_length())
            if 2.0**-1022 <= abs(mean) < math.inf:
                return mean
        except (OverflowError, ValueError):  # the division below gives the result or error
            pass
    try:
        total = sum(n << (1075 - d.bit_length()) for n, d in map(float.as_integer_ratio, terms))
    except (OverflowError, ValueError):
        return math.ldexp(math.fsum(terms) / count, s)
    return total / (count << (1074 - s))


def _certified(f, x, top):
    """f of the exact sum of the 1-D float64 array x, whose largest |value| is top.

    f maps terms to correctly rounded functions of their exact sum (math.fsum;
    _chunk_mean at a count and scale), so it is monotone.  One extraction
    round at sigma = 2^k, k = _exponent(top) + bit_length(len(x) + 1), splits
    x into q, whose float sum S is exact (_exact_terms' lemma), and residuals
    below 2^(k - 53), whose float sum R, in any order, is within B = 2^(k -
    106 + 2 bit_length(len(x))) of their exact sum.  Where S + R -/+ B lie on
    one side of 0 and f takes one value at both, that is f of the exact sum;
    otherwise, and for a top that is not finite or puts sigma past 2^1023,
    this is f(_exact_terms(x)).  Rump, Ogita and Oishi (2008), section 3.
    """
    if top == 0.0:
        return f([])
    k = _exponent(top) + (x.size + 1).bit_length()
    if math.isfinite(top) and k < 1024:
        sigma = math.ldexp(1.0, k)
        q = x + sigma - sigma
        terms = [float(q.sum()), float((x - q).sum())]
        b = math.ldexp(1.0, k - 106 + 2 * x.size.bit_length())
        if abs(terms[0] + terms[1]) > 2.0 * b and (lo := f([*terms, -b])) == f([*terms, b]):
            return lo
    return f(_exact_terms(x))


def _chunk_stats(spec, index, count):
    """Exact (count, mean, M2 / 4^s, s) for chunk index of spec; pure in its arguments.

    The chunk runs in its frame, its values scaled by 2^-s so that the
    largest |value| lies in [1/2, 1); there every deviation lies below 2,
    and an M2 that is not 0 is at least 2^-110.  The mean is the exact sum
    over count, rounded once, subnormal or not, so a constant chunk gets its
    constant and a spread of 0; the deviations are taken from the frame's
    own mean, and each sum is _certified's.  A value more than 2^1022 below
    the largest loses bits in the frame, so such a chunk sums its values.
    """
    values = _trial_values(spec, index, count)
    lo, hi = float(values.min()), float(values.max())
    s = _exponent(max(hi, -lo))
    x, lo, hi = np.ldexp(values, -s) if s else values, math.ldexp(lo, -s), math.ldexp(hi, -s)
    top = max(hi, -lo)
    if s:
        frame, mean = _certified(lambda t: (_chunk_mean(t, count), _chunk_mean(t, count, s)), x, top)
    else:
        frame = mean = _certified(lambda t: _chunk_mean(t, count), x, top)
    with np.errstate(invalid="ignore"):  # inf - inf, on a chunk with an inf
        d = np.square(x - frame)
    if s > 0 and not lo >= 2.0**-1022 and not np.array_equal(np.ldexp(x, s), values):
        mean = _chunk_mean(values.tolist(), count)
    # Rounding is monotone, so the largest square is an extreme value's.
    top = max(abs(hi - frame), abs(lo - frame))
    return count, mean, _certified(math.fsum, d, top * top), s


def estimate(spec, workers=1):
    """Run spec.trials independent trials and aggregate the observable.

    Chunk k (trials 2048 k onward) draws from the stream (spec.seed, k);
    results are bitwise independent of the worker count because chunk
    statistics are exact and merged in a fixed order.

    Parameters
    ----------
    spec : ExperimentSpec
    workers : int
        Cap on chunks running at once, each on a thread of this process
        (numpy releases the interpreter lock while it draws and computes);
        1 runs them serially on the calling thread.  So does a spec whose
        chunks draw fewer than 2^17 variates each (64 per trial, by its
        geometry row's draws), where threads cost more than they save.
    """
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(f"expected ExperimentSpec, got {type(spec).__name__}")
    if not _is_integer(workers) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    tasks = [
        (spec, index, min(_CHUNK, spec.trials - start))
        for index, start in enumerate(range(0, spec.trials, _CHUNK))
    ]
    draws = _GEOMETRY_TABLE[spec.geometry].draws
    if workers == 1 or len(tasks) == 1 or _CHUNK * draws(spec.schedule, spec.n_dim) < _FANOUT_DRAWS:
        stats = [_chunk_stats(*t) for t in tasks]
    else:
        # Results are read once the pool has joined: waiting on each chunk in
        # turn would wake this thread per chunk to contend for the GIL.
        with ThreadPoolExecutor(max_workers=min(int(workers), len(tasks))) as pool:
            futures = [pool.submit(_chunk_stats, *task) for task in tasks]
        stats = [f.result() for f in futures]
    # Each M2 is carried in its chunk's frame, as (M2 / 4^e, e), and merged at
    # the larger e; the means merge in their own frame h <= g, which keeps means that cancel.
    count, mean, m2, e = stats[0]
    for k, m, s2, f in stats[1:]:
        total = count + k
        h = max(_exponent(m), _exponent(mean))
        delta = math.ldexp(m, -h) - math.ldexp(mean, -h)
        mean = math.ldexp(math.ldexp(mean, -h) + delta * (k / total), h)
        g = max(e, f)
        dd = math.ldexp(delta, h - g)
        m2 = math.ldexp(m2, 2 * (e - g)) + math.ldexp(s2, 2 * (f - g))
        m2 += dd * dd * (count * k / total)
        count, e = total, g
    if count != spec.trials:
        raise AssertionError(f"aggregated {count} of {spec.trials} trials")
    single = spec.trials < 2
    try:
        sample_std = 0.0 if single else math.ldexp(math.sqrt(max(m2 / (spec.trials - 1), 0.0)), e)
    except OverflowError:
        raise OverflowError("the sample standard deviation passes the double range") from None
    return MonteCarloEstimate(
        mean=mean,
        sample_std=sample_std,
        std_error=sample_std / math.sqrt(spec.trials),
        trials=spec.trials,
        seed=spec.seed,
        insufficient_trials=single,
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
