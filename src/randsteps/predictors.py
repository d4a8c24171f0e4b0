"""Closed-form predictions for accumulated random steps in high dimension.

Each chain sampled by :mod:`randsteps.montecarlo` concentrates around a
deterministic value as the dimension grows.  This module computes those
values, the exact standard deviations where they have closed forms, and the
schedule-level deviation bounds, so the Monte Carlo engine has something
sharp to compare against.

The checked entry to a Prediction is prediction_for in
:mod:`randsteps.montecarlo`: each geometry's row checks the schedule once
and runs one of the unchecked private cores below, each one pass over the
schedule (one per operator factor) that forms the mean, sigma and bound
together and returns them as its Prediction.  The sphere, flat and
hyperbolic rows also predict at n = inf, where the mean alone is
meaningful.  The hyperbolic mean is the cosh product itself, carried as a
mantissa and an exponent.  The public functions here give numbers no
Prediction field holds: the flat norm and the hyperbolic log-cosh sum, each
finite where the row's mean passes the double range, and the sphere and
Gaussian moment utilities.

The sphere, flat and hyperbolic sigmas run, each in its own scale, the
recursion of the engine's step map at kappa = +1, 0 and -1 (m = n - 1, flat
n): from 0, Var(delta) and w = E[delta (2 - kappa delta)] go to C^2 Var +
(S^2 / m) w and S^2 + (C^2 - kappa S^2 / m) w.  No step cancels (the
sphere's S^2 w / m is at most S^2 / 2): each sigma keeps its relative
precision wherever it is a normal double, and past the double range it is
inf.  The monomial and marginal rows share one predictor of the
sphere-coordinate moments, whose exact sigma is a product of moment ratios.

Conventions: angles are radians, spectra are plain eigenvalue lists, and a
"probability p-norm" is pnorm_pi below.  Every sigma here is the standard
deviation of the chain observable itself (sphere and operator cosines, flat
squared displacement, hyperbolic Minkowski inner), not of any derived
quantity.  as_vector and _schedule_tuple check what the predictors and the
engine take in.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "PrecisionLossError",
    "Prediction",
    "CurvaturePath",
    "PropositionBounds",
    "flat_expected_norm",
    "hyperbolic_log_expected_cosh",
    "pnorm_proposition_bounds",
    "coordinate_marginal_density",
    "gaussian_abs_moment",
    "pnorm_pi",
]

# The snap of _sphere_steps: schedules built from 90 degrees predict a mean
# of exactly 0.0, and chains of steps of 0 or pi a sigma of exactly 0.
_RIGHT_ANGLE_SNAP = 1e-12

_TINY = float(np.finfo(np.float64).tiny)
# Cap on _exact_terms' extraction rounds; chunk sums need two or three.
_EXTRACT_ROUNDS = 4


class PrecisionLossError(ArithmeticError):
    """Raised when a closed-form moment falls below the double range."""


def _is_integer(x):
    # An int or numpy integer, and not a bool, which Python counts as an int.
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _dimension(n, capped=True):
    # n as an int, checked to be an integer and, if capped, within the double range.
    if not _is_integer(n) or (capped and n > sys.float_info.max):
        raise ValueError(f"n_dim must be an integer in the double range, got {n!r}")
    return int(n)


def _exponent(x):
    # e with x 2^-e in [1/2, 1) for finite nonzero x, every frame's exponent;
    # for 0, one below every double's, and 0 for inf and nan, left unscaled.
    return math.frexp(x)[1] if x else -1100


def _exact_terms(x):
    """A short list of doubles whose exact sum is that of the 1-D float64 array x.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1),
    2008, Lemma 3.3): for sigma = 2^k > |x_i| (len(x) + 1), q = (x + sigma) -
    sigma and x - q split x exactly, and q sums exactly in any order.  Rounds
    keep sum(q) and go on with the nonzero residuals; the list is the nonzero
    values left (none for a chunk of zeros) and the round sums, so math.fsum
    of it is math.fsum(x.tolist()), bit for bit.  The lemma needs only that
    x + sigma cannot overflow (subnormal sums are exact), so only nan, inf,
    arrays whose sigma would pass 2^1023 (a largest |value| of 2^1011 or more
    at 2048 values), and values too spread for rounds to pay stay in the list
    as they are.  Mixed-sign spectra and montecarlo._certified's fallback use it.
    """
    sums = []
    while x.size > 16 and len(sums) < _EXTRACT_ROUNDS:
        top = max(float(x.max()), -float(x.min()))
        k = math.frexp(top)[1] + (x.size + 1).bit_length()
        if not (math.isfinite(top) and k < 1024):
            break
        sigma = math.ldexp(1.0, k)
        q = x + sigma
        q -= sigma
        if 2 * np.count_nonzero(q) < x.size:
            break
        sums.append(float(q.sum()))
        x = x - q
        x = x[x != 0.0]
    return (x if sums else x[x != 0.0]).tolist() + sums  # a round leaves no zero


def as_vector(values, name="vector"):
    """values as a finite, non-empty 1-D float64 array (a copy when conversion
    was needed); name labels the errors."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def _schedule_tuple(values, name, upper=math.inf):
    """A step schedule as a tuple of floats in [0, upper], checked in pure Python.

    values is any 1-D iterable of reals or numeric text: a tuple, a list, a
    1-D array or an iterator.  A string, bytes, a mapping, a set and an
    array of another dimension are not schedules; nor is a scalar, and
    neither are entries that float() rejects (None, complex, a sequence).
    A nan or inf entry is reported before an entry out of range.
    """
    if isinstance(values, (str, bytes, dict, set, frozenset)) or getattr(values, "ndim", 1) != 1:
        raise ValueError(f"{name} must be a 1-D sequence of numbers")
    t = tuple(map(float, values))
    if not all(map(math.isfinite, t)):
        raise ValueError(f"{name} has non-finite entries")
    if t and not (min(t) >= 0.0 and max(t) <= upper):
        bound = "" if upper == math.inf else f" and <= {upper!r}"
        raise ValueError(f"{name} entries must be >= 0{bound}")
    return t


def _sphere_steps(t):
    # (cos theta, sin theta) of each angle in t, floats in [0, pi], with a
    # cosine of exactly 0 within 1e-12 rad of pi/2 and a sine of exactly 0
    # within 1e-12 rad of 0 or pi.  The sphere predictor and the sphere
    # kernel both step by these, so they agree on every snapped step.
    half, top = math.pi / 2.0, math.pi - _RIGHT_ANGLE_SNAP
    for x in t:
        yield (0.0 if abs(x - half) <= _RIGHT_ANGLE_SNAP else math.cos(x),
               math.sin(x) if _RIGHT_ANGLE_SNAP < x < top else 0.0)


def _sphere(t, n):
    # The Prediction of the sphere chain cosine from the angles t, a
    # sequence of floats in [0, pi], in dimension n >= 3 (inf for the mean
    # alone).  The mean is prod_i cos theta_i; sigma comes from the module
    # docstring's recursion at kappa = +1 (w is u = 1 - E[c^2] <= 1), as v =
    # (n - 1) Var, as _hyperbolic does: a snapped sine is 0 or above
    # 1e-12, so v is 0 or a normal double at any n, and sigma = sqrt(v) /
    # sqrt(n - 1) keeps its relative precision wherever it is a normal
    # double.  The bound is sqrt(sum_{k<M} sin^2 theta_k / (n - 1)).  One
    # pass over the snapped _sphere_steps forms all three.
    v = u = ss = s2 = 0.0
    prod = 1.0
    for cth, sth in _sphere_steps(t):
        ss += s2  # the bound leaves out the last step
        c2, s2 = cth * cth, sth * sth
        v = c2 * v + s2 * u
        u = s2 + (c2 - s2 / (n - 1)) * u
        prod *= cth
    # A snapped right-angle factor must give a mean of +0.0, not -0.0.
    root = math.sqrt(n - 1)
    return Prediction(
        "cosine", prod + 0.0, math.sqrt(v) / root, math.sqrt(ss) / root,
        "absolute deviation O(sqrt(sum_{k<M} sin^2 theta_k / (n-1)))",
    )


def _ldexp_or_inf(x, e):
    # x * 2^e, or inf where it exceeds the double range.
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _flat(ds, n):
    # The Prediction of the flat squared displacement for steps ds, a
    # sequence of floats >= 0, in dimension n >= 2 (inf for the mean alone).
    # The mean sum_i d_i^2 is sq 2^(2e), e the exponent of the longest step,
    # so no square overflows (sq adds in schedule order).  The recursion at
    # kappa = 0 sums to sigma^2 = (4/n) sum_k d_k^2 S_{k-1}, S_k = sum_{j<=k}
    # d_j^2, symmetric in the steps.  Sorted longest first, S_{k-1} >= d_1^2,
    # so S runs on the steps scaled by d_1's power of two and the d_k^2
    # factor on the steps scaled by d_2's: no square that matters overflows
    # or underflows.  inf past the double range.  As
    # sigma^2 = (2/n) ((sum d^2)^2 - sum d^4) and sum d^4 >= (sum d^2)^2 / M,
    # the bound sqrt(2 (1 - 1/M) / n) sum d^2 holds for every M, with
    # equality for equal steps; it is 0 at n = inf.
    if len(ds) < 2:
        e = _exponent(ds[0] if ds else 0.0)
        m = math.ldexp(ds[0], -e) if ds else 0.0
        sq, sigma = m * m, 0.0
    else:
        d = np.array(ds)
        s = np.sort(d)[::-1]
        e, f = _exponent(s[0]), _exponent(s[1])
        a, b = np.ldexp(s, -e), np.ldexp(s[1:], -f)
        pairs = float((b * b) @ (a * a).cumsum()[:-1])
        d = np.ldexp(d, -e)
        sq = float(d @ d)
        sigma = _ldexp_or_inf(2.0 * math.sqrt(pairs) / math.sqrt(n), e + f)
    bound = _ldexp_or_inf(math.sqrt(2.0 * (1.0 - 1.0 / max(len(ds), 1)) / n) * sq, 2 * e)
    return Prediction(
        "squared_norm", _ldexp_or_inf(sq, 2 * e), sigma, bound, "relative deviation O(1/sqrt(n))"
    )


def flat_expected_norm(ds):
    """sqrt(sum_i d_i^2), the concentration value of ||x_M||.

    This is the square root of the exact mean of ||x_M||^2; the mean of
    ||x_M|| itself differs from it by a relative O(1/n) correction.  It is
    finite wherever the value is, even when sum_i d_i^2 is not.
    """
    d = np.array(_schedule_tuple(ds, "steps"))
    e = _exponent(d.max(initial=0.0))
    d = np.ldexp(d, -e)
    return _ldexp_or_inf(math.sqrt(float(d @ d)), e)


def _exp_or_inf(x):
    # exp(x), or inf where it exceeds the double range.
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# Arcs below this have cosh xi < 2^490, so the loop in _hyperbolic multiplies
# them into a mean factor kept below _MU_RESCALE; longer arcs enter by the
# exponent of their cosh, or of (e^(xi/2))^2 / 2 past the double range.
_DIRECT_COSH = 340.0
_MU_RESCALE = 2.0**500
_LOG_2 = math.log(2.0)


def _hyperbolic(x, n):
    # The Prediction of the hyperbolic chain inner product X for arcs
    # x, a sequence of floats >= 0, in dimension n >= 3 (inf for the mean
    # alone).  With mu the product of the cosh xi_i so far, the mean mu_M,
    # the recursion at kappa = -1 divided by mu^2 gives v = Var X / mu^2 and
    # w = (E[X^2] - 1) / mu^2:
    #
    #     tq_k = tanh^2 xi_k / (n - 1)
    #     v_k = v_{k-1} + tq_k w_{k-1}
    #     w_k = tanh^2 xi_k / mu_{k-1}^2 + (1 + tq_k) w_{k-1}
    #
    # and sigma = mu_M sqrt(v_M).  The loop carries (n - 1) v and w on
    # tanh xi scaled by 2^-h, h the mean exponent of the two largest tanh xi,
    # so the products that matter stay normal; mu as p 2^e, the product of
    # the cosh xi themselves, so one arc's mean is its cosh to the last bit;
    # and 1/mu^2 as a float, whose underflow drops only terms below one ulp
    # of w, since w >= 1 - 1/mu^2 before scaling.  A term of v whose scaled
    # tanh^2 is 0 is left out: once w is inf, 0 * inf is nan.  Past the
    # double range the mean, sigma and bound are inf.
    h = 0
    if len(x) > 1:  # with one arc sigma is 0, whatever h is
        top = sorted(x)[-2:]
        e1, e2 = _exponent(math.tanh(top[1])), _exponent(math.tanh(top[0]))
        # The scaled squares stay below 2^1022, so none overflows: the
        # centring gives way only beside an arc below the smallest normal
        # double, whose share of sigma is then lost.  Below 2^-1000 for
        # both, sigma underflows whatever h is, and 2^-h stays finite.
        h = max((e1 + e2) // 2, e1 - 511, -1000)
    g, n1 = math.ldexp(1.0, -h), n - 1.0
    v = w = 0.0
    r = p = 1.0
    e = 0
    for xi in x:
        t = math.tanh(xi)
        ts = t * g
        tt = ts * ts
        if tt:
            v += tt * w
        w = tt * r + (1.0 + t * t / n1) * w
        if xi < _DIRECT_COSH:
            ch = math.cosh(xi)
            p *= ch
            r /= ch * ch
            if p > _MU_RESCALE:
                p, k = math.frexp(p)
                e += k
            continue
        try:
            m, k = math.frexp(math.cosh(xi))
            p, j = math.frexp(p * m)
        except OverflowError:  # past the double range, as (e^(xi/2))^2 / 2
            m, k = math.frexp(_exp_or_inf(xi / 2.0))
            p, j = math.frexp(p * m * m)
            k = 2 * k - 1
        e += j + k
        r = 0.0  # 1/mu^2 < e^-680: below one ulp of w from here on
    return Prediction(
        "minkowski_inner",
        _ldexp_or_inf(p, e),
        _ldexp_or_inf(p * math.sqrt(v) / math.sqrt(n1), e + 2 * h) if v else 0.0,
        _hyperbolic_bound(len(x), n, p, e),
        "relative deviation O(sqrt((n/(n-1))^(M-1) - 1))",
    )


def _hyperbolic_bound(m, n, p, e):
    # The bound sigma <= sqrt((n/(n-1))^(m-1) - 1) prod_i cosh xi_i for m
    # arcs whose cosh product is p 2^e.  It holds for every schedule; expm1
    # and log1p keep the first factor's digits at large n.  0 for m <= 1,
    # and inf when the bound exceeds the double range.
    log_growth = (m - 1) * math.log1p(1.0 / (n - 1.0))
    if log_growth <= 0.0:
        return 0.0
    # Past 709 expm1 overflows, and e^x - 1 is e^x to the last bit.
    root = _exp_or_inf(0.5 * log_growth) if log_growth > 709.0 else math.sqrt(math.expm1(log_growth))
    p, k = math.frexp(p)
    return _ldexp_or_inf(p * root, e + k)


def hyperbolic_log_expected_cosh(xis):
    """log of prod_i cosh(xi_i), computed stably for arbitrarily large arcs.

    The hyperbolic row's mean is this product, inf past the double range,
    where this log stays finite.
    """
    lc = 0.0
    for xi in _schedule_tuple(xis, "arcs"):
        lc += xi + math.log1p(math.exp(-2.0 * xi)) - _LOG_2
    return lc


def _operator(values, observable):
    # The Prediction, a concentration value with no sigma, of the observable
    # after applying A_M ... A_1, for values an iterable of checked spectrum
    # arrays s, each sorted in descending order, consumed in order.  Each
    # factor's frame is drawn independently, so the factors multiply.
    # Conjugating by a Haar frame turns a fixed spectrum into a random
    # mixture, so ||A u|| / ||u|| concentrates at pnorm_pi(s, 2), and the
    # cosine between u and A u at mean(s) / pnorm_pi(s, 2): exactly 0 for a
    # zero trace, undefined for the all-zero spectrum.  For the positive
    # weights of a curvature path each cosine factor is at most 1
    # (Cauchy-Schwarz), with equality exactly when a step sees equal
    # curvatures.  Each factor runs in its frame, as in the kernel: a = s 2^-f,
    # f the _exponent of max|s| read off the ends, pnorm_pi(s, 2) = 2^f
    # sqrt(sum a^2 / N), and the cosine sum a / sqrt(N sum a^2) keeps its bits
    # when s is scaled by a power of two.  sum a is correctly rounded where s
    # has both signs, and pairwise, within about log2 N ulps, elsewhere.  The
    # norm product is p 2^e: inf only past the double range, 0 after a zero factor.
    p, e = 1.0, 0
    for s in values:
        top, n = max(s[0], -s[-1]), len(s)
        if top == 0.0:
            if observable == "cosine":
                raise ValueError("cosine is undefined for the all-zero spectrum")
            p = 0.0
            break
        f = _exponent(top)
        a = np.ldexp(s, -f)
        q = float((a * a).sum())
        if observable == "cosine":
            total = math.fsum(_exact_terms(a)) if s[0] > 0.0 > s[-1] else float(a.sum())
            p *= total / math.sqrt(n * q)
        else:
            p, k = math.frexp(p * math.sqrt(q / n))
            e += k + f
    return Prediction(observable, _ldexp_or_inf(p, e), None, None, "relative deviation O(sqrt(M/n))")


class CurvaturePath:
    """A step schedule with per-direction curvatures.

    Each step is a pair (d_k, kappas_k) of a step length and the sectional
    curvatures kappa_1 .. kappa_{N-1} seen by that step.  Every entry must
    satisfy 1 + d_k kappa > 0, within the double range; the reciprocal
    weights v = 1 / (1 + d kappa) are the spectra of the kappa geometry's
    factors.  All steps must list the same number of curvatures.
    """

    __slots__ = ("steps",)

    def __init__(self, steps):
        prepared = []
        width = None
        for i, (d, kappas) in enumerate(steps):
            if not (math.isfinite(d) and d >= 0.0):
                raise ValueError(f"step {i}: length must be a finite real >= 0")
            k = as_vector(kappas, f"step {i} curvatures")
            if width is None:
                width = k.shape[0]
            elif k.shape[0] != width:
                raise ValueError("all steps must list the same number of curvatures")
            with np.errstate(over="ignore"):
                w = 1.0 + d * k
            if not np.all(np.isfinite(w)):
                raise ValueError(f"step {i}: 1 + d*kappa overflows the double range")
            if np.any(w == 0.0):
                raise ValueError(f"step {i}: 1 + d*kappa hits the singularity at 0")
            if np.any(w < 0.0):
                raise ValueError(f"step {i}: 1 + d*kappa must be positive")
            k.flags.writeable = False
            prepared.append((float(d), k))
        self.steps = tuple(prepared)

    def weight_vectors(self):
        """The per-step weight vectors v_k = 1 / (1 + d_k kappas_k)."""
        return [1.0 / (1.0 + d * k) for d, k in self.steps]

    def __len__(self):
        return len(self.steps)

    def __repr__(self):
        return f"CurvaturePath(steps={len(self.steps)})"


def pnorm_pi(x, p):
    """The probability p-norm ((1/N) sum |x_i|^p)^(1/p).

    This is the L^p norm of the coordinates viewed as a random variable under
    the uniform distribution on indices; it is monotone nondecreasing in p
    and satisfies pnorm_pi(x, 2) = ||x||_2 / sqrt(N).

    Parameters
    ----------
    x : array_like
        Coordinate vector.
    p : float
        Exponent, p >= 1.
    """
    a = np.abs(as_vector(x, "x"))
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be a finite real >= 1, got {p!r}")
    m = float(a.max())
    if m == 0.0:
        return 0.0
    # Scale by the max entry so large exponents cannot overflow.
    return m * float(np.mean((a / m) ** p)) ** (1.0 / p)


class PropositionBounds(NamedTuple):
    lower: float
    value: float
    upper: float
    ratio_lower: float
    ratio_upper: float


def pnorm_proposition_bounds(v):
    """Two-sided bounds on pnorm_pi(v, 1) for entries in (0, 1].

    Returns (lower, value, upper, ratio_lower, ratio_upper) where

        lower = pnorm_pi(v, 2)^2 <= value = pnorm_pi(v, 1)
              <= upper = (pnorm_pi(v, 2)^2 + 1) / 2

    and the ratio value / pnorm_pi(v, 2) is bounded by ratio_lower =
    pnorm_pi(v, 2) and ratio_upper = (pnorm_pi(v, 2) + 1/pnorm_pi(v, 2)) / 2.
    """
    w = as_vector(v, "v")
    if np.any(w <= 0.0) or np.any(w > 1.0):
        raise ValueError("entries must lie in (0, 1]")
    p2 = pnorm_pi(w, 2)
    p1 = pnorm_pi(w, 1)
    return PropositionBounds(
        lower=p2 * p2,
        value=p1,
        upper=(p2 * p2 + 1.0) / 2.0,
        ratio_lower=p2,
        ratio_upper=(p2 + 1.0 / p2) / 2.0,
    )


# Powers (p0, p1) of the first two sphere coordinates in each monomial.
_MONOMIALS = {"x1_sq": (2, 0), "x1_4": (4, 0), "x1sq_x2sq": (2, 2)}
_MONOMIAL_KINDS = tuple(_MONOMIALS)


def _sphere_moment(n, p0, p1=0):
    # E[t0^p0 t1^p1] for the first two coordinates of a uniform point on the
    # sphere in R^n: (p0-1)!! (p1-1)!! / prod_{j < (p0+p1)/2} (n + 2j) for even
    # powers, else 0, as a product of ratios; a result below the double range raises.
    if p0 % 2 or p1 % 2:
        return 0.0
    out = 1.0
    for j in range(p0 // 2):
        out *= (2 * j + 1) / (n + 2 * j)
    for j in range(p1 // 2):
        out *= (2 * j + 1) / (n + p0 + 2 * j)
    if out < _TINY:
        raise PrecisionLossError(f"E[t0^{p0} t1^{p1}] underflows the double range at this n")
    return out


def _half_gamma_ratio(x):
    # Gamma(x + 1/2) / Gamma(x) for x >= 1/2, to a few ulp: by math.gamma
    # below 100, and beyond by the first seven terms of its asymptotic
    # series sqrt(x) sum_k c_k x^-k (error below 1e-17), where a difference
    # of log-gammas would lose about x ulp.
    if x < 100.0:
        return math.gamma(x + 0.5) / math.gamma(x)
    s = 0.0
    for c in (869 / 4194304, -399 / 262144, -21 / 32768, 5 / 1024, 1 / 128, -1 / 8, 1.0):
        s = s / x + c
    return math.sqrt(x) * s


def coordinate_marginal_density(t, n):
    """Density of a single coordinate of a uniform point on the sphere in R^n.

    rho(t) = Z_n (1 - t^2)^((n-3)/2) on [-1, 1], with normalizer
    Z_n = Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2)).  Both factors keep their
    relative precision at every n: the Gamma ratio without a difference of
    log-gammas, and the power as exp((n-3)/2 log(1 - t^2)), the log taken
    as log1p(-t^2), or as log1p(-t) + log1p(t) for |t| >= 1/2, where t^2
    would round.
    For n = 2 the density diverges at the endpoints (inf is returned there).
    """
    if _dimension(n) < 2:  # capped: the density takes n in floats
        raise ValueError(f"n must be >= 2, got {n}")
    if not (-1.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [-1, 1], got {t!r}")
    z = _half_gamma_ratio((n - 1) / 2) / math.sqrt(math.pi)
    ex = (n - 3) / 2.0
    if t * t == 1.0:
        if ex > 0.0:
            return 0.0
        if ex == 0.0:
            return z
        return math.inf
    log_power = math.log1p(-t) + math.log1p(t) if abs(t) >= 0.5 else math.log1p(-t * t)
    return z * math.exp(ex * log_power)


def gaussian_abs_moment(p):
    """E|x|^p for x standard normal: 2^(p/2) Gamma((p+1)/2) / sqrt(pi).

    Returns inf when the moment exceeds the double range.
    """
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be a finite real >= 1, got {p!r}")
    return _exp_or_inf(
        0.5 * p * math.log(2.0) + math.lgamma((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    )


@dataclass(frozen=True)
class Prediction:
    """A closed-form prediction for one chain observable.

    sigma_exact is the exact standard deviation when a closed form exists,
    sigma_bound a proven schedule-level upper bound; either may be absent.
    Where both are given, sigma_exact may exceed sigma_bound by rounding
    only: by 1e-12 relative to the bound (absolute below 1).
    deviation_order records the advertised concentration rate and states
    whether it is absolute or relative.
    """

    observable: str
    mean: float
    sigma_exact: Optional[float]
    sigma_bound: Optional[float]
    deviation_order: str

    def __post_init__(self):
        if self.sigma_exact is not None and self.sigma_exact < 0.0:
            raise ValueError("sigma_exact must be >= 0")
        if self.sigma_bound is not None and self.sigma_bound < 0.0:
            raise ValueError("sigma_bound must be >= 0")
        if (
            self.sigma_exact is not None
            and self.sigma_bound is not None
            and self.sigma_exact > self.sigma_bound + 1e-12 * max(1.0, self.sigma_bound)
        ):
            raise ValueError(
                f"sigma_exact {self.sigma_exact!r} exceeds sigma_bound {self.sigma_bound!r}"
            )


_OPERATOR_OBSERVABLES = ("cosine", "norm_ratio")


def _moment_prediction(p0, p1, n, observable, deviation_order):
    # The monomial and marginal rows' Prediction of t0^p0 t1^p1, t0 and t1 the
    # first two coordinates of a uniform point on the sphere in R^n, p0 >= 1,
    # p1 >= 0, n >= 2 (3 when p1 > 0).  sigma is sqrt(E[t0^(2 p0) t1^(2 p1)])
    # when a power is odd (mean 0), else mean * sqrt(R - 1), R = that moment
    # / mean^2 >= 3/2 as a product of ratios, which neither cancels nor
    # underflows.  A needed moment below the double range raises PrecisionLossError.
    if p0 % 2 or p1 % 2:
        mean, sigma = 0.0, math.sqrt(_sphere_moment(n, 2 * p0, 2 * p1))
    else:
        mean = _sphere_moment(n, p0, p1)
        # (2p - 1)!! / ((p - 1)!!)^2 = prod_{i < p/2} (2i + p + 1) / (2i + 1)
        ratio, j = 1.0, 0
        for p in (p0, p1):
            for i in range(p // 2):
                ratio *= ((2 * i + p + 1) / (2 * i + 1)) * ((n + 2 * j) / (n + 2 * j + p0 + p1))
                j += 1
        sigma = mean * math.sqrt(ratio - 1.0)
    return Prediction(
        observable=observable,
        mean=mean,
        sigma_exact=sigma,
        sigma_bound=None,
        deviation_order=deviation_order,
    )
