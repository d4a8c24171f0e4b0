"""Closed-form predictions for accumulated random steps in high dimension.

Each chain sampled by :mod:`randsteps.montecarlo` concentrates around a
deterministic value as the dimension grows.  This module computes those
values, the exact standard deviations where they have closed forms, and the
schedule-level deviation bounds, so the Monte Carlo engine has something
sharp to compare against.

The checked entry to a Prediction is prediction_for in
:mod:`randsteps.montecarlo`: each geometry's row parses the schedule once
and runs the unchecked private cores below.  The public functions here give
what a Prediction does not: the dimension-free means, the flat norm and
fourth moment, the sigma bounds on their whole domain, and the sphere and
Gaussian moment utilities.

Conventions: angles are radians, spectra are plain eigenvalue lists, and a
"probability p-norm" is pnorm_pi from :mod:`randsteps.geometry`.  Every
sigma here is the standard deviation of the chain observable itself (sphere
and operator cosines, flat squared displacement, hyperbolic Minkowski
inner), not of any derived quantity.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .geometry import _pnorm_pi, _schedule_vector, as_vector, pnorm_pi

__all__ = [
    "PrecisionLossError",
    "Prediction",
    "CurvaturePath",
    "PropositionBounds",
    "sphere_expected_cosine",
    "sphere_sigma_bound",
    "flat_expected_sq_norm",
    "flat_expected_norm",
    "flat_fourth_moment",
    "flat_sigma_bound",
    "hyperbolic_expected_cosh",
    "hyperbolic_log_expected_cosh",
    "hyperbolic_sigma_bound",
    "pnorm_proposition_bounds",
    "coordinate_marginal_density",
    "gaussian_abs_moment",
    "gaussian_sq_std",
]

# The snap of _sphere_steps: schedules built from 90 degrees predict a mean
# of exactly 0.0, and chains of steps of 0 or pi a sigma of exactly 0.
_RIGHT_ANGLE_SNAP = 1e-12

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


class PrecisionLossError(ArithmeticError):
    """Raised when cancellation leaves a result with no trustworthy digits."""


def _angles(values):
    return _schedule_vector(values, "angles", math.pi)


def _arcs(values):
    return _schedule_vector(values, "arcs")


def _steps(values):
    return _schedule_vector(values, "steps")


def _dimension(n, capped=True):
    # n as an int, checked to be an integer and, if capped, within the double range.
    if not isinstance(n, (int, np.integer)) or (capped and n > sys.float_info.max):
        raise ValueError(f"n_dim must be an integer in the double range, got {n!r}")
    return int(n)


def _need_n(n, least):
    # Capped, because the public functions take n in floats.
    if _dimension(n) < least:
        raise ValueError(f"n must be >= {least}, got {n}")


def _sphere_steps(t):
    # (cos theta, sin theta) of each angle in t, floats in [0, pi], with a
    # cosine of exactly 0 within 1e-12 rad of pi/2 and a sine of exactly 0
    # within 1e-12 rad of 0 or pi.  The sphere predictor and the sphere
    # kernel both step by these, so they agree on every snapped step.
    half, top = math.pi / 2.0, math.pi - _RIGHT_ANGLE_SNAP
    return [
        (0.0 if abs(x - half) <= _RIGHT_ANGLE_SNAP else math.cos(x),
         math.sin(x) if _RIGHT_ANGLE_SNAP < x < top else 0.0)
        for x in t
    ]


def _sphere(t, n):
    # (mean, sigma) of the sphere chain cosine from the angles t, a sequence
    # of floats in [0, pi], in dimension n >= 3 (inf for the mean alone).
    # The mean is prod_i cos theta_i.  Step k maps the cosine X to
    # cos theta_k X + sin theta_k W, where W has mean 0 and variance
    # (1 - X^2) / (n - 1) given X.  So the variance V_k of X after k steps
    # and u_k = 1 - E[X^2] follow the recursion
    #
    #     q_k = sin^2 theta_k / (n - 1)
    #     V_k = cos^2 theta_k V_{k-1} + q_k u_{k-1}
    #     u_k = sin^2 theta_k + (cos^2 theta_k - q_k) u_{k-1}
    #
    # from V_0 = u_0 = 0, and sigma = sqrt(V_M).  No step subtracts nearly
    # equal terms (q_k u_{k-1} <= sin^2 theta_k / 2), so sigma keeps its
    # relative precision down to 0.  The steps are _sphere_steps', snapped.
    v = u = 0.0
    prod = 1.0
    for cth, sth in _sphere_steps(t):
        c2, s2 = cth * cth, sth * sth
        q = s2 / (n - 1)
        v = c2 * v + q * u
        u = s2 + (c2 - q) * u
        prod *= cth
    return prod + 0.0, math.sqrt(v)  # a snapped right-angle factor must give +0.0, not -0.0


def _sphere_bound(t, n):
    s = np.sin(t[:-1])
    return math.sqrt(float(s @ s)) / math.sqrt(n - 1)


def sphere_expected_cosine(thetas):
    """Expected cosine between start and end of a sphere chain.

    For steps of fixed angles theta_1 .. theta_M in uniformly random tangent
    directions, E[<u_M, u_0>] = prod_i cos(theta_i), independent of the
    dimension.  Angles within 1e-12 rad of pi/2 contribute an exact factor 0.
    """
    return _sphere(_angles(thetas).tolist(), math.inf)[0]  # the mean needs no n


def sphere_sigma_bound(thetas, n):
    """Schedule-level bound sigma <= ||(sin theta_1 .. sin theta_{M-1})||_2 / sqrt(n-1).

    The last step's angle does not appear.  Holds for every schedule, with
    equality at (pi/2, pi/2).
    """
    t = _angles(thetas)
    _need_n(n, 3)
    if t.shape[0] < 1:
        raise ValueError("the bound needs at least one step")
    return _sphere_bound(t, n)


def _scaled_steps(d):
    # (d * 2^-e, e) with e the exponent that brings the longest step to
    # [1/2, 1), so no square of a scaled step overflows; the scaling is exact.
    d = np.asarray(d, dtype=np.float64)
    e = math.frexp(float(d.max()))[1] if d.shape[0] else 0
    return np.ldexp(d, -e), e


def _ldexp_or_inf(x, e):
    # x * 2^e, or inf where it exceeds the double range.
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _flat_steps(ds, n):
    # Checked steps and dimension, scaled once for the cores below.
    d = _steps(ds)
    _need_n(n, 2)
    return _scaled_steps(d)


def _flat_sq_norm(d, e):
    return _ldexp_or_inf(float(d @ d), 2 * e)


def _flat_sigma(d, e, n):
    # Exact sigma of the flat squared displacement, sigma^2 = (4/n)
    # sum_{i<j} d_i^2 d_j^2, from the elementary symmetric identity
    # 2 sum_{i<j} = (sum d^2)^2 - sum d^4 on the scaled steps d * 2^-e, so
    # no square overflows; inf when sigma itself exceeds the double range.
    if d.shape[0] <= 1:
        return 0.0
    d2 = d**2
    e1 = float(np.sum(d2))
    e2 = float(d2 @ d2)
    pairs = max(e1 * e1 - e2, 0.0) / 2.0
    return _ldexp_or_inf(math.sqrt(4.0 / n * pairs), 2 * e)


def _flat_sigma_bound(d, e, n):
    return _ldexp_or_inf(math.sqrt(2.0 * (n - 1)) / n * float(d @ d), 2 * e)


def flat_expected_sq_norm(ds):
    """E[||x_M||^2] = sum_i d_i^2 for flat steps of lengths d_i.

    Returns inf when the sum exceeds the double range.
    """
    return _flat_sq_norm(*_scaled_steps(_steps(ds)))


def flat_expected_norm(ds):
    """sqrt(sum_i d_i^2), the concentration value of ||x_M||.

    This is the square root of the exact mean of ||x_M||^2; the mean of
    ||x_M|| itself differs from it by a relative O(1/n) correction.  It is
    finite wherever the value is, even when sum_i d_i^2 is not.
    """
    d, e = _scaled_steps(_steps(ds))
    return _ldexp_or_inf(math.sqrt(float(d @ d)), e)


def flat_fourth_moment(ds, n):
    """E[||x_M||^4] by the three-coefficient recursion.

    One step of length d maps (||x||^4, ||x||^2, 1) coefficients (A, B, C) to
    (A, (2 + 4/n) d^2 A + B, d^4 A + d^2 B + C); starting from (1, 0, 0) the
    answer is C_M, equal to sum d_i^4 + (2 + 4/n) sum_{i<j} d_i^2 d_j^2.
    The recursion runs on the steps scaled by a power of two that brings the
    longest to [1/2, 1); returns inf when the moment exceeds the double range.
    """
    d, e = _flat_steps(ds, n)
    a, b, c = 1.0, 0.0, 0.0
    for step in d:
        d2 = step * step
        c = d2 * d2 * a + d2 * b + c
        b = (2.0 + 4.0 / n) * d2 * a + b
    return _ldexp_or_inf(c, 4 * e)


def flat_sigma_bound(ds, n):
    """Bound sigma <= sqrt(2 (n-1)) / n * sum_i d_i^2 for the squared displacement.

    Guaranteed whenever the number of steps M does not exceed the dimension n
    (the regime of interest, steps far fewer than dimensions); for M > n the
    sharp constant degrades to sqrt(2 (M-1) / (M n)) and this expression may
    undershoot the true sigma, so a Prediction leaves its bound out there.
    Returns inf when the bound exceeds the double range.
    """
    d, e = _flat_steps(ds, n)
    if d.shape[0] < 1:
        raise ValueError("the bound needs at least one step")
    return _flat_sigma_bound(d, e, n)


def _exp_or_inf(x):
    # exp(x), or inf where it exceeds the double range.
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_cosh(x):
    return abs(x) + math.log1p(math.exp(-2.0 * abs(x))) - math.log(2.0)


def _log_cosh_sum(arcs):
    return float(sum(_log_cosh(v) for v in arcs))


def hyperbolic_log_expected_cosh(xis):
    """log of prod_i cosh(xi_i), computed stably for arbitrarily large arcs."""
    return _log_cosh_sum(_arcs(xis).tolist())


def hyperbolic_expected_cosh(xis):
    """Expected Minkowski inner product between start and end of a hyperbolic chain.

    E[<u_M, u_0>_H] = prod_i cosh(xi_i), evaluated as the exponential of
    hyperbolic_log_expected_cosh; returns inf when the product exceeds the
    double range (the log form stays finite).
    """
    return _exp_or_inf(hyperbolic_log_expected_cosh(xis))


def _hyperbolic_sigma(arcs, n):
    # Exact sigma of the hyperbolic chain inner product for arcs, a sequence
    # of floats >= 0, in dimension n >= 3.  The recursion mirrors the sphere
    # one with hyperbolic weights:
    #
    #     c_k = cosh^2 xi_k + sinh^2 xi_k / (n - 1)
    #     s_k = sinh^2 xi_k / (n - 1)
    #     a_k = c_k a_{k-1},   b_k = -s_k a_{k-1} + b_{k-1}
    #
    # and sigma^2 = a_M + b_M - (prod cosh xi_i)^2.  Large schedules are
    # evaluated in log space to avoid overflow; inf when sigma itself
    # exceeds the double range.  Raises PrecisionLossError when cancellation
    # in sigma^2 leaves an estimated relative error above 1e-2 (for example,
    # all arcs around 1e-9): the value would be noise.
    m = len(arcs)
    if m <= 1 or not any(arcs):
        return 0.0
    err_rel_budget = 1e-2
    rounding = 8.0 * _EPS * (m + 2)
    # A Python sum, unlike np.sum, reaches inf without an overflow warning.
    if 2.0 * sum(arcs) + m * math.log(2.0) < 600.0:
        a, b, p2 = 1.0, 0.0, 1.0
        for xi in arcs:
            ch = math.cosh(xi)
            sh = math.sinh(xi)
            s = sh * sh / (n - 1)
            c = ch * ch + s
            b = -s * a + b
            a = c * a
            p2 *= ch * ch
        var = a + b - p2
        if var <= 0.0 or rounding * a / var > err_rel_budget:
            raise PrecisionLossError(
                f"sigma^2 cancellation: a={a!r}, computed variance {var!r}"
            )
        return math.sqrt(var)
    # Log-space evaluation of the identical recursion.  It tracks the ratios
    # x1 = log(b / a) and x2 = log(p2 / a), which stay in range however large
    # the arcs; log a enters only the final exponent.  With tq = tanh^2/(n-1),
    # c = cosh^2 (1 + tq) and s / c = tq / (1 + tq).
    log_n1 = math.log(n - 1)
    la = 0.0
    x1 = -math.inf
    x2 = 0.0
    for xi in arcs:
        if xi == 0.0:
            continue
        t = math.tanh(xi)
        tq = t * t / (n - 1)
        l1p = math.log1p(tq)
        lck = 2.0 * _log_cosh(xi) + l1p
        x1 = float(np.logaddexp(x1 - lck, 2.0 * math.log(t) - log_n1 - l1p))
        x2 -= l1p
        la += lck
    bracket = -math.expm1(x2) - math.exp(x1)
    if bracket <= 0.0 or rounding / bracket > err_rel_budget:
        raise PrecisionLossError(
            f"sigma^2 cancellation in log space: bracket={bracket!r}"
        )
    return _exp_or_inf(0.5 * (la + math.log(bracket)))


def hyperbolic_sigma_bound(xis, n):
    """Bound sigma <= sqrt((n/(n-1))^(M-1) - 1) * prod_i cosh(xi_i).

    Holds for every schedule; the first factor is evaluated with expm1 and
    log1p so short schedules and large n do not lose precision.  Returns
    inf when the bound exceeds the double range.
    """
    x = _arcs(xis)
    _need_n(n, 3)
    if x.shape[0] < 1:
        raise ValueError("the bound needs at least one step")
    return _hyperbolic_bound(x.shape[0], n, _log_cosh_sum(x.tolist()))


def _hyperbolic_bound(m, n, log_cosh):
    # hyperbolic_sigma_bound for m >= 1 arcs whose log-cosh sum is log_cosh.
    growth = math.expm1((m - 1) * math.log1p(1.0 / (n - 1.0)))
    if growth == 0.0:
        return 0.0
    try:
        return math.sqrt(growth) * math.exp(log_cosh)
    except OverflowError:
        # A small first factor can keep the product in range.
        return _exp_or_inf(0.5 * math.log(growth) + log_cosh)


def _operator_cosine(s):
    denom = _pnorm_pi(s, 2)
    if denom == 0.0:
        raise ValueError("cosine is undefined for the all-zero spectrum")
    return float(np.mean(s)) / denom


def _operator_mean(values, observable):
    # Concentration value of the observable after applying A_M ... A_1, for
    # values an iterable of checked spectrum arrays s, consumed in order.
    # Each factor's frame is drawn independently, so the factors multiply.
    # Conjugating by a Haar frame turns a fixed spectrum into a random
    # mixture, so ||A u|| / ||u|| concentrates at pnorm_pi(s, 2), and the
    # cosine between u and A u at mean(s) / pnorm_pi(s, 2): exactly 0 for a
    # zero trace, undefined for the all-zero spectrum.  For the positive
    # weights of a curvature path each cosine factor is at most 1
    # (Cauchy-Schwarz), with equality exactly when a step sees equal
    # curvatures.
    out = 1.0
    for s in values:
        out *= _operator_cosine(s) if observable == "cosine" else _pnorm_pi(s, 2)
    return out


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


def coordinate_marginal_density(t, n):
    """Density of a single coordinate of a uniform point on the sphere in R^n.

    rho(t) = Z_n (1 - t^2)^((n-3)/2) on [-1, 1], with normalizer
    Z_n = Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2)) evaluated via log-gamma.
    For n = 2 the density diverges at the endpoints (inf is returned there).
    """
    _need_n(n, 2)
    if not (-1.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [-1, 1], got {t!r}")
    log_z = math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0) - 0.5 * math.log(math.pi)
    z = math.exp(log_z)
    q = 1.0 - t * t
    ex = (n - 3) / 2.0
    if q == 0.0:
        if ex > 0.0:
            return 0.0
        if ex == 0.0:
            return z
        return math.inf
    return z * q**ex


def gaussian_abs_moment(p):
    """E|x|^p for x standard normal: 2^(p/2) Gamma((p+1)/2) / sqrt(pi)."""
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be a finite real >= 1, got {p!r}")
    return math.exp(
        0.5 * p * math.log(2.0) + math.lgamma((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    )


def gaussian_sq_std():
    """Standard deviation sqrt(2) of x^2 for x standard normal."""
    return math.sqrt(2.0)


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


def _sphere_prediction(t, n):
    # The sphere row's Prediction for checked angles t, a sequence of floats.
    mean, sigma = _sphere(t, n)
    return Prediction(
        observable="cosine",
        mean=mean,
        sigma_exact=sigma,
        sigma_bound=_sphere_bound(t, n) if len(t) else 0.0,
        deviation_order="absolute deviation O(sqrt(sum_{k<M} sin^2 theta_k / (n-1)))",
    )


def _flat_prediction(ds, n):
    # The flat row's Prediction for checked steps ds, a sequence of floats;
    # the bound is left out where the schedule has more steps than
    # dimensions, outside its validity domain.
    d, e = _scaled_steps(ds)
    m = d.shape[0]
    return Prediction(
        observable="squared_norm",
        mean=_flat_sq_norm(d, e),
        sigma_exact=_flat_sigma(d, e, n),
        sigma_bound=None if m > n else _flat_sigma_bound(d, e, n) if m else 0.0,
        deviation_order="relative deviation O(1/sqrt(n))",
    )


def _hyperbolic_prediction(x, n):
    # The hyperbolic row's Prediction for checked arcs x, a sequence of
    # floats; the log-cosh sum serves both the mean and the bound.
    log_cosh = _log_cosh_sum(x)
    return Prediction(
        observable="minkowski_inner",
        mean=_exp_or_inf(log_cosh),
        sigma_exact=_hyperbolic_sigma(x, n),
        sigma_bound=_hyperbolic_bound(len(x), n, log_cosh) if len(x) else 0.0,
        deviation_order="relative deviation O(sqrt((n/(n-1))^(M-1) - 1))",
    )


_OPERATOR_OBSERVABLES = ("cosine", "norm_ratio")


def _operator_prediction(values, observable):
    # The operator rows' Prediction for checked spectrum arrays and observable.
    return Prediction(
        observable=observable,
        mean=_operator_mean(values, observable),
        sigma_exact=None,
        sigma_bound=None,
        deviation_order="relative deviation O(sqrt(M/n))",
    )


def _monomial_prediction(kind, n):
    # The monomial row's Prediction for a kind of _MONOMIALS and n >= 2 (3
    # for the mixed moment).  E[x_1^2] = 1/n, E[x_1^4] = 3/(n(n+2)) and
    # E[x_1^2 x_2^2] = 1/(n(n+2)); the three satisfy
    # n E[x_1^4] + n(n-1) E[x_1^2 x_2^2] = 1 since sum x_i^2 = 1.
    return Prediction(
        observable=kind,
        mean=_sphere_moment(n, *_MONOMIALS[kind]),
        sigma_exact=None,
        sigma_bound=None,
        deviation_order="exact moment of the uniform sphere measure",
    )


def _marginal_prediction(power, n):
    # The marginal row's Prediction for E[t^power], t a single coordinate of
    # a uniform point on the sphere in R^n, power >= 1 and n >= 2.
    # (1 + t)/2 ~ Beta((n-1)/2, (n-1)/2), so E[t^(2k)] = prod_{j<k}
    # (2j+1)/(n+2j) and odd moments are 0.  sigma_exact is the standard
    # deviation of t^power: sqrt(E[t^(2 power)]) for odd powers, and
    # mean * sqrt(R - 1) for even ones, with R = E[t^(2 power)] / mean^2 >= 3/2
    # formed as a product of ratios, so it neither cancels nor underflows.
    # Raises PrecisionLossError when a moment it needs underflows the double
    # range, as E[t^(2k)] does once n^k exceeds about 1e308.
    if power % 2:
        mean, sigma = 0.0, math.sqrt(_sphere_moment(n, 2 * power))
    else:
        mean = _sphere_moment(n, power)
        ratio = 1.0
        for j in range(power // 2):
            ratio *= ((2 * j + power + 1) / (2 * j + 1)) * ((n + 2 * j) / (n + 2 * j + power))
        sigma = mean * math.sqrt(ratio - 1.0)
    return Prediction(
        observable=f"t^{power}",
        mean=mean,
        sigma_exact=sigma,
        sigma_bound=None,
        deviation_order="exact Beta moment",
    )
