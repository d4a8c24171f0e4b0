"""Closed-form predictions for accumulated random steps in high dimension.

Each chain simulated by :mod:`randsteps.chains` concentrates around a
deterministic value as the dimension grows.  This module computes those
values, the exact standard deviations where they have closed forms, and the
schedule-level deviation bounds, so the Monte Carlo engine has something
sharp to compare against.

Conventions: angles are radians, spectra are plain eigenvalue lists, and a
"probability p-norm" is pnorm_pi from :mod:`randsteps.geometry`.  Every
sigma here is the standard deviation of the chain observable itself (sphere
and operator cosines, flat squared displacement, hyperbolic Minkowski
inner), not of any derived quantity.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .geometry import as_vector, pnorm_pi

__all__ = [
    "PrecisionLossError",
    "Prediction",
    "CurvaturePath",
    "PropositionBounds",
    "sphere_expected_cosine",
    "sphere_sigma",
    "sphere_sigma_bound",
    "flat_expected_sq_norm",
    "flat_expected_norm",
    "flat_fourth_moment",
    "flat_sigma",
    "flat_sigma_bound",
    "hyperbolic_expected_cosh",
    "hyperbolic_log_expected_cosh",
    "hyperbolic_sigma",
    "hyperbolic_sigma_bound",
    "operator_norm_multiplier",
    "operator_expected_cosine",
    "operator_product_cosine",
    "kappa_norm_product",
    "kappa_cosine_product",
    "pnorm_proposition_bounds",
    "monomial_integral",
    "coordinate_marginal_density",
    "gaussian_abs_moment",
    "gaussian_sq_std",
    "sphere_prediction",
    "flat_prediction",
    "hyperbolic_prediction",
    "operator_prediction",
    "operator_product_prediction",
    "monomial_prediction",
    "marginal_moment_prediction",
    "prediction_for",
]

# Angles this close to pi/2 are treated as exactly orthogonal steps, so that
# schedules built from 90 degrees predict a mean of exactly 0.0 rather than
# the rounding residue of cos(pi/2).
_RIGHT_ANGLE_SNAP = 1e-12

_EPS = float(np.finfo(np.float64).eps)


class PrecisionLossError(ArithmeticError):
    """Raised when cancellation leaves a result with no trustworthy digits."""


def _angles(thetas):
    if len(thetas) == 0:
        return np.empty(0)
    t = as_vector(thetas, "angle schedule")
    if np.any(t < 0.0) or np.any(t > math.pi):
        raise ValueError("angles must lie in [0, pi]")
    return t


def _arcs(xis):
    if len(xis) == 0:
        return np.empty(0)
    x = as_vector(xis, "arc schedule")
    if np.any(x < 0.0):
        raise ValueError("arc lengths must be >= 0")
    return x


def _steps(ds):
    if len(ds) == 0:
        return np.empty(0)
    d = as_vector(ds, "step schedule")
    if np.any(d < 0.0):
        raise ValueError("step lengths must be >= 0")
    return d


def _step_cosine(theta):
    if abs(theta - math.pi / 2.0) <= _RIGHT_ANGLE_SNAP:
        return 0.0
    return math.cos(theta)


def sphere_expected_cosine(thetas):
    """Expected cosine between start and end of a sphere chain.

    For steps of fixed angles theta_1 .. theta_M in uniformly random tangent
    directions, E[<u_M, u_0>] = prod_i cos(theta_i), independent of the
    dimension.  Angles within 1e-12 rad of pi/2 contribute an exact factor 0.
    """
    t = _angles(thetas)
    out = 1.0
    for theta in t:
        out *= _step_cosine(theta)
    return out + 0.0  # a snapped right-angle factor must give +0.0, not -0.0


def sphere_sigma(thetas, n):
    """Exact standard deviation of the sphere chain cosine.

    Computed by the two-coefficient recursion that tracks how one averaging
    step maps the pair (<a,x>^2, ||a||^2):

        c_k = cos^2 theta_k - sin^2 theta_k / (n - 1)
        s_k = sin^2 theta_k / (n - 1)
        a_k = c_k a_{k-1},   b_k = s_k a_{k-1} + b_{k-1}

    starting from (a_0, b_0) = (1, 0), with
    sigma^2 = a_M + b_M - (prod cos theta_i)^2.

    Parameters
    ----------
    thetas : sequence of float
        Step angles in [0, pi].
    n : int
        Ambient dimension, n >= 3.
    """
    t = _angles(thetas)
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if t.shape[0] <= 1:
        # Zero or one step is deterministic.
        return 0.0
    a, b = 1.0, 0.0
    prod = 1.0
    for theta in t:
        cth = _step_cosine(theta)
        s2 = math.sin(theta) ** 2
        c = cth * cth - s2 / (n - 1)
        s = s2 / (n - 1)
        b = s * a + b
        a = c * a
        prod *= cth
    var = a + b - prod * prod
    return math.sqrt(max(var, 0.0))


def sphere_sigma_bound(thetas, n):
    """Schedule-level bound sigma <= ||(sin theta_1 .. sin theta_{M-1})||_2 / sqrt(n-1).

    The last step's angle does not appear.  Holds for every schedule, with
    equality at (pi/2, pi/2).
    """
    t = _angles(thetas)
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if t.shape[0] < 1:
        raise ValueError("the bound needs at least one step")
    s = np.sin(t[:-1])
    return math.sqrt(float(s @ s)) / math.sqrt(n - 1)


def flat_expected_sq_norm(ds):
    """E[||x_M||^2] = sum_i d_i^2 for flat steps of lengths d_i."""
    d = _steps(ds)
    return float(d @ d)


def flat_expected_norm(ds):
    """sqrt(sum_i d_i^2), the concentration value of ||x_M||.

    This is the square root of the exact mean of ||x_M||^2; the mean of
    ||x_M|| itself differs from it by a relative O(1/n) correction.
    """
    return math.sqrt(flat_expected_sq_norm(ds))


def flat_fourth_moment(ds, n):
    """E[||x_M||^4] by the three-coefficient recursion.

    One step of length d maps (||x||^4, ||x||^2, 1) coefficients (A, B, C) to
    (A, (2 + 4/n) d^2 A + B, d^4 A + d^2 B + C); starting from (1, 0, 0) the
    answer is C_M, equal to sum d_i^4 + (2 + 4/n) sum_{i<j} d_i^2 d_j^2.
    """
    d = _steps(ds)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    a, b, c = 1.0, 0.0, 0.0
    for step in d:
        d2 = step * step
        c = d2 * d2 * a + d2 * b + c
        b = (2.0 + 4.0 / n) * d2 * a + b
    return c


def flat_sigma(ds, n):
    """Exact standard deviation of the flat squared displacement.

    sigma^2 = (4/n) sum_{i<j} d_i^2 d_j^2, computed from the elementary
    symmetric identity 2 sum_{i<j} = (sum d^2)^2 - sum d^4.
    """
    d = _steps(ds)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if d.shape[0] <= 1:
        return 0.0
    d2 = d * d
    e1 = float(np.sum(d2))
    e2 = float(d2 @ d2)
    pairs = max(e1 * e1 - e2, 0.0) / 2.0
    return math.sqrt(4.0 / n * pairs)


def flat_sigma_bound(ds, n):
    """Bound sigma <= sqrt(2 (n-1)) / n * sum_i d_i^2 for the squared displacement.

    Guaranteed whenever the number of steps M does not exceed the dimension n
    (the regime of interest, steps far fewer than dimensions); for M > n the
    sharp constant degrades to sqrt(2 (M-1) / (M n)) and this expression may
    undershoot the true sigma.
    """
    d = _steps(ds)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if d.shape[0] < 1:
        raise ValueError("the bound needs at least one step")
    return math.sqrt(2.0 * (n - 1)) / n * float(d @ d)


def _log_cosh(x):
    return float(np.logaddexp(x, -x)) - math.log(2.0)


def _log_sinh(x):
    # x > 0 required.
    return x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)


def hyperbolic_log_expected_cosh(xis):
    """log of prod_i cosh(xi_i), computed stably for arbitrarily large arcs."""
    x = _arcs(xis)
    return float(sum(_log_cosh(v) for v in x))


def hyperbolic_expected_cosh(xis):
    """Expected Minkowski inner product between start and end of a hyperbolic chain.

    E[<u_M, u_0>_H] = prod_i cosh(xi_i), evaluated as the exponential of
    hyperbolic_log_expected_cosh; returns inf when the product exceeds the
    double range (the log form stays finite).
    """
    try:
        return math.exp(hyperbolic_log_expected_cosh(xis))
    except OverflowError:
        return math.inf


def hyperbolic_sigma(xis, n):
    """Exact standard deviation of the hyperbolic chain inner product.

    The recursion mirrors the sphere one with hyperbolic weights:

        c_k = cosh^2 xi_k + sinh^2 xi_k / (n - 1)
        s_k = sinh^2 xi_k / (n - 1)
        a_k = c_k a_{k-1},   b_k = -s_k a_{k-1} + b_{k-1}

    and sigma^2 = a_M + b_M - (prod cosh xi_i)^2.  Large schedules are
    evaluated in log space to avoid overflow.

    Raises
    ------
    PrecisionLossError
        When cancellation in sigma^2 leaves an estimated relative error above
        1e-2 (for example, all arcs around 1e-9).  The value would be noise.
    """
    x = _arcs(xis)
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    m = x.shape[0]
    if m <= 1 or not np.any(x > 0.0):
        return 0.0
    err_rel_budget = 1e-2
    rounding = 8.0 * _EPS * (m + 2)
    if float(np.sum(2.0 * x)) + m * math.log(2.0) < 600.0:
        a, b, p2 = 1.0, 0.0, 1.0
        for xi in x:
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
    # Log-space evaluation of the identical recursion.
    la = 0.0
    lb = -math.inf
    lp2 = 0.0
    for xi in x:
        lc = 2.0 * _log_cosh(xi)
        # c = cosh^2 (1 + tanh^2/(n-1))
        tq = math.tanh(xi) ** 2 / (n - 1)
        lck = lc + math.log1p(tq)
        if xi > 0.0:
            ls = 2.0 * _log_sinh(xi) - math.log(n - 1)
            lb = float(np.logaddexp(lb, ls + la))
        la += lck
        lp2 += lc
    x1 = lb - la
    x2 = lp2 - la
    bracket = -math.expm1(x2) - math.exp(x1)
    if bracket <= 0.0 or rounding / bracket > err_rel_budget:
        raise PrecisionLossError(
            f"sigma^2 cancellation in log space: bracket={bracket!r}"
        )
    return math.exp(0.5 * (la + math.log(bracket)))


def hyperbolic_sigma_bound(xis, n):
    """Bound sigma <= sqrt((n/(n-1))^(M-1) - 1) * prod_i cosh(xi_i).

    Holds for every schedule; the first factor is evaluated with expm1 so
    short schedules do not lose precision.
    """
    x = _arcs(xis)
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    m = x.shape[0]
    if m < 1:
        raise ValueError("the bound needs at least one step")
    growth = math.expm1((m - 1) * math.log(n / (n - 1.0)))
    return math.sqrt(growth) * math.exp(hyperbolic_log_expected_cosh(x))


def _spectrum_values(spectrum):
    # Accept Spectrum instances or raw sequences without importing sampling.
    values = getattr(spectrum, "values", spectrum)
    return as_vector(values, "spectrum")


def operator_norm_multiplier(spectrum):
    """Concentration value of ||A u|| / ||u|| for A with the given spectrum.

    Equals pnorm_pi(s, 2): conjugating by a Haar frame turns the fixed
    spectrum into a random mixture, and the squared norm averages to the
    probability second moment of the eigenvalues.
    """
    return pnorm_pi(_spectrum_values(spectrum), 2)


def operator_expected_cosine(spectrum):
    """Concentration value of the cosine between u and A u.

    mean(s) / pnorm_pi(s, 2).  A spectrum with zero trace gives exactly 0;
    the all-zero spectrum has no direction and is rejected.
    """
    s = _spectrum_values(spectrum)
    denom = pnorm_pi(s, 2)
    if denom == 0.0:
        raise ValueError("cosine is undefined for the all-zero spectrum")
    return float(np.mean(s)) / denom


def operator_product_cosine(spectra):
    """Concentration value of the cosine after applying A_M ... A_1.

    The product of the per-factor expected cosines; each factor's frame is
    drawn independently, so the factors multiply.
    """
    out = 1.0
    for spectrum in spectra:
        out *= operator_expected_cosine(spectrum)
    return out


class CurvaturePath:
    """A step schedule with per-direction curvatures.

    Each step is a pair (d_k, kappas_k) of a step length and the sectional
    curvatures kappa_1 .. kappa_{N-1} seen by that step.  Every entry must
    satisfy 1 + d_k kappa > 0; the reciprocal weights v = 1 / (1 + d kappa)
    are what the products below consume.  All steps must list the same
    number of curvatures.
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
            w = 1.0 + d * k
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


def kappa_norm_product(path):
    """Product over steps of pnorm_pi(v_k, 2) for the path's weight vectors.

    The norm multiplier accumulated along a curvature path.
    """
    if not isinstance(path, CurvaturePath):
        path = CurvaturePath(path)
    out = 1.0
    for v in path.weight_vectors():
        out *= pnorm_pi(v, 2)
    return out


def kappa_cosine_product(path):
    """Product over steps of pnorm_pi(v_k, 1) / pnorm_pi(v_k, 2).

    Each factor is at most 1 (Cauchy-Schwarz), so the product is a deviation
    measure in (0, 1]: it equals 1 exactly when every step sees equal
    curvatures.
    """
    if not isinstance(path, CurvaturePath):
        path = CurvaturePath(path)
    out = 1.0
    for v in path.weight_vectors():
        out *= pnorm_pi(v, 1) / pnorm_pi(v, 2)
    return out


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


_MONOMIAL_KINDS = ("x1_sq", "x1_4", "x1sq_x2sq")


def monomial_integral(kind, n):
    """Moments of coordinates under the uniform measure on the sphere in R^n.

    kind "x1_sq" gives E[x_1^2] = 1/n, "x1_4" gives E[x_1^4] = 3/(n(n+2)),
    and "x1sq_x2sq" gives E[x_1^2 x_2^2] = 1/(n(n+2)).  The three satisfy
    n E[x_1^4] + n(n-1) E[x_1^2 x_2^2] = 1 since sum x_i^2 = 1.
    """
    if kind not in _MONOMIAL_KINDS:
        raise ValueError(f"unknown monomial kind {kind!r}; expected one of {_MONOMIAL_KINDS}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if kind == "x1_sq":
        return 1.0 / n
    if kind == "x1sq_x2sq" and n < 3:
        raise ValueError("the mixed moment needs n >= 3")
    if kind == "x1_4":
        return 3.0 / (n * (n + 2))
    return 1.0 / (n * (n + 2))


def coordinate_marginal_density(t, n):
    """Density of a single coordinate of a uniform point on the sphere in R^n.

    rho(t) = Z_n (1 - t^2)^((n-3)/2) on [-1, 1], with normalizer
    Z_n = Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2)) evaluated via log-gamma.
    For n = 2 the density diverges at the endpoints (inf is returned there).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not (-1.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [-1, 1], got {t!r}")
    log_z = gammaln(n / 2.0) - gammaln((n - 1) / 2.0) - 0.5 * math.log(math.pi)
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
            and self.sigma_exact > self.sigma_bound + 1e-12
        ):
            raise ValueError(
                f"sigma_exact {self.sigma_exact!r} exceeds sigma_bound {self.sigma_bound!r}"
            )


def sphere_prediction(thetas, n):
    """Bundle the sphere chain's mean, sigma, and bound for dimension n."""
    t = _angles(thetas)
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    bound = 0.0 if t.shape[0] == 0 else sphere_sigma_bound(t, n)
    return Prediction(
        observable="cosine",
        mean=sphere_expected_cosine(t),
        sigma_exact=sphere_sigma(t, n),
        sigma_bound=bound,
        deviation_order="absolute deviation O(sqrt(sum_{k<M} sin^2 theta_k / (n-1)))",
    )


def flat_prediction(ds, n):
    """Bundle the flat chain's squared-displacement mean, sigma, and bound.

    The bound is omitted when the schedule has more steps than dimensions,
    outside its validity domain.
    """
    d = _steps(ds)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    m = d.shape[0]
    if m == 0:
        bound = 0.0
    elif m <= n:
        bound = flat_sigma_bound(d, n)
    else:
        bound = None
    return Prediction(
        observable="squared_norm",
        mean=flat_expected_sq_norm(d),
        sigma_exact=flat_sigma(d, n),
        sigma_bound=bound,
        deviation_order="relative deviation O(1/sqrt(n))",
    )


def hyperbolic_prediction(xis, n):
    """Bundle the hyperbolic chain's mean, sigma, and bound for dimension n."""
    x = _arcs(xis)
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    bound = 0.0 if x.shape[0] == 0 else hyperbolic_sigma_bound(x, n)
    return Prediction(
        observable="minkowski_inner",
        mean=hyperbolic_expected_cosh(x),
        sigma_exact=hyperbolic_sigma(x, n),
        sigma_bound=bound,
        deviation_order="relative deviation O(sqrt((n/(n-1))^(M-1) - 1))",
    )


_OPERATOR_OBSERVABLES = ("cosine", "norm_ratio")


def operator_prediction(spectrum, observable="cosine"):
    """Prediction for a single random symmetric factor applied to a unit vector."""
    if observable not in _OPERATOR_OBSERVABLES:
        raise ValueError(f"observable must be one of {_OPERATOR_OBSERVABLES}")
    if observable == "cosine":
        mean = operator_expected_cosine(spectrum)
    else:
        mean = operator_norm_multiplier(spectrum)
    return Prediction(
        observable=observable,
        mean=mean,
        sigma_exact=None,
        sigma_bound=None,
        deviation_order="relative deviation O(1/sqrt(n))",
    )


def operator_product_prediction(spectra, observable="cosine"):
    """Prediction for a product of independent random symmetric factors."""
    if observable not in _OPERATOR_OBSERVABLES:
        raise ValueError(f"observable must be one of {_OPERATOR_OBSERVABLES}")
    spectra = list(spectra)
    if not spectra:
        raise ValueError("need at least one spectrum")
    if observable == "cosine":
        mean = operator_product_cosine(spectra)
    else:
        mean = 1.0
        for s in spectra:
            mean *= operator_norm_multiplier(s)
    return Prediction(
        observable=observable,
        mean=mean,
        sigma_exact=None,
        sigma_bound=None,
        deviation_order="relative deviation O(sqrt(M/n))",
    )


def monomial_prediction(kind, n):
    """Prediction for a coordinate monomial under the uniform sphere measure."""
    return Prediction(
        observable=kind,
        mean=monomial_integral(kind, n),
        sigma_exact=None,
        sigma_bound=None,
        deviation_order="exact moment of the uniform sphere measure",
    )


def _marginal_density_moment(power, n):
    log_z = gammaln(n / 2.0) - gammaln((n - 1) / 2.0) - 0.5 * math.log(math.pi)
    z = math.exp(log_z)
    ex = (n - 3) / 2.0

    def integrand(t):
        return t**power * z * (1.0 - t * t) ** ex

    value, _ = quad(integrand, -1.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


def marginal_moment_prediction(power, n):
    """Prediction for E[t^power], t a single coordinate of a uniform sphere point.

    The mean is adaptive quadrature of t^power against the coordinate
    marginal density; sigma_exact is the distribution's own standard
    deviation of t^power, from the 2*power moment.
    """
    if not isinstance(power, (int, np.integer)) or power < 1:
        raise ValueError(f"power must be a positive integer, got {power!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    mean = _marginal_density_moment(power, n)
    second = _marginal_density_moment(2 * power, n)
    var = max(second - mean * mean, 0.0)
    return Prediction(
        observable=f"t^{power}",
        mean=mean,
        sigma_exact=math.sqrt(var),
        sigma_bound=None,
        deviation_order="exact moment by quadrature",
    )


def prediction_for(geometry, schedule, n_dim, observable=None):
    """Dispatch to the right prediction builder for an experiment geometry.

    schedule carries whatever the geometry needs: an angle/step/arc list, a
    list of spectra, a monomial kind, or a marginal moment power.
    """
    if geometry == "sphere":
        return sphere_prediction(schedule, n_dim)
    if geometry == "flat":
        return flat_prediction(schedule, n_dim)
    if geometry == "hyperbolic":
        return hyperbolic_prediction(schedule, n_dim)
    if geometry == "operator":
        spectra = list(schedule) if isinstance(schedule, (list, tuple)) else [schedule]
        if len(spectra) != 1:
            raise ValueError("operator geometry takes exactly one spectrum")
        return operator_prediction(spectra[0], observable or "cosine")
    if geometry == "operator_product":
        spectra = list(schedule) if isinstance(schedule, (list, tuple)) else [schedule]
        return operator_product_prediction(spectra, observable or "cosine")
    if geometry == "monomial":
        return monomial_prediction(schedule, n_dim)
    if geometry == "marginal":
        return marginal_moment_prediction(schedule, n_dim)
    raise ValueError(f"unknown geometry {geometry!r}")
