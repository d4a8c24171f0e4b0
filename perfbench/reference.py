"""Reference values the benchmark owns, written independently of randsteps.

Each function restates a closed form from the paper: the sphere chain mean
prod cos(theta), the flat mean sum d^2, the hyperbolic mean prod cosh(xi),
the operator laws mean(s) / ||s||_pi,2 and ||s||_pi,2, and the moments of
one coordinate t of a uniform point on the sphere in R^n,
E[t^(2k)] = prod_{j<k} (2j+1) / (n+2j), odd moments 0.
"""

import math

# Relative tolerance for a closed form or a quadrature with epsrel 1e-12.
REL_TOL = 1e-9
# Absolute slack for sphere means: angles within 1e-12 of pi/2 predict 0.
SPHERE_ABS_TOL = 1e-15
MONOMIAL_KINDS = ("x1_sq", "x1_4", "x1sq_x2sq")


def sphere_mean(thetas):
    return math.prod(math.cos(t) for t in thetas)


def flat_mean(ds):
    return math.fsum(d * d for d in ds)


def _log_cosh(x):
    return x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0)


def hyperbolic_mean(xis):
    return math.exp(math.fsum(_log_cosh(x) for x in xis))


def _pnorm2(values):
    return math.sqrt(math.fsum(v * v for v in values) / len(values))


def operator_mean(factors, observable):
    """Product over factors of mean(s) / ||s||_pi,2 or of ||s||_pi,2."""
    out = 1.0
    for values in factors:
        if observable == "norm_ratio":
            out *= _pnorm2(values)
        else:
            out *= math.fsum(values) / len(values) / _pnorm2(values)
    return out


def coordinate_moment(power, n):
    """E[t^power] for one coordinate t of a uniform point on S^(n-1)."""
    if power % 2:
        return 0.0
    return math.prod((2 * j + 1) / (n + 2 * j) for j in range(power // 2))


def marginal(power, n):
    """(mean, sigma) of t^power."""
    mean = coordinate_moment(power, n)
    return mean, math.sqrt(coordinate_moment(2 * power, n) - mean * mean)


def monomial(kind, n):
    """(mean, sigma) of x1^2, x1^4 or x1^2 x2^2 under the uniform sphere law."""
    q2 = n * (n + 2)
    q4 = q2 * (n + 4) * (n + 6)
    mean, second = {
        "x1_sq": (1 / n, 3 / q2),
        "x1_4": (3 / q2, 105 / q4),
        "x1sq_x2sq": (1 / q2, 9 / q4),
    }[kind]
    return mean, math.sqrt(second - mean * mean)


def expected(geometry, schedule, n, observable=None):
    """(mean, sigma or None) the benchmark expects for one experiment.

    schedule is a tuple of floats, a tuple of spectrum value tuples for the
    operator geometries, a monomial kind, or a marginal power.
    """
    if geometry == "sphere":
        return sphere_mean(schedule), None
    if geometry == "flat":
        return flat_mean(schedule), None
    if geometry == "hyperbolic":
        return hyperbolic_mean(schedule), None
    if geometry in ("operator", "operator_product"):
        return operator_mean(schedule, observable or "cosine"), None
    if geometry == "monomial":
        return monomial(schedule, n)
    return marginal(schedule, n)


def close(got, want, scale, abs_tol=0.0):
    """True when got is within REL_TOL of scale (plus abs_tol) of want."""
    return abs(got - want) <= REL_TOL * abs(scale) + abs_tol


def check_prediction(geometry, schedule, n, observable, mean, sigma):
    """Failure kinds ('mean_off', 'sigma_off') of one prediction; [] when right."""
    want_mean, want_sigma = expected(geometry, schedule, n, observable)
    scale = max(abs(want_mean), want_sigma or 0.0)
    abs_tol = SPHERE_ABS_TOL if geometry == "sphere" else 0.0
    kinds = []
    if mean is None or not close(mean, want_mean, scale, abs_tol):
        kinds.append("mean_off")
    if want_sigma is not None and sigma is not None and not close(sigma, want_sigma, want_sigma):
        kinds.append("sigma_off")
    return kinds
