"""Full-vector reference samplers, the oracle for the engine's kernels.

randsteps samples every chain by a one-dimensional recursion (see
randsteps.montecarlo).  This module samples the same laws the plain way,
on full vectors in R^n, so that two-sample tests can compare the two:

- a uniform direction is a normalized Gaussian vector, and a uniform
  tangent direction at u is a Gaussian vector less its component along u;
- a sphere step of angle theta from u is cos(theta) u + sin(theta) w;
- a flat step of length d from x is x + d w;
- a hyperbolic step of arc xi from u is the boost taking e1 to u, applied
  to (cosh xi, sinh xi w) for w uniform on the sphere of R^(n-1);
- an operator factor is the dense matrix U^T diag(s) U, with U Haar drawn
  by QR with the sign correction.

Walks start from e1 (the origin for flat chains).  A draw with no direction,
an event of probability zero, is redrawn.  Nothing here is fast.
"""

import math

import numpy as np

from randsteps.montecarlo import _DEGENERATE_NORM, _gen_of


def _values(x):
    # The coordinates of a UnitVector, HyperboloidPoint or array_like.
    return np.asarray(getattr(x, "values", x), dtype=np.float64)


def _pair(x, y):
    x, y = _values(x), _values(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    return x, y


def _e1(n):
    e1 = np.zeros(n)
    e1[0] = 1.0
    return e1


def euclid_inner(x, y):
    x, y = _pair(x, y)
    return float(x @ y)


def minkowski_inner(x, y):
    """x_1 y_1 - sum_{j>=2} x_j y_j; the first coordinate is timelike."""
    x, y = _pair(x, y)
    if x.shape[0] < 2:
        raise ValueError("minkowski_inner needs dimension >= 2")
    return float(x[0] * y[0] - x[1:] @ y[1:])


def boost_from_e1(u, x):
    """B x in O(n) for the Lorentz boost B taking e1 to the hyperboloid point u:
    B = [[u_1, s^T], [s, I + s s^T / (1 + u_1)]] with s = (u_2, ..., u_n)."""
    u, x = _pair(u, x)
    a = float(u[1:] @ x[1:])
    out = np.empty_like(x)
    out[0] = u[0] * x[0] + a
    out[1:] = x[1:] + (x[0] + a / (1.0 + u[0])) * u[1:]
    return out


def unit_direction(g, gen):
    """The Gaussian row g normalized; a row with no direction is redrawn from gen."""
    while True:
        nrm = math.sqrt(float(g @ g))
        if nrm > _DEGENERATE_NORM:
            return g / nrm
        g = gen.standard_normal(g.shape[0])


def tangent_direction(u, g, gen):
    """(w, ||w||) for w the Gaussian row g (overwritten) less its component
    along the unit vector u; a row with no such component is redrawn."""
    while True:
        g -= (g @ u) * u
        nrm = math.sqrt(float(g @ g))
        if nrm > _DEGENERATE_NORM:
            return g, nrm
        g = gen.standard_normal(u.shape[0])


def uniform_unit_sphere(n, rng):
    gen = _gen_of(rng)
    return unit_direction(gen.standard_normal(n), gen)


def sphere_step(u, theta, rng):
    u = _values(u)
    if u.shape[0] < 3:
        raise ValueError(f"sphere steps need dimension >= 3, got {u.shape[0]}")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
    gen = _gen_of(rng)
    w, nrm = tangent_direction(u, gen.standard_normal(u.shape[0]), gen)
    return math.cos(theta) * u + (math.sin(theta) / nrm) * w


def flat_step(x, d, rng):
    x = _values(x)
    if not (d >= 0.0 and math.isfinite(d)):
        raise ValueError(f"step length must be a finite real >= 0, got {d!r}")
    return x + d * uniform_unit_sphere(x.shape[0], rng)


def hyperbolic_step(u, xi, rng):
    u = _values(u)
    if u.shape[0] < 3:
        raise ValueError(f"hyperbolic steps need dimension >= 3, got {u.shape[0]}")
    if not (xi >= 0.0 and math.isfinite(xi)):
        raise ValueError(f"arc length must be a finite real >= 0, got {xi!r}")
    y = np.empty(u.shape[0])
    y[0] = math.cosh(xi)
    y[1:] = math.sinh(xi) * uniform_unit_sphere(u.shape[0] - 1, rng)
    return boost_from_e1(u, y)


def sphere_walk(n, thetas, rng):
    """<u_M, e1> after the sphere steps thetas from e1 in R^n."""
    u = _e1(n)
    for theta in thetas:
        u = sphere_step(u, theta, rng)
    return float(u[0])


def flat_walk(n, ds, rng):
    """||x_M||^2 after the flat steps ds from the origin of R^n."""
    x = np.zeros(n)
    for d in ds:
        x = flat_step(x, d, rng)
    return float(x @ x)


def hyperbolic_walk(n, xis, rng):
    """<u_M, e1>_H after the hyperbolic steps xis from e1 in R^n."""
    u = _e1(n)
    for xi in xis:
        u = hyperbolic_step(u, xi, rng)
    return float(u[0])


def haar_orthogonal(n, rng):
    """An orthogonal matrix from the Haar measure: QR of a Gaussian matrix,
    with the signs of R's diagonal moved into Q (without it QR is biased)."""
    q, r = np.linalg.qr(_gen_of(rng).standard_normal((n, n)))
    d = np.sign(np.diagonal(r))
    d[d == 0.0] = 1.0
    return q * d


def random_symmetric_with_spectrum(spectrum, rng):
    """U^T diag(s) U with U Haar, symmetrized; a scalar spectrum draws nothing."""
    s = _values(spectrum)
    if np.all(s == s[0]):
        return np.diag(np.full(s.shape[0], s[0]))
    u = haar_orthogonal(s.shape[0], rng)
    a = u.T @ (s[:, None] * u)
    return (a + a.T) / 2.0


def operator_product_dense(spectra, rng):
    """(norm ratio, cosine, degenerate) of A_M ... A_1 e1 with dense factors."""
    w = e1 = _e1(_values(spectra[0]).shape[0])
    for spectrum in spectra:
        w = random_symmetric_with_spectrum(spectrum, rng) @ w
    nw = float(np.linalg.norm(w))
    if nw <= _DEGENERATE_NORM:
        return 0.0, math.nan, True
    return nw, float(w @ e1) / nw, False
