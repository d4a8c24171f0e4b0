"""Seeded samplers for spheres, hyperboloids, and random symmetric operators.

All randomness flows through :class:`RandomStream`, a counter-based stream
addressed by the pair (seed, stream_id).  Equal addresses give bitwise equal
draw sequences on every platform, which is what makes the Monte Carlo engine
reproducible regardless of how trials are scheduled.  There is no hidden
global state; every operation takes its stream explicitly.
"""

import math

import numpy as np

from .geometry import (
    CONSTRUCTION_TOL,
    HyperboloidPoint,
    SymMatrix,
    UnitVector,
    apply_boost_from_e1,
    as_vector,
)

__all__ = [
    "RandomStream",
    "Spectrum",
    "gaussian_vector",
    "uniform_unit_sphere",
    "sphere_step",
    "flat_step",
    "hyperbolic_step",
    "haar_orthogonal",
    "random_symmetric_with_spectrum",
]

_UINT64_MAX = 2**64 - 1
# Below this norm a draw is treated as degenerate and redrawn; the event has
# probability zero in exact arithmetic.
_DEGENERATE_NORM = 1e-150


class RandomStream:
    """Counter-based random stream addressed by (seed, stream_id).

    Streams with distinct addresses are statistically independent (Philox
    keyed by the address), and equal addresses reproduce the same sequence
    bitwise.  A stream is cheap to create and holds its own generator state,
    so a single stream must not be shared by concurrent writers; hand each
    worker its own.
    """

    __slots__ = ("seed", "stream_id", "_generator")

    def __init__(self, seed, stream_id=0):
        for label, value in (("seed", seed), ("stream_id", stream_id)):
            if not isinstance(value, (int, np.integer)):
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
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._generator = np.random.Generator(np.random.Philox(key=key))
        return self._generator

    def substream(self, index):
        """Member `index` of the flat family this stream's seed identifies.

        The Monte Carlo engine derives trial i's stream as substream(i) of
        the experiment seed, so results do not depend on worker scheduling.
        """
        return RandomStream(self.seed, index)

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


class Spectrum:
    """A prescribed multiset of eigenvalues for a random symmetric operator.

    Values are stored sorted in descending order so two spectra compare
    canonically regardless of input order.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = as_vector(values, "spectrum")
        v = np.sort(v)[::-1].copy()
        v.flags.writeable = False
        self.values = v

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


def gaussian_vector(n, rng):
    """Draw a standard normal vector of length n.

    Parameters
    ----------
    n : int
        Dimension, n >= 1.
    rng : RandomStream
        Source of randomness.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _gen_of(rng).standard_normal(n)


def _unit_sphere_raw(n, gen):
    # Gaussian direction normalized; redraw the zero-probability degenerate case.
    while True:
        g = gen.standard_normal(n)
        nrm = math.sqrt(float(g @ g))
        if nrm > _DEGENERATE_NORM:
            return g / nrm


def uniform_unit_sphere(n, rng):
    """Draw a uniform point on the unit sphere in R^n.

    Normalized Gaussian sampling: exact uniformity by rotational invariance.
    Requires n >= 2.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return UnitVector(_unit_sphere_raw(n, _gen_of(rng)))


def _sphere_step_raw(u, theta, gen):
    # One step on the sphere: move angle theta from u in a uniform tangent
    # direction.  u must be unit; the result is unit to machine precision.
    g = gen.standard_normal(u.shape[0])
    g -= (g @ u) * u
    nrm = math.sqrt(float(g @ g))
    while nrm <= _DEGENERATE_NORM:
        g = gen.standard_normal(u.shape[0])
        g -= (g @ u) * u
        nrm = math.sqrt(float(g @ g))
    return math.cos(theta) * u + (math.sin(theta) / nrm) * g


def sphere_step(u, theta, rng):
    """Step a fixed angle from u, uniformly over directions.

    Draws w uniform on the unit sphere of the tangent space at u and returns
    cos(theta) u + sin(theta) w, so euclid_inner(result, u) equals cos(theta)
    to within about 1e-12.  theta = 0 returns u exactly and theta = pi the
    antipode (up to one rounding of sin(pi)).

    Parameters
    ----------
    u : UnitVector
        Current position; dimension >= 3.
    theta : float
        Step angle in radians, 0 <= theta <= pi.
    rng : RandomStream
    """
    if not isinstance(u, UnitVector):
        u = UnitVector(u)
    if u.dim < 3:
        raise ValueError(f"sphere_step needs dimension >= 3, got {u.dim}")
    if not (0.0 <= theta <= math.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
    return UnitVector(_sphere_step_raw(u.values, theta, _gen_of(rng)))


def flat_step(x, d, rng):
    """Move distance d from x in a uniform random direction.

    ||result - x|| equals d to within about 1e-12.  Requires d >= 0 and
    dimension >= 2.
    """
    xv = as_vector(x, "x")
    if xv.shape[0] < 2:
        raise ValueError(f"flat_step needs dimension >= 2, got {xv.shape[0]}")
    if not (d >= 0.0 and math.isfinite(d)):
        raise ValueError(f"step length must be a finite real >= 0, got {d!r}")
    return xv + d * _unit_sphere_raw(xv.shape[0], _gen_of(rng))


def _hyperbolic_step_raw(u, xi, gen):
    # Sample the step at the base point e1, where the arc-xi sphere is
    # (cosh xi, sinh xi * w) with w uniform on S^(n-2), then push it to u by
    # the boost taking e1 to u.  The boost restricts to an isometry between
    # the two spheres, so uniformity is preserved.
    n = u.shape[0]
    w = _unit_sphere_raw(n - 1, gen)
    y = np.empty(n)
    y[0] = math.cosh(xi)
    y[1:] = math.sinh(xi) * w
    return apply_boost_from_e1(u, y)


def hyperbolic_step(u, xi, rng):
    """Step arc length xi from u on the unit hyperboloid.

    The result lands uniformly on the set of points at hyperbolic distance
    xi from u, and minkowski_inner(result, u) equals cosh(xi) to within about
    1e-9 relative.  xi = 0 returns u exactly.

    Parameters
    ----------
    u : HyperboloidPoint
        Current position; dimension >= 3.
    xi : float
        Arc length, xi >= 0.
    rng : RandomStream
    """
    if not isinstance(u, HyperboloidPoint):
        u = HyperboloidPoint(u)
    if u.dim < 3:
        raise ValueError(f"hyperbolic_step needs dimension >= 3, got {u.dim}")
    if not (xi >= 0.0 and math.isfinite(xi)):
        raise ValueError(f"arc length must be a finite real >= 0, got {xi!r}")
    return HyperboloidPoint(_hyperbolic_step_raw(u.values, xi, _gen_of(rng)))


def _haar_raw(n, gen):
    g = gen.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    # Sign correction: without it the QR convention biases the distribution.
    d = np.sign(np.diagonal(r))
    d[d == 0.0] = 1.0
    return q * d


def haar_orthogonal(n, rng):
    """Draw an orthogonal matrix from the Haar (rotation-invariant) measure.

    QR decomposition of a Gaussian matrix with the R-diagonal sign
    correction.  Columns are distributed like uniform sphere points.
    Requires n >= 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _haar_raw(n, _gen_of(rng))


def random_symmetric_with_spectrum(spectrum, rng):
    """Draw A = U^T diag(s) U with U Haar orthogonal.

    The eigenvalues of the result are exactly the prescribed spectrum (up to
    numerical symmetrization); the eigenvectors are a uniformly random
    orthonormal frame.  A scalar spectrum (all values equal) commutes with
    every U and short-circuits to the exact scalar matrix.

    Parameters
    ----------
    spectrum : Spectrum
        Eigenvalues to prescribe.
    rng : RandomStream
    """
    if not isinstance(spectrum, Spectrum):
        spectrum = Spectrum(spectrum)
    s = spectrum.values
    if np.all(s == s[0]):
        return SymMatrix(np.diag(np.full(spectrum.n, s[0])))
    u = _haar_raw(spectrum.n, _gen_of(rng))
    a = u.T @ (s[:, None] * u)
    return SymMatrix((a + a.T) / 2.0)
