"""Seeded samplers for spheres, hyperboloids, and random symmetric operators.

All randomness flows through :class:`RandomStream`, an SFC64 stream addressed
by the pair (seed, stream_id).  Equal addresses give bitwise equal draw
sequences on every platform, which is what makes the Monte Carlo engine
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
    _boost_from_e1,
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
            seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
            self._generator = np.random.Generator(np.random.SFC64(seq))
        return self._generator

    def substream(self, index):
        """Member `index` of the flat family this stream's seed identifies.

        The Monte Carlo engine draws chunk k of an experiment from
        substream(k) of its seed, so results do not depend on scheduling.
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


def _prepare_spectra(spectra, n=None):
    """spectra as a tuple of Spectrum, all of length n (by default the first's)."""
    prepared = tuple(sp if isinstance(sp, Spectrum) else Spectrum(sp) for sp in spectra)
    for sp in prepared:
        n = sp.n if n is None else n
        if sp.n != n:
            raise ValueError(f"spectrum length {sp.n} does not match dimension {n}")
    return prepared


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


def _unit_raw(g, gen):
    # A uniform direction: the Gaussian row g normalized.  The degenerate
    # row, probability zero in exact arithmetic, is redrawn from gen.
    while True:
        nrm = math.sqrt(float(g @ g))
        if nrm > _DEGENERATE_NORM:
            return g / nrm
        g = gen.standard_normal(g.shape[0])


def _tangent_raw(u, g, gen):
    # A uniform tangent direction at unit u, returned unnormalized with its
    # norm: the Gaussian row g (overwritten) less its component along u.
    # A projection that vanishes to machine precision is redrawn from gen.
    while True:
        g -= (g @ u) * u
        nrm = math.sqrt(float(g @ g))
        if nrm > _DEGENERATE_NORM:
            return g, nrm
        g = gen.standard_normal(u.shape[0])


def uniform_unit_sphere(n, rng):
    """Draw a uniform point on the unit sphere in R^n.

    Normalized Gaussian sampling: exact uniformity by rotational invariance.
    Requires n >= 2.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    gen = _gen_of(rng)
    return UnitVector(_unit_raw(gen.standard_normal(n), gen))


def _sphere_step_raw(u, cos, sin, g, gen):
    # One sphere step of angle theta = atan2(sin, cos) from unit u, driven
    # by the Gaussian row g of length n.  Not renormalized: an exactly unit
    # u maps to norm 1 + O(eps), so a chain drifts by about M*eps, and
    # skipping the division keeps one-step observables exactly deterministic.
    g, nrm = _tangent_raw(u, g, gen)
    return cos * u + (sin / nrm) * g


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
    gen = _gen_of(rng)
    g = gen.standard_normal(u.dim)
    return UnitVector(_sphere_step_raw(u.values, math.cos(theta), math.sin(theta), g, gen))


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
    gen = _gen_of(rng)
    return xv + d * _unit_raw(gen.standard_normal(xv.shape[0]), gen)


def _hyperbolic_step_raw(u, cosh, sinh, g, gen):
    # One hyperboloid step of arc xi (cosh, sinh given) from u, driven by the
    # Gaussian row g of length n - 1.  The step is sampled at the base point
    # e1, where the arc-xi sphere is (cosh xi, sinh xi * w) with w uniform on
    # S^(n-2), then pushed to u by the boost taking e1 to u; the boost is an
    # isometry between the two spheres, so uniformity is preserved.  The
    # Minkowski square is guarded but not renormalized, for the reason given
    # in _sphere_step_raw.
    y = np.empty(u.shape[0])
    y[0] = cosh
    y[1:] = sinh * _unit_raw(g, gen)
    out = _boost_from_e1(u, y)
    if not out[0] > 0.0:
        raise ValueError("hyperbolic step left the future sheet")
    q = float(out[0] * out[0] - out[1:] @ out[1:])
    if not abs(q - 1.0) <= CONSTRUCTION_TOL:
        raise ValueError(f"hyperbolic step drifted off the sheet: Minkowski square {q!r}")
    return out


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
    gen = _gen_of(rng)
    g = gen.standard_normal(u.dim - 1)
    return HyperboloidPoint(_hyperbolic_step_raw(u.values, math.cosh(xi), math.sinh(xi), g, gen))


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
