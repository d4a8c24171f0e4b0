"""Inner products, norms, and value types for high-dimensional step chains.

Everything downstream (samplers, chains, predictors) speaks in terms of the
primitives defined here: the Euclidean and Minkowski inner products, the
probability-normalized p-norm, the Hilbert-Schmidt norm, and thin wrapper
types that carry their defining invariant (unit vectors, hyperboloid points,
symmetric matrices).  Wrapped arrays are marked read-only so values can be
shared across threads after construction.
"""

import math

import numpy as np

# Constructors accept inputs this far from the exact invariant and renormalize;
# anything farther is rejected as a likely caller bug.
CONSTRUCTION_TOL = 1e-6
# Re-checkable guarantee after construction.
POST_NORM_TOL = 1e-9

__all__ = [
    "CONSTRUCTION_TOL",
    "POST_NORM_TOL",
    "as_vector",
    "euclid_inner",
    "minkowski_inner",
    "pnorm_pi",
    "hs_norm",
    "lorentz_boost_from_e1",
    "apply_boost_from_e1",
    "UnitVector",
    "HyperboloidPoint",
    "SymMatrix",
]


def as_vector(values, name="vector"):
    """Coerce to a finite float64 1-D array.

    Parameters
    ----------
    values : array_like
        Input sequence.
    name : str
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        1-D float64 array (a copy when conversion was needed).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def _unwrap(x):
    if isinstance(x, (UnitVector, HyperboloidPoint)):
        return x.values
    return x


def euclid_inner(x, y):
    """Euclidean inner product <x, y> = sum_i x_i y_i.

    Both arguments must have the same length.  Accepts raw arrays or
    UnitVector / HyperboloidPoint wrappers.
    """
    xv = as_vector(_unwrap(x), "x")
    yv = as_vector(_unwrap(y), "y")
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    return float(xv @ yv)


def minkowski_inner(x, y):
    """Minkowski inner product x_1 y_1 - sum_{j>=2} x_j y_j.

    The first coordinate is the timelike one.  Both arguments must have the
    same length, at least 2.
    """
    xv = as_vector(_unwrap(x), "x")
    yv = as_vector(_unwrap(y), "y")
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    if xv.shape[0] < 2:
        raise ValueError("minkowski_inner needs dimension >= 2")
    return float(xv[0] * yv[0] - xv[1:] @ yv[1:])


def pnorm_pi(x, p):
    """Probability-normalized p-norm ((1/N) sum |x_i|^p)^(1/p).

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
    v = as_vector(_unwrap(x), "x")
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError(f"p must be a finite real >= 1, got {p!r}")
    a = np.abs(v)
    m = float(a.max())
    if m == 0.0:
        return 0.0
    # Scale by the max entry so large exponents cannot overflow.
    return m * float(np.mean((a / m) ** p)) ** (1.0 / p)


def hs_norm(a):
    """Hilbert-Schmidt (Frobenius) norm of a square matrix.

    Accepts a SymMatrix or any square 2-D array.  Invariant under orthogonal
    conjugation, and for A = U^T diag(s) U equals sqrt(N) * pnorm_pi(s, 2).
    """
    if isinstance(a, SymMatrix):
        m = a.values
    else:
        m = np.asarray(a, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
    return float(np.sqrt(np.sum(m * m)))


def lorentz_boost_from_e1(u):
    """Lorentz boost matrix mapping e1 to the hyperboloid point u.

    For u = (u1, u~) with u1^2 - ||u~||^2 = 1, u1 > 0, the boost is

        B = [[u1,  u~^T],
             [u~,  I + u~ u~^T / (1 + u1)]]

    which satisfies B e1 = u and preserves the Minkowski inner product.

    Returns
    -------
    numpy.ndarray
        The N x N boost matrix.
    """
    uv = u.values if isinstance(u, HyperboloidPoint) else HyperboloidPoint(u).values
    n = uv.shape[0]
    spatial = uv[1:]
    b = np.empty((n, n))
    b[0, 0] = uv[0]
    b[0, 1:] = spatial
    b[1:, 0] = spatial
    b[1:, 1:] = np.eye(n - 1) + np.outer(spatial, spatial) / (1.0 + uv[0])
    return b


def apply_boost_from_e1(u, x):
    """Apply lorentz_boost_from_e1(u) to a vector in O(N) without forming it.

    Uses the rank-one structure of the boost:
    (B x)_1 = u1 x1 + u~ . x~ and B x~ = x~ + (x1 + (u~ . x~)/(1 + u1)) u~.
    """
    uv = u.values if isinstance(u, HyperboloidPoint) else as_vector(u, "u")
    xv = as_vector(_unwrap(x), "x")
    if uv.shape != xv.shape:
        raise ValueError(f"dimension mismatch: {uv.shape[0]} vs {xv.shape[0]}")
    spatial = uv[1:]
    a = float(spatial @ xv[1:])
    out = np.empty_like(xv)
    out[0] = uv[0] * xv[0] + a
    out[1:] = xv[1:] + (xv[0] + a / (1.0 + uv[0])) * spatial
    return out


def _freeze(arr):
    arr.flags.writeable = False
    return arr


class UnitVector:
    """A Euclidean unit vector.

    Construction renormalizes inputs whose norm is within CONSTRUCTION_TOL of
    1 and rejects anything farther; use :meth:`normalized` to build one from
    an arbitrary nonzero vector.  After construction the stored array is
    read-only and satisfies | ||v|| - 1 | <= POST_NORM_TOL.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = as_vector(_unwrap(values), "unit vector")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(
                f"norm {nrm!r} is not within {CONSTRUCTION_TOL} of 1; "
                "use UnitVector.normalized for raw directions"
            )
        self.values = _freeze(v / nrm)

    @classmethod
    def normalized(cls, values):
        """Normalize an arbitrary nonzero vector to a UnitVector."""
        v = as_vector(_unwrap(values), "vector")
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(v / nrm)

    @property
    def dim(self):
        return self.values.shape[0]

    def __repr__(self):
        return f"UnitVector(dim={self.dim})"


class HyperboloidPoint:
    """A point on the future sheet of the unit hyperboloid.

    Coordinates x = (x1, x~) with minkowski_inner(x, x) = 1 and x1 > 0.
    Construction renormalizes inputs whose Minkowski square is within
    CONSTRUCTION_TOL of 1; :meth:`from_spatial` lifts a spatial vector by
    solving for the timelike coordinate.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = as_vector(_unwrap(values), "hyperboloid point")
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


class SymMatrix:
    """A real symmetric matrix.

    Construction rejects matrices whose asymmetry exceeds 1e-12 relative to
    the largest entry, then symmetrizes exactly via (A + A^T) / 2.
    """

    __slots__ = ("values",)

    _SYM_RTOL = 1e-12

    def __init__(self, values):
        m = np.asarray(values, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        scale = float(np.abs(m).max())
        asym = float(np.abs(m - m.T).max())
        if asym > self._SYM_RTOL * max(scale, 1.0):
            raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym!r}")
        self.values = _freeze((m + m.T) / 2.0)

    @property
    def n(self):
        return self.values.shape[0]

    def __repr__(self):
        return f"SymMatrix(n={self.n})"
