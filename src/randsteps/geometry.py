"""Vector checks, the probability-normalized p-norm, and point types.

as_vector and the schedule check validate what the predictors and the
engine take in; pnorm_pi is the paper's probability p-norm; UnitVector and
HyperboloidPoint are thin wrappers that carry their defining invariant and
give the chain runners their start point.  Wrapped arrays are marked
read-only so values can be shared across threads after construction.
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
    "pnorm_pi",
    "UnitVector",
    "HyperboloidPoint",
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


def _unwrap(x):
    if isinstance(x, (UnitVector, HyperboloidPoint)):
        return x.values
    return x


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
    return _pnorm_pi(v, p)


def _pnorm_pi(v, p):
    # pnorm_pi on a finite non-empty float64 array and a checked p, unchecked.
    a = np.abs(v)
    m = float(a.max())
    if m == 0.0:
        return 0.0
    # Scale by the max entry so large exponents cannot overflow.
    return m * float(np.mean((a / m) ** p)) ** (1.0 / p)


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

    Coordinates x = (x1, x~) with Minkowski square x1^2 - ||x~||^2 = 1 and x1 > 0.
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
