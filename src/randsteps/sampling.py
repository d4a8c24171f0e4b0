"""Seeded random streams and the prescribed spectra of random operators.

All randomness flows through :class:`RandomStream`, an SFC64 stream addressed
by the pair (seed, stream_id).  Equal addresses give bitwise equal draw
sequences on every platform, which is what makes the Monte Carlo engine
reproducible regardless of how trials are scheduled.  There is no hidden
global state; every operation takes its stream explicitly.
"""

import numpy as np

from .geometry import as_vector

__all__ = ["RandomStream", "Spectrum"]

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
