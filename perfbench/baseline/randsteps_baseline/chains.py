"""Step-chain executors: flat, spherical, hyperbolic, and operator products.

Each run_* function plays one trial of a chain and returns the observable
whose expectation :mod:`randsteps.predictors` computes in closed form.  The
heavy lifting lives in private kernels that the Monte Carlo engine calls
directly; the kernels draw each step's Gaussians in one block, which
consumes the stream exactly like per-step draws would, so a chain's outcome
is a pure function of (inputs, stream address) no matter how it is invoked.

The operator product uses an exact O(N)-per-factor factorization instead of
materializing conjugated matrices: for A = U^T diag(s) U with U Haar and a
unit input v, the coordinates x = U v are a uniform unit vector, the image
satisfies ||A v|| = ||diag(s) x||, and conditionally on x the component of
A v orthogonal to v points in a uniform direction of v's orthogonal
complement.  Sampling (x, that direction) therefore reproduces the joint law
of (norm ratio, new direction) exactly.  The dense matrix route is kept as
`_operator_product_dense` so tests can cross-check the two laws.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    CONSTRUCTION_TOL,
    HyperboloidPoint,
    UnitVector,
    as_vector,
)
from .sampling import (
    _DEGENERATE_NORM,
    Spectrum,
    _gen_of,
    random_symmetric_with_spectrum,
)

__all__ = [
    "ChainResult",
    "OperatorProductResult",
    "run_sphere_chain",
    "run_flat_chain",
    "run_hyperbolic_chain",
    "run_operator_product",
]


@dataclass(frozen=True)
class ChainResult:
    """Outcome of one chain trial.

    observable is the scalar the chain is defined to report: the cosine
    <u_M, u_0> on the sphere, the squared displacement ||x_M||^2 in flat
    space, the Minkowski inner product <u_M, u_0>_H on the hyperboloid.
    final_point and path are only populated when requested.
    """

    observable: float
    final_point: Optional[np.ndarray] = None
    path: Optional[np.ndarray] = None


@dataclass(frozen=True)
class OperatorProductResult:
    """Outcome of applying a product of random symmetric factors to a unit vector.

    norm_ratio is ||A_M ... A_1 u|| / ||u|| and cosine the angle cosine
    between the image and u.  degenerate marks the measure-zero event that
    some factor annihilated the running vector; cosine is then nan and
    norm_ratio 0.
    """

    norm_ratio: float
    cosine: float
    degenerate: bool
    final_vector: Optional[np.ndarray] = None


def _schedule(values, name, upper=None):
    if len(values) == 0:
        return np.empty(0)
    v = as_vector(values, name)
    if np.any(v < 0.0):
        raise ValueError(f"{name} entries must be >= 0")
    if upper is not None and np.any(v > upper):
        raise ValueError(f"{name} entries must be <= {upper!r}")
    return v


def _sphere_kernel(u0, steps, gen):
    # One trial of the sphere chain; u0 must be unit, steps a list of
    # (cos theta, sin theta).  Draws all step Gaussians in one block.
    # No per-step renormalization: each step maps an exactly unit vector to
    # one of norm 1 + O(eps), so the drift stays ~ M*eps, and skipping it
    # keeps single-step observables exactly deterministic.
    n = u0.shape[0]
    u = u0
    g = gen.standard_normal((len(steps), n))
    buf = np.empty(n)
    for k, (cth, sth) in enumerate(steps):
        gk = g[k]
        np.multiply(u, gk @ u, out=buf)
        gk -= buf
        nrm = math.sqrt(float(gk @ gk))
        while nrm <= _DEGENERATE_NORM:
            # Tangential part vanished to machine precision; redraw.
            gk = gen.standard_normal(n)
            np.multiply(u, gk @ u, out=buf)
            gk -= buf
            nrm = math.sqrt(float(gk @ gk))
        gk *= sth / nrm
        np.multiply(u, cth, out=buf)
        gk += buf
        u = gk
    return u


def _flat_kernel(ds, n, gen, x=None, r2=0.0):
    # One or more flat-chain steps from (x, r2), defaulting to the origin.
    # Returns the endpoint and the squared norm accumulated incrementally:
    # each step contributes its exact d^2 plus the cross term, treating the
    # unit direction's square as exactly 1, so single-step observables are
    # exactly deterministic.
    if x is None:
        x = np.zeros(n)
    else:
        x = x.copy()
    g = gen.standard_normal((len(ds), n))
    buf = np.empty(n)
    for k, d in enumerate(ds):
        gk = g[k]
        nrm = math.sqrt(float(gk @ gk))
        while nrm <= _DEGENERATE_NORM:
            gk = gen.standard_normal(n)
            nrm = math.sqrt(float(gk @ gk))
        gk /= nrm
        r2 = r2 + 2.0 * d * float(x @ gk) + d * d
        np.multiply(gk, d, out=buf)
        x += buf
    return x, r2


def _hyperbolic_kernel(u0, steps, gen):
    # One trial of the hyperboloid chain; steps a list of (cosh xi, sinh xi).
    # Each step is sampled at the base point e1 and pushed to the current
    # position by the boost.  The Minkowski square is guarded but not
    # renormalized: the boost preserves it up to O(eps) per step, and not
    # dividing keeps single-step observables exactly deterministic.
    n = u0.shape[0]
    u = u0
    g = gen.standard_normal((len(steps), n - 1))
    y = np.empty(n)
    for k, (ch, sh) in enumerate(steps):
        gk = g[k]
        nrm = math.sqrt(float(gk @ gk))
        while nrm <= _DEGENERATE_NORM:
            gk = gen.standard_normal(n - 1)
            nrm = math.sqrt(float(gk @ gk))
        gk /= nrm
        gk *= sh
        y[0] = ch
        y[1:] = gk
        # Boost taking e1 to u, applied via its rank-one structure; matches
        # geometry.apply_boost_from_e1 without per-step validation overhead.
        spatial = u[1:]
        a = float(spatial @ y[1:])
        out = np.empty(n)
        out[0] = u[0] * y[0] + a
        np.multiply(spatial, y[0] + a / (1.0 + u[0]), out=out[1:])
        out[1:] += y[1:]
        if not out[0] > 0.0:
            raise ValueError("hyperbolic step left the future sheet")
        q = float(out[0] * out[0] - out[1:] @ out[1:])
        if not abs(q - 1.0) <= CONSTRUCTION_TOL:
            raise ValueError(f"hyperbolic step drifted off the sheet: Minkowski square {q!r}")
        u = out
    return u


def _operator_kernel(values_list, u0, gen):
    """Apply the factor chain to unit u0; returns (norm_ratio, cosine, degenerate, direction).

    Per factor: x stands for the current direction expressed in the factor's
    random eigenframe (uniform on the sphere), alpha = x . diag(s) x is the
    image's component along the input, beta the orthogonal remainder, and the
    orthogonal part points uniformly within the input's complement.  Scalar
    spectra short-circuit exactly without consuming draws, mirroring the
    dense sampler.
    """
    v = u0
    sign = 1.0
    moved = False
    ratio = 1.0
    for s in values_list:
        n = s.shape[0]
        if np.all(s == s[0]):
            c = float(s[0])
            if abs(c) <= _DEGENERATE_NORM:
                return 0.0, math.nan, True, None
            ratio *= abs(c)
            if c < 0.0:
                sign = -sign
            continue
        g = gen.standard_normal((2, n))
        gx = g[0]
        nx = math.sqrt(float(gx @ gx))
        while nx <= _DEGENERATE_NORM:
            gx = gen.standard_normal(n)
            nx = math.sqrt(float(gx @ gx))
        x = gx / nx
        sx = s * x
        alpha = float(x @ sx)
        perp = sx - alpha * x
        beta = math.sqrt(float(perp @ perp))
        r = math.sqrt(alpha * alpha + beta * beta)
        if r <= _DEGENERATE_NORM:
            return 0.0, math.nan, True, None
        if not moved:
            v = sign * v
            sign = 1.0
            moved = True
        gz = g[1]
        gz -= (gz @ v) * v
        nz = math.sqrt(float(gz @ gz))
        while nz <= _DEGENERATE_NORM:
            gz = gen.standard_normal(n)
            gz -= (gz @ v) * v
            nz = math.sqrt(float(gz @ gz))
        w = alpha * v + beta * (gz / nz)
        v = w / float(np.linalg.norm(w))
        ratio *= r
    if moved:
        return ratio, float(v @ u0), False, v
    # Only scalar factors: the direction is u0 up to sign, exactly.
    return ratio, sign, False, sign * u0


def run_sphere_chain(u0, thetas, rng, trace=False, keep_final=False):
    """Walk fixed-angle steps on the unit sphere and report <u_M, u_0>.

    Each step moves angle theta_k from the current point in a uniformly
    random tangent direction.  An empty schedule reports exactly 1.

    Parameters
    ----------
    u0 : UnitVector
        Starting point; dimension >= 3.
    thetas : sequence of float
        Step angles in [0, pi], applied in order.
    rng : RandomStream
        Source of randomness; the result is a pure function of it.
    trace : bool
        Record the visited points in the result's path array, one row per
        point including the start.
    keep_final : bool
        Attach the final point's coordinates to the result.
    """
    if not isinstance(u0, UnitVector):
        u0 = UnitVector(u0)
    if u0.dim < 3:
        raise ValueError(f"sphere chains need dimension >= 3, got {u0.dim}")
    t = _schedule(thetas, "thetas", upper=math.pi)
    steps = [(math.cos(th), math.sin(th)) for th in t]
    gen = _gen_of(rng)
    start = u0.values
    if trace:
        path = np.empty((len(steps) + 1, u0.dim))
        path[0] = start
        u = start
        for k, step in enumerate(steps):
            u = _sphere_kernel(u, [step], gen)
            path[k + 1] = u
    else:
        path = None
        u = _sphere_kernel(start, steps, gen)
    observable = 1.0 if not steps else float(u @ start)
    return ChainResult(
        observable=observable,
        final_point=u.copy() if keep_final else None,
        path=path,
    )


def run_flat_chain(ds, n, rng, trace=False, keep_final=False):
    """Walk fixed-length steps from the origin of R^n and report ||x_M||^2.

    Each step moves distance d_k in a uniformly random direction.  An empty
    schedule reports exactly 0.

    Parameters
    ----------
    ds : sequence of float
        Step lengths, each >= 0, applied in order.
    n : int
        Dimension, n >= 2.
    rng : RandomStream
    trace, keep_final : bool
        As in run_sphere_chain.
    """
    if n < 2:
        raise ValueError(f"flat chains need dimension >= 2, got {n}")
    d = _schedule(ds, "ds")
    gen = _gen_of(rng)
    if trace:
        path = np.empty((d.shape[0] + 1, n))
        path[0] = 0.0
        x = np.zeros(n)
        r2 = 0.0
        for k, step in enumerate(d):
            x, r2 = _flat_kernel([step], n, gen, x, r2)
            path[k + 1] = x
    else:
        path = None
        x, r2 = _flat_kernel(d, n, gen)
    return ChainResult(
        observable=r2,
        final_point=x.copy() if keep_final else None,
        path=path,
    )


def run_hyperbolic_chain(u0, xis, rng, trace=False, keep_final=False):
    """Walk fixed-arc steps on the unit hyperboloid and report <u_M, u_0>_H.

    Each step moves hyperbolic distance xi_k from the current point,
    uniformly over the sphere of directions.  An empty schedule reports
    exactly 1.  For schedules of at most one step the observable is checked
    to be >= 1 - 1e-9, the deterministic value cosh(xi) up to rounding;
    longer schedules are reported as computed.

    Parameters
    ----------
    u0 : HyperboloidPoint
        Starting point; dimension >= 3.
    xis : sequence of float
        Arc lengths, each >= 0, applied in order.
    rng : RandomStream
    trace, keep_final : bool
        As in run_sphere_chain.
    """
    if not isinstance(u0, HyperboloidPoint):
        u0 = HyperboloidPoint(u0)
    if u0.dim < 3:
        raise ValueError(f"hyperbolic chains need dimension >= 3, got {u0.dim}")
    x = _schedule(xis, "xis")
    steps = [(math.cosh(xi), math.sinh(xi)) for xi in x]
    gen = _gen_of(rng)
    start = u0.values
    if trace:
        path = np.empty((len(steps) + 1, u0.dim))
        path[0] = start
        u = start
        for k, step in enumerate(steps):
            u = _hyperbolic_kernel(u, [step], gen)
            path[k + 1] = u
    else:
        path = None
        u = _hyperbolic_kernel(start, steps, gen)
    if not steps:
        observable = 1.0
    else:
        observable = float(u[0] * start[0] - u[1:] @ start[1:])
    if len(steps) <= 1 and not observable >= 1.0 - 1e-9:
        raise ValueError(
            f"single-step hyperbolic observable {observable!r} fell below 1"
        )
    return ChainResult(
        observable=observable,
        final_point=u.copy() if keep_final else None,
        path=path,
    )


def _prepare_spectra(spectra, dim=None):
    prepared = []
    for sp in spectra:
        if not isinstance(sp, Spectrum):
            sp = Spectrum(sp)
        if dim is not None and sp.n != dim:
            raise ValueError(
                f"spectrum length {sp.n} does not match dimension {dim}"
            )
        prepared.append(sp)
    return prepared


def run_operator_product(spectra, u, rng, keep_final=False):
    """Apply A_M ... A_1 to the unit vector u with fresh random frames.

    Each factor A_i is symmetric with the prescribed spectrum and an
    independent uniformly random eigenframe.  Returns the norm ratio
    ||A_M ... A_1 u|| / ||u||, the cosine between image and input, and a
    degeneracy flag for the event that the image vanished (cosine nan).

    Parameters
    ----------
    spectra : sequence of Spectrum (or raw eigenvalue lists)
        One spectrum per factor, applied first-to-last; every spectrum must
        have length equal to the dimension of u.
    u : UnitVector
        Input vector.
    rng : RandomStream
    keep_final : bool
        Attach the final unit direction to the result.
    """
    if not isinstance(u, UnitVector):
        u = UnitVector(u)
    prepared = _prepare_spectra(spectra, u.dim)
    gen = _gen_of(rng)
    ratio, cosine, degenerate, direction = _operator_kernel(
        [sp.values for sp in prepared], u.values, gen
    )
    return OperatorProductResult(
        norm_ratio=ratio,
        cosine=cosine,
        degenerate=degenerate,
        final_vector=direction if (keep_final and direction is not None) else None,
    )


def _operator_product_dense(spectra, u, rng):
    """Reference implementation materializing each factor; O(N^3) per factor.

    Used by tests to cross-check the O(N) kernel: both sample the same joint
    law of (norm_ratio, cosine), not the same numbers.
    """
    if not isinstance(u, UnitVector):
        u = UnitVector(u)
    prepared = _prepare_spectra(spectra, u.dim)
    gen = _gen_of(rng)
    w = u.values.copy()
    for sp in prepared:
        a = random_symmetric_with_spectrum(sp, gen)
        w = a.values @ w
    nw = float(np.linalg.norm(w))
    if nw <= _DEGENERATE_NORM:
        return OperatorProductResult(0.0, math.nan, True, None)
    return OperatorProductResult(nw, float(w @ u.values) / nw, False, w / nw)
