"""Step-chain executors: flat, spherical, hyperbolic, and operator products.

Each run_* function plays one trial of a chain on full vectors and returns the
observable whose expectation :mod:`randsteps.predictors` computes in closed
form; the Monte Carlo engine samples the same laws in dimension-reduced
form, and tests check the two against each other.  The runners loop over
the step cores of :mod:`randsteps.sampling`, the same ones behind
sphere_step, flat_step and hyperbolic_step, feeding them one block of
Gaussians drawn up front; a chain's outcome is a pure function of (inputs,
stream address).

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

from .geometry import HyperboloidPoint, UnitVector, _schedule_vector
from .sampling import (
    _DEGENERATE_NORM,
    _gen_of,
    _hyperbolic_step_raw,
    _prepare_spectra,
    _sphere_step_raw,
    _tangent_raw,
    _unit_raw,
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


def _walk(start, steps, width, core, gen, trace):
    # Play steps, a list of (cos, sin) or (cosh, sinh) pairs, from start:
    # core(u, c, s, row, gen) takes one row of a block of Gaussians of the
    # given width drawn up front, which consumes the stream like per-step
    # draws would.  Returns the endpoint and, if trace, every visited point.
    g = gen.standard_normal((len(steps), width))
    path = np.empty((len(steps) + 1, start.shape[0])) if trace else None
    u = start
    if trace:
        path[0] = start
    for k, (c, s) in enumerate(steps):
        u = core(u, c, s, g[k], gen)
        if trace:
            path[k + 1] = u
    return u, path


def _operator_kernel(values_list, u0, gen):
    """Apply the factor chain to unit u0; returns (norm_ratio, cosine, degenerate, direction).

    Per factor: x stands for the current direction expressed in the factor's
    random eigenframe (uniform on the sphere), alpha = x . diag(s) x is the
    image's component along the input, beta the orthogonal remainder, and the
    orthogonal part points uniformly within the input's complement.  Scalar
    spectra short-circuit exactly without consuming draws, mirroring the
    dense sampler.  Every factor is linear and its law is symmetric under
    v -> -v, so the sign of negative scalar factors is carried separately
    and applied to the final direction.
    """
    v = u0
    sign = 1.0
    ratio = 1.0
    for s in values_list:
        n = s.shape[0]
        if np.all(s == s[0]):
            c = float(s[0])
            if abs(c) <= _DEGENERATE_NORM:
                return 0.0, math.nan, True, None
            ratio *= abs(c)
            sign = -sign if c < 0.0 else sign
            continue
        g = gen.standard_normal((2, n))
        x = _unit_raw(g[0], gen)
        sx = s * x
        alpha = float(x @ sx)
        perp = sx - alpha * x
        beta = math.sqrt(float(perp @ perp))
        r = math.sqrt(alpha * alpha + beta * beta)
        if r <= _DEGENERATE_NORM:
            return 0.0, math.nan, True, None
        z, nz = _tangent_raw(v, g[1], gen)
        w = alpha * v + beta * (z / nz)
        v = w / float(np.linalg.norm(w))
        ratio *= r
    if v is u0:
        # Only scalar factors: the direction is u0 up to sign, exactly.
        return ratio, sign, False, sign * u0
    return ratio, sign * float(v @ u0), False, sign * v


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
    t = _schedule_vector(thetas, "angles", upper=math.pi)
    steps = [(math.cos(th), math.sin(th)) for th in t]
    start = u0.values
    u, path = _walk(start, steps, u0.dim, _sphere_step_raw, _gen_of(rng), trace)
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
    d = _schedule_vector(ds, "steps")
    gen = _gen_of(rng)
    g = gen.standard_normal((d.shape[0], n))
    x = np.zeros(n)
    path = np.zeros((d.shape[0] + 1, n)) if trace else None
    # ||x||^2 accumulates incrementally: each step adds its exact d^2 plus
    # the cross term, taking the unit direction's square as exactly 1, so
    # one-step observables are exactly deterministic.
    r2 = 0.0
    for k, dk in enumerate(d):
        w = _unit_raw(g[k], gen)
        r2 = r2 + 2.0 * dk * float(x @ w) + dk * dk
        x += dk * w
        if trace:
            path[k + 1] = x
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
    x = _schedule_vector(xis, "arcs")
    steps = [(math.cosh(xi), math.sinh(xi)) for xi in x]
    start = u0.values
    u, path = _walk(start, steps, u0.dim - 1, _hyperbolic_step_raw, _gen_of(rng), trace)
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
