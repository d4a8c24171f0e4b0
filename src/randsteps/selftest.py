"""Fixed-seed acceptance battery for the whole library.

run_battery executes fourteen deterministic checks covering the closed-form
predictors, the Monte Carlo engine, and their agreement: concentration of
the sphere/flat/hyperbolic chain observables around the predicted means,
sample standard deviations against the exact sigmas, the variance
recursions against independently expanded oracles, the sigma bounds, the
operator norm/cosine laws, uniform-sphere moment identities, and the
probability-norm inequalities.  Every random draw uses a fixed seed, so two
runs of the battery produce byte-identical CSV output (timings are checked
against a budget but never written into rows).
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .montecarlo import ExperimentSpec, RandomStream, Spectrum, estimate, prediction_for
from .predictors import (
    coordinate_marginal_density,
    gaussian_abs_moment,
    pnorm_pi,
    pnorm_proposition_bounds,
)

BATTERY_BUDGET_SECONDS = 300.0


@dataclass(frozen=True)
class CriterionResult:
    """One row of the battery report."""

    criterion: str
    description: str
    passed: bool
    detail: str

    def __post_init__(self):
        # A check on numpy scalars yields numpy.bool_, which json rejects.
        object.__setattr__(self, "passed", bool(self.passed))


def _sphere_sigma_sq_bracket(thetas, n):
    """Sphere chain variance as the expanded sum over step indices.

    sigma^2 = sum_k s_k T_{k-1} (1 - prod_{j>k} cos^2 theta_j) with
    s_k = sin^2 theta_k / (n-1) and T_k = prod_{i<=k} (cos^2 - sin^2/(n-1)),
    every factor built term by term; algebraically equal to the recursion.
    """
    t = np.asarray(thetas, dtype=float)
    m = t.shape[0]
    total = 0.0
    for k in range(m):
        s = math.sin(t[k]) ** 2 / (n - 1)
        front = 1.0
        for i in range(k):
            front *= math.cos(t[i]) ** 2 - math.sin(t[i]) ** 2 / (n - 1)
        tail = 1.0
        for j in range(k + 1, m):
            tail *= math.cos(t[j]) ** 2
        total += s * front * (1.0 - tail)
    return total


def _flat_fourth_closed_form(ds, n):
    """E[||x_M||^4] = sum d^4 + (2 + 4/n) sum_{i<j} d_i^2 d_j^2, directly."""
    d2 = np.asarray(ds, dtype=float) ** 2
    e1 = float(np.sum(d2))
    e2 = float(d2 @ d2)
    pairs = (e1 * e1 - e2) / 2.0
    return e2 + (2.0 + 4.0 / n) * pairs


def _hyperbolic_sigma_sq_subset_sum(xis, n):
    """Hyperbolic variance as a sum over index subsets of size >= 2.

    sigma^2 = sum_{|S| >= 2} (q^(|S|-1) - 1) prod_{i in S} sinh^2 xi_i with
    q = n/(n-1), evaluated subset by subset via itertools.
    """
    z = [math.sinh(x) ** 2 for x in xis]
    q = n / (n - 1.0)
    total = 0.0
    for size in range(2, len(z) + 1):
        for subset in combinations(range(len(z)), size):
            term = q ** (size - 1) - 1.0
            for i in subset:
                term *= z[i]
            total += term
    return total


def _run(workers, geometry, n, schedule, trials, seed, observable=None):
    spec = ExperimentSpec(geometry, n, schedule, trials, seed, observable)
    return estimate(spec, workers=workers)


# The experiments C14 reruns, as _run's arguments after workers.  Python
# floats, not a Spectrum: numpy work at import costs every CLI run memory.
_LINEAR_SPECTRUM = tuple(j / 400 for j in range(1, 401))
_C2_RIGHT_ANGLE = ("sphere", 101, (math.pi / 2, math.pi / 2), 10**5, 102)
_C7_NORM_RATIO = ("operator", 400, (_LINEAR_SPECTRUM,), 10**4, 107, "norm_ratio")


def _c1_sphere_mean(workers):
    est = _run(workers, "sphere", 200, (math.pi / 3,) * 5, 10**5, 101)
    z = (est.mean - 0.03125) / est.std_error
    row = CriterionResult(
        criterion="C1",
        description="sphere mean concentration, N=200, five 60-degree steps",
        passed=abs(z) <= 4.0,
        detail=f"mean={est.mean:.6f} target=0.031250 z={z:+.2f}",
    )
    return est, row


def _c2_sphere_std(c1_est, workers):
    ratio1 = c1_est.sample_std / prediction_for("sphere", (math.pi / 3,) * 5, 200).sigma_exact
    est = _run(workers, *_C2_RIGHT_ANGLE)
    ratio2 = est.sample_std / (1.0 / math.sqrt(100.0))
    row = CriterionResult(
        criterion="C2",
        description="sphere sample std against exact sigma",
        passed=0.9 <= ratio1 <= 1.1 and 0.95 <= ratio2 <= 1.05,
        detail=f"std ratio {ratio1:.4f} (N=200 run), {ratio2:.4f} (right-angle N=101)",
    )
    return est, row


def _c3_sphere_variance_oracle():
    # Angles drawn away from 0 and pi, dimensions small: there the variance
    # is well above the cancellation noise of either evaluation, so the
    # comparison measures formula agreement rather than conditioning.
    gen = RandomStream(103).generator
    worst = 0.0
    for _ in range(1000):
        m = int(gen.integers(1, 9))
        n = int(gen.integers(3, 13))
        thetas = gen.uniform(0.5, math.pi - 0.5, m)
        sig2 = prediction_for("sphere", thetas, n).sigma_exact ** 2
        oracle = _sphere_sigma_sq_bracket(thetas, n)
        if oracle == 0.0:
            if sig2 != 0.0:
                worst = math.inf
        else:
            worst = max(worst, abs(sig2 - oracle) / oracle)
    return CriterionResult(
        criterion="C3",
        description="sphere variance recursion against expanded oracle",
        passed=worst <= 1e-12,
        detail=f"max relative gap {worst:.2e} over 1000 schedules, M <= 8",
    )


def _c4_right_angle(workers):
    schedule = (math.pi / 3, math.pi / 2, 2 * math.pi / 3)
    pred = prediction_for("sphere", schedule, 50)
    est = _run(workers, "sphere", 50, schedule, 10**5, 104)
    return CriterionResult(
        criterion="C4",
        description="right-angle step forces exactly zero mean",
        passed=pred.mean == 0.0 and abs(est.mean) <= 5.0 * est.std_error,
        detail=f"prediction={pred.mean:.1f} mc={est.mean:+.2e} (5 SE = {5.0 * est.std_error:.2e})",
    )


def _c5_flat(workers):
    est = _run(workers, "flat", 500, (1.0,) * 10, 10**5, 105)
    z = (est.mean - 10.0) / est.std_error
    ratio = est.sample_std / math.sqrt(4.0 * 45.0 / 500.0)
    gen = RandomStream(155).generator
    worst = 0.0
    for _ in range(1000):
        m = int(gen.integers(1, 7))
        n = int(gen.integers(2, 501))
        ds = gen.uniform(0.1, 2.0, m)
        pred = prediction_for("flat", ds, n)
        rec = pred.mean * pred.mean + pred.sigma_exact * pred.sigma_exact
        closed = _flat_fourth_closed_form(ds, n)
        worst = max(worst, abs(rec - closed) / closed)
    return CriterionResult(
        criterion="C5",
        description="flat mean, std, and fourth-moment recursion",
        passed=abs(z) <= 4.0 and 0.9 <= ratio <= 1.1 and worst <= 1e-12,
        detail=f"mean z={z:+.2f} std ratio={ratio:.4f} recursion gap {worst:.2e}",
    )


def _c6_flat_bound():
    gen = RandomStream(106).generator
    ok = True
    tightest = 0.0
    for _ in range(10**4):
        m = int(gen.integers(1, 7))
        n = int(gen.integers(max(2, m), 51))
        ds = gen.uniform(0.0, 2.0, m)
        pred = prediction_for("flat", ds, n)
        if pred.sigma_exact > pred.sigma_bound * (1.0 + 1e-12):
            ok = False
        if pred.sigma_bound > 0.0:
            tightest = max(tightest, pred.sigma_exact / pred.sigma_bound)
    return CriterionResult(
        criterion="C6",
        description="flat sigma below its bound, steps at most dimension",
        passed=ok,
        detail=f"largest sigma/bound ratio {tightest:.4f} over 10000 draws",
    )


def _c7_operator(workers):
    pred_ratio = prediction_for("operator", _LINEAR_SPECTRUM, 400, "norm_ratio")
    pred_cos = prediction_for("operator", _LINEAR_SPECTRUM, 400, "cosine")
    est_ratio = _run(workers, *_C7_NORM_RATIO)
    est_cos = _run(workers, *_C7_NORM_RATIO[:-1], "cosine")
    z_ratio = (est_ratio.mean - pred_ratio.mean) / est_ratio.std_error
    z_cos = (est_cos.mean - pred_cos.mean) / est_cos.std_error
    row = CriterionResult(
        criterion="C7",
        description="operator norm ratio and cosine, linear spectrum j/400",
        passed=abs(z_ratio) <= 4.0 and abs(z_cos) <= 4.0,
        detail=(
            f"norm ratio z={z_ratio:+.2f} (target {pred_ratio.mean:.6f}) "
            f"cosine z={z_cos:+.2f} (target {pred_cos.mean:.6f})"
        ),
    )
    return est_cos, est_ratio, row


def _c8_operator_product(single_cos_est, workers):
    s = _LINEAR_SPECTRUM
    est2 = _run(workers, "operator_product", 400, (s, s), 10**4, 208, "cosine")
    target = single_cos_est.mean**2
    se = math.hypot(est2.std_error, 2.0 * single_cos_est.mean * single_cos_est.std_error)
    z = (est2.mean - target) / se
    gen = RandomStream(158).generator
    nonneg = True
    for _ in range(10**4):
        m = int(gen.integers(1, 4))
        n = int(gen.integers(2, 9))
        spectra = [Spectrum(gen.uniform(0.0, 1.0, n)) for _ in range(m)]
        if prediction_for("operator_product", spectra, n).mean < 0.0:
            nonneg = False
    return CriterionResult(
        criterion="C8",
        description="two-factor cosine against squared single factor; PSD nonnegativity",
        passed=abs(z) <= 5.0 and nonneg,
        detail=f"two-factor z={z:+.2f} against squared single factor; PSD predictions nonnegative: {nonneg}",
    )


def _c9_hyperbolic(workers):
    schedule = (1.0, 1.0, 1.0)
    pred = prediction_for("hyperbolic", schedule, 300)
    est = _run(workers, "hyperbolic", 300, schedule, 10**5, 109)
    z = (est.mean - pred.mean) / est.std_error
    ratio = est.sample_std / pred.sigma_exact
    # Arcs bounded away from zero for the same conditioning reason as the
    # sphere oracle loop.
    gen = RandomStream(159).generator
    worst = 0.0
    for _ in range(300):
        m = int(gen.integers(2, 11))
        n = int(gen.integers(3, 31))
        xis = gen.uniform(0.3, 1.5, m)
        sig2 = prediction_for("hyperbolic", xis, n).sigma_exact ** 2
        oracle = _hyperbolic_sigma_sq_subset_sum(xis, n)
        worst = max(worst, abs(sig2 - oracle) / oracle)
    return CriterionResult(
        criterion="C9",
        description="hyperbolic mean, std, and variance subset-sum oracle",
        passed=abs(z) <= 4.0 and 0.9 <= ratio <= 1.1 and worst <= 1e-10,
        detail=f"mean z={z:+.2f} std ratio={ratio:.4f} subset-sum gap {worst:.2e}",
    )


def _c10_monomials(workers):
    parts = []
    ok = True
    for kind, seed in (("x1_4", 110), ("x1sq_x2sq", 210)):
        pred = prediction_for("monomial", kind, 10)
        est = _run(workers, "monomial", 10, kind, 10**6, seed)
        z = (est.mean - pred.mean) / est.std_error
        ok = ok and abs(z) <= 4.0
        parts.append(f"{kind} z={z:+.2f}")
    return CriterionResult(
        criterion="C10",
        description="uniform sphere monomial moments, N=10, one million samples",
        passed=ok,
        detail=" ".join(parts),
    )


def _c11_marginal(workers):
    # 64-node Gauss-Chebyshev rule of the second kind, exact to degree 127 against
    # sqrt(1 - t^2); over that weight, t^p rho(t) is Z t^p (1 - t^2)^48 at N = 100.
    rule = [(math.cos(a), np.pi / 65 * math.sin(a) ** 2) for a in np.arange(1, 65) * np.pi / 65]
    parts = []
    ok = True
    worst_quad = 0.0
    for power in (2, 4, 6, 8):
        pred = prediction_for("marginal", power, 100)
        est = _run(workers, "marginal", 100, power, 10**5, 1100 + power)
        z = (est.mean - pred.mean) / est.std_error
        ok = ok and abs(z) <= 4.0
        parts.append(f"t^{power} z={z:+.2f}")
        value = sum(w * t**power * coordinate_marginal_density(t, 100) / math.sqrt(1.0 - t * t)
                    for t, w in rule)
        worst_quad = max(worst_quad, abs(value - pred.mean) / pred.mean)
    parts.append(f"quadrature gap {worst_quad:.1e}")
    return CriterionResult(
        criterion="C11",
        description="coordinate marginal moments: closed form vs Monte Carlo and vs quadrature, N=100",
        passed=ok and worst_quad <= 1e-10,
        detail=" ".join(parts),
    )


def _c12_proposition():
    gen = RandomStream(112).generator
    slack = 1e-12
    ok = True
    spot_ok = True
    for n in (2, 3, 5, 9, 17):
        v = 1.0 - gen.random((20000, n - 1))
        p1 = np.mean(v, axis=1)
        p2 = np.sqrt(np.mean(v * v, axis=1))
        ratio = p1 / p2
        ok = ok and bool(np.all(p2 * p2 <= p1 + slack))
        ok = ok and bool(np.all(p1 <= (p2 * p2 + 1.0) / 2.0 + slack))
        ok = ok and bool(np.all(p2 <= ratio + slack))
        ok = ok and bool(np.all(ratio <= (p2 + 1.0 / p2) / 2.0 + slack))
        ok = ok and bool(np.all(ratio <= 1.0 + slack))
        for i in range(0, 20000, 500):
            b = pnorm_proposition_bounds(v[i])
            spot_ok = spot_ok and abs(b.value - p1[i]) <= 1e-13
            spot_ok = spot_ok and abs(b.ratio_lower - p2[i]) <= 1e-13
    gen2 = RandomStream(212).generator
    kappa_ok = True
    for _ in range(2000):
        width = int(gen2.integers(1, 7))
        steps = []
        for _ in range(int(gen2.integers(1, 4))):
            d = float(gen2.uniform(0.05, 1.5))
            steps.append((d, gen2.uniform(-0.5, 3.0, width)))
        if prediction_for("kappa", steps, width).mean > 1.0 + slack:
            kappa_ok = False
    equal = [(0.7, (1.3, 1.3, 1.3)), (0.2, (0.5, 0.5, 0.5))]
    kappa_ok = kappa_ok and abs(prediction_for("kappa", equal, 3).mean - 1.0) <= 1e-12
    return CriterionResult(
        criterion="C12",
        description="probability-norm bounds and curvature cosine product",
        passed=ok and spot_ok and kappa_ok,
        detail=(
            f"five inequalities on 100000 vectors: {ok}; "
            f"cosine product <= 1 and equal-entry = 1: {kappa_ok}"
        ),
    )


def _c13_pnorm():
    gen = RandomStream(113).generator
    slack = 1e-12
    mono_ok = True
    spot_ok = True
    for n in (2, 4, 7, 12, 25):
        x = gen.standard_normal((20000, n))
        a = np.abs(x)
        norms = [np.mean(a**p, axis=1) ** (1.0 / p) for p in (1, 2, 3, 4)]
        for lo, hi in zip(norms, norms[1:]):
            mono_ok = mono_ok and bool(np.all(lo <= hi * (1.0 + slack)))
        for i in range(0, 20000, 1000):
            gap = abs(pnorm_pi(x[i], 3) - norms[2][i])
            spot_ok = spot_ok and gap <= 1e-12 * max(1.0, norms[2][i])
    moment_ok = abs(gaussian_abs_moment(2) - 1.0) <= 1e-15
    # Exact 8-node rules: Gauss-Laguerre in u = t^2/2 for odd p, Gauss-Hermite for even p.
    u, u_weights = np.polynomial.laguerre.laggauss(8)
    t, t_weights = np.polynomial.hermite_e.hermegauss(8)
    worst_quad = 0.0
    for p in (1, 3, 4):
        whole = 2.0 * u_weights @ (2.0 * u) ** ((p - 1) // 2) if p % 2 else t_weights @ t**p
        worst_quad = max(worst_quad, abs(whole / math.sqrt(math.tau) - gaussian_abs_moment(p)))
    return CriterionResult(
        criterion="C13",
        description="probability-norm monotonicity and gaussian moments",
        passed=mono_ok and spot_ok and moment_ok and worst_quad <= 1e-8,
        detail=(
            f"monotone on 100000 vectors: {mono_ok}; "
            f"quadrature gap {worst_quad:.1e}"
        ),
    )


def _c14_determinism(c2_est, ratio_est, rows_so_far, elapsed, workers):
    bitwise = (
        _run(workers, *_C2_RIGHT_ANGLE) == c2_est and _run(workers, *_C7_NORM_RATIO) == ratio_est
    )
    # The report reads back as the fields it was written from.
    stable = list(csv.reader(io.StringIO(render_csv(rows_so_far)))) == _csv_rows(rows_so_far)
    within_budget = elapsed < BATTERY_BUDGET_SECONDS
    return CriterionResult(
        criterion="C14",
        description="determinism of reruns and battery runtime budget",
        passed=bitwise and stable and within_budget,
        detail=(
            f"reruns bitwise equal: {bitwise}; report stable: {stable}; "
            f"within budget: {within_budget}"
        ),
    )


def run_battery(workers=1):
    """Run all fourteen checks and return their CriterionResult rows.

    workers caps the threads that run Monte Carlo chunks at once; every
    reported number is bitwise independent of it.
    """
    start = time.perf_counter()
    rows = []
    c1_est, row1 = _c1_sphere_mean(workers)
    rows.append(row1)
    c2_est, row2 = _c2_sphere_std(c1_est, workers)
    rows.append(row2)
    rows.append(_c3_sphere_variance_oracle())
    rows.append(_c4_right_angle(workers))
    rows.append(_c5_flat(workers))
    rows.append(_c6_flat_bound())
    est_cos, est_ratio, row7 = _c7_operator(workers)
    rows.append(row7)
    rows.append(_c8_operator_product(est_cos, workers))
    rows.append(_c9_hyperbolic(workers))
    rows.append(_c10_monomials(workers))
    rows.append(_c11_marginal(workers))
    rows.append(_c12_proposition())
    rows.append(_c13_pnorm())
    elapsed = time.perf_counter() - start
    rows.append(_c14_determinism(c2_est, est_ratio, rows, elapsed, workers))
    return rows


def battery_passed(results):
    return all(r.passed for r in results)


def _csv_rows(results):
    """The CSV report's header and one row of four fields per criterion."""
    return [["criterion", "description", "passed", "detail"]] + [
        [r.criterion, r.description, "pass" if r.passed else "FAIL", r.detail] for r in results
    ]


def render_csv(results):
    """CSV report, one row per criterion; two runs give identical bytes."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(_csv_rows(results))
    return out.getvalue()


def render_table(results):
    """Aligned terminal table with a summary line."""
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.criterion:<4} {status:<4} {r.description}: {r.detail}")
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
