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

Each criterion is a check(run) -> (passed, detail), listed in _CRITERIA with
its label and description in report order.  _Run names the four estimates
that another criterion reads: C1's sphere run (C2 reads it), C7's cosine run
(C8 does), and C2's right-angle and C7's norm-ratio runs (C14 reruns them).
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from functools import cached_property
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


def _worst_gap(seed, count, ms, ns, bounds, closed, oracle):
    """Largest relative gap of closed(x, n) from oracle(x, n) over count draws.

    Each draw takes m and n as integers on the half-open ranges ms and ns,
    then m values x uniform on bounds.  Where the oracle is 0 the gap is 0
    if closed is 0 too, and infinite otherwise.
    """
    gen = RandomStream(seed).generator
    worst = 0.0
    for _ in range(count):
        m = int(gen.integers(*ms))
        n = int(gen.integers(*ns))
        x = gen.uniform(*bounds, m)
        got, want = closed(x, n), oracle(x, n)
        if want == 0.0:
            worst = worst if got == 0.0 else math.inf
        else:
            worst = max(worst, abs(got - want) / want)
    return worst


def _z(est, target):
    """Monte Carlo z-score of est's mean against target."""
    return (est.mean - target) / est.std_error


# Python floats, not a Spectrum: numpy work at import costs every CLI run memory.
_LINEAR_SPECTRUM = tuple(j / 400 for j in range(1, 401))


class _Run:
    """One pass of the battery: its worker count, start time, rows so far, and
    the four shared estimates, each run on first use."""

    def __init__(self, workers):
        self.workers = workers
        self.start = time.perf_counter()
        self.rows = []

    def estimate(self, geometry, n, schedule, trials, seed, observable=None):
        spec = ExperimentSpec(geometry, n, schedule, trials, seed, observable)
        return estimate(spec, workers=self.workers)

    @cached_property
    def sphere(self):  # C1's, read by C2
        return self.estimate("sphere", 200, (math.pi / 3,) * 5, 10**5, 101)

    @cached_property
    def right_angle(self):  # C2's, rerun by C14
        return self.estimate("sphere", 101, (math.pi / 2, math.pi / 2), 10**5, 102)

    @cached_property
    def norm_ratio(self):  # C7's, rerun by C14
        return self.estimate("operator", 400, (_LINEAR_SPECTRUM,), 10**4, 107, "norm_ratio")

    @cached_property
    def cosine(self):  # C7's, read by C8
        return self.estimate("operator", 400, (_LINEAR_SPECTRUM,), 10**4, 107, "cosine")


def _c1_sphere_mean(run):
    z = _z(run.sphere, 0.03125)
    return abs(z) <= 4.0, f"mean={run.sphere.mean:.6f} target=0.031250 z={z:+.2f}"


def _c2_sphere_std(run):
    ratio1 = run.sphere.sample_std / prediction_for("sphere", (math.pi / 3,) * 5, 200).sigma_exact
    ratio2 = run.right_angle.sample_std / (1.0 / math.sqrt(100.0))
    passed = 0.9 <= ratio1 <= 1.1 and 0.95 <= ratio2 <= 1.05
    return passed, f"std ratio {ratio1:.4f} (N=200 run), {ratio2:.4f} (right-angle N=101)"


def _c3_sphere_variance_oracle(run):
    # Angles drawn away from 0 and pi, dimensions small: there the variance
    # is well above the cancellation noise of either evaluation, so the
    # comparison measures formula agreement rather than conditioning.
    worst = _worst_gap(103, 1000, (1, 9), (3, 13), (0.5, math.pi - 0.5),
                       lambda t, n: prediction_for("sphere", t, n).sigma_exact ** 2,
                       _sphere_sigma_sq_bracket)
    return worst <= 1e-12, f"max relative gap {worst:.2e} over 1000 schedules, M <= 8"


def _c4_right_angle(run):
    schedule = (math.pi / 3, math.pi / 2, 2 * math.pi / 3)
    pred = prediction_for("sphere", schedule, 50)
    est = run.estimate("sphere", 50, schedule, 10**5, 104)
    passed = pred.mean == 0.0 and abs(est.mean) <= 5.0 * est.std_error
    return passed, f"prediction={pred.mean:.1f} mc={est.mean:+.2e} (5 SE = {5.0 * est.std_error:.2e})"


def _flat_fourth_recursion(ds, n):
    pred = prediction_for("flat", ds, n)
    return pred.mean * pred.mean + pred.sigma_exact * pred.sigma_exact


def _c5_flat(run):
    est = run.estimate("flat", 500, (1.0,) * 10, 10**5, 105)
    z = _z(est, 10.0)
    ratio = est.sample_std / math.sqrt(4.0 * 45.0 / 500.0)
    worst = _worst_gap(155, 1000, (1, 7), (2, 501), (0.1, 2.0),
                       _flat_fourth_recursion, _flat_fourth_closed_form)
    passed = abs(z) <= 4.0 and 0.9 <= ratio <= 1.1 and worst <= 1e-12
    return passed, f"mean z={z:+.2f} std ratio={ratio:.4f} recursion gap {worst:.2e}"


def _c6_flat_bound(run):
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
    return ok, f"largest sigma/bound ratio {tightest:.4f} over 10000 draws"


def _c7_operator(run):
    pred_ratio = prediction_for("operator", _LINEAR_SPECTRUM, 400, "norm_ratio")
    pred_cos = prediction_for("operator", _LINEAR_SPECTRUM, 400, "cosine")
    z_ratio = _z(run.norm_ratio, pred_ratio.mean)
    z_cos = _z(run.cosine, pred_cos.mean)
    return abs(z_ratio) <= 4.0 and abs(z_cos) <= 4.0, (
        f"norm ratio z={z_ratio:+.2f} (target {pred_ratio.mean:.6f}) "
        f"cosine z={z_cos:+.2f} (target {pred_cos.mean:.6f})"
    )


def _c8_operator_product(run):
    s = _LINEAR_SPECTRUM
    est2 = run.estimate("operator_product", 400, (s, s), 10**4, 208, "cosine")
    single = run.cosine
    se = math.hypot(est2.std_error, 2.0 * single.mean * single.std_error)
    z = (est2.mean - single.mean**2) / se
    gen = RandomStream(158).generator
    nonneg = True
    for _ in range(10**4):
        m = int(gen.integers(1, 4))
        n = int(gen.integers(2, 9))
        spectra = [Spectrum(gen.uniform(0.0, 1.0, n)) for _ in range(m)]
        if prediction_for("operator_product", spectra, n).mean < 0.0:
            nonneg = False
    detail = f"two-factor z={z:+.2f} against squared single factor; PSD predictions nonnegative: {nonneg}"
    return abs(z) <= 5.0 and nonneg, detail


def _c9_hyperbolic(run):
    schedule = (1.0, 1.0, 1.0)
    pred = prediction_for("hyperbolic", schedule, 300)
    est = run.estimate("hyperbolic", 300, schedule, 10**5, 109)
    z = _z(est, pred.mean)
    ratio = est.sample_std / pred.sigma_exact
    # Arcs bounded away from zero for the same conditioning reason as C3's.
    worst = _worst_gap(159, 300, (2, 11), (3, 31), (0.3, 1.5),
                       lambda x, n: prediction_for("hyperbolic", x, n).sigma_exact ** 2,
                       _hyperbolic_sigma_sq_subset_sum)
    passed = abs(z) <= 4.0 and 0.9 <= ratio <= 1.1 and worst <= 1e-10
    return passed, f"mean z={z:+.2f} std ratio={ratio:.4f} subset-sum gap {worst:.2e}"


def _c10_monomials(run):
    zs = {}
    for kind, seed in (("x1_4", 110), ("x1sq_x2sq", 210)):
        est = run.estimate("monomial", 10, kind, 10**6, seed)
        zs[kind] = _z(est, prediction_for("monomial", kind, 10).mean)
    return all(abs(z) <= 4.0 for z in zs.values()), " ".join(f"{k} z={z:+.2f}" for k, z in zs.items())


def _c11_marginal(run):
    # 64-node Gauss-Chebyshev rule of the second kind, exact to degree 127 against
    # sqrt(1 - t^2); over that weight, t^p rho(t) is Z t^p (1 - t^2)^48 at N = 100.
    rule = [(math.cos(a), np.pi / 65 * math.sin(a) ** 2) for a in np.arange(1, 65) * np.pi / 65]
    parts = []
    ok = True
    worst_quad = 0.0
    for power in (2, 4, 6, 8):
        pred = prediction_for("marginal", power, 100)
        z = _z(run.estimate("marginal", 100, power, 10**5, 1100 + power), pred.mean)
        ok = ok and abs(z) <= 4.0
        parts.append(f"t^{power} z={z:+.2f}")
        value = sum(w * t**power * coordinate_marginal_density(t, 100) / math.sqrt(1.0 - t * t)
                    for t, w in rule)
        worst_quad = max(worst_quad, abs(value - pred.mean) / pred.mean)
    parts.append(f"quadrature gap {worst_quad:.1e}")
    return ok and worst_quad <= 1e-10, " ".join(parts)


def _c12_proposition(run):
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
    return ok and spot_ok and kappa_ok, (
        f"five inequalities on 100000 vectors: {ok}; "
        f"cosine product <= 1 and equal-entry = 1: {kappa_ok}"
    )


def _c13_pnorm(run):
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
    passed = mono_ok and spot_ok and moment_ok and worst_quad <= 1e-8
    return passed, f"monotone on 100000 vectors: {mono_ok}; quadrature gap {worst_quad:.1e}"


def _c14_determinism(run):
    elapsed = time.perf_counter() - run.start
    rerun = _Run(run.workers)
    bitwise = rerun.right_angle == run.right_angle and rerun.norm_ratio == run.norm_ratio
    # The report reads back as the fields it was written from.
    stable = list(csv.reader(io.StringIO(render_csv(run.rows)))) == _csv_rows(run.rows)
    within_budget = elapsed < BATTERY_BUDGET_SECONDS
    detail = f"reruns bitwise equal: {bitwise}; report stable: {stable}; within budget: {within_budget}"
    return bitwise and stable and within_budget, detail


# The battery's criteria in report order: label, description, check(run).
_CRITERIA = (
    ("C1", "sphere mean concentration, N=200, five 60-degree steps", _c1_sphere_mean),
    ("C2", "sphere sample std against exact sigma", _c2_sphere_std),
    ("C3", "sphere variance recursion against expanded oracle", _c3_sphere_variance_oracle),
    ("C4", "right-angle step forces exactly zero mean", _c4_right_angle),
    ("C5", "flat mean, std, and fourth-moment recursion", _c5_flat),
    ("C6", "flat sigma below its bound, steps at most dimension", _c6_flat_bound),
    ("C7", "operator norm ratio and cosine, linear spectrum j/400", _c7_operator),
    ("C8", "two-factor cosine against squared single factor; PSD nonnegativity", _c8_operator_product),
    ("C9", "hyperbolic mean, std, and variance subset-sum oracle", _c9_hyperbolic),
    ("C10", "uniform sphere monomial moments, N=10, one million samples", _c10_monomials),
    ("C11", "coordinate marginal moments: closed form vs Monte Carlo and vs quadrature, N=100",
     _c11_marginal),
    ("C12", "probability-norm bounds and curvature cosine product", _c12_proposition),
    ("C13", "probability-norm monotonicity and gaussian moments", _c13_pnorm),
    ("C14", "determinism of reruns and battery runtime budget", _c14_determinism),
)


def run_battery(workers=1):
    """Run all fourteen checks and return their CriterionResult rows.

    workers caps the threads that run Monte Carlo chunks at once; every
    reported number is bitwise independent of it.
    """
    run = _Run(workers)
    for label, description, check in _CRITERIA:
        run.rows.append(CriterionResult(label, description, *check(run)))
    return run.rows


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
