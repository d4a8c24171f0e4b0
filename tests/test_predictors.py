"""Closed-form predictors against hand-computed and independent oracles.

prediction_for is the one checked entry to each mean, sigma and sigma
bound; the sphere, flat and hyperbolic means are the same bits at every n.
The public functions of randsteps.predictors beside it are the flat norm,
the hyperbolic log-cosh sum and the moment utilities.
"""

import math
import sys
import warnings
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randsteps import montecarlo, predictors
from randsteps.montecarlo import ExperimentSpec, Spectrum, _geometry, prediction_for
from randsteps.predictors import (
    _sphere_moment,
    CurvaturePath,
    PrecisionLossError,
    Prediction,
    coordinate_marginal_density,
    flat_expected_norm,
    gaussian_abs_moment,
    hyperbolic_log_expected_cosh,
    pnorm_proposition_bounds,
)


def _sigma(geometry, schedule, n):
    return prediction_for(geometry, schedule, n).sigma_exact


def _mean(geometry, schedule, n, observable=None):
    return prediction_for(geometry, schedule, n, observable).mean


def _bound(geometry, schedule, n):
    return prediction_for(geometry, schedule, n).sigma_bound


def _mean_at_every_n(geometry, schedule):
    # The row's mean at n = 3, 17 and 10^6, and at n = inf, where predict
    # reads it with no --n-dim and the sigmas are 0, checked to be the same
    # bits at each.
    row = _geometry(geometry)
    free = row.predict(row.parse(schedule, None)[0], math.inf, None)
    assert (free.sigma_exact, free.sigma_bound) == (0.0, 0.0)
    means = [free.mean] + [prediction_for(geometry, schedule, n).mean for n in (3, 17, 10**6)]
    assert len({mean.hex() for mean in means}) == 1, means
    return means[0]


def _fourth_moment(ds, n):
    # E[||x_M||^4] of the flat chain: mean^2 + sigma^2 of its squared norm.
    pred = prediction_for("flat", ds, n)
    return pred.mean * pred.mean + pred.sigma_exact * pred.sigma_exact


class TestSphereExpectedCosine:
    def test_empty_schedule(self):
        assert _mean_at_every_n("sphere", ()) == 1.0

    def test_product_of_cosines(self):
        thetas = (0.3, 1.1, 2.4)
        want = math.cos(0.3) * math.cos(1.1) * math.cos(2.4)
        np.testing.assert_allclose(_mean_at_every_n("sphere", thetas), want, rtol=1e-15)

    def test_sixty_degree_steps(self):
        np.testing.assert_allclose(
            _mean_at_every_n("sphere", (math.pi / 3,) * 5), 0.03125, rtol=1e-14
        )

    def test_right_angle_snaps_to_positive_zero(self):
        out = _mean_at_every_n("sphere", (math.pi / 3, math.pi / 2, 2 * math.pi / 3))
        assert out == 0.0
        assert math.copysign(1.0, out) == 1.0

    def test_rejects_angle_outside_range(self):
        with pytest.raises(ValueError):
            prediction_for("sphere", (3.5,), 3)


class TestSphereSigma:
    def test_two_right_angles_frozen(self):
        # recursion collapses to 1/sqrt(n-1) exactly for (pi/2, pi/2)
        assert _sigma("sphere", (math.pi / 2, math.pi / 2), 101) == 0.1

    def test_single_step_deterministic(self):
        assert _sigma("sphere", (1.234,), 50) == 0.0
        assert _sigma("sphere", (), 50) == 0.0

    def test_matches_expanded_bracket(self):
        # independent oracle: sigma^2 = sum_k s_k T_{k-1} (1 - prod_{j>k} cos^2)
        def oracle(thetas, n):
            c2 = [math.cos(t) ** 2 for t in thetas]
            s = [math.sin(t) ** 2 / (n - 1) for t in thetas]
            total = 0.0
            t_prev = 1.0
            for k in range(len(thetas)):
                tail = 1.0
                for j in range(k + 1, len(thetas)):
                    tail *= c2[j]
                total += s[k] * t_prev * (1.0 - tail)
                t_prev *= c2[k] - s[k]
            return math.sqrt(max(total, 0.0))

        gen = np.random.default_rng(90)
        for _ in range(50):
            m = int(gen.integers(2, 7))
            n = int(gen.integers(3, 13))
            thetas = gen.uniform(0.5, math.pi - 0.5, size=m)
            np.testing.assert_allclose(
                _sigma("sphere", thetas, n), oracle(thetas, n), rtol=1e-12
            )

    def test_below_bound(self):
        gen = np.random.default_rng(91)
        for _ in range(100):
            m = int(gen.integers(2, 7))
            n = int(gen.integers(3, 40))
            thetas = gen.uniform(0.0, math.pi, size=m)
            sig = _sigma("sphere", thetas, n)
            bound = _bound("sphere", thetas, n)
            assert sig <= bound * (1.0 + 1e-12)

    def test_bound_equality_at_right_angles(self):
        assert _bound("sphere", (math.pi / 2, math.pi / 2), 101) == 0.1

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match=">= 3"):
            _sigma("sphere", (0.5, 0.5), 2)

    @pytest.mark.parametrize(
        "thetas, n, want",
        [
            # 40-digit values of the same recursion evaluated in mpmath;
            # sigma^2 formed as a difference, a + b - prod^2, cancels here
            ((1e-4, 2e-4, 3e-4), 10**6, "7.000003310954887833249856972754621712041e-11"),
            ((1e-8, 0.5), 3, "3.390050494210448653977118732644534505135e-9"),
            ((0.7, 1e-6, 1e-6), 1000, "2.882470677770152521684077886860053301966e-8"),
            ((1.4001126639424055, 1e-7), 3, "6.968317226776775811459737100439084450611e-8"),
            ((3.0, 3.1, 0.2), 5, "1.48798891699426470625846536020596185461e-2"),
            ((math.pi - 1e-6, 1.0), 10, "2.804903283428086132761094884922719191708e-7"),
        ],
    )
    def test_small_sigma_against_high_precision(self, thetas, n, want):
        np.testing.assert_allclose(_sigma("sphere", thetas, n), float(want), rtol=1e-15, atol=0)

    def test_deterministic_chains_have_zero_sigma(self):
        # A first step of 0 or pi leaves the cosine at +-1, after which the
        # next step is deterministic too; the bound takes the same snapped
        # sines, so it is 0 as well.
        assert _sigma("sphere", (1.4001126639424055, 0.0), 3) == 0.0
        pred = prediction_for("sphere", (math.pi, 1.4198346486560234), 3)
        assert pred.sigma_exact == 0.0 == pred.sigma_bound
        for m in (1, 2, 5):
            assert _sigma("sphere", (math.pi,) * m, 3) == 0.0
            assert _sigma("sphere", (math.pi - 1e-13,) * m, 3) == 0.0


class TestFlatPredictors:
    def test_expected_sq_norm(self):
        assert _mean_at_every_n("flat", (1.0,) * 10) == 10.0
        assert flat_expected_norm((3.0, 4.0)) == 5.0

    def test_sigma_frozen(self):
        # sigma^2 = (4/n) d1^2 d2^2 = 0.04 for unit steps in n = 100
        assert _sigma("flat", (1.0, 1.0), 100) == 0.2
        assert _sigma("flat", (2.5,), 100) == 0.0

    @pytest.mark.parametrize(
        "ds, n, want",
        [
            # sigma^2 = (4/n) d1^2 d2^2 to 50 digits: (sum d^2)^2 - sum d^4
            # cancelled to 0 here before the recursion
            ((1.0, 1e-9), 10, "6.3245553203367590579e-10"),
            ((1e100, 1.0), 3, "1.1547005383792515474e+100"),
            ((1e-9, 1.0), 10, "6.3245553203367590579e-10"),
            # steps 1e300 apart: scaled by the longest alone, the short
            # ones' squares underflow
            ((1e150, 1e-150, 1e-150), 2, "1.9999999999999999743"),
        ],
    )
    def test_sigma_of_unequal_steps_against_high_precision(self, ds, n, want):
        np.testing.assert_allclose(_sigma("flat", ds, n), float(want), rtol=1e-15, atol=0)

    def test_sigma_huge_steps_without_overflow(self):
        # sigma^2 = (4/n) d^4 for two equal steps: sqrt(4/3) * 1e300 at n = 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(
                _sigma("flat", (1e150, 1e150), 3), math.sqrt(4.0 / 3.0) * 1e300, rtol=1e-15
            )
            assert _sigma("flat", (1e200, 1e200), 3) == math.inf
            # M = n equal steps put sigma on its bound, up to rounding
            pred = prediction_for("flat", (1e150,) * 3, 3)
            np.testing.assert_allclose(pred.sigma_exact, pred.sigma_bound, rtol=1e-15)

    def test_means_and_bound_huge_steps_without_overflow(self):
        # sum d^2 = 2e400 is past the double range; its square root is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _mean_at_every_n("flat", (1e200, 1e200)) == math.inf
            np.testing.assert_allclose(
                flat_expected_norm((1e200, 1e200)), math.sqrt(2.0) * 1e200, rtol=1e-15
            )
            assert _bound("flat", (1e200, 1e200), 3) == math.inf
            # sqrt(2 (1 - 1/M) / n) * 2e300 at n = 1e10 is in range
            np.testing.assert_allclose(
                _bound("flat", (1e150, 1e150), 10**10), math.sqrt(1.0 / 1e10) * 2e300, rtol=1e-15
            )
            np.testing.assert_allclose(
                _mean_at_every_n("flat", (1e150, 1e150)), 2e300, rtol=1e-15
            )
            # and tiny steps no longer underflow to 0
            np.testing.assert_allclose(
                flat_expected_norm((1e-200, 1e-200)), math.sqrt(2.0) * 1e-200, rtol=1e-15
            )

    def test_fourth_moment_hand_value(self):
        # sum d^4 + (2 + 4/n) sum_{i<j} d_i^2 d_j^2 = 2 + 2.04
        np.testing.assert_allclose(_fourth_moment((1.0, 1.0), 100), 4.04, rtol=1e-15)

    def test_fourth_moment_scaled_steps(self):
        # Steps from about 1e77 overflowed d^4: nan and two RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _fourth_moment((1e200,), 3) == math.inf
            assert _fourth_moment((1e77, 1e77), 3) == math.inf
            # sum d^4 + (2 + 4/n) d1^2 d2^2 = (2 + 10/3) 1e304
            np.testing.assert_allclose(
                _fourth_moment((1e76, 1e76), 3), (2.0 + 10.0 / 3.0) * 1e304, rtol=1e-14
            )

    def test_sigma_below_bound(self):
        gen = np.random.default_rng(93)
        for _ in range(100):
            m = int(gen.integers(1, 7))
            n = int(gen.integers(max(m, 2), 50))
            ds = gen.uniform(0.0, 2.0, size=m)
            pred = prediction_for("flat", ds, n)
            assert pred.sigma_exact <= pred.sigma_bound * (1.0 + 1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(2, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.floats(0.0, 2.0), min_size=n + 1, max_size=n + 8),
            )
        )
    )
    def test_bound_holds_past_m_equal_n(self, case):
        # sigma^2 = (2/n) ((sum d^2)^2 - sum d^4) and sum d^4 >= (sum d^2)^2 / M,
        # so sqrt(2 (1 - 1/M) / n) sum d^2 bounds sigma at every M, also M > n,
        # where the prediction rejects a sigma past it by 1e-12 relative.
        n, ds = case
        pred = prediction_for("flat", ds, n)
        assert pred.sigma_bound is not None
        assert pred.sigma_exact <= pred.sigma_bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("m, n", [(5, 3), (40, 2), (3, 3), (2, 10), (1, 4)])
    def test_bound_is_sigma_for_equal_steps(self, m, n):
        # Equal steps d: sigma^2 = (2/n) (M^2 - M) d^4, which the bound meets.
        pred = prediction_for("flat", (0.75,) * m, n)
        np.testing.assert_allclose(pred.sigma_exact, pred.sigma_bound, rtol=1e-15, atol=0)
        want = math.sqrt(2.0 * (m * m - m) / n) * 0.75**2
        np.testing.assert_allclose(pred.sigma_bound, want, rtol=1e-15, atol=0)


class TestHyperbolicPredictors:
    def test_expected_cosh(self):
        np.testing.assert_allclose(
            _mean_at_every_n("hyperbolic", (1.0, 1.0)), math.cosh(1.0) ** 2, rtol=1e-15
        )

    def test_expected_cosh_huge_arcs_overflow_to_inf(self):
        assert _mean_at_every_n("hyperbolic", (500.0, 500.0)) == math.inf

    def test_sigma_two_arc_closed_form(self):
        # subset-sum oracle for M = 2: sigma = sinh(x1) sinh(x2) / sqrt(n-1)
        n, x1, x2 = 5, 0.7, 1.1
        want = math.sinh(x1) * math.sinh(x2) / math.sqrt(n - 1)
        np.testing.assert_allclose(_sigma("hyperbolic", (x1, x2), n), want, rtol=1e-12)

    def test_sigma_long_arcs_match_closed_form(self):
        # sigma = sinh^2 xi / sqrt(n - 1), with cosh^2 xi past 1e173
        n, xi = 4, 200.0
        want = math.exp(2 * (xi - math.log(2.0)) - 0.5 * math.log(n - 1))
        np.testing.assert_allclose(_sigma("hyperbolic", (xi, xi), n), want, rtol=1e-12)

    def test_sigma_huge_arcs_overflow_to_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _sigma("hyperbolic", (300.0, 300.0, 300.0), 10) == math.inf
            assert _sigma("hyperbolic", (400.0, 400.0), 10) == math.inf
            for arc in (1e15, 1e16, 1e100, 1e200, 1e308):
                assert _sigma("hyperbolic", (arc, arc), 10) == math.inf
                assert _sigma("hyperbolic", (arc, 0.5, arc), 3) == math.inf

    @pytest.mark.parametrize(
        "xis, n, want",
        [
            # 50-digit values of the recursion evaluated in mpmath; the
            # subset sum of selftest's C9 gives the same 50 digits
            ((150.0, 160.0), 10, "3.5653990461426029767323021327617237232438909493648e+133"),
            ((100.0,) * 4, 3, "5.0292657611969009705671250470241305517651538566966e+172"),
            ((300.0, 2.5, 50.0), 1000, "6.8637931534684815747876037512244679621620111159785e+150"),
            ((200.0, 0.0, 0.5, 120.0), 4, "1.7385439138691305657266082783208795445857406939852e+138"),
            ((350.0, 1.0), 10**6, "5.9176750215542211794843027713388186965235918211871e+148"),
            ((40.0,) * 10, 7, "8.8381381926701512057300264008797534580606526046491e+170"),
        ],
    )
    def test_sigma_long_arcs_against_high_precision(self, xis, n, want):
        np.testing.assert_allclose(_sigma("hyperbolic", xis, n), float(want), rtol=1e-14)

    @pytest.mark.parametrize(
        "xis, n, want",
        [
            # 50-digit subset sums; the direct recursion cancelled here and
            # raised, and the one at n = 1e8 was 2.2e-6 off
            ((0.01, 0.01), 10**6, "1.0000338337948228957e-7"),
            ((0.3, 0.3), 10**8, "9.2732609584796893891e-6"),
            # n itself past 1e154, where n^2 overflows
            ((0.5, 0.5), 10**300, "2.7154031740762188924e-151"),
        ],
    )
    def test_sigma_short_arcs_at_large_n(self, xis, n, want):
        np.testing.assert_allclose(_sigma("hyperbolic", xis, n), float(want), rtol=1e-15, atol=0)

    def test_sigma_bound_huge_arcs_overflow_to_inf(self):
        assert _bound("hyperbolic", (300.0, 300.0, 300.0), 10) == math.inf

    def test_sigma_bound_in_range_past_cosh_overflow(self):
        # prod cosh = e^720 / 4 overflows; the first factor 1e-6 keeps the bound finite
        n, xi = 10**12 + 1, 360.0
        want = math.exp(0.5 * math.log(1e-12) + 2.0 * (xi - math.log(2.0)))
        np.testing.assert_allclose(_bound("hyperbolic", (xi, xi), n), want, rtol=1e-12)

    def test_sigma_bound_past_expm1_range(self):
        # (3/2)^1799 - 1 overflows expm1, but the bound sqrt((3/2)^1799 - 1)
        # prod cosh xi_i is 2.48e158; this raised OverflowError.  At 4000
        # arcs the bound itself passes the double range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = prediction_for("hyperbolic", (1e-3,) * 1800, 3)
            far = prediction_for("hyperbolic", (1e-3,) * 4000, 3)
        want = _MP.sqrt(_MP.mpf(1.5) ** 1799 - 1) * _MP.cosh(_MP.mpf(1e-3)) ** 1800
        assert abs(_MP.mpf(pred.sigma_bound) - want) <= 1e-12 * want
        assert math.isfinite(pred.mean) and math.isfinite(pred.sigma_exact)
        assert far.sigma_bound == math.inf
        assert math.isfinite(far.mean) and math.isfinite(far.sigma_exact)

    def test_sigma_bound_keeps_its_first_factor_at_huge_n(self):
        # n / (n - 1) rounds to 1 here; the factor is sqrt(1e-20), not 0
        want = 1e-10 * math.cosh(1.0) ** 2
        np.testing.assert_allclose(_bound("hyperbolic", (1.0, 1.0), 10**20 + 1), want, rtol=1e-14)

    def test_sigma_single_arc_deterministic(self):
        assert _sigma("hyperbolic", (2.0,), 10) == 0.0
        assert _sigma("hyperbolic", (0.0, 0.0), 10) == 0.0
        # one nonzero arc among zeros is deterministic too (this raised)
        assert _sigma("hyperbolic", (0.0, 0.0, 1.0), 3) == 0.0

    def test_tiny_arcs_against_high_precision(self):
        # sigma = sinh^2(1e-9) / sqrt(2); these arcs raised a precision-loss error
        np.testing.assert_allclose(
            _sigma("hyperbolic", (1e-9, 1e-9), 3), 7.0710678118654761272e-19, rtol=1e-15, atol=0
        )
        arcs = (1e-9, 1.3e-9, 0.7e-9)
        pred = prediction_for("hyperbolic", arcs, 3)
        # 50-digit subset sum
        np.testing.assert_allclose(pred.sigma_exact, 1.226397162423331841e-18, rtol=1e-15, atol=0)
        # the bound sqrt((n/(n-1))^(M-1) - 1) prod cosh
        want = math.sqrt(1.5**2 - 1.0) * math.prod(math.cosh(x) for x in arcs)
        np.testing.assert_allclose(pred.sigma_bound, want, rtol=1e-15)

    def test_subnormal_arcs_give_a_finite_sigma(self):
        # Beside arcs 2^1022 longer in tanh, no one scale holds both squares;
        # the short arc's share of sigma is lost (see _hyperbolic), but no
        # inf, nan or warning comes of it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arcs in ((5e-324, 800.0), (800.0, 5e-324), (5e-324, 1.0), (0.0, 5e-324, 1e-300)):
                pred = prediction_for("hyperbolic", arcs, 3)
                assert 0.0 <= pred.sigma_exact < math.inf

    def test_one_arc_mean_is_its_cosh(self):
        # The mean is the cosh product itself, not exp of the log-cosh sum,
        # which lost about xi ulps: one arc of 20 was 8 ulps off.
        arcs = [k / 8 for k in range(5681)] + [709.78, 710.0, 710.4758600739439]
        for xi in arcs:
            assert _mean_at_every_n("hyperbolic", (xi,)) == math.cosh(xi), xi
        assert _mean_at_every_n("hyperbolic", (710.5,)) == math.inf

    def test_zero_arcs_after_an_overflowed_variance(self):
        # Once w passes the double range, a zero arc's term of v is 0 * inf;
        # it gave a nan sigma.  Zero arcs change nothing else.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arcs in ((5.0,) * 2000 + (0.0,), (1.0,) * 3000 + (0.0,) * 3, (5.0,) * 2000 + (1e-300,)):
                pred = prediction_for("hyperbolic", arcs, 3)
                assert (pred.mean, pred.sigma_exact, pred.sigma_bound) == (math.inf,) * 3
            for n in (3, 17, 10**6):
                with_zeros = prediction_for("hyperbolic", (0.0, 0.5, 0.0, 1.3, 0.0), n)
                without = prediction_for("hyperbolic", (0.5, 1.3), n)
                assert _bits(with_zeros.mean, with_zeros.sigma_exact) == _bits(without.mean, without.sigma_exact)

    def test_sigma_below_bound(self):
        gen = np.random.default_rng(94)
        for _ in range(100):
            m = int(gen.integers(2, 8))
            n = int(gen.integers(3, 30))
            xis = gen.uniform(0.3, 1.5, size=m)
            sig = _sigma("hyperbolic", xis, n)
            assert sig <= _bound("hyperbolic", xis, n) * (1.0 + 1e-12)


def _lengths(top):
    # Up to 7 steps or arcs, log-uniform from 1e-150 to top, with zeros mixed in.
    draw = st.floats(-150.0, math.log10(top)).map(lambda u: 10.0**u)
    return st.lists(st.one_of(st.just(0.0), draw), max_size=7)


def _dimensions(least):
    return st.one_of(st.integers(least, 12), st.floats(1.0, 300.0).map(lambda u: int(10.0**u)))


def _angle_lists():
    # Up to 7 angles: uniform on [0, pi], exactly 0, pi/2 or pi, or 10^-14 to
    # 1 away from one of them, on both sides of the 1e-12 snap.
    side = st.sampled_from([(0.0, 1.0), (math.pi / 2, -1.0), (math.pi / 2, 1.0), (math.pi, -1.0)])
    near = st.tuples(side, st.floats(-14.0, 0.0)).map(lambda c: c[0][0] + c[0][1] * 10.0 ** c[1])
    exact = st.sampled_from([0.0, math.pi / 2, math.pi])
    return st.lists(st.one_of(st.floats(0.0, math.pi), exact, near), max_size=7)


_MP = mpmath.mp.clone()
_MP.dps = 50


@st.composite
def _spectra(draw):
    # One to three spectra of a common length up to 64, each entry 0 (one in
    # five) or uniform on (-1, 1) times 2^j, j in [-59, 1]; none all 0.
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 64)))
    s = np.ldexp(gen.uniform(-1.0, 1.0, shape), gen.integers(-59, 2, shape))
    s[gen.random(shape) < 0.2] = 0.0
    assume(np.all(np.any(s != 0.0, axis=1)))
    return list(s)


def _flat_reference(ds, n):
    # sqrt((4/n) sum_{i<j} d_i^2 d_j^2), a sum of positive terms.
    d2 = [_MP.mpf(d) ** 2 for d in ds]
    return _MP.sqrt(4 * _MP.fsum(a * b for a, b in combinations(d2, 2)) / n)


def _sphere_reference(thetas, n):
    # The sphere recursion of predictors._sphere in 50 digits, on the same
    # snapped steps: a cosine of 0 within 1e-12 of pi/2, a sine of 0 within
    # 1e-12 of 0 or pi.
    half, top = math.pi / 2, math.pi - 1e-12
    v = u = _MP.mpf(0)
    for x in thetas:
        c2 = 0 if abs(x - half) <= 1e-12 else _MP.cos(x) ** 2
        s2 = _MP.sin(x) ** 2 if 1e-12 < x < top else 0
        q = s2 / (_MP.mpf(n) - 1)
        v, u = c2 * v + q * u, s2 + (c2 - q) * u
    return _MP.sqrt(v)


def _hyperbolic_reference(xis, n):
    # sigma^2 = sum over index sets S, |S| >= 2, of
    # ((n/(n-1))^(|S|-1) - 1) prod_{i in S} sinh^2 xi_i, a sum of positive terms.
    z = [_MP.sinh(_MP.mpf(x)) ** 2 for x in xis]
    step = _MP.log1p(1 / (_MP.mpf(n) - 1))
    total = _MP.mpf(0)
    for size in range(2, len(z) + 1):
        growth = _MP.expm1((size - 1) * step)
        total += growth * _MP.fsum(_MP.fprod(s) for s in combinations(z, size))
    return _MP.sqrt(total)


def _check_sigmas(pred, want):
    # sigma_exact within 1e-12 of a normal reference, 0 for a deterministic
    # chain and inf past the double range; sigma_bound not below the
    # reference but by the rounding a Prediction allows, 1e-12 relative.
    if want == 0:
        assert pred.sigma_exact == 0.0
    elif want > sys.float_info.max:
        assert pred.sigma_exact == math.inf
    elif want >= sys.float_info.min:
        assert abs(_MP.mpf(pred.sigma_exact) - want) <= 1e-12 * want
    if pred.sigma_bound is not None:
        assert _MP.mpf(pred.sigma_bound) >= want * (1 - 1e-12)


# (geometry, schedule, p0, p1): every moment row, as t0^p0 t1^p1.
_MOMENT_ROWS = [("monomial", kind, *pw) for kind, pw in predictors._MONOMIALS.items()] + [
    ("marginal", power, power, 0) for power in range(1, 9)
]


def _moment_reference(n, p0, p1):
    # E[t0^p0 t1^p1] = (p0-1)!! (p1-1)!! / prod_{j < (p0+p1)/2} (n + 2j), 0 for an odd power.
    if p0 % 2 or p1 % 2:
        return _MP.mpf(0)
    odd = _MP.fprod(range(1, p0, 2)) * _MP.fprod(range(1, p1, 2))
    return odd / _MP.fprod(_MP.mpf(n) + 2 * j for j in range((p0 + p1) // 2))


class TestClosedFormProperties:
    """The sphere, flat, hyperbolic and moment-row sigmas and the flat fourth
    moment against 50-digit references."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(t=_angle_lists(), n=_dimensions(3))
    def test_sphere(self, t, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = prediction_for("sphere", t, n)
        # The recursion carries (n - 1) sigma^2, so sigma keeps 1e-12 wherever
        # it is a normal double, even where its square is not.
        _check_sigmas(pred, _sphere_reference(t, n))

    @pytest.mark.parametrize("theta", [1e-5, 1e-11, 1e-12 * (1 + 2.0**-40), 3e-8])
    @pytest.mark.parametrize("n", [3, 10**150, 10**300], ids=["3", "1e150", "1e300"])
    def test_sphere_sigma_below_the_square_range(self, theta, n):
        # Two steps of theta give sigma = sin^2 theta / sqrt(n - 1) to 50
        # digits: 1e-160 and 1e-172 at n = 1e300, where sigma^2 underflows
        # (the variance recursion read 9.99994e-161 and 0.0).
        want = _sphere_reference((theta, theta), n)
        assert abs(_MP.mpf(_sigma("sphere", (theta, theta), n)) - want) <= 1e-12 * want

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(ds=_lengths(1e150), n=_dimensions(2))
    def test_flat(self, ds, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = prediction_for("flat", ds, n)
            fourth = _fourth_moment(ds, n)
        _check_sigmas(pred, _flat_reference(ds, n))
        # sum d^4 + (2 + 4/n) sum_{i<j} d_i^2 d_j^2, inf past the double range
        d2 = [_MP.mpf(d) ** 2 for d in ds]
        want = _MP.fsum(a * a for a in d2) + (2 + _MP.mpf(4) / n) * _MP.fsum(
            a * b for a, b in combinations(d2, 2)
        )
        if want == 0:
            assert fourth == 0.0
        elif want > sys.float_info.max:
            assert fourth == math.inf
        elif want >= sys.float_info.min:
            assert abs(_MP.mpf(fourth) - want) <= 1e-14 * want

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(xis=_lengths(1e3), n=_dimensions(3))
    def test_hyperbolic(self, xis, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = prediction_for("hyperbolic", xis, n)
        _check_sigmas(pred, _hyperbolic_reference(xis, n))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(row=st.sampled_from(_MOMENT_ROWS), n=st.one_of(_dimensions(2), st.just(10**309)))
    def test_moment_rows(self, row, n):
        # sigma_exact within 1e-14 of sqrt(M(2p) - M(p)^2), and
        # PrecisionLossError exactly where the moment sigma needs, M(p) for
        # even powers and M(2p) for odd ones, falls below the double range
        # (either way within 1e-12 of the edge).
        geometry, schedule, p0, p1 = row
        assume(n >= 3 or not p1)
        mean, second = _moment_reference(n, p0, p1), _moment_reference(n, 2 * p0, 2 * p1)
        needed = second if p0 % 2 or p1 % 2 else mean
        try:
            pred = prediction_for(geometry, schedule, n)
        except PrecisionLossError:
            assert needed < sys.float_info.min * (1 + 1e-12)
            return
        assert needed >= sys.float_info.min * (1 - 1e-12)
        assert abs(_MP.mpf(pred.mean) - mean) <= 1e-14 * mean
        want = _MP.sqrt(second - mean**2)
        assert abs(_MP.mpf(pred.sigma_exact) - want) <= 1e-14 * want


class TestCurvatureLimit:
    """The sphere and hyperboloid of radius R tend to flat R^(n-1) as R grows:
    with steps d_i / R, the displacements 2R^2 (1 - c) and 2R^2 (a - 1) tend
    to the flat chain's squared norm in dimension n - 1, at relative rate
    O(1/R^2), the sphere from below and the hyperboloid from above."""

    STEPS = (1.0, 0.7, 1.3)

    @pytest.mark.parametrize("n", [3, 10, 200])
    @pytest.mark.parametrize("radius", [10.0**k for k in range(2, 7)], ids=lambda r: f"R{r:g}")
    def test_sigmas_tend_to_the_flat_row(self, n, radius):
        steps = tuple(d / radius for d in self.STEPS)
        flat = _sigma("flat", self.STEPS, n - 1)
        sphere = 2.0 * radius**2 * _sigma("sphere", steps, n) / flat
        hyperbolic = 2.0 * radius**2 * _sigma("hyperbolic", steps, n) / flat
        assert 1.0 - radius**-2 <= sphere < 1.0 < hyperbolic <= 1.0 + radius**-2

    @pytest.mark.parametrize("n", [3, 10, 200])
    @pytest.mark.parametrize("radius", [10.0**k for k in range(2, 7)], ids=lambda r: f"R{r:g}")
    def test_means_are_the_cos_and_cosh_products(self, n, radius):
        steps = [d / radius for d in self.STEPS]
        for geometry, step in (("sphere", _MP.cos), ("hyperbolic", _MP.cosh)):
            want = _MP.fprod(step(_MP.mpf(x)) for x in steps)
            got = _mean(geometry, steps, n)
            assert abs(_MP.mpf(got) - want) <= 2 * math.ulp(float(want))


class TestOperatorPredictors:
    def test_norm_multiplier_linear_spectrum(self):
        s = np.arange(1, 401) / 400.0
        # sqrt of the probability second moment: sum j^2 / (400^3)
        want = math.sqrt(21413400 / 64000000)
        np.testing.assert_allclose(_mean("operator", s, 400, "norm_ratio"), want, rtol=1e-13)

    def test_expected_cosine_is_mean_over_rms(self):
        s = np.array([0.2, 0.5, 1.0, 0.3])
        want = s.mean() / math.sqrt((s**2).mean())
        np.testing.assert_allclose(_mean("operator", s, 4), want, rtol=1e-14)

    def test_zero_trace_gives_zero_cosine(self):
        assert _mean("operator", [1.0, -1.0], 2) == 0.0

    def test_all_zero_spectrum_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            prediction_for("operator", [0.0, 0.0], 2)

    def test_product_cosine_multiplies(self):
        a, b = [0.2, 0.9, 0.4], [1.0, 0.5, 0.25]
        want = _mean("operator", a, 3) * _mean("operator", b, 3)
        np.testing.assert_allclose(_mean("operator_product", [a, b], 3), want, rtol=1e-14)

    def test_psd_spectra_give_nonnegative_cosine(self):
        gen = np.random.default_rng(95)
        for _ in range(200):
            m = int(gen.integers(1, 4))
            n = int(gen.integers(2, 9))
            spectra = [gen.uniform(0.0, 1.0, size=n) + 1e-6 for _ in range(m)]
            assert _mean("operator_product", spectra, n) >= 0.0

    def test_cosine_of_a_spectrum_past_1e154(self):
        # sum(s) overflowed to inf here, with a numpy warning; the scaled
        # pass gives 2 / sqrt(6).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for observable, want in (("cosine", 2 / math.sqrt(6)), ("norm_ratio", 1e308 * math.sqrt(2 / 3))):
                mean = _mean("operator", [1e308, -1e5, 1e308], 3, observable)
                np.testing.assert_allclose(mean, want, rtol=1e-15)

    def test_norm_product_in_range_past_a_running_overflow(self):
        # The running product 1e400 passes the double range; the product is 1e200.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean = _mean("operator_product", [[1e200] * 2, [1e200] * 2, [1e-200] * 2], 2, "norm_ratio")
            assert mean == pytest.approx(1e200, rel=1e-15)
            assert _mean("operator_product", [[1e200] * 2, [1e200] * 2], 2, "norm_ratio") == math.inf
            assert _mean("operator_product", [[1e-200] * 2] * 2, 2, "norm_ratio") == 0.0

    def test_product_prediction_norm_ratio(self):
        s = [0.5, 1.0]
        pred = prediction_for("operator_product", [s, s], 2, observable="norm_ratio")
        np.testing.assert_allclose(pred.mean, _mean("operator", s, 2, "norm_ratio") ** 2, rtol=1e-14)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(spectra=_spectra(), k=st.one_of(st.integers(-1000, 1023), st.integers(1010, 1023)))
    def test_power_of_two_scale(self, spectra, k):
        # Scaling every factor by 2^k leaves the cosine's bits and scales the
        # norm ratio by exactly 2^(k M), wherever that is a normal double.  k
        # leans to the top of the range, where N max|s| passes it.
        scaled = [np.ldexp(s, k) for s in spectra]
        assume(all(np.all((v == 0.0) | (abs(v) >= sys.float_info.min)) for v in scaled))
        assume(all(np.all(np.isfinite(v)) for v in scaled))
        geometry, n = "operator" if len(spectra) == 1 else "operator_product", len(spectra[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cosines = [_mean(geometry, v, n, "cosine") for v in (spectra, scaled)]
            ratio, ratio_k = (_mean(geometry, v, n, "norm_ratio") for v in (spectra, scaled))
        assert cosines[1].hex() == cosines[0].hex()
        want = Fraction(ratio) * Fraction(2) ** (k * len(spectra))
        if sys.float_info.min <= want <= sys.float_info.max:
            assert ratio_k == float(want)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 1000), k=st.integers(-900, 900))
    def test_cosine_of_a_mixed_sign_spectrum_within_4_ulp(self, seed, n, k):
        # A standard-normal spectrum, scaled by 2^k, cancels in its sum: the
        # cosine sum s / sqrt(N sum s^2) against 50 digits.  With numpy's
        # pairwise sum of s it was off by up to 2,151 ulp.
        s = np.ldexp(np.random.default_rng(seed).standard_normal(n), k)
        assume(s.max() > 0.0 > s.min())
        exact = [_MP.mpf(float(v)) for v in s]
        want = _MP.fsum(exact) / _MP.sqrt(n * _MP.fsum(v * v for v in exact))
        got = _mean("operator", s, n)
        assert abs(_MP.mpf(got) - want) <= 4 * math.ulp(float(want))

    @pytest.mark.parametrize(
        "spectrum, exact_sums",
        [([0.5, 1.0, 2.0], 0), ([-0.5, -1.0], 0), ([3.0, 3.0], 0), ([1.0, 0.0], 0), ([2.0, -1.0, 0.5], 1)],
    )
    def test_only_a_mixed_sign_spectrum_is_summed_exactly(self, spectrum, exact_sums, monkeypatch):
        # One sign keeps numpy's pairwise sum, so predict-grid's positive
        # spectra pay one comparison and no extraction.
        calls = []
        exact_terms = predictors._exact_terms
        monkeypatch.setattr(predictors, "_exact_terms", lambda x: calls.append(x.size) or exact_terms(x))
        _mean("operator", spectrum, len(spectrum))
        assert len(calls) == exact_sums


class TestCurvatureProducts:
    def test_hand_case(self):
        # one step, weights v = (1, 1, 1/3)
        path = CurvaturePath([(1.0, (0.0, 0.0, 2.0))])
        v = np.array([1.0, 1.0, 1.0 / 3.0])
        p1, p2 = v.mean(), math.sqrt((v**2).mean())
        np.testing.assert_allclose(_mean("kappa", path, 3, "norm_ratio"), p2, rtol=1e-14)
        np.testing.assert_allclose(_mean("kappa", path, 3), p1 / p2, rtol=1e-14)

    def test_equal_curvatures_give_cosine_one(self):
        path = CurvaturePath([(0.7, (1.3, 1.3, 1.3)), (0.2, (0.5, 0.5, 0.5))])
        np.testing.assert_allclose(_mean("kappa", path, 3), 1.0, rtol=0, atol=1e-12)

    def test_cosine_product_at_most_one(self):
        gen = np.random.default_rng(96)
        for _ in range(200):
            width = int(gen.integers(1, 6))
            steps = [
                (float(gen.uniform(0.05, 1.5)), gen.uniform(-0.5, 3.0, size=width))
                for _ in range(int(gen.integers(1, 4)))
            ]
            assert _mean("kappa", CurvaturePath(steps), width) <= 1.0 + 1e-12

    def test_prediction_for_kappa_is_the_products(self):
        # prod_k pnorm_pi(v_k, 2) and prod_k mean(v_k) / pnorm_pi(v_k, 2) over
        # the weights v_k = 1 / (1 + d_k kappa_k), formed here term by term
        gen = np.random.default_rng(61)
        for _ in range(50):
            width = int(gen.integers(1, 8))
            steps = [
                (float(gen.uniform(0.05, 1.5)), gen.uniform(-0.5, 3.0, size=width))
                for _ in range(int(gen.integers(1, 5)))
            ]
            weights = [[1.0 / (1.0 + d * k) for k in kappas] for d, kappas in steps]
            rms = [math.sqrt(math.fsum(w * w for w in v) / width) for v in weights]
            norm = math.prod(rms)
            cosine = math.prod(math.fsum(v) / width / r for v, r in zip(weights, rms))
            path = CurvaturePath(steps)
            np.testing.assert_allclose(_mean("kappa", path, width, "norm_ratio"), norm, rtol=1e-13)
            np.testing.assert_allclose(_mean("kappa", path, width), cosine, rtol=1e-13)

    def test_rejects_singular_weight(self):
        with pytest.raises(ValueError, match="singular"):
            CurvaturePath([(1.0, (-1.0, 0.0))])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="positive"):
            CurvaturePath([(1.0, (-2.0, 0.0))])

    def test_rejects_ragged_widths(self):
        with pytest.raises(ValueError, match="same number"):
            CurvaturePath([(1.0, (0.0, 0.0)), (1.0, (0.0,))])

    def test_rejects_overflowing_weight(self):
        # 1 + d*kappa past the double range would give a weight of 0.
        for kappas in ((1e200, 1e200), (1e200, 1.0), (-1e200, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="step 1: 1 \\+ d\\*kappa overflows"):
                    CurvaturePath([(1.0, (0.5, 0.5)), (1e200, kappas)])


class TestPropositionBounds:
    def test_equal_entries_frozen(self):
        got = pnorm_proposition_bounds((0.5, 0.5))
        assert got == (0.25, 0.5, 0.625, 0.5, 1.25)

    def test_rejects_entries_outside_unit_interval(self):
        with pytest.raises(ValueError, match="\\(0, 1\\]"):
            pnorm_proposition_bounds((0.5, 1.5))
        with pytest.raises(ValueError, match="\\(0, 1\\]"):
            pnorm_proposition_bounds((0.0, 0.5))

    @settings(max_examples=300, deadline=None)
    @given(
        v=st.lists(
            st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8
        )
    )
    def test_inequality_chain(self, v):
        slack = 1e-12
        b = pnorm_proposition_bounds(v)
        assert b.lower <= b.value * (1.0 + slack)
        assert b.value <= b.upper * (1.0 + slack)
        ratio = b.value / b.ratio_lower
        assert b.ratio_lower <= ratio * (1.0 + slack)
        assert ratio <= b.ratio_upper * (1.0 + slack)
        assert ratio <= 1.0 + slack


class TestSphereMoments:
    def test_monomial_values(self):
        assert _mean("monomial", "x1_sq", 10) == 0.1
        assert _mean("monomial", "x1_4", 10) == 0.025
        np.testing.assert_allclose(_mean("monomial", "x1sq_x2sq", 10), 1 / 120, rtol=1e-15)

    def test_monomial_partition_identity(self):
        # n E[x1^4] + n(n-1) E[x1^2 x2^2] = E[x1^2] summed over sum x_i^2 = 1
        for n in (3, 7, 20):
            total = n * _mean("monomial", "x1_4", n) + n * (n - 1) * _mean(
                "monomial", "x1sq_x2sq", n
            )
            np.testing.assert_allclose(total, 1.0, rtol=1e-12)

    def test_monomial_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="monomial schedule must be one of"):
            prediction_for("monomial", "x1_6", 10)

    def test_marginal_density_uniform_at_n3(self):
        # n = 3 marginal is uniform on [-1, 1]
        np.testing.assert_allclose(coordinate_marginal_density(0.0, 3), 0.5, rtol=1e-14)
        np.testing.assert_allclose(coordinate_marginal_density(0.9, 3), 0.5, rtol=1e-14)

    @pytest.mark.parametrize(
        "n", [2, 3, 4, 10, 99, 199, 200, 201, 202, 10**3, 10**4, 10**6, 10**10, 10**16, 10**30]
    )
    def test_marginal_density_at_large_n(self, n):
        # Against Gamma(n/2) / (sqrt(pi) Gamma((n-1)/2)) (1 - t^2)^((n-3)/2)
        # in 50 digits, near the peak, where the difference of log-gammas
        # and (1 - t^2)^((n-3)/2) lost about n ulp (0.324 for 2.42e7 at 1e16).
        z = _MP.gammaprod([_MP.mpf(n) / 2], [(_MP.mpf(n) - 1) / 2]) / _MP.sqrt(_MP.pi)
        for t in (0.0, 1.0 / math.sqrt(n), 3.0 / math.sqrt(n)):
            if t > 1.0:
                continue
            want = z * (1 - _MP.mpf(t) ** 2) ** ((_MP.mpf(n) - 3) / 2)
            assert abs(_MP.mpf(coordinate_marginal_density(t, n)) - want) <= 1e-13 * want

    @pytest.mark.parametrize("n", [4, 10])
    @pytest.mark.parametrize("t", [0.9999999, -0.9999999, 1.0 - 2.0**-40, -(1.0 - 2.0**-40)])
    def test_marginal_density_near_the_ends(self, n, t):
        # 1 - t^2 rounds t^2 first, which cost 1.4e-10 at n = 10 and
        # t = 0.9999999; log1p(-t) + log1p(t) takes t as it is.
        z = _MP.gammaprod([_MP.mpf(n) / 2], [(_MP.mpf(n) - 1) / 2]) / _MP.sqrt(_MP.pi)
        want = z * (1 - _MP.mpf(t) ** 2) ** ((_MP.mpf(n) - 3) / 2)
        assert abs(_MP.mpf(coordinate_marginal_density(t, n)) - want) <= 1e-14 * want

    def test_marginal_density_at_the_top_of_the_double_range(self):
        np.testing.assert_allclose(
            coordinate_marginal_density(0.0, 10**300), math.sqrt(1e300 / (2 * math.pi)), rtol=1e-15
        )

    def test_marginal_density_integrates_to_one(self):
        from scipy.integrate import quad

        for n in (2, 3, 5, 40):
            total, _ = quad(coordinate_marginal_density, -1.0, 1.0, args=(n,), limit=200)
            np.testing.assert_allclose(total, 1.0, rtol=1e-9)

    def test_marginal_moment_matches_monomial(self):
        np.testing.assert_allclose(prediction_for("marginal", 2, 5).mean, 0.2, rtol=1e-12)
        np.testing.assert_allclose(
            prediction_for("marginal", 4, 10).mean, 0.025, rtol=1e-11
        )

    @pytest.mark.parametrize("n", [2, 3, 10**4, 10**6])
    def test_marginal_closed_form(self, n):
        def moment(p):
            return 0.0 if p % 2 else math.prod((2 * j + 1) / (n + 2 * j) for j in range(p // 2))

        for p in range(1, 9):
            pred = prediction_for("marginal", p, n)
            if p % 2:
                assert pred.mean == 0.0
            np.testing.assert_allclose(pred.mean, moment(p), rtol=1e-12)
            sigma = math.sqrt(moment(2 * p) - moment(p) ** 2)
            np.testing.assert_allclose(pred.sigma_exact, sigma, rtol=1e-12)

    def test_monomials_are_coordinate_moments(self):
        for n in (3, 10, 10**6):
            assert _mean("monomial", "x1_sq", n) == _sphere_moment(n, 2)
            assert _mean("monomial", "x1_4", n) == _sphere_moment(n, 4)
            assert _mean("monomial", "x1sq_x2sq", n) == _sphere_moment(n, 2, 2)
            np.testing.assert_allclose(_sphere_moment(n, 2), 1 / n, rtol=1e-15)
            np.testing.assert_allclose(_sphere_moment(n, 4), 3 / (n * (n + 2)), rtol=1e-15)
            np.testing.assert_allclose(_sphere_moment(n, 2, 2), 1 / (n * (n + 2)), rtol=1e-15)
        # sigma^2 = E[t^(2p)] - E[t^p]^2 at n = 10: 1/40 - 1/100, 1/256 - 1/1600
        # and 3/8960 - 1/14400
        for kind, var in (("x1_sq", Fraction(3, 200)), ("x1_4", Fraction(21, 6400)),
                          ("x1sq_x2sq", Fraction(107, 403200))):
            np.testing.assert_allclose(_sigma("monomial", kind, 10), math.sqrt(var), rtol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 10, 199, 10**6, 10**39])
    def test_monomial_powers_are_marginal_powers(self, n):
        # one predictor: x1_sq and x1_4 are marginal powers 2 and 4, bit for bit
        for kind, power in (("x1_sq", 2), ("x1_4", 4)):
            mono, marg = prediction_for("monomial", kind, n), prediction_for("marginal", power, n)
            assert (mono.mean, mono.sigma_exact) == (marg.mean, marg.sigma_exact)

    def test_underflowing_moment_raises(self):
        with pytest.raises(PrecisionLossError):
            prediction_for("marginal", 8, 10**80)
        with pytest.raises(PrecisionLossError):
            prediction_for("marginal", 1, 10**400)  # sigma needs E[t^2] = 1/n
        with pytest.raises(PrecisionLossError):
            prediction_for("monomial", "x1sq_x2sq", 10**160)

    def test_odd_marginal_moment_vanishes(self):
        np.testing.assert_allclose(prediction_for("marginal", 3, 8).mean, 0.0, atol=1e-13)

    def test_gaussian_moments(self):
        assert gaussian_abs_moment(2.0) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(gaussian_abs_moment(1.0), math.sqrt(2 / math.pi), rtol=1e-15)
        np.testing.assert_allclose(gaussian_abs_moment(4.0), 3.0, rtol=1e-14)
        # 2^200 Gamma(200.5) / sqrt(pi) is past the double range; this raised
        assert gaussian_abs_moment(400.0) == math.inf


class TestPredictionBundles:
    def test_sphere_bundle_fields(self):
        pred = prediction_for("sphere", (math.pi / 3,) * 5, 200)
        assert pred.observable == "cosine"
        np.testing.assert_allclose(pred.mean, 0.03125, rtol=1e-14)
        assert 0.0 < pred.sigma_exact <= pred.sigma_bound * (1.0 + 1e-12)

    def test_hyperbolic_bundle_fields(self):
        pred = prediction_for("hyperbolic", (1.0, 1.0, 1.0), 300)
        assert pred.observable == "minkowski_inner"
        np.testing.assert_allclose(pred.mean, math.cosh(1.0) ** 3, rtol=1e-14)

    def test_sigma_exceeding_bound_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            Prediction("x", 0.0, sigma_exact=2.0, sigma_bound=1.0, deviation_order="o")

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Prediction("x", 0.0, sigma_exact=-1.0, sigma_bound=None, deviation_order="o")

    def test_prediction_for_dispatch(self):
        assert prediction_for("sphere", (0.5,), 10).observable == "cosine"
        assert prediction_for("flat", (1.0,), 10).observable == "squared_norm"
        assert prediction_for("hyperbolic", (1.0,), 10).observable == "minkowski_inner"
        assert prediction_for("monomial", "x1_4", 10).mean == 0.025
        assert prediction_for("marginal", 2, 10).observable == "t^2"
        op = prediction_for("operator", Spectrum([0.5, 1.0]), 2, observable="norm_ratio")
        assert op.observable == "norm_ratio"
        with pytest.raises(ValueError, match="unknown geometry"):
            prediction_for("torus", (1.0,), 10)


def _bits(*values):
    # Exact float identity, -0.0 and inf included.
    return [None if v is None else float(v).hex() for v in values]


class TestPredictionForRows:
    """The sphere, flat and hyperbolic means are the same bits at every n,
    the flat one that of the public norm, the hyperbolic one the cosh
    product to 1e-15, and the sigma bounds meet their closed forms."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_public_predictors_bitwise(self, seed):
        gen = np.random.default_rng(seed)
        for m in (0, 1, 2, 5, 64):
            t = tuple(gen.uniform(0.0, math.pi, m))
            if m > 2:
                t = (math.pi / 2, math.pi) + t[2:]
            d = tuple(gen.uniform(0.0, 3.0, m) * 10.0 ** gen.integers(-100, 100, m))
            # Arcs up to 200 take cosh products past the double range.
            x = tuple(gen.uniform(0.05, 2.0, m) * 10.0 ** gen.integers(0, 3, m))
            _mean_at_every_n("sphere", t)
            np.testing.assert_allclose(
                _mean_at_every_n("flat", d), flat_expected_norm(d) ** 2, rtol=1e-15, atol=0
            )
            # The hyperbolic mean is the cosh product, within 1e-15 of a
            # 50-digit one, and inf past the double range.
            cosh_product = _MP.fprod(_MP.cosh(v) for v in x)
            mean = _mean_at_every_n("hyperbolic", x)
            if cosh_product > sys.float_info.max:
                assert mean == math.inf
            else:
                assert abs(_MP.mpf(mean) - cosh_product) <= 1e-15 * cosh_product
            log_cosh = hyperbolic_log_expected_cosh(x)
            for n in (3, 17, 10**6):
                # ||(sin theta_1 .. sin theta_{M-1})||_2 / sqrt(n - 1)
                want = math.hypot(*np.sin(t[:-1])) / math.sqrt(n - 1)
                np.testing.assert_allclose(_bound("sphere", t, n), want, rtol=1e-14, atol=0)

                # sqrt(2 (1 - 1/M) / n) sum d^2, at every M
                want = math.sqrt(2.0 * (1.0 - 1.0 / max(m, 1)) / n) * math.fsum(v * v for v in d)
                np.testing.assert_allclose(_bound("flat", d, n), want, rtol=1e-14, atol=0)

                # sqrt((n/(n-1))^(M-1) - 1) prod cosh xi_i, formed in logs
                growth = math.expm1((m - 1) * math.log1p(1.0 / (n - 1))) if m else 0.0
                try:
                    want = math.exp(0.5 * math.log(growth) + log_cosh) if growth else 0.0
                except OverflowError:
                    want = math.inf
                np.testing.assert_allclose(_bound("hyperbolic", x, n), want, rtol=1e-12, atol=0)
        for n in (2, 10, 1000):
            lists = [gen.uniform(-0.5, 2.0, n).tolist() for _ in range(3)]
            spectra = [Spectrum(v) for v in lists]
            ratio = _mean("operator", spectra[0], n, "norm_ratio")
            cosine = _mean("operator", spectra[0], n)
            for factor in spectra[1:]:
                ratio *= _mean("operator", factor, n, "norm_ratio")
                cosine *= _mean("operator", factor, n)
            # Lists become (sorted) Spectrum first, so both forms give the same bits.
            for schedule in (lists, spectra):
                assert _bits(_mean("operator_product", schedule, n)) == _bits(cosine)
                assert _bits(_mean("operator_product", schedule, n, "norm_ratio")) == _bits(ratio)

    def test_schedule_checked_once(self, monkeypatch):
        names = []
        check = montecarlo._schedule_tuple

        def counting(values, name, *args):
            names.append(name)
            return check(values, name, *args)

        monkeypatch.setattr(montecarlo, "_schedule_tuple", counting)
        for geometry, name in (("sphere", "angles"), ("flat", "steps"), ("hyperbolic", "arcs")):
            for schedule in ((), (0.5,), (0.5, 1.0, 1.5)):
                names.clear()
                prediction_for(geometry, schedule, 10)
                assert names == [name]


# The entries that take a sphere, flat or hyperbolic schedule: (geometry,
# call), each call giving what it makes of the schedule.
_SCHEDULE_ENTRIES = {
    f"{entry}-{geometry}": (geometry, call)
    for geometry in ("sphere", "flat", "hyperbolic")
    for entry, call in (
        ("prediction_for", lambda g, x: prediction_for(g, x, 5)),
        ("ExperimentSpec", lambda g, x: ExperimentSpec(g, 5, x, 2, 1).schedule),
    )
}
_SCHEDULE_ENTRIES["flat_expected_norm"] = ("flat", lambda g, x: flat_expected_norm(x))
_SCHEDULE_ENTRIES["hyperbolic_log_expected_cosh"] = (
    "hyperbolic", lambda g, x: hyperbolic_log_expected_cosh(x)
)
_NAMES = {"sphere": "angles", "flat": "steps", "hyperbolic": "arcs"}

# (schedule form, the float tuple it stands for; or "rejected", raising
# ValueError or TypeError; or the message, with {name} for the schedule's
# name, of a ValueError the CLI can reach).
_NON_FINITE = "{name} has non-finite entries"
_SCHEDULE_FORMS = {
    "tuple": ((0.5, 1.0, 2.5), (0.5, 1.0, 2.5)),
    "list": ([0.5, 1.0, 2.5], (0.5, 1.0, 2.5)),
    "empty": ([], ()),
    "array": (np.array([0.5, 1.0, 2.5]), (0.5, 1.0, 2.5)),
    "float32-array": (np.array([0.1, 2.5], dtype=np.float32), (float(np.float32(0.1)), 2.5)),
    "object-array": (np.array([Fraction(1, 3), True, 2], dtype=object), (1 / 3, 1.0, 2.0)),
    "int-list": ([0, 1, 3], (0.0, 1.0, 3.0)),
    "numeric-text": (["0.5", " 1 ", "2.5e0"], (0.5, 1.0, 2.5)),
    "bools-and-fractions": ([True, False, Fraction(5, 2)], (1.0, 0.0, 2.5)),
    "generator": (lambda: (x for x in (0.5, 1.0)), (0.5, 1.0)),  # made afresh per call
    "bare-string": ("0.5", "rejected"),
    "digit-string": ("123", "rejected"),
    "empty-string": ("", "rejected"),
    "bytes": (b"12", "rejected"),
    "scalar": (0.5, "rejected"),
    "2-d-array": (np.array([[0.5, 1.0]]), "rejected"),
    "0-d-array": (np.array(0.5), "rejected"),
    "nested-list": ([[0.5], [1.0]], "rejected"),
    "ragged-list": ([0.5, [1.0, 2.0]], "rejected"),
    "none-entry": ([0.5, None], "rejected"),
    "complex-entry": ([0.5, 1j], "rejected"),
    "dict": ({0.5: 1.0}, "rejected"),
    "set": ({0.5}, "rejected"),
    "nan": ([0.5, math.nan], _NON_FINITE),
    "inf-text": (["inf"], _NON_FINITE),
    "nan-before-range": ([-1.0, math.nan], _NON_FINITE),
    "negative": ([0.5, -0.1], "{name} entries must be >= 0{bound}"),
    "past-pi": ([3.5], None),  # out of range for angles alone
}


class TestScheduleDomain:
    @pytest.mark.parametrize("form", _SCHEDULE_FORMS)
    @pytest.mark.parametrize("entry", _SCHEDULE_ENTRIES)
    def test_forms(self, entry, form):
        # Each accepted form gives what its plain float tuple gives; each
        # rejected form raises, a string never becoming its characters.
        geometry, call = _SCHEDULE_ENTRIES[entry]
        schedule, want = _SCHEDULE_FORMS[form]
        schedule = schedule() if callable(schedule) else schedule
        bound = " and <= 3.141592653589793" if geometry == "sphere" else ""
        if want is None:
            want = "{name} entries must be >= 0{bound}" if bound else (3.5,)
        if want == "rejected":
            with pytest.raises((ValueError, TypeError)):
                call(geometry, schedule)
        elif isinstance(want, str):
            with pytest.raises(ValueError) as info:
                call(geometry, schedule)
            assert str(info.value) == want.format(name=_NAMES[geometry], bound=bound)
        else:
            got = call(geometry, schedule)
            assert got == call(geometry, want)
            if entry.startswith("ExperimentSpec"):
                assert [x.hex() for x in got] == [x.hex() for x in want]


class TestPublicDimension:
    # coordinate_marginal_density checks n as prediction_for does: an
    # integer, within the double range its float arithmetic needs.  The other
    # entries read prediction_for's rows; their keys keep the names of the
    # public functions that once gave those numbers, so the test ids stay.
    CALLS = {
        "sphere_sigma_bound": lambda n: _bound("sphere", (0.5, 0.5), n),
        "flat_sigma_bound": lambda n: _bound("flat", (1.0, 2.0), n),
        "hyperbolic_sigma_bound": lambda n: _bound("hyperbolic", (0.5, 0.5), n),
        "flat_fourth_moment": lambda n: _fourth_moment((1.0, 2.0), n),
        "coordinate_marginal_density": lambda n: coordinate_marginal_density(0.5, n),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("n", [5.5, 5.0, 10**400, "5"], ids=["5.5", "5.0", "1e400", "text"])
    def test_rejects_what_prediction_for_rejects(self, name, n):
        with pytest.raises(ValueError, match="n_dim must be an integer in the double range"):
            self.CALLS[name](n)

    @pytest.mark.parametrize("name", CALLS)
    def test_numpy_integer_is_an_integer(self, name):
        assert self.CALLS[name](np.int64(7)) == self.CALLS[name](7)
