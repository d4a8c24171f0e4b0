"""Chain runners: one trial of the engine's kernels, exactness, and validation.

The chain runners return their observable as a float, and
run_operator_product the pair (norm_ratio, cosine), whose cosine is nan
exactly where the image vanished."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp
from full_vector import flat_walk, hyperbolic_walk, operator_product_dense, sphere_walk

from randsteps import (
    ExperimentSpec,
    HyperboloidPoint,
    RandomStream,
    Spectrum,
    UnitVector,
    estimate,
    run_flat_chain,
    run_hyperbolic_chain,
    run_operator_product,
    run_sphere_chain,
)


def _e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return UnitVector(v)


def _h0(n):
    return HyperboloidPoint.from_spatial(np.zeros(n - 1))


def _one_trial_mean(geometry, n, schedule, seed, observable=None):
    return estimate(ExperimentSpec(geometry, n, schedule, 1, seed, observable)).mean


SEEDS = (0, 1, 17, 2**64 - 1)


class TestOneImplementation:
    # A runner is one trial of its geometry's kernel: on the stream (s, 0)
    # it reports the mean of a one-trial estimate with seed s, bit for bit.

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sphere(self, seed):
        for n, thetas in ((3, (0.4, math.pi, 1.1)), (200, (0.7, 1.1, 2.0, 0.3))):
            got = run_sphere_chain(_e1(n), thetas, RandomStream(seed, 0))
            assert got == _one_trial_mean("sphere", n, thetas, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_flat(self, seed):
        for n, ds in ((2, (1.0, 1.0)), (500, (1.0, 0.5, 2.0, 0.0, 3.0))):
            got = run_flat_chain(ds, n, RandomStream(seed, 0))
            assert got == _one_trial_mean("flat", n, ds, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hyperbolic(self, seed):
        for n, xis in ((3, (0.5, 1.0, 0.2)), (300, (0.8, 0.0, 1.5))):
            got = run_hyperbolic_chain(_h0(n), xis, RandomStream(seed, 0))
            assert got == _one_trial_mean("hyperbolic", n, xis, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_operator_product(self, seed):
        n = 40
        spectra = [
            Spectrum(np.linspace(-0.5, 2.0, n)),
            Spectrum((-1.5,) * n),
            Spectrum(np.linspace(0.05, 1.0, n)),
        ]
        for geometry, schedule in (("operator", spectra[:1]), ("operator_product", spectra)):
            ratio, cosine = run_operator_product(schedule, _e1(n), RandomStream(seed, 0))
            assert not math.isnan(cosine)
            assert ratio == _one_trial_mean(geometry, n, schedule, seed, "norm_ratio")
            assert cosine == _one_trial_mean(geometry, n, schedule, seed, "cosine")

    def test_degenerate_matches_estimate(self):
        spectra = [Spectrum([1.0, 2.0, 3.0]), Spectrum((0.0,) * 3)]
        ratio, cosine = run_operator_product(spectra, _e1(3), RandomStream(5, 0))
        assert ratio == 0.0 and math.isnan(cosine)
        assert _one_trial_mean("operator_product", 3, spectra, 5, "norm_ratio") == 0.0
        assert math.isnan(_one_trial_mean("operator_product", 3, spectra, 5, "cosine"))


class TestRunnerLaw:
    # One runner call per seed, against the full-vector walks of
    # tests/full_vector.py: two-sample KS at fixed seeds.  Each chain has at
    # least two moving steps, so every one-trial value is a random draw.
    TRIALS = 2000

    @pytest.mark.parametrize(
        "geometry, n, schedule",
        [("sphere", 3, (0.4, 1.2, 2.2)), ("sphere", 10, (0.0, 0.7, math.pi, 1.1)),
         ("flat", 5, (1.0, 0.5, 2.0)), ("hyperbolic", 3, (0.5, 1.0, 0.3)),
         ("hyperbolic", 10, (0.0, 1.2, 0.7))],
    )
    def test_one_trial_runners_follow_the_walk(self, geometry, n, schedule):
        runner, walk, start = {
            "sphere": (run_sphere_chain, sphere_walk, _e1(n)),
            "flat": (run_flat_chain, flat_walk, None),
            "hyperbolic": (run_hyperbolic_chain, hyperbolic_walk, _h0(n)),
        }[geometry]
        if start is None:
            ones = [runner(schedule, n, RandomStream(i, 0)) for i in range(self.TRIALS)]
        else:
            ones = [runner(start, schedule, RandomStream(i, 0)) for i in range(self.TRIALS)]
        full = [walk(n, schedule, RandomStream(66, i)) for i in range(self.TRIALS)]
        assert ks_2samp(ones, full).pvalue > 1e-4


class TestSingleStepExactness:
    # From the start a one-step observable is a deterministic constant,
    # which the kernels take exactly.

    def test_sphere(self):
        for seed in (1, 2, 3):
            r = run_sphere_chain(_e1(8), (math.pi / 3,), RandomStream(seed))
            assert r == math.cos(math.pi / 3)

    def test_flat(self):
        for seed in (1, 2, 3):
            r = run_flat_chain((1.5,), 8, RandomStream(seed))
            assert r == 1.5 * 1.5

    def test_hyperbolic(self):
        for seed in (1, 2, 3):
            r = run_hyperbolic_chain(_h0(8), (0.8,), RandomStream(seed))
            assert r == math.cosh(0.8)

    def test_empty_schedules(self):
        assert run_sphere_chain(_e1(5), (), RandomStream(4)) == 1.0
        assert run_flat_chain((), 5, RandomStream(4)) == 0.0
        assert run_hyperbolic_chain(_h0(5), (), RandomStream(4)) == 1.0


class TestDeterminism:
    def test_same_stream_bitwise(self):
        a = run_sphere_chain(_e1(10), (0.4, 1.2, 2.2), RandomStream(31))
        b = run_sphere_chain(_e1(10), (0.4, 1.2, 2.2), RandomStream(31))
        assert a == b

    def test_start_point_sets_only_the_dimension(self):
        # The laws are rotation and boost invariant, so a runner reads only
        # its start point's dimension.
        v = np.arange(1.0, 9.0)
        u = UnitVector(v / np.linalg.norm(v))
        h = HyperboloidPoint.from_spatial(np.arange(1.0, 8.0))
        assert run_sphere_chain(u, (0.4, 2.0), RandomStream(8)) == run_sphere_chain(
            _e1(8), (0.4, 2.0), RandomStream(8)
        )
        assert run_hyperbolic_chain(h, (0.4, 2.0), RandomStream(8)) == run_hyperbolic_chain(
            _h0(8), (0.4, 2.0), RandomStream(8)
        )

    def test_accepts_numpy_generator(self):
        a = run_flat_chain((1.0, 2.0), 6, RandomStream(9, 3))
        b = run_flat_chain((1.0, 2.0), 6, RandomStream(9, 3).generator)
        assert a == b


class TestChainValidation:
    def test_sphere_rejects_small_dimension(self):
        with pytest.raises(ValueError, match=">= 3"):
            run_sphere_chain(UnitVector([1.0, 0.0]), (0.5,), RandomStream(1))

    def test_sphere_rejects_angle_out_of_range(self):
        with pytest.raises(ValueError):
            run_sphere_chain(_e1(5), (4.0,), RandomStream(1))

    def test_flat_rejects_negative_step(self):
        with pytest.raises(ValueError):
            run_flat_chain((-1.0,), 5, RandomStream(1))

    @pytest.mark.parametrize("n", [None, 5.0, 10**400])
    def test_flat_rejects_bad_dimension(self, n):
        # One step needs no draw, so only the check stands between a missing
        # dimension and a silently reported d^2.
        with pytest.raises(ValueError, match="n_dim must be an integer"):
            run_flat_chain((1.5,), n, RandomStream(1))

    def test_hyperbolic_rejects_negative_arc(self):
        with pytest.raises(ValueError):
            run_hyperbolic_chain(_h0(5), (-0.5,), RandomStream(1))

    def test_operator_rejects_empty_product(self):
        with pytest.raises(ValueError, match=">= 1 spectrum"):
            run_operator_product([], _e1(3), RandomStream(1))


class TestOperatorProduct:
    def test_scalar_spectrum_exact(self):
        u = _e1(5)
        ratio, cosine = run_operator_product([Spectrum((-3.0,) * 5)], u, RandomStream(41))
        assert ratio == 3.0
        assert cosine == -1.0
        assert not math.isnan(cosine)

    def test_scalar_factors_compose_exactly(self):
        u = UnitVector([0.0, 1.0, 0.0, 0.0])
        ratio, cosine = run_operator_product(
            [Spectrum((2.0,) * 4), Spectrum((-1.0,) * 4)], u, RandomStream(42)
        )
        assert ratio == 2.0
        assert cosine == -1.0

    def test_zero_spectrum_degenerate(self):
        ratio, cosine = run_operator_product([Spectrum((0.0,) * 5)], _e1(5), RandomStream(43))
        assert ratio == 0.0
        assert math.isnan(cosine)

    def test_norm_ratio_within_spectral_range(self):
        s = Spectrum([0.25, 0.5, 1.0, 2.0])
        for seed in range(20):
            ratio, cosine = run_operator_product(
                [s], UnitVector([0.5, 0.5, 0.5, 0.5]), RandomStream(seed)
            )
            assert 0.25 <= ratio <= 2.0
            assert -1.0 <= cosine <= 1.0

    def test_spectrum_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            run_operator_product([Spectrum([1.0, 2.0])], _e1(3), RandomStream(44))

    def test_determinism(self):
        s = Spectrum([0.2, 0.7, 1.3])
        a = run_operator_product([s, s], _e1(3), RandomStream(45))
        b = run_operator_product([s, s], _e1(3), RandomStream(45))
        assert a == b

    def test_dense_reference_same_law(self):
        # the kernel and the dense O(N^3) sampler draw different numbers
        # from the same joint law; their Monte Carlo means must agree
        n, trials = 20, 4000
        s = Spectrum(np.arange(1, n + 1) / n)
        fast = np.empty(trials)
        dense = np.empty(trials)
        for i in range(trials):
            fast[i] = run_operator_product([s, s], _e1(n), RandomStream(46, i))[1]
            dense[i] = operator_product_dense([s, s], RandomStream(47, i))[1]
        gap = fast.mean() - dense.mean()
        se = math.hypot(
            fast.std(ddof=1) / math.sqrt(trials), dense.std(ddof=1) / math.sqrt(trials)
        )
        assert abs(gap) < 4 * se

    def test_negative_scalar_after_non_scalar_keeps_sign(self):
        # a scalar factor -1 after a non-scalar one flips the image: the
        # kernel and the dense sampler must agree on the sign
        n, trials = 6, 2000
        spectra = [Spectrum(np.linspace(0.2, 1.0, n)), Spectrum((-1.0,) * n)]
        u = _e1(n)
        fast = np.array(
            [run_operator_product(spectra, u, RandomStream(48, i))[1] for i in range(trials)]
        )
        dense = np.array(
            [operator_product_dense(spectra, RandomStream(49, i))[1] for i in range(trials)]
        )
        assert np.all(fast < 0.0) and np.all(dense < 0.0)
        se = math.hypot(fast.std(ddof=1), dense.std(ddof=1)) / math.sqrt(trials)
        assert abs(fast.mean() - dense.mean()) < 4 * se
