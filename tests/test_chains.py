"""Full-vector chain runners: exactness, determinism, and cross-checks."""

import math

import numpy as np
import pytest

from randsteps.chains import (
    _operator_product_dense,
    run_flat_chain,
    run_hyperbolic_chain,
    run_operator_product,
    run_sphere_chain,
)
from randsteps.geometry import HyperboloidPoint, UnitVector, minkowski_inner
from randsteps.sampling import (
    RandomStream,
    Spectrum,
    flat_step,
    hyperbolic_step,
    sphere_step,
)


def _e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return UnitVector(v)


def _h0(n):
    return HyperboloidPoint.from_spatial(np.zeros(n - 1))


class TestSingleStepExactness:
    # From the e1 start a one-step observable is a deterministic constant,
    # reproduced bitwise because the step cores skip renormalization.

    def test_sphere(self):
        for seed in (1, 2, 3):
            r = run_sphere_chain(_e1(8), (math.pi / 3,), RandomStream(seed))
            assert r.observable == math.cos(math.pi / 3)

    def test_flat(self):
        for seed in (1, 2, 3):
            r = run_flat_chain((1.5,), 8, RandomStream(seed))
            assert r.observable == 1.5 * 1.5

    def test_hyperbolic(self):
        for seed in (1, 2, 3):
            r = run_hyperbolic_chain(_h0(8), (0.8,), RandomStream(seed))
            assert r.observable == math.cosh(0.8)

    def test_empty_schedules(self):
        assert run_sphere_chain(_e1(5), (), RandomStream(4)).observable == 1.0
        assert run_flat_chain((), 5, RandomStream(4)).observable == 0.0
        assert run_hyperbolic_chain(_h0(5), (), RandomStream(4)).observable == 1.0


class TestDeterminism:
    def test_same_stream_bitwise(self):
        a = run_sphere_chain(_e1(10), (0.4, 1.2, 2.2), RandomStream(31), keep_final=True)
        b = run_sphere_chain(_e1(10), (0.4, 1.2, 2.2), RandomStream(31), keep_final=True)
        assert a.observable == b.observable
        np.testing.assert_array_equal(a.final_point, b.final_point)

    def test_trace_matches_plain(self):
        # the traced and plain runs consume the stream identically
        sched = (0.4, 0.9, 2.0)
        a = run_sphere_chain(_e1(8), sched, RandomStream(11), trace=True)
        b = run_sphere_chain(_e1(8), sched, RandomStream(11))
        assert a.observable == b.observable
        f = run_flat_chain((1.0, 2.0), 8, RandomStream(12), trace=True, keep_final=True)
        g = run_flat_chain((1.0, 2.0), 8, RandomStream(12))
        assert f.observable == g.observable
        h = run_hyperbolic_chain(_h0(8), (0.3, 0.6), RandomStream(13), trace=True)
        k = run_hyperbolic_chain(_h0(8), (0.3, 0.6), RandomStream(13))
        assert h.observable == k.observable

    def test_trace_layout(self):
        # One row per visited point, start first and final_point last; each
        # consecutive pair is one step apart in its geometry's own measure.
        sched = (0.4, 0.9, 2.0)
        chains = [
            (run_sphere_chain(_e1(8), sched, RandomStream(11), trace=True, keep_final=True),
             _e1(8).values, lambda p, q: float(p @ q), math.cos),
            (run_flat_chain(sched, 8, RandomStream(11), trace=True, keep_final=True),
             np.zeros(8), lambda p, q: float(np.linalg.norm(p - q)), lambda d: d),
            (run_hyperbolic_chain(_h0(8), sched, RandomStream(11), trace=True, keep_final=True),
             _h0(8).values, minkowski_inner, math.cosh),
        ]
        for r, start, measure, want in chains:
            assert r.path.shape == (4, 8)
            np.testing.assert_array_equal(r.path[0], start)
            np.testing.assert_array_equal(r.path[-1], r.final_point)
            for k, step in enumerate(sched):
                got = measure(r.path[k + 1], r.path[k])
                np.testing.assert_allclose(got, want(step), rtol=0, atol=1e-11)


class TestStepFunctionParity:
    # The runners and the public step functions call the same step cores on
    # the same draws; the paths agree bitwise for flat chains and to within
    # the wrappers' renormalization (about one ulp per step) elsewhere.

    def test_flat_bitwise(self):
        ds = (1.0, 0.5, 2.0)
        c = run_flat_chain(ds, 8, RandomStream(22), keep_final=True)
        g = RandomStream(22)
        x = np.zeros(8)
        for d in ds:
            x = flat_step(x, d, g)
        np.testing.assert_array_equal(c.final_point, x)

    def test_sphere_close(self):
        thetas = (0.4, 0.9, 2.0)
        c = run_sphere_chain(_e1(8), thetas, RandomStream(21), keep_final=True)
        g = RandomStream(21)
        u = _e1(8)
        for theta in thetas:
            u = sphere_step(u, theta, g)
        np.testing.assert_allclose(c.final_point, u.values, rtol=0, atol=1e-13)

    def test_hyperbolic_close(self):
        xis = (0.3, 0.6)
        c = run_hyperbolic_chain(_h0(8), xis, RandomStream(23), keep_final=True)
        g = RandomStream(23)
        u = _h0(8)
        for xi in xis:
            u = hyperbolic_step(u, xi, g)
        np.testing.assert_allclose(c.final_point, u.values, rtol=0, atol=1e-12)


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

    def test_hyperbolic_rejects_negative_arc(self):
        with pytest.raises(ValueError):
            run_hyperbolic_chain(_h0(5), (-0.5,), RandomStream(1))


class TestOperatorProduct:
    def test_scalar_spectrum_exact(self):
        u = _e1(5)
        r = run_operator_product([Spectrum((-3.0,) * 5)], u, RandomStream(41))
        assert r.norm_ratio == 3.0
        assert r.cosine == -1.0
        assert not r.degenerate

    def test_scalar_factors_compose_exactly(self):
        u = UnitVector([0.0, 1.0, 0.0, 0.0])
        r = run_operator_product(
            [Spectrum((2.0,) * 4), Spectrum((-1.0,) * 4)], u, RandomStream(42)
        )
        assert r.norm_ratio == 2.0
        assert r.cosine == -1.0

    def test_zero_spectrum_degenerate(self):
        r = run_operator_product([Spectrum((0.0,) * 5)], _e1(5), RandomStream(43))
        assert r.degenerate
        assert r.norm_ratio == 0.0
        assert math.isnan(r.cosine)

    def test_norm_ratio_within_spectral_range(self):
        s = Spectrum([0.25, 0.5, 1.0, 2.0])
        for seed in range(20):
            r = run_operator_product([s], UnitVector([0.5, 0.5, 0.5, 0.5]), RandomStream(seed))
            assert 0.25 <= r.norm_ratio <= 2.0
            assert -1.0 <= r.cosine <= 1.0

    def test_spectrum_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            run_operator_product([Spectrum([1.0, 2.0])], _e1(3), RandomStream(44))

    def test_determinism(self):
        s = Spectrum([0.2, 0.7, 1.3])
        a = run_operator_product([s, s], _e1(3), RandomStream(45))
        b = run_operator_product([s, s], _e1(3), RandomStream(45))
        assert (a.norm_ratio, a.cosine) == (b.norm_ratio, b.cosine)

    def test_dense_reference_same_law(self):
        # the O(N) kernel and the dense O(N^3) sampler draw different numbers
        # from the same joint law; their Monte Carlo means must agree
        n, trials = 20, 4000
        s = Spectrum(np.arange(1, n + 1) / n)
        u = _e1(n)
        fast = np.empty(trials)
        dense = np.empty(trials)
        base_fast = RandomStream(46)
        base_dense = RandomStream(47)
        for i in range(trials):
            fast[i] = run_operator_product([s, s], u, base_fast.substream(i)).cosine
            dense[i] = _operator_product_dense([s, s], u, base_dense.substream(i)).cosine
        gap = fast.mean() - dense.mean()
        se = math.hypot(
            fast.std(ddof=1) / math.sqrt(trials), dense.std(ddof=1) / math.sqrt(trials)
        )
        assert abs(gap) < 4 * se

    def test_negative_scalar_after_non_scalar_keeps_sign(self):
        # a scalar factor -1 after a non-scalar one flips the image: the
        # O(N) kernel and the dense sampler must agree on the sign
        n, trials = 6, 2000
        spectra = [Spectrum(np.linspace(0.2, 1.0, n)), Spectrum((-1.0,) * n)]
        u = _e1(n)
        fast = np.array(
            [run_operator_product(spectra, u, RandomStream(48, i)).cosine for i in range(trials)]
        )
        dense = np.array(
            [_operator_product_dense(spectra, u, RandomStream(49, i)).cosine for i in range(trials)]
        )
        assert np.all(fast < 0.0) and np.all(dense < 0.0)
        se = math.hypot(fast.std(ddof=1), dense.std(ddof=1)) / math.sqrt(trials)
        assert abs(fast.mean() - dense.mean()) < 4 * se
