"""The seeded Monte Carlo engine and the prediction comparator."""

import math
import multiprocessing
import os
import struct
import threading
import warnings
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
from full_vector import (
    flat_walk,
    hyperbolic_walk,
    operator_product_dense,
    sphere_walk,
    uniform_unit_sphere,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from randsteps import montecarlo
from randsteps.montecarlo import (
    GEOMETRIES,
    ComparisonReport,
    ExperimentSpec,
    MonteCarloEstimate,
    RandomStream,
    Spectrum,
    _certified,
    _chunk_mean,
    _chunk_stats,
    _coordinate_values,
    _exact_terms,
    _power,
    _sphere_coordinate,
    _trial_values,
    compare,
    estimate,
    prediction_for,
)
from randsteps.predictors import CurvaturePath, PrecisionLossError, Prediction, _exponent, _sphere_steps


class TestExperimentSpec:
    def test_geometries_exported(self):
        assert "sphere" in GEOMETRIES and "operator_product" in GEOMETRIES

    def test_rejects_unknown_geometry(self):
        with pytest.raises(ValueError, match="unknown geometry"):
            ExperimentSpec("torus", 5, (0.5,), 10, 1)

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentSpec("sphere", 5, (0.5,), 0, 1)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            ExperimentSpec("sphere", 5, (0.5,), 10, -1)

    def test_rejects_small_sphere_dimension(self):
        with pytest.raises(ValueError, match=">= 3"):
            ExperimentSpec("sphere", 2, (0.5,), 10, 1)

    def test_rejects_observable_outside_operator(self):
        with pytest.raises(ValueError, match="observable"):
            ExperimentSpec("sphere", 5, (0.5,), 10, 1, observable="cosine")

    def test_rejects_dimension_beyond_double_range(self):
        # the samplers take (n - 1)/2 as a double shape parameter
        with pytest.raises(ValueError, match="double range"):
            ExperimentSpec("marginal", 10**400, 2, 10, 1)

    def test_operator_defaults_to_cosine(self):
        spec = ExperimentSpec("operator", 3, Spectrum([1.0, 2.0, 3.0]), 10, 1)
        assert spec.observable == "cosine"

    def test_operator_spectrum_length_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            ExperimentSpec("operator", 4, Spectrum([1.0, 2.0, 3.0]), 10, 1)

    def test_operator_takes_one_spectrum(self):
        s = Spectrum([1.0, 2.0])
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentSpec("operator", 2, [s, s], 10, 1)

    def test_monomial_kind_checked(self):
        with pytest.raises(ValueError, match="monomial"):
            ExperimentSpec("monomial", 5, "x1_6", 10, 1)

    def test_marginal_power_checked(self):
        with pytest.raises(ValueError, match="positive integer"):
            ExperimentSpec("marginal", 5, 0, 10, 1)

    def test_schedule_canonicalized(self):
        spec = ExperimentSpec("flat", 5, [1, 2], 10, 1)
        assert spec.schedule == (1.0, 2.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: RandomStream(True),
            lambda: RandomStream(0, False),
            lambda: ExperimentSpec("sphere", 3, [1.0], True, 1),
            lambda: ExperimentSpec("sphere", 3, [1.0], 1, True),
            lambda: ExperimentSpec("operator", True, [[2.0]], 1, 1),
            lambda: prediction_for("marginal", True, 5),
            lambda: prediction_for("operator", [2.0], True),
            lambda: estimate(ExperimentSpec("sphere", 3, [1.0], 1, 1), workers=True),
        ],
        ids=["seed", "stream_id", "trials", "spec_seed", "n_dim", "power", "prediction_n", "workers"],
    )
    def test_a_bool_is_not_an_integer(self, call):
        # Python counts True as the int 1; the library does not, as the CLI's config check does not.
        with pytest.raises((TypeError, ValueError), match="integer"):
            call()

    def test_a_schedule_still_reads_true_as_one(self):
        assert ExperimentSpec("flat", 5, [True, 2], 10, 1).schedule == (1.0, 2.0)


def _spec_of_every_geometry():
    path = CurvaturePath([(1.0, (0.0, 0.5, 2.0)), (0.5, (1.0, 1.0, -0.5))])
    return [
        ExperimentSpec("flat", 5, (1.0, 0.5), 300, 1),
        ExperimentSpec("sphere", 5, (0.7, 1.1), 300, 1),
        ExperimentSpec("hyperbolic", 5, (0.5, 0.2), 300, 1),
        ExperimentSpec("operator", 3, Spectrum([0.5, 1.0, 2.0]), 300, 1, "norm_ratio"),
        ExperimentSpec("operator_product", 3, [[0.5, 1.0, 2.0], [-1.0, 1.0, 1.5]], 300, 1),
        ExperimentSpec("monomial", 5, "x1sq_x2sq", 300, 1),
        ExperimentSpec("marginal", 5, 4, 300, 1),
        ExperimentSpec("kappa", 3, path, 300, 1),
    ]


class _CountingGenerator:
    """A numpy Generator that counts the doubles its draws return."""

    def __init__(self, gen):
        self.gen, self.drawn = gen, 0

    def __getattr__(self, name):
        draw = getattr(self.gen, name)

        def counted(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.drawn += np.size(out)
            return out

        return counted


# Beside every geometry's spec: coordinates in R^2, which draw one uniform
# each, an odd n, a scalar factor, which draws nothing, an odd-n product whose
# first factor is scalar, so its second steps from a pole and draws no
# coordinate, and marginal at n = 2.
_DRAW_SPECS = _spec_of_every_geometry() + [
    ExperimentSpec("flat", 2, (1.0, 0.5, 2.0), 300, 1),
    ExperimentSpec("sphere", 3, (0.7, 1.1, 0.2), 300, 1),
    ExperimentSpec("hyperbolic", 3, (0.5,), 300, 1),
    ExperimentSpec("operator_product", 2, [[0.5, 1.0], [-1.5, -1.5], [2.0, 3.0]], 300, 1),
    ExperimentSpec("operator_product", 7, [np.arange(7.0), [2.0] * 7], 300, 1, "cosine"),
    ExperimentSpec("operator_product", 5, [[-2.0] * 5, np.arange(5.0), [0.5, 1.0, 1.0, 2.0, 3.0]], 300, 1),
    ExperimentSpec("monomial", 3, "x1sq_x2sq", 300, 1),
    ExperimentSpec("marginal", 2, 3, 300, 1),
]


class TestGeometryTable:
    def test_every_geometry_has_a_spec_here(self):
        assert [spec.geometry for spec in _spec_of_every_geometry()] == list(GEOMETRIES)

    @pytest.mark.parametrize("spec", _DRAW_SPECS, ids=lambda spec: f"{spec.geometry}-n{spec.n_dim}")
    def test_draws_count_the_doubles_drawn(self, spec):
        row = montecarlo._GEOMETRY_TABLE[spec.geometry]
        gen = _CountingGenerator(RandomStream(spec.seed).generator)
        row.kernel(gen, 300, spec.n_dim, spec.schedule, spec.observable)
        assert gen.drawn == 300 * row.draws(spec.schedule, spec.n_dim)

    @pytest.mark.parametrize("spec", _spec_of_every_geometry(), ids=lambda spec: spec.geometry)
    def test_prediction_for_takes_a_specs_fields(self, spec):
        pred = prediction_for(spec.geometry, spec.schedule, spec.n_dim, spec.observable)
        assert math.isfinite(pred.mean)
        # the canonical schedule parses to itself
        again = ExperimentSpec(spec.geometry, spec.n_dim, spec.schedule, 300, 1, spec.observable)
        assert again == spec

    @pytest.mark.parametrize("observable", ["cosine", "norm_ratio"])
    def test_kappa_is_operator_product_over_weights(self, observable):
        path = CurvaturePath([(1.0, (0.0, 0.5, 2.0, 1.0)), (0.5, (1.0, 1.0, -0.5, 3.0))])
        spectra = [Spectrum(v) for v in path.weight_vectors()]
        kappa = estimate(ExperimentSpec("kappa", 4, path, 2049, 8, observable))
        product = estimate(ExperimentSpec("operator_product", 4, spectra, 2049, 8, observable))
        assert kappa == product
        want = prediction_for("operator_product", spectra, 4, observable)
        assert prediction_for("kappa", path, 4, observable) == want

    @pytest.mark.parametrize("observable", ["cosine", "norm_ratio"])
    @pytest.mark.parametrize("values", [[0.5, 1.0, 2.0, -0.3], [-1.5] * 4])
    def test_operator_is_one_factor_product(self, observable, values):
        one = estimate(ExperimentSpec("operator", 4, Spectrum(values), 2049, 9, observable))
        product = estimate(ExperimentSpec("operator_product", 4, [values], 2049, 9, observable))
        assert one == product
        if values[0] == -1.5:
            assert one.mean == (-1.0 if observable == "cosine" else 1.5)
        pred = prediction_for("operator", Spectrum(values), 4, observable)
        assert pred == prediction_for("operator_product", [values], 4, observable)

    @pytest.mark.parametrize(
        "geometry, schedule",
        [("sphere", (0.5, 1.0)), ("flat", (1.0,)), ("hyperbolic", (0.5,)),
         ("monomial", "x1_sq"), ("marginal", 4)],
    )
    def test_prediction_for_needs_a_dimension(self, geometry, schedule):
        with pytest.raises(ValueError, match=f"^{geometry} predictions need n_dim, got None$"):
            prediction_for(geometry, schedule, None)

    @pytest.mark.parametrize(
        "geometry, schedule, n",
        [("sphere", (0.5, 1.0), 5.5), ("flat", (1.0,), 5.5), ("hyperbolic", (0.5,), 5.5),
         ("monomial", "x1_sq", 5.5), ("marginal", 4, 5.5), ("sphere", (0.5,), 5.0),
         ("operator", [0.5, 2.0], 2.0), ("kappa", [(1.0, (0.0, 0.5))], 2.0)],
    )
    def test_prediction_for_takes_an_integer_dimension(self, geometry, schedule, n):
        # as ExperimentSpec does, with the same message
        with pytest.raises(ValueError, match=f"^n_dim must be an integer in the double range, got {n}$"):
            prediction_for(geometry, schedule, n)

    @pytest.mark.parametrize(
        "geometry, schedule", [("sphere", (0.5, 1.0)), ("flat", (1.0,)), ("hyperbolic", (0.5,))]
    )
    def test_float_predictors_cap_the_dimension(self, geometry, schedule):
        with pytest.raises(ValueError, match="double range"):
            prediction_for(geometry, schedule, 10**400)
        # the moments run in exact integer ratios: such an n reaches them,
        # and their underflow is a numeric failure, not a usage error
        for geometry, schedule in (("marginal", 2), ("monomial", "x1_sq")):
            with pytest.raises(PrecisionLossError):
                prediction_for(geometry, schedule, 10**400)

    def test_operator_rows_take_the_dimension_from_the_spectra(self):
        path = CurvaturePath([(1.0, (0.0, 0.5, 2.0))])
        assert prediction_for("operator", [0.5, 2.0], None) == prediction_for("operator", [0.5, 2.0], 2)
        assert prediction_for("kappa", path, None) == prediction_for("kappa", path, 3)

    def test_kappa_width_is_its_dimension(self):
        path = CurvaturePath([(1.0, (0.0, 0.5, 2.0))])
        with pytest.raises(ValueError, match="does not match"):
            ExperimentSpec("kappa", 4, path, 10, 1)


class TestEstimate:
    def test_worker_count_never_changes_results(self):
        spec = ExperimentSpec("sphere", 10, (0.7, 1.1), 5000, 77)
        one = estimate(spec, workers=1)
        assert estimate(spec, workers=2) == one
        assert estimate(spec, workers=8) == one

    def test_rerun_bitwise(self):
        spec = ExperimentSpec("hyperbolic", 8, (0.5, 0.5), 3000, 13)
        assert estimate(spec) == estimate(spec)

    def test_seed_changes_results(self):
        a = estimate(ExperimentSpec("flat", 10, (1.0, 1.0), 2000, 1))
        b = estimate(ExperimentSpec("flat", 10, (1.0, 1.0), 2000, 2))
        assert a.mean != b.mean

    def test_single_step_sphere_deterministic(self):
        est = estimate(ExperimentSpec("sphere", 12, (math.pi / 3,), 100, 5))
        assert est.mean == math.cos(math.pi / 3)
        assert est.sample_std == 0.0
        assert est.std_error == 0.0

    def test_single_step_flat_deterministic(self):
        est = estimate(ExperimentSpec("flat", 7, (1.5,), 100, 5))
        assert est.mean == 1.5 * 1.5
        assert est.sample_std == 0.0 and est.std_error == 0.0

    def test_single_step_hyperbolic_deterministic(self):
        est = estimate(ExperimentSpec("hyperbolic", 9, (0.8,), 100, 5))
        assert est.mean == math.cosh(0.8)
        assert est.sample_std == 0.0 and est.std_error == 0.0

    @pytest.mark.parametrize(
        "geometry, n, schedule",
        [("sphere", 3, (0.3,)), ("sphere", 3, (0.3, 1e-12)), ("flat", 3, (1e-5,)),
         ("flat", 3, (1e-5, 0.0)), ("hyperbolic", 10, (20.0,)), ("hyperbolic", 10, (20.0, 0.0)),
         ("flat", 3, (1e-150,)), ("flat", 3, (1e150,)), ("flat", 3, (1e154,)),
         ("hyperbolic", 10, (700.0,))],
        ids=["sphere", "sphere-snapped", "flat", "flat-zero-step", "hyperbolic", "hyperbolic-zero-arc",
             "flat-1e-150", "flat-1e150", "flat-1e154", "hyperbolic-700"],
    )
    def test_constant_chains_at_every_trial_count(self, geometry, n, schedule):
        # One step, or a later step of sine 0 (an angle of 1e-12 snaps to
        # it): every trial is the predicted constant, so the correctly
        # rounded chunk mean is that constant at any count (fsum / count was
        # an ulp off at about a quarter of the counts below 200), and so is
        # the merge of chunks.  Constants of about 1e-300, 1e300, 1e308 and
        # 5e303 are corrected too, in the chunk's frame.
        pred = prediction_for(geometry, schedule, n)
        for trials in [*range(2, 200), 2049, 4097]:
            est = estimate(ExperimentSpec(geometry, n, schedule, trials, 1))
            assert (est.mean, est.sample_std) == (pred.mean, 0.0), trials
            report = compare(pred, est)
            assert (report.verdict, report.z_mean) == ("pass", 0.0), trials

    def test_std_error_scales_with_trials(self):
        small = estimate(ExperimentSpec("flat", 20, (1.0, 1.0, 1.0), 4096, 31))
        large = estimate(ExperimentSpec("flat", 20, (1.0, 1.0, 1.0), 16384, 31))
        assert small.std_error / large.std_error == pytest.approx(2.0, rel=0.05)

    def test_single_trial_flagged(self):
        est = estimate(ExperimentSpec("flat", 6, (1.0, 2.0), 1, 9))
        assert est.insufficient_trials
        assert est.sample_std == 0.0 and est.std_error == 0.0

    def test_marginal_squares_the_monomial_coordinate(self):
        # same seed, same draws: E[t^2] sampling is the x1_sq monomial
        mono = estimate(ExperimentSpec("monomial", 10, "x1_sq", 3000, 44))
        marg = estimate(ExperimentSpec("marginal", 10, 2, 3000, 44))
        assert mono.mean == marg.mean

    def test_operator_scalar_spectrum_exact(self):
        spec = ExperimentSpec("operator", 5, Spectrum((1.0,) * 5), 500, 3)
        est = estimate(spec)
        assert est.mean == 1.0 and est.sample_std == 0.0

    def test_monomial_moment_agrees(self):
        spec = ExperimentSpec("monomial", 10, "x1_sq", 40000, 91)
        est = estimate(spec)
        assert abs(est.mean - 0.1) < 5 * est.std_error


class TestCompare:
    def test_pass_on_deterministic_exact_match(self):
        pred = prediction_for("sphere", (math.pi / 3,), 12)
        est = estimate(ExperimentSpec("sphere", 12, (math.pi / 3,), 50, 5))
        report = compare(pred, est)
        assert report.verdict == "pass"
        assert report.z_mean == 0.0
        assert report.std_ratio is None  # sigma_exact is 0 for one step

    def test_zero_std_error_mismatch_is_infinite_z(self):
        pred = Prediction("x", 0.9, sigma_exact=None, sigma_bound=None, deviation_order="o")
        est = MonteCarloEstimate(mean=1.0, sample_std=0.0, std_error=0.0, trials=100, seed=1)
        report = compare(pred, est)
        assert report.verdict == "fail"
        assert report.z_mean == math.inf

    def test_std_gate(self):
        pred = Prediction("x", 0.0, sigma_exact=1.0, sigma_bound=None, deviation_order="o")
        good = MonteCarloEstimate(mean=0.0, sample_std=1.05, std_error=0.01, trials=100, seed=1)
        bad = MonteCarloEstimate(mean=0.0, sample_std=1.5, std_error=0.01, trials=100, seed=1)
        assert compare(pred, good).verdict == "pass"
        report = compare(pred, bad)
        assert report.verdict == "fail"
        assert report.std_ratio == pytest.approx(1.5)

    def test_require_std_without_sigma_is_indeterminate(self):
        pred = Prediction("x", 0.0, sigma_exact=None, sigma_bound=None, deviation_order="o")
        est = MonteCarloEstimate(mean=0.0, sample_std=1.0, std_error=0.01, trials=100, seed=1)
        assert compare(pred, est, require_std=True).verdict == "indeterminate"
        assert compare(pred, est).verdict == "pass"

    def test_std_comparison_needs_two_trials(self):
        pred = Prediction("x", 0.0, sigma_exact=1.0, sigma_bound=None, deviation_order="o")
        est = MonteCarloEstimate(
            mean=0.0, sample_std=0.0, std_error=0.0, trials=1, seed=1,
            insufficient_trials=True,
        )
        with pytest.raises(ValueError, match="2 trials"):
            compare(pred, est)

    def test_std_comparison_at_two_trials(self):
        pred = Prediction("x", 0.0, sigma_exact=1.0, sigma_bound=None, deviation_order="o")
        est = MonteCarloEstimate(mean=0.0, sample_std=1.0, std_error=1.0 / math.sqrt(2),
                                 trials=2, seed=1)
        report = compare(pred, est)
        assert report.std_ratio == 1.0
        assert report.verdict == "pass"

    def test_rejects_bad_thresholds(self):
        pred = Prediction("x", 0.0, sigma_exact=None, sigma_bound=None, deviation_order="o")
        est = MonteCarloEstimate(mean=0.0, sample_std=1.0, std_error=0.1, trials=10, seed=1)
        with pytest.raises(ValueError, match="z_threshold"):
            compare(pred, est, z_threshold=0.0)
        with pytest.raises(ValueError, match="std_tolerance"):
            compare(pred, est, std_tolerance=-1.0)

    def test_z_threshold_boundary(self):
        pred = Prediction("x", 0.0, sigma_exact=None, sigma_bound=None, deviation_order="o")
        est = MonteCarloEstimate(mean=0.39, sample_std=1.0, std_error=0.1, trials=100, seed=1)
        assert compare(pred, est, z_threshold=4.0).verdict == "pass"
        est2 = MonteCarloEstimate(mean=0.41, sample_std=1.0, std_error=0.1, trials=100, seed=1)
        assert compare(pred, est2, z_threshold=4.0).verdict == "fail"

    def test_report_carries_inputs(self):
        pred = prediction_for("flat", (1.0, 1.0), 50)
        est = estimate(ExperimentSpec("flat", 50, (1.0, 1.0), 5000, 17))
        report = compare(pred, est)
        assert isinstance(report, ComparisonReport)
        assert report.prediction is pred
        assert report.estimate is est
        assert report.verdict == "pass"


class TestMonteCarloEstimateValidation:
    def test_rejects_negative_spread(self):
        with pytest.raises(ValueError, match=">= 0"):
            MonteCarloEstimate(mean=0.0, sample_std=-1.0, std_error=0.0, trials=2, seed=1)

    def test_rejects_std_error_above_sample_std(self):
        with pytest.raises(ValueError, match="exceed"):
            MonteCarloEstimate(mean=0.0, sample_std=0.1, std_error=0.2, trials=2, seed=1)


def _linear(n, low=0.2, high=1.0):
    return Spectrum(np.linspace(low, high, n))


class TestChunkStreams:
    # Chunk k of 2048 trials draws from the stream (seed, k): partial last
    # chunks and chunk boundaries must not depend on the worker count.
    SPECS = (
        ("sphere", 10, (0.7, 1.1, 2.0), None),
        ("operator_product", 6, (_linear(6), Spectrum((-1.0,) * 6), _linear(6, -1.0, 0.5)), "cosine"),
        ("marginal", 5, 3, None),
    )

    # These specs draw too little per chunk to pass the fan-out cut, so the
    # cut is lowered to 0 and workers = 2 runs threads on every geometry.
    @pytest.mark.parametrize("trials", [2047, 2048, 2049, 4097])
    @pytest.mark.parametrize("geometry, n, schedule, observable", SPECS)
    def test_workers_and_reruns_bitwise(self, monkeypatch, trials, geometry, n, schedule, observable):
        monkeypatch.setattr(montecarlo, "_FANOUT_DRAWS", 0)
        spec = ExperimentSpec(geometry, n, schedule, trials, 29, observable)
        one = estimate(spec, workers=1)
        assert estimate(spec, workers=1) == one
        assert estimate(spec, workers=2) == one

    # The geometries SPECS leaves out, at four chunks; 8 workers exceed them.
    # All but the chain of 33 steps draw too little per chunk to fan out, so
    # the cut is lowered to 0 here too.
    FAN_SPECS = (
        ("flat", 12, (1.0, 0.5, 2.0), None),
        ("hyperbolic", 9, (0.4, 1.2, 0.8), None),
        ("operator", 7, _linear(7, -0.5, 2.0), "norm_ratio"),
        ("flat", 12, (1.0, 0.5) * 16 + (2.0,), None),
    )

    @pytest.mark.parametrize("geometry, n, schedule, observable", FAN_SPECS)
    def test_worker_counts_bitwise(self, monkeypatch, geometry, n, schedule, observable):
        monkeypatch.setattr(montecarlo, "_FANOUT_DRAWS", 0)
        spec = ExperimentSpec(geometry, n, schedule, 3 * 2048 + 100, 31, observable)
        one = estimate(spec, workers=1)
        for workers in (2, 3, 8):
            assert estimate(spec, workers=workers) == one

    def test_chunks_run_in_the_calling_process(self, monkeypatch):
        seen = []

        def recording(*task):
            seen.append((os.getpid(), multiprocessing.active_children()))
            return _chunk_stats(*task)

        monkeypatch.setattr(montecarlo, "_chunk_stats", recording)
        # 33 steps draw enough per chunk to go to threads.
        spec = ExperimentSpec("sphere", 10, (0.7, 1.1) * 16 + (0.3,), 4 * 2048 + 1, 29)
        estimate(spec, workers=2)
        assert seen == [(os.getpid(), [])] * 5
        assert multiprocessing.active_children() == []

    # chains-highdim's sphere spec draws 8 uniforms per trial, for 4
    # coordinates, below the fan-out cut of 2^17 variates per chunk, 64 per
    # trial; the n = 400 operator spec draws 400.  Flat chains of 32 and 33
    # steps draw 62 and 64, one each side of the cut.
    SPHERE_SPEC = ("sphere", 200, (math.pi / 3,) * 5, None)
    OPERATOR_SPEC = ("operator", 400, Spectrum(np.arange(1, 401) / 400), "norm_ratio")

    @pytest.mark.parametrize(
        "geometry, n, schedule, observable, fans_out",
        [
            (*SPHERE_SPEC, False),
            ("flat", 12, (1.0,) * 32, None, False),
            ("flat", 12, (1.0,) * 33, None, True),
            (*OPERATOR_SPEC, True),
        ],
    )
    def test_fan_out_only_past_the_cut(self, monkeypatch, geometry, n, schedule, observable, fans_out):
        pools, threads = [], []

        class RecordingPool(montecarlo.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        def recording(*task):
            threads.append(threading.get_ident())
            return _chunk_stats(*task)

        spec = ExperimentSpec(geometry, n, schedule, 2 * 2048 + 1, 41, observable)
        one = estimate(spec, workers=1)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo, "_chunk_stats", recording)
        assert estimate(spec, workers=2) == one
        assert len(threads) == 3
        if fans_out:
            assert pools == [2] and threading.get_ident() not in threads
        else:
            assert pools == [] and set(threads) == {threading.get_ident()}

    def test_chunk_draws_from_its_own_stream(self):
        spec = ExperimentSpec("sphere", 10, (0.7, 1.1), 2049, 29)
        first = _trial_values(spec, 0, 2048)
        last = _trial_values(spec, 1, 1)
        values = np.concatenate([first, last])
        # equal up to the rounding of the chunk-order merge
        assert estimate(spec).mean == pytest.approx(math.fsum(values.tolist()) / 2049, rel=1e-12)
        # a shorter chunk on the same stream is a prefix of the longer one
        np.testing.assert_array_equal(_trial_values(spec, 0, 2047), first[:2047])


@st.composite
def _mean_inputs(draw):
    """Chunks of 1 to 2049 values: one constant, a constant with one value
    nudged by 2^-50 to 2^-300 of it, values over a drawn exponent range,
    values near the ends of the double range, whose sum can pass it, and
    pairs +-v in [1/2, 1) that cancel beside one to four values of 2^-940
    to 2^-1074, so that the mean lies below 2^-960 or is subnormal."""
    size = draw(st.integers(1, 2049))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    value = draw(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    shape = draw(st.sampled_from(["constant", "nudged", "spread", "ends", "cancel"]))
    x = np.full(size, value)
    if shape == "nudged":
        x[gen.integers(size)] += value * 2.0 ** -float(gen.integers(50, 301))
    elif shape == "spread":
        lo = draw(st.integers(-1074, 903))
        x = gen.uniform(-1.0, 1.0, size) * np.exp2(gen.integers(lo, lo + 120, size).astype(float))
    elif shape == "ends":
        x = gen.uniform(0.5, 1.0, size) * draw(st.sampled_from([2.0**-1021, 2.0**-960, 2.0**990, 2.0**1023]))
    elif shape == "cancel":
        k = min(size, draw(st.integers(1, 4)))
        tiny = gen.uniform(-1.0, 1.0, k) * np.exp2(-gen.integers(940, 1075, k).astype(float))
        pairs = gen.uniform(0.5, 1.0, (size - k) // 2)
        x = gen.permutation(np.concatenate([pairs, -pairs, tiny, np.zeros((size - k) % 2)]))
    return x


def _assert_nearest(got, exact):
    # got is the double nearest the fraction exact, ties to even: within half
    # an ulp, the gap to its neighbour on exact's side, and even at a tie.
    error = abs(Fraction(got) - exact)
    if error:
        neighbour = math.nextafter(got, math.inf if exact > got else -math.inf)
        gap = abs(Fraction(neighbour) - Fraction(got))
        assert 2 * error <= gap, (got.hex(), exact)
        if 2 * error == gap:
            assert Fraction(got) / Fraction(math.ulp(got)) % 2 == 0, (got.hex(), exact)


def _midpoint_below_the_frame():
    # 64 positive values in the frame of 2^100: 0.75; 2^-54 - 2^-1023 as a
    # telescoping sum of values no smaller than 2^-1023; and 2^-1023 +
    # 2^-1075, which the frame rounds to even, to 2^-1023, the least value
    # there.  Their exact sum lies 2^-1075 above the midpoint 0.75 + 2^-54,
    # so the mean rounds up; the frame's sum lies on it and rounds down.
    parts = [2.0 ** (-54 - 52 * k) - 2.0 ** (-106 - 52 * k) for k in range(18)]
    parts += [2.0**-j for j in range(991, 1024)]
    for j in range(991, 1002):
        parts.remove(2.0**-j)
        parts += [2.0 ** (-j - 1)] * 2
    return np.array([math.ldexp(v, 100) for v in [0.75, *parts]] + [2.0**-923 + 2.0**-975])


# Pairs that cancel beside values near 2^-976, one subnormal: their mean
# lies below 2^-960, and fsum / 6 is 0.64 ulp off it.
_CANCELLING = np.array([0.75, -0.75] + [float.fromhex(h) for h in (
    "-0x1.a26a25d1df782p-991", "-0x1.19d9c9dadc94ap-973",
    "0x0.000051c236662p-1022", "0x1.1f44ebca9819cp-988",
)])


class TestChunkStats:
    def test_m2_matches_the_scalar_loop(self):
        # The reference squares each deviation as a Python float; x ** 2 there
        # is libm pow, which can be one ulp off the exact square d * d.
        spec = ExperimentSpec("hyperbolic", 9, (0.4, 1.2, 0.8), 2048, 3)
        values = _trial_values(spec, 0, 2048).tolist()
        mean = math.fsum(values) / len(values)
        want = math.fsum((v - mean) ** 2 for v in values)
        count, got_mean, m2, e = _chunk_stats(spec, 0, 2048)
        assert (count, got_mean) == (2048, mean)
        assert math.ldexp(m2, 2 * e) == pytest.approx(want, rel=1e-15)

    def test_deviations_scale_into_range(self):
        # M2 is carried as (M2 / 4^e, e) in the chunk's frame, 2^e just above
        # the largest |value|: each deviation there lies below 2, so the
        # scaled M2 lies in [0, 4 count).
        spec = ExperimentSpec("hyperbolic", 9, (0.4, 1.2, 0.8), 2048, 3)
        _, mean, m2, e = _chunk_stats(spec, 0, 2048)
        values = _trial_values(spec, 0, 2048)
        assert 2.0 ** (e - 1) <= np.abs(values).max() < 2.0**e
        assert 0.0 <= m2 < 4 * 2048

    def test_m2_of_a_one_ulp_spread_is_exact(self, monkeypatch):
        # Near the least M2 of a chunk that is not constant: one value an ulp
        # above the rest, whose mean rounds to them.  M2 is then exactly
        # sum (x - 0.75)^2 = 2^-106, at least the bound 2^-110.
        values = np.full(2048, 0.75)
        values[-1] = math.nextafter(0.75, 1.0)
        monkeypatch.setattr(montecarlo, "_trial_values", lambda *task: values)
        spec = ExperimentSpec("flat", 3, (1.0,), 2048, 1)
        count, mean, m2, e = _chunk_stats(spec, 0, 2048)
        assert (count, mean, e) == (2048, 0.75, 0)
        exact = sum((Fraction(v) - Fraction(3, 4)) ** 2 for v in values.tolist())
        assert m2 == exact == 2.0**-106

    @pytest.mark.parametrize(
        "geometry, n, schedule",
        [("flat", 3, (1e150, 1e150)), ("hyperbolic", 3, (150.0,) * 3), ("flat", 5, (1e-150,) * 2)],
        ids=["flat-1e150", "hyperbolic-150", "flat-1e-150"],
    )
    def test_spread_past_the_square_range(self, geometry, n, schedule):
        # Squared deviations of about 1e600, 1e388 and 1e-600 leave the
        # double range; the scaled statistics still give the spread, without
        # a warning, and the same at any worker count.
        spec = ExperimentSpec(geometry, n, schedule, 3 * 2048 + 5, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate(spec)
            assert estimate(spec, workers=2) == est
        sigma = prediction_for(geometry, schedule, n).sigma_exact
        assert 0.9 <= est.sample_std / sigma <= 1.1

    def test_merge_rescales_like_the_unscaled_sum(self):
        # Chunks at different exponents merge to the unscaled merge's bits.
        spec = ExperimentSpec("flat", 4, (0.5, 2.0, 1.0), 2 * 2048 + 7, 13)
        chunks = [_chunk_stats(spec, k, c) for k, c in enumerate((2048, 2048, 7))]
        count, mean, m2 = chunks[0][0], chunks[0][1], math.ldexp(chunks[0][2], 2 * chunks[0][3])
        for k, m, s2, f in chunks[1:]:
            total = count + k
            delta = m - mean
            mean = mean + delta * (k / total)
            m2 = m2 + math.ldexp(s2, 2 * f) + delta * delta * (count * k / total)
            count = total
        est = estimate(spec)
        assert est.mean == mean
        assert est.sample_std == math.sqrt(m2 / (spec.trials - 1))

    def test_spread_past_double_range_raises_without_warning(self, monkeypatch):
        # Deviations of 1.7e308 fit, but the spread does not.
        monkeypatch.setattr(
            montecarlo, "_trial_values", lambda *task: np.array([1.7e308, -1.7e308])
        )
        spec = ExperimentSpec("flat", 3, (1.0,), 2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                estimate(spec)

    def test_overflowing_square_raises_without_warning(self, monkeypatch):
        # Nothing overflows in the chunk's frame, but the spread, 1.96e308,
        # passes the double range: one OverflowError that names it.
        monkeypatch.setattr(
            montecarlo, "_trial_values", lambda *task: np.array([1.7e308, -1.7e308, 1.7e308])
        )
        spec = ExperimentSpec("flat", 3, (1.0,), 3, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                OverflowError, match="^the sample standard deviation passes the double range$"
            ):
                estimate(spec)

    def test_overflowing_deviation_with_a_spread_in_range(self, monkeypatch):
        # The deviation of -1.7e308 from a mean near 1.7e308 passes the double
        # range, but the spread does not; the frame gives it, without a warning.
        values = np.full(1001, 1.7e308)
        values[-1] = -1.7e308
        monkeypatch.setattr(montecarlo, "_trial_values", lambda *task: values)
        spec = ExperimentSpec("flat", 3, (1.0,), 1001, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate(spec)
        assert est.sample_std == 1.0746372201097237e307
        _assert_nearest(est.mean, sum(map(Fraction, values.tolist())) / 1001)

    def test_merge_of_opposite_means_at_the_range_ends(self, monkeypatch):
        # Chunk means of 1.7e308 and -1.7e308 differ by more than the double
        # range, but not in their common frame: mean 0, and the spread fits.
        monkeypatch.setattr(
            montecarlo, "_trial_values",
            lambda spec, index, count: np.full(count, -1.7e308 if index else 1.7e308),
        )
        spec = ExperimentSpec("flat", 3, (1.0,), 4096, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate(spec)
        assert est.mean == 0.0
        assert est.sample_std == pytest.approx(1.7e308 * math.sqrt(4096 / 4095), rel=1e-15)

    def test_mean_of_a_sum_past_the_double_range(self, monkeypatch):
        # The values fit but their sum does not: the mean comes from the
        # values scaled by a power of two, exactly, and without a warning.
        values = np.array([1.5e308, 1.7e308, 1.2e308, 1.6e308])
        monkeypatch.setattr(montecarlo, "_trial_values", lambda *task: values)
        spec = ExperimentSpec("flat", 3, (1.0,), 4, 1)
        with pytest.raises(OverflowError):
            math.fsum(values.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count, mean, m2, e = _chunk_stats(spec, 0, 4)
            est = estimate(spec)
        _assert_nearest(mean, sum(map(Fraction, values.tolist())) / 4)
        assert est.mean == mean
        scaled_std = float(np.std(values * 2.0**-600, ddof=1))
        assert est.sample_std == pytest.approx(scaled_std * 2.0**600, rel=1e-15)

    def test_hyperbolic_chunk_mean_past_the_double_range(self):
        # Arcs of 236 give values near 1e306, whose sum over 64 trials
        # overflows; in the chunk's frame the mean is correctly rounded
        # whether the sum fits or not.
        spec = ExperimentSpec("hyperbolic", 3, (236.0,) * 3, 64, 1)
        values = _trial_values(spec, 0, 64).tolist()
        with pytest.raises(OverflowError):
            math.fsum(values)
        for k in (1, 2, 3, 64):
            exact = sum(map(Fraction, _trial_values(spec, 0, k).tolist())) / k
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _assert_nearest(_chunk_stats(spec, 0, k)[1], exact)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_mean_inputs())
    @example(_CANCELLING)
    @example(np.array([0.75 * 2.0**1000, -0.75 * 2.0**1000, 1.1 * 2.0**-30]))
    @example(np.array([0.75 * 2.0**60, -0.75 * 2.0**60, -1.3e-310]))
    @example(np.array([0.75 * 2.0**100, 2.0**46, 2.0**-980, 2.0**-980]))
    @example(_midpoint_below_the_frame())
    def test_chunk_mean_is_correctly_rounded(self, x):
        # The mean of a chunk's extracted terms against the exact mean in
        # fractions, and the chunk's mean, unscaled from its frame, subnormal
        # or not.
        exact = sum(map(Fraction, x.tolist())) / x.size
        _assert_nearest(_chunk_mean(_exact_terms(x), x.size), exact)
        spec = ExperimentSpec("flat", 3, (1.0,), x.size, 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_trial_values", lambda *task: x)
            got = _chunk_stats(spec, 0, x.size)[1]
        _assert_nearest(got, exact)

    def test_mean_of_a_chunk_that_cancels_below_2_to_the_minus_960(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_trial_values", lambda *task: _CANCELLING)
        spec = ExperimentSpec("flat", 3, (1.0,), _CANCELLING.size, 1)
        assert estimate(spec).mean.hex() == "-0x1.77ca9a8f689a9p-976"

    def test_mean_of_values_spread_past_the_frame(self, monkeypatch):
        # In the frame of 0.75 2^1000 the third value is subnormal and loses
        # 8 bits; the mean comes from the values as they are, rounded once.
        values = np.array([0.75 * 2.0**1000, -0.75 * 2.0**1000, 1.1 * 2.0**-30])
        monkeypatch.setattr(montecarlo, "_trial_values", lambda *task: values)
        spec = ExperimentSpec("flat", 3, (1.0,), 3, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate(spec)
        assert est.mean.hex() == "0x1.7777777777778p-32"
        _assert_nearest(est.mean, sum(map(Fraction, values.tolist())) / 3)
        assert est.sample_std == pytest.approx(0.75 * 2.0**1000, rel=1e-15)

    def test_chunk_mean_near_a_midpoint(self):
        # (1 + 2^-53 + 2^-160) / 2 lies 2^-161 above the midpoint of 1/2 and
        # its successor, so it rounds up; a mean that lost the 2^-160 would
        # land on the midpoint and round to even, 1/2.
        assert _chunk_mean([1.0, 2.0**-53, 2.0**-160], 2) == 0.5 + 2.0**-53
        assert _chunk_mean([-1.0, -(2.0**-53), -(2.0**-160)], 2) == -(0.5 + 2.0**-53)
        # Below a power of two the gap halves: 2 - 2^-53 - 2^-160 over 2 lies
        # just below the midpoint of 1 and its predecessor.
        assert _chunk_mean([2.0, -(2.0**-53), -(2.0**-160)], 2) == 1.0 - 2.0**-53

    @pytest.mark.parametrize(
        "value", [math.cos(0.3), 1.0 / 3.0, -2.5e-7, 1e200, 1e-280, 1e-300, 1.7e308, 5e-324]
    )
    def test_merge_keeps_equal_chunk_means(self, monkeypatch, value):
        # Three chunks of one constant: each mean is the constant, and the
        # merge adds delta = 0 to it.
        monkeypatch.setattr(
            montecarlo, "_trial_values", lambda spec, index, count: np.full(count, value)
        )
        spec = ExperimentSpec("flat", 3, (1.0,), 2 * 2048 + 35, 1)
        for index, count in enumerate((2048, 2048, 35)):
            assert _chunk_stats(spec, index, count)[1] == value
        est = estimate(spec)
        assert (est.mean, est.sample_std) == (value, 0.0)

    def test_infinite_observable_gives_nan_spread_without_warning(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_trial_values", lambda *task: np.array([1.0, math.inf]))
        spec = ExperimentSpec("flat", 3, (1.0,), 2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count, mean, m2, e = _chunk_stats(spec, 0, 2)
        assert mean == math.inf and math.isnan(m2) and e == 0


def _fsum_outcome(values):
    # fsum's result as its 8 bytes (so nan payloads and zero signs count),
    # or its exception's type and message.
    try:
        return struct.pack("<d", values())
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_sums_like_fsum(x):
    x = np.asarray(x, dtype=np.float64)
    want = _fsum_outcome(lambda: math.fsum(x.tolist()))
    assert _fsum_outcome(lambda: math.fsum(_exact_terms(x))) == want


_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 2.0**1000, -(2.0**1000), 2.0**-1000,
            2.0**1023, 5e-324, -5e-324, 2.0**-1022, 2.0**-53, -(2.0**-53), 1.0]


@st.composite
def _sum_inputs(draw):
    """Arrays of the sizes around the chunk size and the 16-value cut-off:
    mixed magnitudes over a drawn exponent range, subnormals, exact
    cancellation, trains of 2^-53 on 1.0 (half-ulp ties), and special values."""
    size = draw(st.sampled_from([0, 1, 16, 17, 2047, 2048, 2049]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-1074, 1023))
    hi = draw(st.integers(lo, min(lo + 200, 1023)))
    x = gen.uniform(-1.0, 1.0, size) * np.exp2(gen.integers(lo, hi + 1, size).astype(float))
    shape = draw(st.sampled_from(["mixed", "cancel", "ties"]))
    if shape == "cancel":
        half = size // 2
        x[half:2 * half] = -x[:half]
        x = gen.permutation(x)
    elif shape == "ties":
        x[:] = gen.choice([2.0**-53, -(2.0**-53), 0.0], size)
        x[: min(size, 2)] = draw(st.sampled_from([1.0, 1.0 + 2.0**-52, -1.0, 2.0**-1000]))
    for _ in range(draw(st.integers(0, 3)) if size else 0):
        value = draw(st.sampled_from(_SPECIAL) | st.floats(width=64))
        x[draw(st.integers(0, size - 1))] = value
    return x


class TestExactSum:
    @settings(max_examples=400, deadline=None)
    @given(_sum_inputs())
    def test_equals_fsum_bitwise(self, x):
        _assert_sums_like_fsum(x)

    @pytest.mark.parametrize(
        "x",
        [
            [],
            [-0.0],
            [-0.0] * 17,
            [0.0, -0.0] * 1024,
            [1.0, -1.0] * 1024 + [-0.0],
            [1.0, 2.0**-53] + [0.0] * 15,
            [1.0 + 2.0**-52, 2.0**-53] + [0.0] * 15,
            [1.0] + [2.0**-53] * 2047,
            [1.0] + [2.0**-53, -(2.0**-53)] * 1023 + [2.0**-53],
            [5e-324] * 2049,
            [2.0**-1022, -5e-324] * 1024,
            [2.0**1000] * 2048,
            [2.0**1023, 2.0**1023] + [0.0] * 15,
            [1e308] * 17 + [-1e308] * 17,
            [math.inf, -math.inf] + [1.0] * 15,
            [math.inf] + [1.0] * 2047,
            [math.nan] + [1.0] * 2047,
            [1e100, 1.0, -1e100] + [2.0**-60] * 14,
        ],
        ids=lambda x: f"{len(x)}-values",
    )
    def test_adversarial_cases(self, x):
        _assert_sums_like_fsum(x)

    @pytest.mark.parametrize("size", [17, 2048, 2049])
    @pytest.mark.parametrize("spread", [60, 300, 890])
    def test_spread_magnitudes(self, size, spread):
        gen = np.random.default_rng(size + spread)
        scale = np.exp2(gen.integers(-spread, spread + 1, size).astype(float))
        x = gen.uniform(-1.0, 1.0, size) * scale
        _assert_sums_like_fsum(x)
        _assert_sums_like_fsum(np.concatenate([x, -x[::-1]]))

    def test_known_sums(self):
        def exact_sum(values):
            return math.fsum(_exact_terms(np.array(values)))

        assert exact_sum([1.0, 2.0**-53] + [0.0] * 15) == 1.0
        assert exact_sum([1.0 + 2.0**-52, 2.0**-53] + [0.0] * 15) == 1.0 + 2.0**-51
        assert exact_sum([1.0] + [2.0**-53] * 2048) == 1.0 + 2.0**-42
        cancelled = exact_sum([0.1, -0.3, 0.7] * 683 + [-0.1, 0.3, -0.7] * 683)
        assert cancelled == 0.0 and math.copysign(1.0, cancelled) == 1.0

    @pytest.mark.parametrize("exponent, size", [(1005, 2048), (-950, 2048), (-1054, 2049)])
    def test_extracts_at_the_ends_of_the_range(self, exponent, size):
        # Extraction needs only that x + 2^k cannot overflow: values near
        # 2^1005, near 2^-950 and subnormal (multiples of 5e-324 below
        # 2^-1054) reduce to a few terms.
        x = np.ldexp(np.random.default_rng(size).uniform(-1.0, 1.0, size), exponent)
        terms = _exact_terms(x)
        assert len(terms) <= 64
        assert math.fsum(terms) == math.fsum(x.tolist())

    @pytest.mark.parametrize(
        "spec, most",
        [(ExperimentSpec("sphere", 10, (0.7, 1.1, 2.0), 2048, 5), 3),
         (ExperimentSpec("marginal", 10**6, 8, 2048, 5), 3),
         (ExperimentSpec("sphere", 10, (0.7,), 2048, 5), 0),
         (ExperimentSpec("sphere", 3, (0.0, 0.0), 2048, 5), 0)],
        ids=["sphere", "marginal-t8", "sphere-one-step", "sphere-n3-theta0"],
    )
    def test_chunk_sums_hand_fsum_few_values(self, spec, most, monkeypatch):
        # A chunk's means, in its frame and unscaled, reach _chunk_mean, and
        # its M2 math.fsum, as one round sum, one residual sum and at most a
        # bound, never as one float per trial; _chunk_mean hands fsum only
        # what it got.  A constant chunk's squared deviations are all zero,
        # and the M2's fsum gets none of them.
        sizes = {"fsum": [], "mean": [], "fsum in mean": []}
        fsum, chunk_mean = math.fsum, montecarlo._chunk_mean
        inside = []

        def counting_fsum(values):
            values = list(values)
            sizes["fsum in mean" if inside else "fsum"].append(len(values))
            return fsum(values)

        def counting_mean(terms, count, s=0):
            sizes["mean"].append(len(terms))
            inside.append(1)
            try:
                return chunk_mean(terms, count, s)
            finally:
                inside.pop()

        monkeypatch.setattr(montecarlo.math, "fsum", counting_fsum)
        monkeypatch.setattr(montecarlo, "_chunk_mean", counting_mean)
        _chunk_stats(spec, 0, 2048)
        assert sizes["fsum"] and max(sizes["fsum"]) <= most
        assert sizes["mean"] and max(sizes["mean"] + sizes["fsum in mean"]) <= 3
        if most == 0:
            assert sizes["fsum"] == [0]


def _outcome(f, terms):
    # f's result as bytes per float (zero signs and nan payloads count), or
    # its exception's type and message.
    try:
        value = f(terms)
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return b"".join(struct.pack("<d", v) for v in (value if isinstance(value, tuple) else (value,)))


def _top(x):
    # The largest |value| as _chunk_stats takes it: nan wins, 0 for no values.
    return max(float(x.max()), -float(x.min())) if x.size else 0.0


def _certified_maps(count, s):
    return {
        "fsum": math.fsum,
        "frame-mean": partial(_chunk_mean, count=count),
        "scaled-mean": partial(_chunk_mean, count=count, s=s),
        "pair": lambda t: (_chunk_mean(t, count), _chunk_mean(t, count, s)),
    }


# One chunk of each geometry of the benchmark's sweep; marginal t^3 has values of both signs.
_SWEEP_CHUNKS = [
    ExperimentSpec("sphere", 10, (0.7, 1.1, 2.0), 2048, 5),
    ExperimentSpec("flat", 7, (0.3, 1.9, 1.2), 2048, 5),
    ExperimentSpec("hyperbolic", 12, (0.5, 1.4), 2048, 5),
    ExperimentSpec("monomial", 10, "x1sq_x2sq", 2048, 5),
    ExperimentSpec("marginal", 40, 3, 2048, 5),
]


class TestCertifiedSum:
    """_certified against the exact sum it stands for: f of _exact_terms."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_sum_inputs())
    @example(np.array([1.0, 2.0**-53] + [0.0] * 15))
    @example(np.array([0.1, -0.3, 0.7] * 683 + [-0.1, 0.3, -0.7] * 683))
    @example(np.ldexp([0.75, -0.75 + 2**-48, -3 * 2**-51, -3 * 2**-51, -(2**-50) + 2**-92] + [0.0] * 12, -982))
    def test_equals_f_of_the_exact_terms_bitwise(self, x):
        # Each input is taken into its frame, as _chunk_stats does, and
        # summed by every map _chunk_stats hands _certified.  In the last
        # example S = 2^-48 and R = -2^-48 + 2^-92 straddle 0 within B =
        # 2^-91: both ends of the unscaled mean round to a zero, of opposite
        # signs, and only the sign test on S + R sends it to the fallback's +0.
        s = _exponent(_top(x))
        if x.size and math.isfinite(_top(x)):
            x = np.ldexp(x, -s)
        for name, f in _certified_maps(max(x.size, 1), s).items():
            want = _outcome(f, _exact_terms(x))
            assert _outcome(lambda _: _certified(f, x, _top(x)), None) == want, name

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([17, 100, 2047, 2048, 2049]),
        shape=st.sampled_from(["uniform", "sorted", "alternating", "halves", "one-sign"]),
    )
    def test_residual_sum_is_within_its_bound(self, seed, size, shape):
        # The residuals of the round lie below 2^(k - 53): here they fill
        # that range with 60 exponents, sorted or in alternating signs.  Half
        # the values are their own residual (q = 0) and keep all their bits,
        # so numpy's sum of the residuals rounds.  The bound _certified hands
        # f must cover the distance from S + R to the exact sum.
        gen = np.random.default_rng(seed)
        r = gen.uniform(-1.0, 1.0, size) * np.exp2(-gen.integers(0, 60, size).astype(float))
        if shape == "sorted":
            r = np.sort(r)
        elif shape == "alternating":
            r = np.abs(r) * np.where(np.arange(size) % 2, -1.0, 1.0)
        elif shape == "halves":
            r = np.where(abs(r) > 0.5, np.copysign(1.0 - 2.0**-53, r), 0.5)
        elif shape == "one-sign":
            r = np.abs(r)
        k = (size + 1).bit_length()  # sigma = 2^k at a top in [1/2, 1)
        m = gen.integers(-(2 ** (51 - k)), 2 ** (51 - k), size) * (gen.random(size) < 0.5)
        x = m * 2.0 ** (k - 52) + r * 2.0 ** (k - 53)
        x[0] = 0.75
        calls = []
        _certified(lambda terms: calls.append(terms), x, _top(x))
        (S, R, lo), (_, _, hi) = calls
        assert -lo == hi == 2.0**(k - 106 + 2 * size.bit_length())
        exact = sum(map(Fraction, x.tolist()))
        assert abs(exact - Fraction(S) - Fraction(R)) <= Fraction(hi)

    def test_half_ulp_tie_takes_the_fallback(self, monkeypatch):
        # 1 + 2^-53 is a midpoint: the round leaves its rounding open (the
        # ends of S + R -/+ B round apart), so _exact_terms settles it.
        calls = []
        exact_terms = montecarlo._exact_terms
        monkeypatch.setattr(montecarlo, "_exact_terms", lambda x: calls.append(x.size) or exact_terms(x))
        x = np.array([1.0, 2.0**-53] + [0.0] * 15)
        assert _certified(math.fsum, x, 1.0) == 1.0
        assert calls == [17]

    @pytest.mark.parametrize("exponent, fallbacks", [(1010, 0), (1011, 0), (1012, 1)])
    def test_a_sigma_past_the_range_takes_the_fallback(self, exponent, fallbacks, monkeypatch):
        # At 2048 values sigma is 2^12 above the top's exponent: 2^1023 for
        # a top below 2^1011, and past the double range from 2^1011 on.
        calls = []
        exact_terms = montecarlo._exact_terms
        monkeypatch.setattr(montecarlo, "_exact_terms", lambda x: calls.append(x.size) or exact_terms(x))
        x = np.ldexp(np.random.default_rng(exponent).uniform(0.5, 1.0, 2048), exponent)
        assert _certified(math.fsum, x, _top(x)) == math.fsum(x.tolist())
        assert len(calls) == fallbacks

    @pytest.mark.parametrize("spec", _SWEEP_CHUNKS, ids=lambda spec: spec.geometry)
    def test_chunk_m2_is_fsum_of_its_squared_deviations(self, spec):
        # The certified round takes M2's top from the chunk's extreme values.
        count, mean, m2, s = _chunk_stats(spec, 0, 2048)
        x = np.ldexp(_trial_values(spec, 0, 2048), -s)
        assert m2 == math.fsum(np.square(x - math.fsum(x.tolist()) / 2048).tolist())

    @pytest.mark.parametrize("spec", _SWEEP_CHUNKS, ids=lambda spec: spec.geometry)
    def test_sweep_chunks_need_no_fallback(self, spec, monkeypatch):
        # One round settles every sum of an ordinary chunk, which is what
        # makes it cheaper than _exact_terms' rounds.
        calls = []
        monkeypatch.setattr(montecarlo, "_exact_terms", lambda x: calls.append(x.size))
        _chunk_stats(spec, 0, 2048)
        assert calls == []


def _chunk_mean_by_division(terms, count, s=0):
    # _chunk_mean before its power-of-two path: integer true division of the
    # exact sum, in units of 2^-1074, for every count.
    try:
        total = sum(n << (1075 - d.bit_length()) for n, d in map(float.as_integer_ratio, terms))
    except (OverflowError, ValueError):
        return math.ldexp(math.fsum(terms) / count, s)
    return total / (count << (1074 - s))


@st.composite
def _mean_terms(draw):
    """(terms, count, s) with counts 2^0 to 2^11 and others, s from -1100 to
    1024, and up to four terms: any finite doubles; terms scaled so that the
    mean is normal, or lies at or past an end of the normal range; a
    subnormal midpoint (j + 1/2) 2^-1074 beside a term far below it, which
    a rounded sum loses before it rounds again; zeros of either sign; sums
    whose float adds overflow; and inf and nan terms."""
    shape = draw(st.sampled_from(["any", "normal", "edge", "midpoint", "zero", "overflow", "special"]))
    count = draw(st.sampled_from([2**k for k in range(12)]) | st.integers(1, 5000))
    s = draw(st.integers(-1100, 1024))
    terms = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
    if shape in ("normal", "edge"):
        # The mean's exponent, as frexp gives it, lies near target.
        edges = [-1080, -1075, -1074, -1073, -1060, -1023, -1022, -1021, 1024, 1025]
        target = draw(st.integers(-1021, 1023) if shape == "normal" else st.sampled_from(edges))
        e = min(max(target - s + count.bit_length() - 1, -1200), 1023)
        units = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
        terms = [math.ldexp(u, e) for u in units]
    elif shape == "midpoint":
        k, e = draw(st.integers(0, 11)), draw(st.integers(-1000, 20))
        count, s = 2**k, k - 1075 - e
        tiny = draw(st.sampled_from([1.0, -1.0])) * 2.0 ** (e - 60)
        terms = [math.ldexp(2 * draw(st.integers(0, 2**20)) + 1, e), tiny]
    elif shape == "zero":
        zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=3))
        terms = zeros + draw(st.sampled_from([[], [*terms, *(-t for t in terms)]]))
    elif shape == "overflow":
        terms = [1.7e308, 1.7e308, *terms]
    elif shape == "special":
        specials = st.sampled_from([math.inf, -math.inf, math.nan])
        for special in draw(st.lists(specials, min_size=1, max_size=2)):
            terms.insert(draw(st.integers(0, len(terms))), special)
    return terms, count, s


class TestChunkMean:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_mean_terms())
    @example(([1.0, 2.0**-53, 2.0**-160], 2, 0))
    @example(([1.0, 2.0**-53], 2048, 0))
    @example(([1.5, -(2.0**-60)], 1, -1074))
    @example(([1.5, -(2.0**-60)], 2048, -1063))
    @example(([-0.0], 2048, 0))
    @example(([2.0**-1022, 2.0**-1074], 1, 0))
    @example(([2.0**-1011], 2048, 0))
    @example(([2.0**-1011, -(2.0**-1063)], 2048, 0))
    @example(([0.75, 0.75], 1, 1023))
    @example(([0.75, 0.75], 2, 1024))
    @example(([1.7e308, 1.7e308], 4, 0))
    @example(([math.inf, -math.inf], 2048, 0))
    @example(([math.nan, 1.0], 2048, 0))
    def test_power_of_two_path_equals_the_division(self, case):
        # Byte for byte, zero signs included, or the same exception type and
        # message: fsum rounds the exact sum once, and scaling by 2^(s - k)
        # is exact where the mean is a normal double.
        terms, count, s = case
        want = _outcome(partial(_chunk_mean_by_division, count=count, s=s), terms)
        assert _outcome(partial(_chunk_mean, count=count, s=s), terms) == want


class TestOperatorFrame:
    # Each factor runs in its frame: scaling one spectrum by 2^k leaves the
    # cosine's bits as they are and multiplies the norm ratio by exactly 2^k,
    # wherever it stays a normal double, and "degenerate" is relative to the
    # factor's largest |eigenvalue|.
    FACTORS = ([1.0, 2.0, 3.0], [-1.5] * 3, [0.5, -1.0, 2.0])

    @staticmethod
    def _trials(factors, count=4097):
        spectra = [Spectrum(values) for values in factors]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return montecarlo._operator_trials(RandomStream(3, 0).generator, count, 3, spectra)

    @pytest.mark.parametrize("k", [-700, 600])
    @pytest.mark.parametrize("index", [0, 1], ids=["spread-factor", "scalar-factor"])
    def test_kernel_is_equivariant(self, k, index):
        scaled = list(self.FACTORS)
        scaled[index] = [math.ldexp(v, k) for v in scaled[index]]
        ratio, cosine, dead = self._trials(scaled)
        want_ratio, want_cosine, want_dead = self._trials(self.FACTORS)
        assert not dead.any() and not want_dead.any()
        np.testing.assert_array_equal(cosine, want_cosine)
        np.testing.assert_array_equal(ratio, np.ldexp(want_ratio, k))

    @pytest.mark.parametrize("k", [-700, 600])
    def test_estimate_is_equivariant(self, k):
        scaled = [[math.ldexp(v, k) for v in self.FACTORS[0]], *self.FACTORS[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for observable in ("cosine", "norm_ratio"):
                got = estimate(ExperimentSpec("operator_product", 3, scaled, 4097, 3, observable))
                want = estimate(ExperimentSpec("operator_product", 3, self.FACTORS, 4097, 3, observable))
                scale = 1 if observable == "cosine" else 2.0**k
                assert (got.mean, got.sample_std) == (want.mean * scale, want.sample_std * scale)

    def test_long_products_keep_the_norm_ratio(self):
        # 1100 factors of norm about 1.005: in each frame a factor's norm is
        # about 0.5025, whose plain product would underflow; the per-row
        # mantissa and exponent keep the ratio exact to rounding.
        ratio, _, dead = self._trials([[1.0, 1.01, 1.005]] * 1100, count=64)
        assert not dead.any()
        assert np.all((1.0 <= ratio) & (ratio <= 1.01**1100))


class TestPairSampler:
    # One random factor U^T diag(s) U applied to e1: x = U e1 is uniform on
    # the sphere, ratio^2 = sum s_i^2 x_i^2 and ratio * cosine = sum s_i x_i^2,
    # whose exact means and variances follow from E[x_i^2] = 1/n and
    # E[x_i^2 x_j^2] = (1 + 2 [i = j]) / (n (n + 2)).  This checks the Box-Muller
    # pair sampler against theory, not against another sampler.
    TRIALS = 2**17
    CASES = {
        2: [1.5, -0.5],
        3: [2.0, 0.5, -1.0],
        7: [0.1, 0.3, 0.3, 0.9, 1.2, 2.0, -0.4],
        400: np.linspace(-0.5, 2.0, 400),
    }

    @pytest.mark.parametrize("n", CASES)
    def test_one_factor_moments_are_exact(self, n):
        spectra = (Spectrum(self.CASES[n]),)
        s = spectra[0].values
        draws = [
            montecarlo._operator_trials(RandomStream(71, k).generator, 2048, n, spectra)
            for k in range(self.TRIALS // 2048)
        ]
        ratio = np.concatenate([d[0] for d in draws])
        cosine = np.concatenate([d[1] for d in draws])
        assert not any(d[2].any() for d in draws)
        for values, v in ((ratio * ratio, s * s), (ratio * cosine, s)):
            var = 2.0 * np.var(v) / (n + 2)
            z = (values.mean() - v.mean()) / math.sqrt(var / self.TRIALS)
            assert abs(z) <= 5.0
            assert abs(values.var(ddof=1) / var - 1.0) <= 0.05

    class _ZeroedUniforms:
        # The wrapped generator's draws, but one row's U half is set to u in
        # the first block and in the first redraw: 0, or so small that the
        # row's total is below the degenerate cut, or on it.
        def __init__(self, gen, row, u):
            self.gen, self.row, self.u, self.shapes = gen, row, u, []

        def random(self, out):
            self.gen.random(out=out)
            if len(self.shapes) < 2:
                out[0, 0 if self.shapes else self.row] = self.u
            self.shapes.append(out.shape)
            return out

    @staticmethod
    def _weights(n):
        a = np.arange(n) - (n - 1) / 2
        return np.stack([np.ones(n), a, a * a], axis=1)

    # At n = 4 a U of cut / 4, cut = _DEGENERATE_NORM^2, gives two
    # exponentials of exactly cut / 4 (log1p(-u) is -u there), so twice the
    # total is the cut itself, which counts as degenerate.
    @pytest.mark.parametrize(
        "n, u", [(4, 0.0), (5, 0.0), (4, 1e-310), (5, 1e-310), (4, montecarlo._DEGENERATE_NORM**2 / 4)]
    )
    def test_degenerate_total_is_redrawn(self, n, u):
        count, row, h = 5, 2, (n + 1) // 2
        w = self._weights(n)
        stub = self._ZeroedUniforms(RandomStream(3, 0).generator, row, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = montecarlo._pair_moments(stub, count, w)
        assert stub.shapes == [(2, count, h), (2, 1, h), (2, 1, h)]
        plain = montecarlo._pair_moments(RandomStream(3, 0).generator, count, w)
        keep = np.arange(count) != row
        np.testing.assert_array_equal(got[keep], plain[keep])
        # the redrawn row is the row the stream gives after the first redraw
        gen = RandomStream(3, 0).generator
        gen.random((2, count, h))
        gen.random((2, 1, h))
        np.testing.assert_array_equal(got[row], montecarlo._pair_moments(gen, 1, w)[0])
        assert got[row, 0] > 0.0

    class _Constant:
        # Every U is u and every V is v, but the first U of each row is 1/2,
        # so no row's total is 0.
        def __init__(self, u, v):
            self.u, self.v = u, v

        def random(self, out):
            out[0], out[1] = self.u, self.v
            out[0, :, 0] = 0.5
            return out

    @pytest.mark.parametrize("n", [2, 3, 400, 401])
    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("v", [0.0, 1.0 - 2.0**-53])
    def test_extreme_uniforms_give_finite_rows(self, n, u, v):
        # U = 0 gives E = 0, and U = 1 - 2^-53 gives E = 53 log 2; V = 1 -
        # 2^-53 gives tan^2 of about 1.2e31 and C of about 8e-32.  Each row is
        # (sum g^2 w) / 2 over pairs of squares E (1 - C, C).
        w = self._weights(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = montecarlo._pair_moments(self._Constant(u, v), 3, w)
        assert np.all(np.isfinite(got)) and np.all(got[:, 0] > 0.0)
        e = np.full((n + 1) // 2, -math.log1p(-u))
        e[0] = -math.log1p(-0.5)
        c = 1.0 / (1.0 + math.tan(math.pi / 2 * v) ** 2)
        squares = np.stack([e * (1.0 - c), e * c], axis=1).ravel()[:n]
        # within 1e-13 of the sum of the terms' sizes: the column of a cancels
        scale = np.abs(squares) @ np.abs(w)
        assert np.all(np.abs(got - squares @ w) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [7, 8])
    def test_bitwise_at_odd_and_even_n(self, n):
        spectra = (_linear(n, -0.5, 2.0), _linear(n, 0.1, 1.0))
        for geometry, schedule in (("operator", spectra[:1]), ("operator_product", spectra)):
            for observable in ("cosine", "norm_ratio"):
                spec = ExperimentSpec(geometry, n, schedule, 2 * 2048 + 9, 43, observable)
                one = estimate(spec)
                assert estimate(spec) == one
                assert estimate(spec, workers=2) == one
            e1 = np.eye(n)[0]
            r = montecarlo.run_operator_product(schedule, e1, RandomStream(43, 0))
            for observable, got in zip(("norm_ratio", "cosine"), r):
                spec = ExperimentSpec(geometry, n, schedule, 1, 43, observable)
                assert got == estimate(spec).mean


class _Uniforms:
    """A stand-in for a numpy Generator whose random(shape) hands out the
    given uniforms in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, shape):
        shape = tuple(np.atleast_1d(shape))
        out, self.values = self.values[: math.prod(shape)], self.values[math.prod(shape) :]
        return out.reshape(shape).copy()


def _polar_coordinate_50_digits(u, v, m):
    # t = r cos(pi V), r = sqrt(1 - (1 - U)^(2/(m - 2))), in 50 digits from
    # the same doubles U and V; expm1 and log1p keep 1 - (1 - U)^c exact at huge m.
    with mpmath.workdps(50):
        cos = mpmath.cospi(mpmath.mpf(v))
        if m == 2:
            return cos
        c = 2 / (mpmath.mpf(m) - 2)
        return mpmath.sqrt(-mpmath.expm1(c * mpmath.log1p(-mpmath.mpf(u)))) * cos


class TestSphereCoordinate:
    # The one coordinate sampler against the exact moments of a coordinate t
    # of a uniform point on the sphere of R^m: E[(m t^2)^k] = prod_{j<k}
    # m (2j + 1) / (m + 2j), so E[t^2] = 1/m and E[t^4] = 3/(m(m + 2)); m t^2
    # keeps the moments in range at m = 10^300.
    TRIALS = 2**17
    # Largest error of t against a 50-digit evaluation on the same uniforms,
    # in ulps of t, wherever t is a normal double.
    ULPS = 6.0

    @staticmethod
    def _moment(m, k):
        return math.prod(m * (2 * j + 1) / (m + 2 * j) for j in range(k))

    @pytest.mark.parametrize("m", [2, 3, 4, 10, 400, 10**6, 10**30, 10**300])
    def test_even_moments_are_exact(self, m):
        t = _sphere_coordinate(RandomStream(73, m % 1000).generator, m, (4, self.TRIALS // 4))
        assert t.shape == (4, self.TRIALS // 4)
        assert np.all(np.abs(t) <= 1.0)
        square = t * math.sqrt(m)
        square *= square  # non-negative: numpy's power on signed bases calls libm's pow
        for k in (1, 2):
            want = self._moment(float(m), k)
            var = self._moment(float(m), 2 * k) - want * want
            z = (np.mean(square**k) - want) / math.sqrt(var / self.TRIALS)
            assert abs(z) <= 5.0, (k, z)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 10, 400, 10**6, 10**20, 10**300])
    def test_matches_a_50_digit_evaluation(self, m):
        # Fixed uniforms: a spread over [0, 1), U of 2^-53 to 1/2 and near 1,
        # where r is small or 1, and V near 1/2, where t is small.
        gen = np.random.default_rng(2028)
        small, half = np.ldexp(1.0, -np.arange(1, 54)), np.ldexp(1.0, -np.arange(2, 55))
        u = np.concatenate([gen.random(200), small, 1.0 - small])
        v = np.concatenate([gen.random(200), 0.5 + half, 0.5 - half])
        uniforms = v if m == 2 else np.stack([u, v], axis=1)
        t = _sphere_coordinate(_Uniforms(uniforms.ravel()), m, u.size)
        for got, a, b in zip(t.tolist(), u.tolist(), v.tolist()):
            want = _polar_coordinate_50_digits(a, b, m)
            if abs(want) >= 2.0**-1022:
                error = abs(mpmath.mpf(got) - want) / math.ulp(float(abs(want)))
                assert error <= self.ULPS, (m, a.hex(), b.hex(), got, float(error))

    @pytest.mark.parametrize("m", [2, 3, 4, 10, 10**300])
    @pytest.mark.parametrize("u", [0.0, 2.0**-53, 1.0 - 2.0**-53])
    def test_edge_uniforms_stay_in_range_without_warning(self, m, u):
        v = np.array([0.0, 0.5, 1.0 - 2.0**-53])
        uniforms = v if m == 2 else np.stack([np.full(3, u), v], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = _sphere_coordinate(_Uniforms(uniforms.ravel()), m, 3)
        assert np.all(np.abs(t) <= 1.0), t
        assert t[1] == 0.0  # V = 1/2
        if m > 2 and u == 0.0:
            assert t.tolist() == [0.0, 0.0, 0.0]
        if m == 2:
            assert t[0] >= 1.0 - 2.0**-52 and t[2] <= -1.0 + 2.0**-52

    @pytest.mark.parametrize("m, per_coordinate", [(1, 1), (2, 1), (3, 2), (10, 2), (10**300, 2)])
    def test_uniforms_per_coordinate(self, m, per_coordinate):
        gen = _CountingGenerator(RandomStream(77).generator)
        t = _sphere_coordinate(gen, m, (3, 5))
        assert t.shape == (3, 5)
        assert gen.drawn == 15 * per_coordinate

    def test_odd_moment_is_zero(self):
        t = _sphere_coordinate(RandomStream(74).generator, 10, self.TRIALS)
        assert abs(np.mean(t)) <= 5.0 * math.sqrt(0.1 / self.TRIALS)

    def test_fair_sign_at_m_1(self):
        t = _sphere_coordinate(RandomStream(75).generator, 1, self.TRIALS)
        assert set(np.unique(t).tolist()) == {-1.0, 1.0}
        plus = int(np.count_nonzero(t > 0.0))
        assert abs(plus - self.TRIALS / 2) <= 5.0 * math.sqrt(self.TRIALS) / 2


class TestPower:
    # The moment kernels' integer powers, in IEEE multiplications alone, on
    # mixed signs, subnormals and exact powers of two.
    X = np.concatenate([
        np.random.default_rng(74).uniform(-1.0, 1.0, 64),
        [0.0, -0.0, 1.0, -1.0, -0.5, 0.75, -0.9999999999999999],
        [5e-324, -5e-324, -(2.0**-1070), 1e-310, -2.2250738585072e-308],
        [sign * 2.0**k for k in range(-127, 128, 9) for sign in (1.0, -1.0)],
    ])

    @pytest.mark.parametrize("p", range(9))
    def test_power_within_its_roundings(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _power(self.X, p)
        assert got.shape == self.X.shape
        if p == 0:
            np.testing.assert_array_equal(got, np.ones_like(self.X))
        if p in (1, 2):
            assert got.tobytes() == (self.X if p == 1 else self.X * self.X).tobytes()
        # p - 1 roundings, each of relative size at most 2^-53.
        bound = (1 + Fraction(1, 2**53)) ** max(p - 1, 0) - 1
        for x, y in zip(self.X.tolist(), got.tolist()):
            want = Fraction(x) ** p
            if 2.0**-1022 <= abs(want) <= Fraction(np.finfo(float).max):
                assert abs(Fraction(y) - want) <= bound * abs(want), (x, p, y)


class TestStepMaps:
    # The chain kernels step the displacement, with no inverse-trig state
    # to recover: an arc of 400 takes a to about 1e173, whose square would
    # overflow, and steps of 0 or pi keep c at exactly +-1.
    @pytest.mark.parametrize("arcs", [(400.0, 1.0), (1.0, 400.0)])
    def test_far_arcs_without_warning(self, arcs):
        spec = ExperimentSpec("hyperbolic", 3, arcs, 4096, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate(spec)
        assert math.isfinite(est.mean) and math.isfinite(est.sample_std)
        assert compare(prediction_for("hyperbolic", arcs, 3), est).verdict == "pass"

    @pytest.mark.parametrize("observable", ["cosine", "norm_ratio"])
    def test_operator_spectrum_scale_is_exact(self, observable):
        # Each spectrum is scaled by a power of two before its squares are
        # formed, so the spectra s and s 2^600 (whose squares pass the double
        # range) give one cosine and norm ratios exactly 2^600 apart.
        s = [0.3, 1.7, -0.4, 2.5, 0.0]
        means = []
        for spectrum in (s, np.ldexp(s, 600)):
            spec = ExperimentSpec("operator", 5, [Spectrum(spectrum)], 500, 3, observable)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                means.append(estimate(spec).mean)
        assert means[1] == (means[0] if observable == "cosine" else math.ldexp(means[0], 600))

    @pytest.mark.parametrize("observable, want", [("cosine", -1.0), ("norm_ratio", 6.0)])
    def test_one_dimensional_factors_are_scalars(self, observable, want):
        # In one dimension every factor is a scalar: the cosine is the sign
        # of the product, and the norm ratio its size, exactly.
        est = estimate(ExperimentSpec("operator_product", 1, [[-2.0], [3.0]], 5, 1, observable))
        assert (est.mean, est.sample_std) == (want, 0.0)

    def test_operator_norm_past_the_double_range_is_inf(self):
        spectra = [Spectrum([1e200, 0.0]), Spectrum([1e200, 0.0])]
        spec = ExperimentSpec("operator_product", 2, spectra, 8, 1, "norm_ratio")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate(spec).mean == math.inf

    @pytest.mark.parametrize(
        "geometry, n, schedule, want",
        [
            ("sphere", 3, (0.0,) * 5, 1.0),
            ("sphere", 3, (math.pi,) * 5, -1.0),
            ("sphere", 3, (0.0, math.pi, 0.0), -1.0),
            ("sphere", 7, (math.pi / 2,), 0.0),
            ("sphere", 11, (2.5,), math.cos(2.5)),
            ("flat", 3, (1.7,), 1.7 * 1.7),
            ("hyperbolic", 24, (1.3,), math.cosh(1.3)),
        ],
    )
    def test_edge_schedules_are_exact_without_warning(self, geometry, n, schedule, want):
        # The benchmark sweep's edges, and one-step chains: the constant
        # exactly, with spread 0.
        spec = ExperimentSpec(geometry, n, schedule, 2049, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate(spec)
        assert (est.mean, est.sample_std) == (want, 0.0)


# The chain kernels as the expressions of the module docstring, each
# operation into a new array and every trial stepped from the start: the
# kernels, which step in place and form the first step once on one value,
# must give their bits, warnings and errors.  t = None is a step from a
# pole, with no move.
def _chain_step_by_expression(kappa, delta, eps, v, c, sin, t):
    if t is None:
        return v + c * delta, (v + c * eps if kappa > 0 else eps)
    if kappa < 0:
        root = np.sqrt(np.maximum(delta, 0.0)) * np.sqrt(delta + 2.0)
    else:
        root = np.sqrt(np.maximum(delta * (eps if kappa else 2.0), 0.0))
    move = root * t * sin
    return v + c * delta + move, (v + c * eps - move if kappa > 0 else eps)


def _triples_by_expression(kappa, schedule):
    # (V, C, S) per step and the flat frame's exponent e.
    if kappa > 0:
        triples = []
        for x, (c, s) in zip(schedule, _sphere_steps(schedule)):
            half = math.sin(x / 2.0) if c >= 0.0 else math.cos(x / 2.0)
            triples.append((1.0 if c == 0.0 else 2.0 * half * half, c, s))
        return triples, 0
    if kappa == 0:
        e = _exponent(max(schedule, default=0.0))
        scaled = [math.ldexp(d, -e) for d in schedule]
        return [(d * d / 2.0, 1.0, d) for d in scaled], e
    for x in schedule:
        if x > 710.4758600739439:
            raise OverflowError(f"cosh of the arc {x!r} overflows")
    half = [math.sinh(x / 2.0) for x in schedule]
    return [(2.0 * h * h, math.cosh(x), math.sinh(x)) for x, h in zip(schedule, half)], 0


def _chain_values_by_expression(kappa, gen, count, n, schedule):
    # A step with C < 0 reflects first; one with S = 0 is then the identity.
    # The first step with S != 0 takes t = 0, each later one a drawn t.
    triples, e = _triples_by_expression(kappa, schedule)
    moving = [(v, c, s) for v, c, s in triples if s != 0.0]
    ts = _sphere_coordinate(gen, n - abs(kappa), (max(len(moving) - 1, 0), count))
    ts = iter([0.0, *ts])
    delta, eps = np.zeros(count), np.full(count, 2.0)
    for v, c, s in triples:
        if c < 0.0:
            delta, eps, c = eps, delta, -c
        if s != 0.0:
            delta, eps = _chain_step_by_expression(kappa, delta, eps, v, c, s, next(ts))
    if kappa == 0:
        with np.errstate(over="ignore"):
            return np.ldexp(delta, 2 * e + 1)
    if len(moving) <= 1:
        return np.full(count, math.prod(c for _, c, _ in triples))
    return 1.0 + delta if kappa < 0 else (eps - delta) * 0.5


def _chain_step_into(kappa, state, v, c, sin, t):
    # The kernels' step, by the expressions, written back into its state.
    state[0], state[1] = _chain_step_by_expression(kappa, *state, v, c, sin, t)


def _warned(kernel, *args):
    # kernel(*args) as its bytes (a tuple's, joined) or its OverflowError,
    # and the warnings it raised, in order.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = kernel(*args)
            result = b"".join(a.tobytes() for a in (result if isinstance(result, tuple) else (result,)))
        except OverflowError as exc:
            result = f"OverflowError: {exc}"
    return result, [(w.category, str(w.message)) for w in caught]


_KAPPA = {"sphere": 1, "flat": 0, "hyperbolic": -1}


class TestFirstChainStep:
    """Each chain row against every trial stepped from the start by the
    curvature-form map's expressions: the first step, formed once on one
    value and broadcast, and the steps computed in place give the same
    bits, the same warnings and the same OverflowError."""

    def _both(self, geometry, schedule, n, count=300):
        row = montecarlo._GEOMETRY_TABLE[geometry]
        got = _warned(row.kernel, RandomStream(4, 0).generator, count, n, schedule, None)
        want = _warned(
            _chain_values_by_expression, _KAPPA[geometry], RandomStream(4, 0).generator, count, n, schedule
        )
        return got, want

    ROWS = [
        ("sphere", ()), ("flat", ()), ("hyperbolic", ()),
        ("sphere", (0.7,)), ("sphere", (2.5,)), ("flat", (1.3,)), ("hyperbolic", (0.4,)),
        ("sphere", (math.pi / 2 + 1e-13, 1.1)), ("sphere", (1.1, math.pi / 2, 0.0, math.pi)),
        ("sphere", (2.9, 0.4, 3.1, 1e-5)), ("sphere", (math.pi, 1.4, 0.0)), ("sphere", (1e-5, 1e-5, 1.0)),
        ("flat", (0.3, 1.9, 1.2)), ("hyperbolic", (0.5, 1.4, 2.0)), ("hyperbolic", (0.0, 1.3, 0.0)),
        ("flat", (1e200, 1.0)), ("hyperbolic", (711.0,)), ("hyperbolic", (0.5, 711.0)),
        ("flat", (1e308, 1.0)), ("flat", (1.0, 1e308)), ("flat", (1e200, 1e200, 0.0)),
        ("flat", (5e307,)), ("flat", (5e307, 1.0)), ("flat", (1e-170, 1.0, 1e-300)),
        ("hyperbolic", (300.0, 300.0, 300.0)), ("hyperbolic", (1.0, 710.0)),
    ]

    @pytest.mark.parametrize("n", [3, 4, 10])
    @pytest.mark.parametrize("geometry, schedule", ROWS)
    def test_rows_match_every_trial_stepped(self, geometry, schedule, n):
        got, want = self._both(geometry, schedule, n)
        assert got == want

    @pytest.mark.parametrize("count", [1, 2049])
    @pytest.mark.parametrize("geometry, schedule", ROWS)
    def test_rows_match_at_one_trial_and_past_a_chunk(self, geometry, schedule, count):
        # One trial is one column from the start: it must still step by
        # its drawn t, not report the chain's mean.
        got, want = self._both(geometry, schedule, 4, count)
        assert got == want

    @pytest.mark.parametrize(
        "geometry, schedule",
        [("sphere", (0.4, 1.2, 2.2)), ("sphere", (0.0, 0.7, math.pi, 1.1)),
         ("hyperbolic", (0.5, 1.4, 2.0)), ("hyperbolic", (0.0, 1.3, 0.0, 0.2)), ("flat", (0.3, 1.9))],
    )
    def test_one_trial_is_drawn(self, geometry, schedule):
        # With two moving steps a one-trial chain is random: its value moves
        # with the seed, and an estimate of 2049 trials, whose last chunk
        # holds one trial, reads the reference's trials of streams (5, 0) and
        # (5, 1).
        kernel, kappa = montecarlo._GEOMETRY_TABLE[geometry].kernel, _KAPPA[geometry]
        ones = {float(kernel(RandomStream(seed, 0).generator, 1, 10, schedule, None)[0]) for seed in range(8)}
        assert len(ones) == 8
        values = np.concatenate([
            _chain_values_by_expression(kappa, RandomStream(5, k).generator, count, 10, schedule)
            for k, count in ((0, 2048), (1, 1))
        ])
        est = estimate(ExperimentSpec(geometry, 10, schedule, 2049, 5))
        assert math.isclose(est.mean, math.fsum(values) / 2049, rel_tol=1e-14)
        assert math.isclose(est.sample_std, float(np.std(values, ddof=1)), rel_tol=1e-12)

    @pytest.mark.parametrize("geometry, schedule", [("sphere", ()), ("sphere", (0.7,)),
                                                    ("flat", (1.3,)), ("hyperbolic", (0.4,))])
    def test_a_chain_of_at_most_one_step_draws_nothing(self, geometry, schedule):
        # Not even an empty draw: the kernel runs without a generator.
        values = montecarlo._GEOMETRY_TABLE[geometry].kernel(None, 300, 5, schedule, None)
        assert values.shape == (300,) and np.all(values == values[0])

    @pytest.mark.parametrize(
        "geometry, schedule, want",
        [("sphere", (math.pi, 1.4198346486560234), -math.cos(1.4198346486560234)),
         ("sphere", (0.0, 0.7, math.pi, 1e-13), -math.cos(0.7)),
         ("hyperbolic", (0.0, 1.3, 0.0), math.cosh(1.3)),
         ("flat", (0.0, 1.7, 0.0), 1.7 * 1.7)],
    )
    @pytest.mark.parametrize("trials", [1, 17, 2049])
    def test_deterministic_chains_are_exact(self, geometry, schedule, want, trials):
        # One step moves the observable off a pole; the others start at a
        # pole or keep (or negate) it, so every trial reads the constant.
        est = estimate(ExperimentSpec(geometry, 3, schedule, trials, 2))
        assert (est.mean, est.sample_std) == (want, 0.0)

    @pytest.mark.parametrize("pole", [False, True])
    @pytest.mark.parametrize("kappa", [1, 0, -1])
    @pytest.mark.parametrize("seed", range(3))
    def test_chain_step_on_arrays(self, kappa, seed, pole):
        # delta at 0, just below it, at 2 and nan; at kappa = +1 a (V, C, S)
        # per trial, nan on dead rows, as the operator kernel steps, and
        # else one (V, C) for every trial, as the chain kernels step; at a
        # pole t is None.
        gen = np.random.default_rng(seed)
        delta = np.concatenate([gen.uniform(0.0, 2.0, 60), [0.0, -2.0**-60, 2.0, math.nan]])
        eps = 2.0 - delta
        psi = gen.uniform(0.0, math.pi / 2, delta.size)
        c, s = np.cos(psi), np.sin(psi)
        v = s * s / (1.0 + c)
        c[:3], s[:3], v[:3] = math.nan, math.nan, math.nan
        if kappa <= 0:
            v, c = (0.5, 1.0) if kappa == 0 else (2.0 * math.sinh(0.65) ** 2, math.cosh(1.3))
        t = None if pole else _sphere_coordinate(gen, 7, delta.size)

        def in_place():
            state = np.stack([delta, eps])
            montecarlo._chain_step(kappa, state, v, c, s, t)
            return tuple(state)

        assert _warned(in_place) == _warned(_chain_step_by_expression, kappa, delta, eps, v, c, s, t)

    @pytest.mark.parametrize("observable", ["cosine", "norm_ratio"])
    @pytest.mark.parametrize(
        "factors",
        [([1.0, 2.0, 3.0, 0.5],), ([0.5, -1.0, 2.0, 0.0], [-1.5] * 4, [1.0, 0.0, 0.0, 0.0]),
         ([-3.0, -1.0, 0.5, 0.25], [0.0] * 4, [1.0, 2.0, 2.0, 1.0])],
        ids=["one-factor", "three-factors", "dead"],
    )
    def test_operator_kernel_matches_the_expression(self, factors, observable, monkeypatch):
        spectra = tuple(Spectrum(values) for values in factors)
        row = montecarlo._GEOMETRY_TABLE["operator_product"]

        def kernel():
            return row.kernel(RandomStream(6, 0).generator, 2049, 4, spectra, observable)

        got = _warned(kernel)
        monkeypatch.setattr(montecarlo, "_chain_step", _chain_step_into)
        assert got == _warned(kernel)

    def test_flat_past_the_double_range_is_inf_without_warning(self):
        # In the frame of the longest step nothing overflows; the scale by
        # 4^e gives inf for a squared norm past the double range.
        (values, caught), _ = self._both("flat", (1e200, 1e200), 3, count=8)
        assert np.all(np.frombuffer(values) == math.inf) and caught == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate(ExperimentSpec("flat", 3, (1e200, 1e200), 8, 1)).mean == math.inf

    def test_far_arc_names_itself(self):
        (result, caught), _ = self._both("hyperbolic", (711.0,), 5)
        assert result == "OverflowError: cosh of the arc 711.0 overflows" and caught == []


class TestCurvatureLimitKernels:
    """The kernel half of the curvature limit, trial by trial, on delta
    itself: at arcs and angles d_i / R the hyperbolic and sphere kernels at
    n and the flat kernel at n - 1 draw their coordinates in R^(n-1) from the
    same stream, and R^2 delta meets the flat delta = r^2 / 2 to first order
    in 1/R^2."""

    STEPS = (1.0, 0.7, 1.3)

    @staticmethod
    def _delta(kappa, steps, m):
        triples, e = _triples_by_expression(kappa, steps)
        delta, _ = montecarlo._displacements(kappa, triples, RandomStream(7, 0).generator, 2048, m)
        return np.ldexp(delta, 2 * e)

    @pytest.mark.parametrize("n", [3, 10, 200])
    @pytest.mark.parametrize("radius", [1e2, 1e3, 1e4, 1e5, 1e6], ids=lambda r: f"R{r:g}")
    def test_curved_kernels_meet_the_flat_kernel(self, n, radius):
        arcs = [d / radius for d in self.STEPS]
        flat = self._delta(0, self.STEPS, n - 1)
        for kappa in (1, -1):
            gap = np.abs(radius**2 * self._delta(kappa, arcs, n - 1) / flat - 1.0)
            assert np.median(gap) <= radius**-2 and gap.max() <= 32.0 * radius**-2


def _displacement_50_digits(kappa, schedule, ts):
    # (delta, eps, condition) of one trial in 50 digits, on the same doubles:
    # the step angles or arcs and the coordinates t.  The condition is the
    # product over steps of (V + C x + |t s S|) / x' for x = delta (and eps),
    # the larger of the two: 1 where no term cancels.
    with mpmath.workdps(50):
        delta, eps, condition = mpmath.mpf(0), mpmath.mpf(2), mpmath.mpf(1)
        for x, t in zip(schedule, [0.0, *ts]):
            x, t = mpmath.mpf(x), mpmath.mpf(t)
            if kappa > 0:
                c, s = mpmath.cos(x), mpmath.sin(x)
                if c < 0:
                    delta, eps, c = eps, delta, -c
                v = 1 - c
            else:
                v, c, s = mpmath.cosh(x) - 1, mpmath.cosh(x), mpmath.sinh(x)
            move = t * mpmath.sqrt(delta * (eps if kappa > 0 else 2 + delta)) * s
            old = (delta, eps) if kappa > 0 else (delta,)
            delta, eps = v + c * delta + move, v + c * eps - move
            condition *= max((v + c * a + abs(move)) / b for a, b in zip(old, (delta, eps)))
        return delta, eps, condition


class TestPoleDisplacements:
    """delta at arcs and angles up to 1e-4, and eps at sphere angles near pi
    (c near -1), against a 50-digit rerun of the same draws: no term of the
    map cancels but t s S, so each keeps its relative precision, within
    ULPS units of 2^-53 times the condition of _displacement_50_digits.
    That condition exceeds 1 only where t s S meets V + C delta at t near -1
    (near +1 for eps), the cancellation a (1 + t) split would remove.  On
    the first four cases' draws (512 trials), the maps that stepped c and a
    themselves put 1 - c and a - 1 off by 2.3e-10 to 1.8e-8."""

    ULPS = 6
    CASES = [
        (-1, (1e-5, 1e-5, 1.0), 3), (-1, (1e-4, 2e-4, 3e-4, 1e-4), 10), (-1, (1e-5,) * 6, 3),
        (1, (1e-5, 1e-5, 1.0), 3), (1, (1e-4, 2e-4, 3e-4, 1e-4), 10), (1, (1e-5,) * 6, 4),
        (1, (math.pi - 1e-5, 1e-5, 2e-5), 3), (1, (3.14159, 1e-4, math.pi - 2e-5), 10),
        (1, (1e-5, math.pi - 2e-5), 3),
    ]

    @pytest.mark.parametrize("kappa, schedule, n", CASES)
    def test_matches_50_digits(self, kappa, schedule, n):
        count = 256
        triples, _ = _triples_by_expression(kappa, schedule)
        delta, eps = montecarlo._displacements(kappa, triples, RandomStream(7, 0).generator, count, n - 1)
        ts = _sphere_coordinate(RandomStream(7, 0).generator, n - 1, (len(schedule) - 1, count))
        for i in range(count):
            want_delta, want_eps, condition = _displacement_50_digits(kappa, schedule, ts[:, i].tolist())
            pairs = ((delta[i], want_delta), (eps[i], want_eps))[: 2 if kappa > 0 else 1]
            for got, want in pairs:
                error = abs(mpmath.mpf(float(got)) - want) / want
                assert error <= self.ULPS * 2.0**-53 * condition, (i, float(got), float(error))


class TestChunkKernelLaw:
    # The dimension-reduced chunk kernels and the full-vector walks of
    # tests/full_vector.py draw
    # different numbers from the same law; two-sample KS tests at fixed
    # seeds compare them, including n = 3, steps of 0 and pi, and the
    # two-dimensional operator, whose direction coordinate is a fair sign.
    TRIALS = 3000
    P_MIN = 1e-4

    def _chunk(self, geometry, n, schedule, observable=None):
        spec = ExperimentSpec(geometry, n, schedule, self.TRIALS, 61, observable)
        return _trial_values(spec, 0, self.TRIALS)

    def _check(self, chunk, full):
        full = np.asarray(full)
        if np.ptp(full) <= 1e-12 * np.max(np.abs(full)):
            # A point mass (the norm of a reflection at n = 2): the two
            # samplers differ only in rounding, which KS would resolve.
            np.testing.assert_allclose(chunk, full[0], rtol=1e-12)
            return
        result = ks_2samp(chunk, full)
        assert result.pvalue > self.P_MIN, result

    @pytest.mark.parametrize("n", [3, 5, 10])
    @pytest.mark.parametrize(
        "thetas", [(1.0, 2.0), (0.4, math.pi, 1.1), (0.0, 2.5, 0.7, 1.3)]
    )
    def test_sphere(self, n, thetas):
        full = [sphere_walk(n, thetas, RandomStream(62, i)) for i in range(self.TRIALS)]
        self._check(self._chunk("sphere", n, thetas), full)

    @pytest.mark.parametrize("n", [3, 5, 10])
    @pytest.mark.parametrize("ds", [(1.0, 0.5, 2.0), (0.0, 1.0, 1.0)])
    def test_flat(self, n, ds):
        full = [flat_walk(n, ds, RandomStream(63, i)) for i in range(self.TRIALS)]
        self._check(self._chunk("flat", n, ds), full)

    @pytest.mark.parametrize("n", [3, 5, 10])
    @pytest.mark.parametrize("xis", [(0.5, 1.0, 0.3), (0.0, 1.2, 0.7)])
    def test_hyperbolic(self, n, xis):
        full = [hyperbolic_walk(n, xis, RandomStream(64, i)) for i in range(self.TRIALS)]
        self._check(self._chunk("hyperbolic", n, xis), full)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    @pytest.mark.parametrize("case", ["single", "negative_scalar_last", "indefinite_triple"])
    def test_operator(self, n, case):
        spectra = {
            "single": [_linear(n)],
            "negative_scalar_last": [_linear(n), Spectrum((-1.0,) * n)],
            "indefinite_triple": [_linear(n, -1.0, 1.0)] * 3,
        }[case]
        dense = [operator_product_dense(spectra, RandomStream(65, i)) for i in range(self.TRIALS)]
        self._check(
            self._chunk("operator_product", n, spectra, "norm_ratio"), [r[0] for r in dense]
        )
        self._check(self._chunk("operator_product", n, spectra, "cosine"), [r[1] for r in dense])


class TestCoordinateSamplerLaw:
    # The O(1) coordinate sampler against the first two coordinates of full
    # uniform_unit_sphere draws; the product t0 t1 checks the joint law, and
    # n = 2 reaches the fair sign of the second coordinate.
    TRIALS = 3000

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 100])
    @pytest.mark.parametrize("p0, p1", [(1, 0), (0, 1), (1, 1)])
    def test_first_two_coordinates(self, n, p0, p1):
        chunk = _coordinate_values(RandomStream(66).generator, n, self.TRIALS, p0, p1)
        stream = RandomStream(67)
        full = np.array([uniform_unit_sphere(n, stream)[:2] for _ in range(self.TRIALS)])
        result = ks_2samp(chunk, full[:, 0] ** p0 * full[:, 1] ** p1)
        assert result.pvalue > TestChunkKernelLaw.P_MIN, result

    @pytest.mark.parametrize("n", [2, 3, 10])
    @pytest.mark.parametrize("power", range(3, 9))
    def test_marginal_powers(self, n, power):
        est = estimate(ExperimentSpec("marginal", n, power, 20000, 75))
        assert compare(prediction_for("marginal", power, n), est, z_threshold=5.0).verdict == "pass"

    def test_fourth_power_monomial(self):
        est = estimate(ExperimentSpec("monomial", 10, "x1_4", 20000, 76))
        assert compare(prediction_for("monomial", "x1_4", 10), est, z_threshold=5.0).verdict == "pass"

    def test_relative_precision_at_huge_n(self):
        # At n = 1e32 a coordinate is about 1e-16: 2B - 1 would resolve it
        # only to the rounding of B near 1/2 and bias t^2 by about 10 %.
        n = 10**32
        est = estimate(ExperimentSpec("marginal", n, 2, 20000, 1))
        assert compare(prediction_for("marginal", 2, n), est).verdict == "pass"
