"""Seeded streams and spectra, and the full-vector reference samplers.

The step samplers, Haar frames and random symmetric operators live in
tests/full_vector.py, the oracle that the law tests compare the engine's
kernels against; the checks here keep that oracle honest.
"""

import math

import numpy as np
import pytest
from full_vector import (
    euclid_inner,
    flat_step,
    haar_orthogonal,
    hyperbolic_step,
    minkowski_inner,
    random_symmetric_with_spectrum,
    sphere_step,
    tangent_direction,
    uniform_unit_sphere,
    unit_direction,
)

from randsteps.montecarlo import HyperboloidPoint, RandomStream, Spectrum, UnitVector


class TestRandomStream:
    def test_same_address_bitwise(self):
        a = RandomStream(123, 4).generator.standard_normal(100)
        b = RandomStream(123, 4).generator.standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomStream(123, 0).generator.standard_normal(100)
        b = RandomStream(123, 1).generator.standard_normal(100)
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            RandomStream(-1)
        with pytest.raises(ValueError, match="64-bit"):
            RandomStream(2**64)
        RandomStream(2**64 - 1)  # boundary is valid

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            RandomStream(1.5)

    @pytest.mark.parametrize(
        "seed, stream_id",
        [(0, 0), (123, 4), (2**64 - 1, 0), (0, 2**64 - 1), (2**64 - 1, 2**64 - 1)],
    )
    def test_stream_is_seed_sequence_child(self, seed, stream_id):
        seq = np.random.SeedSequence(seed, spawn_key=(stream_id,))
        want = np.random.Generator(np.random.SFC64(seq)).standard_normal(50)
        got = RandomStream(seed, stream_id).generator.standard_normal(50)
        np.testing.assert_array_equal(got, want)

    # numpy keeps its bit generators' streams across releases but not its
    # distributions' (NEP 19); a release that moves one fails here by name.
    @pytest.mark.parametrize(
        "draw, args, want",
        [
            ("random", (), ["0x1.ab2bcb84643e0p-5", "0x1.045c623156a69p-1",
                            "0x1.f3e6c4b34752ap-1", "0x1.c4bfdccc8454fp-1"]),
            ("standard_exponential", (), ["0x1.4292eeeca010ap-5", "0x1.15c1787be46abp+1",
                                          "0x1.430823462f21cp+1", "0x1.e3ea317875359p-2"]),
            ("standard_normal", (), ["-0x1.353f8f935e83cp-1", "-0x1.852c94b2dc916p-4",
                                     "-0x1.da5679df4ad07p+0", "0x1.5f371d8985d8dp-3"]),
            ("standard_t", (1.0,), ["-0x1.adf4b39dd2f16p-1", "0x1.09622dcef4f1bp-2",
                                    "-0x1.ed7308483feb7p-1", "-0x1.2a74ac969516dp-2"]),
            ("standard_t", (499.0,), ["-0x1.3663850262d72p-1", "0x1.558d729b303efp-3",
                                      "-0x1.7d51d56c130fep-2", "-0x1.31144306e61eep-1"]),
        ],
    )
    def test_pinned_draws(self, draw, args, want):
        got = getattr(RandomStream(2026, 3).generator, draw)(*args, size=4)
        assert [float(x).hex() for x in got] == want

    def test_stream_id_is_spawned_child_index(self):
        child = np.random.SeedSequence(123).spawn(5)[4]
        want = np.random.Generator(np.random.SFC64(child)).standard_normal(50)
        np.testing.assert_array_equal(RandomStream(123, 4).generator.standard_normal(50), want)

    def test_swapped_address_differs(self):
        for seed, stream_id in ((3, 7), (0, 2**64 - 1)):
            a = RandomStream(seed, stream_id).generator.standard_normal(20)
            b = RandomStream(stream_id, seed).generator.standard_normal(20)
            assert not np.array_equal(a, b)

    def test_corner_addresses_are_distinct(self):
        corners = [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1)]
        draws = {RandomStream(s, k).generator.standard_normal(4).tobytes() for s, k in corners}
        assert len(draws) == len(corners)


class TestSphereStep:
    def test_exact_cosine(self):
        u = uniform_unit_sphere(8, RandomStream(1))
        for theta in (0.3, 1.0, 2.5):
            v = sphere_step(u, theta, RandomStream(2))
            np.testing.assert_allclose(
                euclid_inner(v, u), math.cos(theta), rtol=0, atol=1e-12
            )

    def test_zero_angle_is_identity(self):
        u = uniform_unit_sphere(5, RandomStream(3))
        v = sphere_step(u, 0.0, RandomStream(4))
        np.testing.assert_array_equal(v, u)

    def test_result_is_unit(self):
        u = uniform_unit_sphere(6, RandomStream(5))
        v = sphere_step(u, 1.2, RandomStream(6))
        np.testing.assert_allclose(np.linalg.norm(v), 1.0, rtol=0, atol=1e-9)

    def test_rejects_angle_outside_range(self):
        u = uniform_unit_sphere(4, RandomStream(7))
        with pytest.raises(ValueError, match="theta"):
            sphere_step(u, -0.1, RandomStream(8))
        with pytest.raises(ValueError, match="theta"):
            sphere_step(u, math.pi + 0.1, RandomStream(8))

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match=">= 3"):
            sphere_step(UnitVector([1.0, 0.0]), 0.5, RandomStream(9))


class TestFlatStep:
    def test_exact_distance(self):
        x = np.array([1.0, -2.0, 0.5])
        for d in (0.1, 1.0, 7.0):
            y = flat_step(x, d, RandomStream(11))
            np.testing.assert_allclose(np.linalg.norm(y - x), d, rtol=1e-12)

    def test_zero_step(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(flat_step(x, 0.0, RandomStream(12)), x)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError, match="step length"):
            flat_step(np.zeros(3), -1.0, RandomStream(13))


class TestHyperbolicStep:
    def test_inner_is_cosh(self):
        u = HyperboloidPoint.from_spatial([0.2, -0.4, 0.9])
        for xi in (0.3, 1.0, 2.0):
            v = hyperbolic_step(u, xi, RandomStream(14))
            np.testing.assert_allclose(
                minkowski_inner(v, u), math.cosh(xi), rtol=1e-9
            )

    def test_stays_on_sheet(self):
        u = HyperboloidPoint.from_spatial([1.5, 0.0, -2.0])
        v = hyperbolic_step(u, 1.7, RandomStream(15))
        np.testing.assert_allclose(minkowski_inner(v, v), 1.0, rtol=1e-9)
        assert v[0] > 0.0

    def test_zero_arc_is_identity(self):
        u = HyperboloidPoint.from_spatial([0.3, 0.3])
        v = hyperbolic_step(u, 0.0, RandomStream(16))
        np.testing.assert_array_equal(v, u.values)

    def test_rejects_negative_arc(self):
        u = HyperboloidPoint.from_spatial([0.0, 0.0])
        with pytest.raises(ValueError, match="arc length"):
            hyperbolic_step(u, -0.5, RandomStream(17))


class TestUniformUnitSphere:
    def test_unit_norm(self):
        for n in (2, 3, 10, 50):
            u = uniform_unit_sphere(n, RandomStream(18))
            np.testing.assert_allclose(np.linalg.norm(u), 1.0, rtol=0, atol=1e-12)

    def test_coordinate_second_moment(self):
        # E[x_1^2] = 1/n under the uniform measure
        n, trials = 10, 20000
        gen = RandomStream(19)
        samples = np.array(
            [uniform_unit_sphere(n, gen)[0] ** 2 for _ in range(trials)]
        )
        se = samples.std(ddof=1) / math.sqrt(trials)
        assert abs(samples.mean() - 1.0 / n) < 5 * se


class TestDegenerateRedraw:
    # A row whose direction vanishes has probability zero; the reference
    # samplers replace it with the next row drawn from the generator.

    def test_unit_direction_redraws_zero_row(self):
        n = 6
        got = unit_direction(np.zeros(n), RandomStream(31).generator)
        g = RandomStream(31).generator.standard_normal(n)
        np.testing.assert_array_equal(got, g / math.sqrt(float(g @ g)))

    def test_tangent_direction_redraws_normal_row(self):
        n = 6
        e1 = np.zeros(n)
        e1[0] = 1.0
        got, nrm = tangent_direction(e1, e1.copy(), RandomStream(32).generator)
        g = RandomStream(32).generator.standard_normal(n)
        g -= (g @ e1) * e1
        np.testing.assert_array_equal(got, g)
        assert nrm == math.sqrt(float(g @ g))
        assert got[0] == 0.0


class TestHaarOrthogonal:
    def test_orthogonality(self):
        q = haar_orthogonal(12, RandomStream(21))
        np.testing.assert_allclose(q.T @ q, np.eye(12), rtol=0, atol=1e-12)

    def test_entry_second_moment(self):
        # each column is a uniform sphere point, so E[Q_11^2] = 1/n
        n, trials = 6, 8000
        gen = RandomStream(22)
        samples = np.array([haar_orthogonal(n, gen)[0, 0] ** 2 for _ in range(trials)])
        se = samples.std(ddof=1) / math.sqrt(trials)
        assert abs(samples.mean() - 1.0 / n) < 5 * se

    def test_both_determinant_signs_occur(self):
        gen = RandomStream(23)
        dets = {round(float(np.linalg.det(haar_orthogonal(3, gen)))) for _ in range(40)}
        assert dets == {-1, 1}


class TestSpectrum:
    def test_canonical_order(self):
        assert Spectrum([1.0, 3.0, 2.0]) == Spectrum([3.0, 2.0, 1.0])
        np.testing.assert_array_equal(Spectrum([1.0, 3.0, 2.0]).values, [3.0, 2.0, 1.0])

    def test_hash_consistent_with_eq(self):
        a, b = Spectrum([1.0, 2.0]), Spectrum([2.0, 1.0])
        assert a == b and hash(a) == hash(b)

    def test_inequality(self):
        assert Spectrum([1.0, 2.0]) != Spectrum([1.0, 2.5])


class TestRandomSymmetricWithSpectrum:
    def test_eigenvalues_prescribed(self):
        s = Spectrum([3.0, 1.0, -0.5, -2.0])
        a = random_symmetric_with_spectrum(s, RandomStream(24))
        got = np.sort(np.linalg.eigvalsh(a))
        np.testing.assert_allclose(got, np.sort(s.values), rtol=0, atol=1e-8)

    def test_exactly_symmetric(self):
        a = random_symmetric_with_spectrum(Spectrum([2.0, 1.0, 0.5]), RandomStream(25))
        np.testing.assert_array_equal(a, a.T)

    def test_scalar_spectrum_short_circuits(self):
        gen = RandomStream(26)
        a = random_symmetric_with_spectrum(Spectrum([1.5, 1.5, 1.5]), gen)
        np.testing.assert_array_equal(a, np.diag([1.5, 1.5, 1.5]))
        # no draws consumed: the stream is still at its origin
        after = gen.generator.standard_normal(4)
        np.testing.assert_array_equal(after, RandomStream(26).generator.standard_normal(4))

    def test_frame_varies_with_stream(self):
        s = Spectrum([2.0, -1.0])
        a = random_symmetric_with_spectrum(s, RandomStream(27))
        b = random_symmetric_with_spectrum(s, RandomStream(28))
        assert not np.array_equal(a, b)
