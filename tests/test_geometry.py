"""The probability p-norm, the point wrappers, and the reference samplers'
inner products and Lorentz boost (tests/full_vector.py)."""

import math

import numpy as np
import pytest
from full_vector import boost_from_e1, euclid_inner, minkowski_inner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from randsteps.montecarlo import HyperboloidPoint, UnitVector
from randsteps.predictors import pnorm_pi


def _boost_matrix(u):
    # The boost taking e1 to u, one column per basis vector.
    n = u.values.shape[0]
    return np.column_stack([boost_from_e1(u, e) for e in np.eye(n)])


class TestInnerProducts:
    def test_euclid_hand_value(self):
        assert euclid_inner([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_euclid_accepts_wrappers(self):
        u = UnitVector([0.6, 0.8])
        assert euclid_inner(u, u) == pytest.approx(1.0, rel=1e-15)

    def test_euclid_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            euclid_inner([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_minkowski_hand_value(self):
        v = [2.0, math.sqrt(3.0), 0.0]
        np.testing.assert_allclose(minkowski_inner(v, v), 1.0, rtol=0, atol=1e-15)

    def test_minkowski_signature(self):
        # first coordinate timelike, the rest spacelike
        assert minkowski_inner([1.0, 0.0], [1.0, 0.0]) == 1.0
        assert minkowski_inner([0.0, 1.0], [0.0, 1.0]) == pytest.approx(-1.0)

    def test_minkowski_needs_two_dims(self):
        with pytest.raises(ValueError, match=">= 2"):
            minkowski_inner([1.0], [1.0])


class TestPnormPi:
    def test_hand_value(self):
        # ((9 + 16) / 2) ** 0.5
        np.testing.assert_allclose(pnorm_pi([3.0, 4.0], 2), math.sqrt(12.5), rtol=1e-15)

    def test_p1_is_mean_abs(self):
        np.testing.assert_allclose(pnorm_pi([-1.0, 2.0, 3.0], 1), 2.0, rtol=1e-15)

    def test_constant_vector_is_fixed_point(self):
        for p in (1.0, 2.0, 3.5, 17.0):
            np.testing.assert_allclose(pnorm_pi([0.7, 0.7, 0.7], p), 0.7, rtol=1e-12)

    def test_zero_vector(self):
        assert pnorm_pi([0.0, 0.0], 3) == 0.0

    def test_large_p_no_overflow(self):
        # scaling by the max entry keeps huge exponents finite
        out = pnorm_pi([1e200, 2e200], 64)
        assert math.isfinite(out) and out > 1e200

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="p must be"):
            pnorm_pi([1.0, 2.0], 0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        v=arrays(
            np.float64,
            st.integers(min_value=1, max_value=8),
            elements=st.floats(min_value=-100.0, max_value=100.0),
        ),
        p=st.floats(min_value=1.0, max_value=30.0),
        q=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_monotone_in_p(self, v, p, q):
        hi = p + q
        lo_val = pnorm_pi(v, p)
        hi_val = pnorm_pi(v, hi)
        assert lo_val <= hi_val * (1.0 + 1e-10) + 1e-300


class TestHsNorm:
    # For symmetric A with spectrum s, ||A||_HS = sqrt(N) * pnorm_pi(s, 2):
    # pnorm_pi against numpy's Frobenius norm.

    def test_diagonal_hand_value(self):
        assert math.sqrt(2) * pnorm_pi([3.0, 4.0], 2) == pytest.approx(5.0, rel=1e-15)

    def test_matches_pnorm_identity(self):
        s = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(
            np.linalg.norm(np.diag(s)), math.sqrt(3) * pnorm_pi(s, 2), rtol=1e-14
        )

    def test_orthogonal_invariance(self):
        gen = np.random.default_rng(3)
        s = gen.standard_normal(5)
        q, _ = np.linalg.qr(gen.standard_normal((5, 5)))
        a = q.T @ np.diag(s) @ q
        np.testing.assert_allclose(np.linalg.norm(a), math.sqrt(5) * pnorm_pi(s, 2), rtol=1e-12)

    def test_rejects_non_square(self):
        # a matrix is not a spectrum
        with pytest.raises(ValueError, match="1-D"):
            pnorm_pi(np.ones((2, 3)), 2)


class TestLorentzBoost:
    def test_two_by_two_block(self):
        u = HyperboloidPoint([math.cosh(1.0), math.sinh(1.0)])
        expected = np.array(
            [[math.cosh(1.0), math.sinh(1.0)], [math.sinh(1.0), math.cosh(1.0)]]
        )
        np.testing.assert_allclose(_boost_matrix(u), expected, rtol=1e-15)

    def test_maps_e1_to_u(self):
        u = HyperboloidPoint.from_spatial([0.4, -0.7, 1.2])
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(boost_from_e1(u, e1), u.values, rtol=1e-12)

    def test_preserves_minkowski_inner(self):
        gen = np.random.default_rng(17)
        u = HyperboloidPoint.from_spatial(gen.standard_normal(4))
        for _ in range(20):
            x = gen.standard_normal(5)
            y = gen.standard_normal(5)
            np.testing.assert_allclose(
                minkowski_inner(boost_from_e1(u, x), boost_from_e1(u, y)),
                minkowski_inner(x, y),
                rtol=1e-9,
                atol=1e-9,
            )

    def test_apply_matches_matrix(self):
        # the O(N) form against the matrix [[u1, s^T], [s, I + s s^T/(1 + u1)]]
        gen = np.random.default_rng(23)
        u = HyperboloidPoint.from_spatial(gen.standard_normal(6))
        u1, sp = u.values[0], u.values[1:]
        b = np.block([[np.array([[u1]]), sp[None, :]],
                      [sp[:, None], np.eye(6) + np.outer(sp, sp) / (1.0 + u1)]])
        for _ in range(10):
            x = gen.standard_normal(7)
            np.testing.assert_allclose(boost_from_e1(u, x), b @ x, rtol=1e-12)


class TestUnitVector:
    def test_accepts_near_unit_and_renormalizes(self):
        v = UnitVector([1.0 + 1e-10, 0.0])
        np.testing.assert_allclose(np.linalg.norm(v.values), 1.0, rtol=0, atol=1e-15)

    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError, match="norm"):
            UnitVector([2.0, 0.0])

    def test_values_read_only(self):
        v = UnitVector([1.0, 0.0])
        with pytest.raises(ValueError):
            v.values[0] = 2.0


class TestHyperboloidPoint:
    def test_from_spatial_on_sheet(self):
        p = HyperboloidPoint.from_spatial([0.3, -1.1])
        np.testing.assert_allclose(minkowski_inner(p, p), 1.0, rtol=1e-14)
        assert p.values[0] > 0.0

    def test_rejects_past_sheet(self):
        with pytest.raises(ValueError, match="positive"):
            HyperboloidPoint([-1.0, 0.0])

    def test_rejects_off_sheet(self):
        with pytest.raises(ValueError, match="Minkowski"):
            HyperboloidPoint([2.0, 0.0])
