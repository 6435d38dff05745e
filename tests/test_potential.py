"""Log-exp potential, its derivative, and edge-adaptive weight fields.

Reference values were frozen from a 50-digit mpmath evaluation of the
closed forms; see the inline constants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtv.grid import grad_w, unit_weights
from wtv.potential import LogExpParams, compute_weights, default_mu, phi, phi_prime

# mpmath, 50 digits
PHI_1_1 = 0.54805891691695183
PHI_25_07 = 0.95999742772481207
PHI_03_2 = 0.10414834654899101
PHIP_0_1 = 0.7213475204444817
PHIP_13_04 = 0.13462828815799145
PHIP_1_1 = 0.38800045490012105


class TestPhi:
    def test_zero(self):
        assert phi(0.0, LogExpParams(mu=1.0)) == 0.0
        assert phi(0.0, LogExpParams(mu=37.0)) == 0.0

    def test_saturates_at_one(self):
        p = LogExpParams(mu=1.0)
        assert phi(50.0, p) == pytest.approx(1.0, abs=1e-15)
        assert phi(1e308, p) == 1.0  # no overflow

    def test_frozen_values(self):
        assert phi(1.0, LogExpParams(mu=1.0)) == pytest.approx(PHI_1_1, rel=1e-14)
        assert phi(2.5, LogExpParams(mu=0.7)) == pytest.approx(PHI_25_07, rel=1e-14)
        assert phi(0.3, LogExpParams(mu=2.0)) == pytest.approx(PHI_03_2, rel=1e-14)

    def test_even_in_t(self):
        p = LogExpParams(mu=0.8)
        for t in (0.1, 1.7, 42.0):
            assert phi(t, p) == phi(-t, p)

    def test_vectorized(self):
        p = LogExpParams(mu=1.0)
        out = phi(np.array([0.0, 1.0]), p)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(PHI_1_1, rel=1e-14)


class TestPhiPrime:
    def test_value_at_zero(self):
        assert phi_prime(0.0, LogExpParams(mu=1.0)) == pytest.approx(PHIP_0_1, rel=1e-15)

    def test_frozen_values(self):
        assert phi_prime(1.3, LogExpParams(mu=0.4)) == pytest.approx(PHIP_13_04, rel=1e-14)
        assert phi_prime(1.0, LogExpParams(mu=1.0)) == pytest.approx(PHIP_1_1, rel=1e-14)

    def test_vanishes_past_mu(self):
        p = LogExpParams(mu=0.01)
        assert phi_prime(1.0, p) < 1e-40
        assert phi_prime(1e6, p) == 0.0  # overflow handled as the limit

    def test_gradient_check_vs_centered_difference(self, rng):
        # phi_prime is d(phi)/dt away from the |t| kink; sample with
        # t/mu <= 6 so the centered difference is not cancellation-limited
        # (phi saturates exponentially, so for t >> mu the difference of
        # two near-1.0 values has no significant digits left)
        for _ in range(100):
            mu = rng.uniform(0.2, 3.0)
            t = mu * rng.uniform(0.05, 6.0)
            p = LogExpParams(mu=mu)
            h = 1e-6 * max(1.0, abs(t))
            fd = (phi(t + h, p) - phi(t - h, p)) / (2 * h)
            assert phi_prime(t, p) == pytest.approx(fd, rel=1e-6)

    @given(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.2, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_positive_bounded_even(self, t, mu):
        p = LogExpParams(mu=mu)
        val = phi_prime(t, p)
        cap = 1.0 / (2.0 * mu * math.log(2.0))
        assert 0.0 < val <= cap
        assert val == phi_prime(-t, p)
        if abs(t) > 1e-12 * mu:  # below this exp(|t|/mu) rounds to 1.0
            assert val < cap

    def test_params_validate(self):
        with pytest.raises(ValueError):
            LogExpParams(mu=0.0)
        with pytest.raises(ValueError):
            LogExpParams(mu=-1.0)
        with pytest.raises(ValueError):
            LogExpParams(mu=float("nan"))


class TestComputeWeights:
    def test_constant_image_uniform_field(self):
        p = LogExpParams(mu=0.5)
        w = compute_weights(np.full((8, 8), 2.0), p)
        expect = 1.0 / (2.0 * 0.5 * math.log(2.0))
        assert np.allclose(w.wx, expect, rtol=1e-15)
        assert np.allclose(w.wy, expect, rtol=1e-15)

    def test_edge_weights_smaller_than_flat(self):
        u = np.zeros((8, 8))
        u[:, 4:] = 1.0  # vertical step edge
        w = compute_weights(u, LogExpParams(mu=0.2))
        edge = w.wx[:, 3]
        flat = w.wx[:, 1]
        assert np.all(edge < flat)

    def test_matches_pointwise_derivative(self, rng):
        u = rng.normal(size=(10, 10))
        for mu in (0.3, 0.6):
            p = LogExpParams(mu=mu)
            w = compute_weights(u, p)
            ux, uy = grad_w(u, unit_weights(10))
            assert np.allclose(w.wx, phi_prime(np.abs(ux), p), rtol=1e-14)
            assert np.allclose(w.wy, phi_prime(np.abs(uy), p), rtol=1e-14)

    def test_in_place_evaluation_equals_allocating_one(self, rng):
        # compute_weights evaluates phi_prime into the differences
        # themselves; the bytes equal phi_prime's allocating path
        u = rng.normal(size=(12, 12))
        u[:, 6:] += 50.0  # an edge whose weight reaches the floor
        p = LogExpParams(mu=0.05)
        t = grad_w(u, unit_weights(12))
        expect = np.maximum(phi_prime(t, p), 1e-150)
        w = compute_weights(u, p)
        assert np.array_equal(np.stack((w.wx, w.wy)).view(np.int64), expect.view(np.int64))
        assert np.all(w.wx[:, 5] == 1e-150)
        fresh = phi_prime(grad_w(u, unit_weights(12)), p)
        assert phi_prime(t, p, out=t) is t
        assert np.array_equal(t.view(np.int64), fresh.view(np.int64))

    def test_strictly_positive_even_at_huge_gradients(self):
        u = np.zeros((8, 8))
        u[:, 4:] = 1e9  # would underflow phi_prime without the floor
        w = compute_weights(u, LogExpParams(mu=1e-3))
        assert np.all(w.wx > 0)
        assert np.all(w.wy > 0)


class TestDefaultMu:
    def test_zero_image(self):
        assert default_mu(np.zeros((8, 8))) == 0.0

    def test_hand_evaluated_2x2(self):
        assert default_mu(np.array([[0.0, 1.0], [0.0, 1.0]])) == 2.0

    @given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_absolutely_homogeneous(self, c):
        u = np.arange(16.0).reshape(4, 4)
        assert default_mu(c * u) == pytest.approx(abs(c) * default_mu(u), rel=1e-12)
