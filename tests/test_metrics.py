"""PSNR and RMSE."""

import math

import numpy as np
import pytest

from wtv.metrics import psnr, rmse


class TestRmse:
    def test_identical_images(self, rng):
        x = rng.normal(size=(16, 16))
        assert rmse(x, x) == 0.0

    def test_constant_offset(self, rng):
        x = rng.normal(size=(16, 16))
        assert rmse(x + 0.1, x) == pytest.approx(0.1, rel=1e-12)

    def test_matches_naive_high_precision_sum(self, rng):
        u = rng.normal(size=(16, 16))
        x = rng.normal(size=(16, 16))
        # two-pass fsum oracle over the squared differences
        sq = [(float(a) - float(b)) ** 2 for a, b in zip(u.ravel(), x.ravel())]
        expect = math.sqrt(math.fsum(sq) / u.size)
        assert rmse(u, x) == pytest.approx(expect, rel=1e-13)

    def test_symmetric(self, rng):
        u = rng.normal(size=(8, 8))
        x = rng.normal(size=(8, 8))
        assert rmse(u, x) == rmse(x, u)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((4, 4)), np.zeros((5, 5)))


class TestPsnr:
    def test_twenty_db(self):
        x = np.zeros((4, 4))
        x[0, 0] = 1.0
        u = x + 0.1
        assert psnr(u, x) == pytest.approx(20.0, rel=1e-12)

    def test_forty_db(self):
        x = np.zeros((4, 4))
        x[0, 0] = 1.0
        u = x + 0.01
        assert psnr(u, x) == pytest.approx(40.0, rel=1e-12)

    def test_scale_invariant(self, rng):
        x = np.abs(rng.normal(size=(8, 8))) + 0.1
        u = x + rng.normal(size=(8, 8)) * 0.05
        assert psnr(2 * u, 2 * x) == pytest.approx(psnr(u, x), rel=1e-12)

    def test_exact_match_infinite(self, rng):
        x = np.abs(rng.normal(size=(8, 8))) + 0.1
        assert psnr(x, x) == np.inf

    def test_nonpositive_peak_rejected(self):
        x = -np.ones((4, 4))
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), x)

    def test_decreasing_in_rmse(self):
        x = np.zeros((4, 4))
        x[0, 0] = 1.0
        values = [psnr(x + d, x) for d in (0.01, 0.05, 0.1, 0.5)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_not_symmetric(self):
        # the peak is taken over the reference only
        x = np.full((4, 4), 1.0)
        u = np.full((4, 4), 2.0)
        assert psnr(u, x) != psnr(x, u)
