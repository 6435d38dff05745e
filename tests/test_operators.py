"""Forward models (blur, masked Fourier), the radial mask, and Gram multipliers."""

import warnings

import numpy as np
import pytest

from oracles import normal_matrix
from wtv.errors import ConfigError
from wtv.operators import (
    ForwardModel,
    FourierMaskModel,
    GaussianBlurModel,
    gaussian_kernel,
    power_method,
    radial_mask,
)


class TestGaussianKernel:
    def test_normalized_nonnegative(self):
        k = gaussian_kernel(sigma=1.5, size=9)
        assert k.shape == (9, 9)
        assert np.all(k >= 0)
        assert np.isclose(k.sum(), 1.0, rtol=1e-14)

    def test_peak_at_center(self):
        k = gaussian_kernel(sigma=1.5, size=9)
        assert k[4, 4] == k.max()

    def test_even_size_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_kernel(sigma=1.5, size=8)

    def test_symmetric(self):
        k = gaussian_kernel(sigma=2.0, size=7)
        assert np.array_equal(k, k[::-1, :])
        assert np.array_equal(k, k[:, ::-1])
        assert np.array_equal(k, k.T)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-155])
    def test_subnormal_width_is_silent_unit_impulse(self, sigma):
        # 2*sigma^2 is subnormal but not 0: the off-centre exponents
        # overflow to -inf and their exp is exactly 0
        impulse = np.zeros((9, 9))
        impulse[4, 4] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = gaussian_kernel(9, sigma)
        assert np.array_equal(k, impulse)


class TestGaussianBlurModel:
    def test_constant_preserved(self):
        m = GaussianBlurModel(32, sigma=1.5, size=9)
        out = m.apply(np.full((32, 32), 0.37))
        assert np.allclose(out, 0.37, atol=1e-13)

    def test_impulse_response_is_kernel(self):
        n = 32
        m = GaussianBlurModel(n, sigma=1.5, size=9)
        u = np.zeros((n, n))
        u[n // 2, n // 2] = 1.0
        out = m.apply(u)
        k = gaussian_kernel(sigma=1.5, size=9)
        patch = out[n // 2 - 4 : n // 2 + 5, n // 2 - 4 : n // 2 + 5]
        assert np.allclose(patch, k, atol=1e-12)
        # nothing outside the kernel footprint
        assert np.isclose(out.sum(), 1.0, rtol=1e-12)

    def test_adjoint_identity(self, rng):
        m = GaussianBlurModel(32, sigma=1.5, size=9)
        for _ in range(100):
            x = rng.normal(size=(32, 32))
            y = rng.normal(size=(32, 32))
            lhs = np.sum(m.apply(x) * y)
            rhs = np.sum(x * m.adjoint(y))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_self_adjoint_exactly(self, rng):
        m = GaussianBlurModel(24, sigma=1.2, size=7)
        x = rng.normal(size=(24, 24))
        assert np.array_equal(m.apply(x), m.adjoint(x))

    def test_spectral_norm_is_transfer_peak(self):
        m = GaussianBlurModel(32, sigma=1.5, size=9)
        est = power_method(m)
        direct = float(np.max(np.abs(m.transfer)) ** 2)
        assert est <= direct + 1e-10
        assert est == pytest.approx(direct, rel=1e-6)

    def test_apply_rejects_wrong_shape(self):
        m = GaussianBlurModel(16, sigma=1.0, size=5)
        with pytest.raises(ValueError, match=r"expected \(16, 16\) image"):
            m.apply(np.zeros((16, 15)))

    def test_circular_wraparound(self):
        # impulse at the corner wraps to the opposite edges
        n = 16
        m = GaussianBlurModel(n, sigma=1.0, size=5)
        u = np.zeros((n, n))
        u[0, 0] = 1.0
        out = m.apply(u)
        k = gaussian_kernel(sigma=1.0, size=5)
        assert out[0, 0] == pytest.approx(k[2, 2], abs=1e-14)
        assert out[n - 1, n - 1] == pytest.approx(k[1, 1], abs=1e-14)


class TestFourierMaskModel:
    def test_full_mask_roundtrip(self, rng):
        n = 32
        m = FourierMaskModel(np.ones((n, n)))
        u = rng.normal(size=(n, n))
        assert np.allclose(m.adjoint(m.apply(u)), u, atol=1e-12)

    def test_empty_mask_zero(self, rng):
        n = 16
        m = FourierMaskModel(np.zeros((n, n)))
        assert np.all(m.apply(rng.normal(size=(n, n))) == 0)

    def test_mask_must_be_binary(self):
        bad = np.ones((8, 8))
        bad[3, 3] = 0.5
        with pytest.raises(ConfigError):
            FourierMaskModel(bad)

    def test_mask_must_be_square(self):
        with pytest.raises(ConfigError, match="mask must be square"):
            FourierMaskModel(np.ones((8, 9)))

    def test_projector_spectral_norm_one(self):
        mask, _ = radial_mask(32, 4)
        m = FourierMaskModel(mask)
        est = power_method(m)
        assert est == pytest.approx(1.0, abs=1e-6)
        assert est <= 1.0 + 1e-10

    def test_adjoint_identity_complex_pairing(self, rng):
        # <apply(x), y>_C pairs with <x, adjoint(y)>_R through the real part
        mask, _ = radial_mask(64, 6)
        m = FourierMaskModel(mask)
        for _ in range(100):
            x = rng.normal(size=(64, 64))
            y = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
            lhs = np.vdot(m.apply(x), y).real
            rhs = np.sum(x * m.adjoint(y))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def test_data_dtype_complex(self):
        mask, _ = radial_mask(16, 2)
        m = FourierMaskModel(mask)
        out = m.apply(np.ones((16, 16)))
        assert out.dtype == np.complex128


class TestRadialMask:
    def test_single_line_exact_percentage(self):
        mask, pct = radial_mask(64, 1)
        # one horizontal row of 64 samples in 64*64
        assert pct == pytest.approx(100.0 / 64.0, abs=1e-12)
        assert mask.sum() == 64

    def test_paper_scale_percentages(self):
        # published operating points: near 3.98% at 8 lines and 4.3% at
        # 10 lines on a 256 grid; rasterization conventions differ by
        # up to a percentage point, so assert a +/-1.0 pp band
        _, p8 = radial_mask(256, 8)
        _, p10 = radial_mask(256, 10)
        assert abs(p8 - 3.98) <= 1.0
        assert abs(p10 - 4.3) <= 1.0

    def test_dc_always_sampled(self):
        for lines in (1, 3, 7):
            mask, _ = radial_mask(32, lines)
            assert mask[0, 0] == 1.0

    def test_point_symmetric_about_dc(self):
        # 180 degree rotation about DC in unshifted layout: index negation mod n
        for lines in (2, 5, 9):
            mask, _ = radial_mask(48, lines)
            rotated = np.roll(mask[::-1, ::-1], (1, 1), axis=(0, 1))
            assert np.array_equal(mask, rotated)

    def test_monotone_in_line_count(self):
        prev = 0.0
        for lines in (1, 2, 4, 8, 16):
            _, pct = radial_mask(64, lines)
            assert pct >= prev
            prev = pct

    def test_binary_output(self):
        mask, _ = radial_mask(32, 5)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            radial_mask(8, 4)
        with pytest.raises(ConfigError):
            radial_mask(64, 0)


class _IdentityModel(ForwardModel):
    def __init__(self, n):
        self.n = n
        self.gram = np.ones((n, n // 2 + 1))

    def apply(self, u):
        self._check_image(u)
        return u.copy()

    def adjoint(self, data):
        return data.copy()


class _ZeroModel(_IdentityModel):
    def __init__(self, n):
        super().__init__(n)
        self.gram = np.zeros_like(self.gram)

    def apply(self, u):
        return np.zeros_like(u)

    def adjoint(self, data):
        return np.zeros_like(data)


class TestPowerMethod:
    def test_identity_model(self):
        assert power_method(_IdentityModel(16)) == pytest.approx(1.0)

    def test_zero_operator(self):
        assert power_method(_ZeroModel(16)) == 0.0


def _model(kind, n):
    """The blur, or Fourier sampling through a radial mask, a random 0/1
    mask or the radial mask without its DC sample."""
    if kind == "blur":
        return GaussianBlurModel(n, sigma=1.2, size=7)
    mask, _ = radial_mask(n, 3)
    if kind == "random":
        mask = (np.random.default_rng(n).random((n, n)) < 0.3).astype(float)
    elif kind == "no_dc":
        mask[0, 0] = 0.0
    return FourierMaskModel(mask)


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("kind", ["blur", "radial", "random", "no_dc"])
class TestGramOracle:
    """gram against the dense normal matrix, assembled from apply/adjoint."""

    def test_gram_applies_normal_operator(self, rng, kind, n):
        m = _model(kind, n)
        assert m.gram.shape == (n, n // 2 + 1)
        for _ in range(5):
            u = rng.normal(size=(n, n))
            direct = m.adjoint(m.apply(u))
            via_gram = np.fft.irfft2(m.gram * np.fft.rfft2(u), s=u.shape)
            assert np.linalg.norm(via_gram - direct) <= 1e-13 * np.linalg.norm(direct)

    def test_power_method_is_top_eigenvalue(self, kind, n):
        m = _model(kind, n)
        top = np.linalg.eigvalsh(normal_matrix(m))[-1]
        assert power_method(m) == pytest.approx(top, rel=1e-12, abs=1e-12)
