"""Forward models: circular Gaussian blur and undersampled Fourier sampling.

Both models expose apply/adjoint pairs that are exact adjoints under the
standard inner products (real on the image side, complex on Fourier data,
paired through the real part).  The normal operator adjoint(apply(.)) of
either is diagonal in the DFT basis (Wang, Yang, Yin & Zhang, SIAM J.
Imaging Sci. 2008), so each model carries its Gram multiplier on the
rfft2 half-plane, and the step-size bound of gradient descent is that
multiplier's largest entry, exactly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import ConfigError

__all__ = [
    "ForwardModel",
    "GaussianBlurModel",
    "FourierMaskModel",
    "gaussian_kernel",
    "radial_mask",
    "MIN_MASK_N",
    "power_method",
]


class ForwardModel(ABC):
    """Linear measurement operator on (n, n) real images, with (n, n) data.

    gram is the real (n, n//2 + 1) multiplier on the rfft2 half-plane
    through which the normal operator acts: adjoint(apply(u)) equals
    irfft2(gram * rfft2(u), s=u.shape) up to rounding.  Its entries are
    the eigenvalues of adjoint(apply(.)).
    """

    n: int
    gram: np.ndarray

    @abstractmethod
    def apply(self, u: np.ndarray) -> np.ndarray:
        """Forward measurement of an image."""

    @abstractmethod
    def adjoint(self, data: np.ndarray) -> np.ndarray:
        """Adjoint of apply; always returns a real image."""

    def _check_image(self, u: np.ndarray) -> None:
        if u.shape != (self.n, self.n):
            raise ValueError(f"expected ({self.n}, {self.n}) image, got {u.shape}")


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Sampled Gaussian on a size x size grid, normalised to unit sum.

    Matches the classic 'fspecial' construction: exp(-(x^2+y^2)/(2 sigma^2))
    evaluated at integer offsets from the centre, then divided by the total.
    Size must be odd so the kernel has a centre sample.  The messages of
    a rejected size or sigma name the config keys blur_size and blur_sigma.
    """
    if size % 2 == 0 or size < 1:
        raise ConfigError(f"blur_size must be odd and positive, got {size}")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ConfigError(f"blur_sigma must be positive and finite, got {sigma}")
    if not 2.0 * sigma * sigma > 0:
        # the centre sample would be 0/0
        raise ConfigError(f"blur_sigma={sigma!r} is too small: 2*sigma^2 underflows "
                          "to 0, so the kernel is not finite")
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    # a subnormal 2*sigma^2 sends the off-centre exponents to -inf, whose
    # exp is the correct 0: the kernel is then the unit impulse
    with np.errstate(over="ignore"):
        k = np.exp(-(xx * xx + yy * yy) / (2.0 * sigma * sigma))
    return k / k.sum()


class GaussianBlurModel(ForwardModel):
    """Circular convolution with a sampled Gaussian kernel, via real FFT.

    The kernel is symmetric, so its transfer function is real and the model
    is self-adjoint; the stored transfer holds the rfft2 half-plane and
    drops the O(eps) imaginary FFT residue, making apply and adjoint
    literally the same computation.  gram is the transfer squared.
    """

    def __init__(self, n: int, sigma: float, size: int):
        if n < size:
            raise ConfigError(f"grid side {n} smaller than blur_size {size}")
        self.n = n
        self.kernel = gaussian_kernel(size, sigma)
        embedded = np.zeros((n, n))
        embedded[:size, :size] = self.kernel
        half = (size - 1) // 2
        embedded = np.roll(embedded, (-half, -half), axis=(0, 1))
        self.transfer = np.fft.rfft2(embedded).real
        self.gram = self.transfer * self.transfer

    def apply(self, u: np.ndarray) -> np.ndarray:
        self._check_image(u)
        return np.fft.irfft2(np.fft.rfft2(u) * self.transfer, s=u.shape)

    adjoint = apply


class FourierMaskModel(ForwardModel):
    """Binary-masked unitary 2-D Fourier sampling.

    apply returns the full (n, n) complex spectrum with unsampled entries
    zeroed; adjoint re-masks, inverts with the same unitary normalisation
    and takes the real part.  Taking the real part averages the mask with
    its point reflection, so gram is (M(k) + M(-k))/2 on the rfft2
    half-plane; for a point-symmetric mask, such as radial_mask's, that is
    the mask itself.
    """

    def __init__(self, mask: np.ndarray):
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ConfigError(f"mask must be square, got shape {mask.shape}")
        self.n = mask.shape[0]
        self.mask = np.asarray(mask, dtype=np.float64)
        if not np.all((self.mask == 0.0) | (self.mask == 1.0)):
            raise ConfigError("mask entries must be 0 or 1")
        # M(-k): index negation mod n
        reflected = np.roll(self.mask[::-1, ::-1], (1, 1), axis=(0, 1))
        self.gram = 0.5 * (self.mask + reflected)[:, : self.n // 2 + 1]

    def apply(self, u: np.ndarray) -> np.ndarray:
        self._check_image(u)
        return self.mask * np.fft.fft2(u, norm="ortho")

    def adjoint(self, data: np.ndarray) -> np.ndarray:
        self._check_image(data)
        return np.fft.ifft2(self.mask * data, norm="ortho").real


# the smallest side radial_mask accepts
MIN_MASK_N = 16


def radial_mask(n: int, lines: int):
    """Binary spectral mask of radial lines through DC.

    Each line runs at angle i*pi/lines through the centre of the shifted
    grid and every frequency sample the continuous line crosses is marked
    (the line is marched at sub-pixel resolution, so diagonal segments mark
    both straddled cells rather than one per major-axis step).  Samples are
    marked in point-reflected pairs about the centre, the DC sample is
    forced on, and the result is shifted to the unshifted FFT layout where
    DC sits at [0, 0].  Returns (mask, sampling percentage).  A rejected
    line count is named by its config key, mask_lines.
    """
    if n < MIN_MASK_N:
        raise ConfigError(f"mask side must be at least {MIN_MASK_N}, got {n}")
    if lines < 1:
        raise ConfigError(f"mask_lines must be at least 1, got {lines}")
    c = n // 2
    shifted = np.zeros((n, n))

    def mark(r: int, col: int) -> None:
        if 0 <= r < n and 0 <= col < n:
            shifted[r, col] = 1.0

    # eighth-pixel parametric march; fine enough that no crossed cell is
    # skipped, cheap enough not to matter
    substep = 0.125
    reach = int(math.ceil(c * math.sqrt(2.0) / substep)) + 1
    for i in range(lines):
        ang = math.pi * i / lines
        dc_, dr_ = math.cos(ang), math.sin(ang)
        for s in range(reach + 1):
            t = s * substep
            dcol = int(math.floor(dc_ * t + 0.5))
            drow = int(math.floor(dr_ * t + 0.5))
            if max(abs(dcol), abs(drow)) > c:
                break
            mark(c + drow, c + dcol)
            mark(c - drow, c - dcol)
    shifted[c, c] = 1.0
    mask = np.fft.ifftshift(shifted)
    return mask, float(100.0 * mask.sum() / mask.size)


def power_method(model: ForwardModel) -> float:
    """Largest eigenvalue of adjoint(apply(.)): the largest Gram multiplier.

    Exact, since the Gram multipliers are the normal operator's
    eigenvalues.  The name predates that: perfbench/tracer.py hooks it.
    """
    return float(np.max(model.gram))
