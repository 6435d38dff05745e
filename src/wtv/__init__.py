"""Weighted total-variation image restoration.

Accelerated forward-backward driver with a split-Bregman proximal solve,
edge-adaptive diffusion weights from a log-exp potential, and two forward
models (circular Gaussian blur, undersampled Fourier sampling).
"""

from .bregman import (
    BregmanParams,
    BregmanState,
    cut,
    fwsb_linear_solve,
    gauss_seidel_solve,
    objective_backward,
    soft,
    theta_bound,
    wsb_solve,
)
from .errors import ConfigError, DivergenceError
from .forward_backward import (
    RunTrace,
    SolverConfig,
    afb_solve,
    fista_alpha,
    forward_step,
    objective_composite,
)
from .grid import (
    WeightField,
    div_w,
    grad_w,
    laplacian_inf_norm,
    laplacian_w,
    read_grid,
    unit_weights,
    weighted_tv,
    write_grid,
    write_pgm,
)
from .metrics import Stopwatch, psnr, rmse
from .operators import (
    ForwardModel,
    FourierMaskModel,
    GaussianBlurModel,
    power_method,
    radial_mask,
)
from .potential import LogExpParams, compute_weights, default_mu, phi, phi_prime
from .testdata import NoiseSpec, add_gaussian_noise, piecewise_test_image, shepp_logan

__version__ = "0.1.0"
