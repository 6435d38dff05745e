"""Shared fixtures: seeded RNGs and small random problem instances.

BLAS runs on one thread for the whole session.  The variables must be set
before numpy loads, so they come first here.  On a 2-vCPU machine a cold
multi-threaded OpenBLAS pool took 131-147 ms per 256x256 dense solve
(1.1-1.7 ms warm); that cost, not the code under test, would decide the
wall-clock bounds of the acceptance criteria.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest

from wtv.grid import WeightField


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


@pytest.fixture
def random_weights(rng):
    def make(n, lo=0.2, hi=2.0):
        wx = rng.uniform(lo, hi, size=(n, n))
        wy = rng.uniform(lo, hi, size=(n, n))
        return WeightField(wx=wx, wy=wy)

    return make


@pytest.fixture
def random_image(rng):
    def make(n, scale=1.0):
        return scale * rng.normal(size=(n, n))

    return make
