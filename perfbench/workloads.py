"""The benchmark's restoration workloads, as plain data.

Each entry gives the experiment keys and the solver keys of one fixed
problem, in the names `wtv.cli.ExperimentConfig` and
`wtv.forward_backward.SolverConfig` take.  The settings are those of
acceptance criteria 7 (Fourier sampling, 10 radial lines) and 8 (deblur),
at smaller sizes: one solve takes 2-3 s, so a run holds a dozen or more
and reports their median.  On a shared 2-vCPU machine one core slows by
1.3-2.5x for tens of seconds at a time; a median over many short solves
ignores a slow spell shorter than half the run, where a single 20 s solve
(the 256x256 problems, or deblur at 128x128 with Gauss-Seidel) absorbs it.

The deblur noise draw is fixed (noise seed 0, as in criterion 8) and the
Fourier problem is noiseless, so every workload is one fixed input.

Why these two:

* deblur128_fixed_fwsb -- the fwsb inner solver with weights built once
  (the bypass case for weight or system caching): every backward step hits
  max_outer, theta_bound runs once per linear solve, and the outer loop
  converges, so a change that trades outer convergence for fewer sweeps
  fails its output check here.
* cs40_adaptive_gs -- the interpreted Gauss-Seidel inner solver, which
  takes nearly all of the run, under weights rebuilt every step (so the
  Gauss-Seidel system is rebuilt every step too).  A Gauss-Seidel speed-up
  moves this workload and not the other.  Its backward-step tolerance tau
  is 3e-4 instead of the default 1e-4.  At 1e-4 no backward step stops
  before max_outer at 32x32 to 96x96, 1 of 80 does at 128x128 and 7 at
  192x192, while at 256x256 79 of 80 do.  With 3e-4, 28 of its 80 backward
  steps stop early and the outer loop is cut off at max_fb, as at 256x256.
  So a change that saves sweeps in backward steps shows here, and silent
  truncation at max_fb is always in view.  Deblur does not converge below
  128x128 with criterion 8's settings, and at 128x128 one Gauss-Seidel
  solve takes 20 s.
"""

WORKLOADS = {
    "deblur128_fixed_fwsb": {
        "experiment": {"problem": "deblur", "n": 128, "blur_sigma": 1.5,
                       "blur_size": 9, "noise_variance": 0.5e-2, "seed": 0},
        "solver": {"lam": 5e-3, "beta": 0.9, "weight_mode": "fixed",
                   "mu_scale": 7.5e-5, "epsilon": 1e-4, "max_fb": 200,
                   "inner": "fwsb"},
    },
    "cs40_adaptive_gs": {
        "experiment": {"problem": "cs_mri", "n": 40, "mask_lines": 10,
                       "noise_variance": 0.0},
        "solver": {"lam": 1e-3, "beta": 0.9, "weight_mode": "adaptive",
                   "mu_scale": 7.5e-5, "epsilon": 1e-4, "max_fb": 80,
                   "inner": "gauss_seidel", "tau": 3e-4},
    },
}
