"""One benchmark process: build a workload's problem, then optionally solve it.

run.py starts this script in a fresh process for every sample, from the
root of a checkout, with `src` on PYTHONPATH:

    python3 perfbench/worker.py --workload NAME --mode setup
    python3 perfbench/worker.py --workload NAME --mode solve \
        --seconds S --trace 0|1 [--spans PATH]

It prints one JSON object as its last line of standard output.  Setup
timestamps are CLOCK_MONOTONIC readings, which are system-wide, so the
parent can subtract the moment it started this process.

`--mode solve --trace 0` repeats the solve until the next one would end
past `--seconds`, and after every solve times one fresh `--mode setup`
process; every solve is checked.  `--trace 1` runs an untraced,
a traced and another untraced solve, checks that the traced one gives the
same image and that its counts reconcile with the returned RunTrace, and
reports the per-layer metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these once, when numpy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def start(workload: str, mode: str, timeout: float, extra=()) -> tuple:
    """Run this script once in a fresh one-thread process, with src/ on the
    path; returns (the moment it was started, its JSON result)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--mode", mode, *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=True)
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample(workload: str, timeout: float) -> dict:
    """Time one fresh process from its start to the end of build_problem."""
    started, r = start(workload, "setup", timeout)
    return {
        "setup_s": r["t_built"] - started,
        "import_s": r["t_imported"] - r["t_import"],
        "build_problem_s": r["t_built"] - r["t_imported"],
    }


def import_wtv():
    """Import the library from this checkout's src/, never from elsewhere."""
    import wtv.cli
    import wtv.forward_backward

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(wtv.__file__).startswith(src):
        raise ImportError(f"wtv imported from {wtv.__file__}, not from {src}")
    return wtv


def experiment_config(wtv, name: str, n: int | None = None):
    """The ExperimentConfig of a workload, optionally at another size (the
    self-test solves in-process at a small one)."""
    spec = WORKLOADS[name]
    solver = wtv.forward_backward.SolverConfig(**spec["solver"])
    exp = dict(spec["experiment"], solvers=(solver.inner,), solver=solver)
    if n is not None:
        exp["n"] = n
    return wtv.cli.ExperimentConfig(**exp)


def check(cfg, u, trace, truth, data, psnr) -> list:
    """Output checks of acceptance criteria 7 (cs_mri) and 8 (deblur)."""
    import numpy as np

    problems = []
    if not np.all(np.isfinite(u)):
        problems.append("restored image is not finite")
        return problems
    final = psnr(u, truth)
    if cfg.problem == "cs_mri":
        if not final >= trace.psnr[0] + 5.0:
            problems.append(
                f"PSNR {final:.4f} dB below zero-filled {trace.psnr[0]:.4f} + 5 dB")
    else:
        observed = psnr(data, truth)
        if not final > observed:
            problems.append(f"PSNR {final:.4f} dB not above observation {observed:.4f} dB")
        if not (trace.rel_change[-1] < cfg.solver.epsilon
                and trace.iterations[-1] <= cfg.solver.max_fb):
            problems.append(
                f"no convergence: rel_change {trace.rel_change[-1]:.3e} after "
                f"{trace.iterations[-1]} steps (epsilon {cfg.solver.epsilon:g})")
    return problems


def stop_record(cfg, u, trace, truth, seconds, psnr) -> dict:
    """Why and where the outer loop stopped, read from the RunTrace."""
    steps = trace.iterations[-1]
    rel = trace.rel_change[-1]
    return {
        "solve_s": seconds,
        "final_psnr_db": psnr(u, truth),
        "fb_steps": steps,
        "last_rel_change": rel,
        "max_fb_hit": steps >= cfg.solver.max_fb and not rel < cfg.solver.epsilon,
        "inner_iters": int(sum(trace.inner_iters)),
    }


def reconcile(layers: dict, trace) -> list:
    """Traced counts against the RunTrace; absent metrics are not compared."""
    steps = trace.iterations[-1]
    expected = {
        "bregman.inner_iters": int(sum(trace.inner_iters)),
        "bregman.backward_steps": steps,
        "forward_backward.steps": steps,
    }
    if "bregman.sweeps" in layers:
        expected["bregman.linear_solves"] = layers["bregman.sweeps"][0]
    return [
        f"traced {name} = {layers[name][0]}, expected {value}"
        for name, value in expected.items()
        if name in layers and layers[name][0] != value
    ]


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_solves(wtv, cfg, truth, model, data, seconds: float, trace_on: bool,
               spans_path: str | None, between=None) -> dict:
    """Solve and check; with tracing off, repeat while the next solve fits in
    `seconds`, calling `between()` after every solve and keeping what it
    returns as a setup sample."""
    import numpy as np

    from tracer import ROOT_SPAN, Tracer

    psnr = wtv.metrics.psnr
    out = {"solves": []}

    def solve(afb):
        t0 = time.perf_counter()
        u, trace = afb(model, data, cfg.solver, reference=truth)
        seconds_taken = time.perf_counter() - t0
        record = stop_record(cfg, u, trace, truth, seconds_taken, psnr)
        record["problems"] = check(cfg, u, trace, truth, data, psnr)
        out["solves"].append(record)
        return u, trace, record

    try:
        u0, trace0, first = solve(wtv.forward_backward.afb_solve)
        if not trace_on:
            begin = time.perf_counter() - first["solve_s"]
            out["setup_samples"] = []
            while True:
                if between is not None:
                    out["setup_samples"].append(between())
                if time.perf_counter() - begin + out["solves"][-1]["solve_s"] > seconds:
                    return out
                u, trace, record = solve(wtv.forward_backward.afb_solve)
                if not (np.array_equal(u, u0) and trace.iterations == trace0.iterations):
                    record["problems"].append("a rerun differs from the first solve")
        with Tracer() as tracer:
            u, trace, record = solve(tracer.wrap(ROOT_SPAN, wtv.forward_backward.afb_solve))
        record["traced"] = True
        # untraced solves on both sides of the traced one, so that a slow
        # spell of the machine does not pass for tracing overhead
        _, _, last = solve(wtv.forward_backward.afb_solve)
        untraced_s = 0.5 * (first["solve_s"] + last["solve_s"])
        layers = tracer.layer_metrics()
        out["trace_problems"] = reconcile(layers, trace)
        if not np.array_equal(u, u0):
            out["trace_problems"].append("the traced solve differs from the untraced one")
        record["problems"] += out["trace_problems"]
        layers["forward_backward.stopped_by_max_fb"] = (int(record["max_fb_hit"]), "flag")
        layers["trace.overhead_frac"] = (record["solve_s"] / untraced_s - 1.0, "ratio")
        out["layers"] = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
        out["missing_hooks"] = tracer.missing
        if spans_path:
            tracer.write_spans(spans_path)
    except Exception as exc:  # a failed solve is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        out["solves"].append({"error": repr(exc), "problems": [f"solve raised {exc!r}"]})
    return out


def main(argv=None) -> int:
    t_import = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", choices=("setup", "solve"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    wtv = import_wtv()
    t_imported = time.monotonic()
    cfg = experiment_config(wtv, args.workload)
    truth, model, data, _ = wtv.cli.build_problem(cfg)
    t_built = time.monotonic()
    result = {"t_import": t_import, "t_imported": t_imported, "t_built": t_built}
    if args.mode == "solve":
        import numpy as np

        # setup samples taken between solves spread over the whole run, so a
        # slow spell of the machine does not decide the setup_s of a run
        result.update(run_solves(wtv, cfg, truth, model, data, args.seconds,
                                 bool(args.trace), args.spans,
                                 lambda: setup_sample(args.workload, 60.0)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = environment(np)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
