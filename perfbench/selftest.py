"""Self-test of the benchmark; runs in about a minute.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that:

* the traced counts reconcile with the returned RunTrace (inner iterations,
  backward and forward-backward steps, one linear solve per sweep) and the
  traced image equals the untraced one, for every workload solved
  in-process at a small size (N), where the output checks of criteria 7
  and 8 are not asserted;
* a hooked name that no longer exists makes its metrics absent and does not
  fail the run;
* run.py, at full size with --seconds 0 (one solve, or three with
  tracing), passes its output checks and prints exactly the metric names
  BENCHMARK.json lists, for both --trace values;
* run.py exits non-zero, printing no result, where the library source is
  missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import worker  # pins BLAS threads before numpy is imported
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
N = 32


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def run_bench(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def traced_solve(wtv, name: str) -> dict:
    cfg = worker.experiment_config(wtv, name, N)
    truth, model, data, _ = wtv.cli.build_problem(cfg)
    return worker.run_solves(wtv, cfg, truth, model, data, 0.0, True, None)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        fail("BENCHMARK.json's workloads differ from workloads.py")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    wtv = worker.import_wtv()
    for name in WORKLOADS:
        out = traced_solve(wtv, name)
        if "layers" not in out:
            fail(f"{name}: traced solve raised: {out['solves'][-1]}")
        if out["trace_problems"]:
            fail(f"{name}: {out['trace_problems']}")
        if out["missing_hooks"]:
            fail(f"{name}: hooks missing at this commit: {out['missing_hooks']}")
        print(f"{name}: traced counts reconcile")

    # a name removed by a refactor: its metrics go absent, the run goes on
    removed = wtv.bregman.gauss_seidel_solve
    del wtv.bregman.gauss_seidel_solve
    try:
        out = traced_solve(wtv, "deblur128_fixed_fwsb")
    finally:
        wtv.bregman.gauss_seidel_solve = removed
    if out["missing_hooks"] != ["bregman.gauss_seidel_solve"] or out["trace_problems"]:
        fail(f"missing hook not handled: {out.get('missing_hooks')} {out.get('trace_problems')}")
    if "bregman.inner_iters" in out["layers"] or "bregman.sweeps" not in out["layers"]:
        fail("metrics of a missing hook must be absent and only those")
    one_step = wtv.forward_backward.RunTrace()
    one_step.append(1, 0.0, 0.0, 0.0, 0.0, 5)
    if not worker.reconcile({"bregman.inner_iters": (4, "count")}, one_step):
        fail("reconcile accepted a wrong count")
    print("missing hook: its metrics are absent, the run completes")

    for name in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            proc = run_bench(["--workload", name, "--seed", "3", "--seconds", "0",
                              "--trace", str(trace)])
            if proc.returncode != 0:
                fail(f"{name} --trace {trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"result keys {sorted(result)}")
            if set(result["metrics"]) != expected:
                fail(f"{name} --trace {trace}: metrics differ from BENCHMARK.json by "
                     f"{sorted(set(result['metrics']) ^ expected)}")
            if result["failed"] or not result["correct"]:
                fail(f"{name}: failed {result['failed']} of {result['attempted']}")
        print(f"{name}: run.py prints every metric BENCHMARK.json names")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(["--workload", "cs40_adaptive_gs", "--seed", "1",
                      "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py must fail without printing a result where src/ is missing")
    print("without the library source run.py exits non-zero and prints nothing")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
