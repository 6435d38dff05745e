"""Restoration benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from `src/`.
Load shape: closed loop, one client -- one restoration at a time in one
Python process with BLAS pinned to one thread.  Every sample runs in a
fresh process (worker.py): SETUP_SAMPLES processes that only build the
problem, then one that builds it and solves it.  With --trace 0 that one
also times a fresh set-up process after every solve, so that the set-up
samples spread over the whole run.

--trace 0 solves repeatedly for about S seconds and reports the end-to-end
metrics: solve_s (median wall time of one afb_solve call, timed from
outside), setup_s (median over all set-up samples of the time from
starting a process to the end of build_problem), final_psnr_db (median) and peak_rss_mb (the solving
process).  --trace 1 runs a traced solve between two untraced ones and reports
the per-layer metrics of tracer.py.  Every solve's output is checked; a
solve that raises or fails a check counts in `failed`.

All workloads are fixed inputs: the deblur noise draw is that of acceptance
criterion 8 (noise seed 0) and the Fourier workload is noiseless.  --seed
is recorded but changes no input, because across noise draws the deblur
step count alone ranges over 66-96 at 256x256 (46-54 at 128x128), wider
than any bound a regression check could use.

Earlier lines of standard output are JSON records (the machine, the setup
samples, one stop record per solve); the last line is the result
{"correct", "attempted", "failed", "metrics"}.  The same records go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

from worker import setup_sample, start
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def high_percentile(values) -> dict | None:
    """The highest percentile with at least ten samples above it, if any."""
    k = len(values) - 10
    if k < 1:
        return None
    return {"percentile": 100.0 * k / len(values), "value": sorted(values)[k - 1]}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wtv", "__init__.py")):
        print(f"no library source at {os.path.join(ROOT, 'src', 'wtv')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    setups = [setup_sample(args.workload, deadline - time.monotonic())
              for _ in range(SETUP_SAMPLES)]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", os.path.join(OUT, tag + "_spans.csv")]
    _, solved = start(args.workload, "solve", deadline - time.monotonic(), extra)
    setups += solved.get("setup_samples", [])

    env = solved["environment"]
    records = [{
        "record": "machine", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), **env,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
    }, {"record": "setup", "samples": setups}]
    records += [{"record": "solve", **s} for s in solved["solves"]]

    solves = solved["solves"]
    failed = sum(1 for s in solves if s["problems"])
    if args.trace:
        metrics = dict(solved.get("layers", {}))
        for key in ("import_s", "build_problem_s"):
            metrics[f"setup.{key}"] = metric(statistics.median(s[key] for s in setups), "s")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = [m["name"] for m in json.load(fh)["per_layer"]]
        records.append({"record": "absent", "missing_hooks": solved.get("missing_hooks"),
                        "metrics": [name for name in declared if name not in metrics]})
    else:
        times = [s["solve_s"] for s in solves if "solve_s" in s]
        metrics = {"setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
                   "peak_rss_mb": metric(solved["peak_rss_mb"], "MB")}
        if times:
            metrics["solve_s"] = metric(statistics.median(times), "s")
            metrics["final_psnr_db"] = metric(
                statistics.median(s["final_psnr_db"] for s in solves if "solve_s" in s), "dB")
        records.append({"record": "solve_s", "samples": len(times),
                        "high_percentile": high_percentile(times)})
    result = {"correct": failed == 0, "attempted": len(solves), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"records": records, "result": result}, fh, indent=1)
    for record in records:
        print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
