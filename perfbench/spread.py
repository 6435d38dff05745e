"""Repeat run.py over seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...] \
        [--first-seed 0] [--out FILE]

Run from the root of a checkout.  For every workload it runs run.py with
--trace 0 once per seed, SEEDS seeds from --first-seed, one run at a time,
with BENCHMARK.json's run_seconds.  For each
metric it prints the median, the quartiles as statistics.quantiles(n=4)
gives them, and the spread (q3 - q1) / median next to the metric's bound;
a spread under a third of the bound is marked steady.  --out writes every
run's records and the summary as JSON: the form of the baselines kept in
perfbench/baseline/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=180, check=True)
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return {"seed": seed, "records": lines[:-1], "result": lines[-1]}


def summarize(runs: list, bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs
                  if name in r["result"]["metrics"]]
        median = statistics.median(values)
        q1 = q3 = values[0]
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else None
        entry = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                 "min": min(values), "max": max(values), "runs": len(values)}
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["steady"] = spread is not None and spread < bounds[name] / 3
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    for workload in args.workload:
        runs = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            runs.append(run_once(workload, seed, bench["run_seconds"]))
            result = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = summarize(runs, bounds)
        for name, s in summary.items():
            mark = "" if "steady" not in s else (
                f" bound {s['bound']:g} {'steady' if s['steady'] else 'NOT steady'}")
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {spread}{mark}", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
