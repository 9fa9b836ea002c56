#!/usr/bin/env python3
"""Steadiness check for the gateway benchmark.

    python3 gwbench/steady.py [--runs N] [--seconds S] [--workloads a,b] [--seed-base B]

Run from the repository root. Runs `run.py` N times per workload, each
with its own seed, interleaving the workloads and reversing their order
on every other round, so slow drift of the host lands on all of them
alike. Prints, per workload and metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread: the distance
between the quartiles as a share of the median. The bounds in
BENCHMARK.json are set from this output; a spread must stay below the
metric's bound, and is aimed at a third of it. `--seconds` defaults to
BENCHMARK.json's `run_seconds`, the run length the bounds apply to.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def benchmark():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True)
    took = time.monotonic() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"run {workload} seed {seed} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), took


def main():
    spec = benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, took = one_run(w, args.seed_base + i, args.seconds)
            results[w].append(result)
            share = result["failed"] / result["attempted"]
            print(
                f"[{i + 1}/{args.runs}] {w} seed {args.seed_base + i}: {took:.1f} s, "
                f"correct={result['correct']} failed share={share:g}",
                file=sys.stderr,
            )

    limits = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in workloads:
        runs = results[w]
        print(f"\n{w}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed shares={sorted({r['failed'] / r['attempted'] for r in runs})}")
        print(f"  {'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = limits.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = " OVER" if spread > bound else (" >1/3" if spread > bound / 3 else "")
            shown = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {shown}{flag}")


if __name__ == "__main__":
    main()
