#!/usr/bin/env python3
"""Gateway benchmark entry point.

    python3 gwbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `gwbench` binary from source
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs repetitions of
the workload, each in a fresh process, until `--seconds` have passed
(at least MIN_REPS). Every repetition checks its own outputs; one that
the hypervisor disturbed (see STEAL_LIMIT_PCT) is replaced by another. The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: timings are the
better quartile over repetitions (QUARTILE_TIMINGS), memory readings the
median, and `setup_s` the median of every set-up of every repetition. With `--trace 1` repetitions alternate between untraced and
traced; the per-layer metrics are medians over the traced ones, and the
`trace.overhead_pct.*` metrics compare the two halves. Traced
repetitions write their spans as JSON lines under
$CARGO_TARGET_DIR/gwbench-spans/, and every run writes its repetitions'
raw reports under $CARGO_TARGET_DIR/gwbench-reps/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fused_discovery", "upnp_chain", "garbage_flood")
MIN_REPS = 3
REP_TIMEOUT_S = 60
# A repetition during which the hypervisor stole more than this share of
# the machine's CPU time measured the host, not the program: it is set
# aside (its checks still count) and another one runs in its place, for
# at most EXTRA_S beyond --seconds. If too few stay under the limit, the
# least disturbed ones are used.
STEAL_LIMIT_PCT = 10.0
EXTRA_S = 8

E2E_UNITS = {
    "setup_s": "s",
    "lat_p50_us": "us",
    "capacity_sps": "1/s",
    "cpu_us_per_session": "us",
    "heap_live_mib": "MiB",
    "rss_peak_mib": "MiB",
    "scrape_ms": "ms",
}

HIGHER_IS_BETTER = {"capacity_sps", "gateway.datagrams_per_submit"}
# End-to-end timings reported as the better quartile over repetitions;
# the rest (set-up, memory) are medians.
QUARTILE_TIMINGS = ("lat_p50_us", "capacity_sps", "cpu_us_per_session", "scrape_ms")

MDL_MESSAGES = (
    "SLPSrvRequest",
    "SLPSrvReply",
    "DNS_Question",
    "DNS_Response",
    "SSDP_M-Search",
    "SSDP_Resp",
    "HTTP_GET",
    "HTTP_OK",
)

LAYER_UNITS = {
    "setup.load_check_ms": "ms",
    "setup.deploy_ms": "ms",
    "setup.launch_ms": "ms",
    "gateway.busy_us_per_session": "us",
    "gateway.runq_us_per_session": "us",
    "gateway.datagrams_per_submit": "count",
    "net.ingress_lost": "count",
    "shard.busy_us_per_session": "us",
    "shard.runq_us_per_session": "us",
    "shard.inproc_us_per_session": "us",
    "engine.inproc_us_per_session.fused": "us",
    "engine.inproc_us_per_session.interpreted": "us",
    **{f"mdl.parse_ns.{m}": "ns" for m in MDL_MESSAGES},
    **{f"mdl.compose_ns.{m}": "ns" for m in MDL_MESSAGES},
    "alloc.calls_per_session": "count",
    "heap.retained_bytes_per_session": "B",
    "proc.minor_faults_per_ksession": "count",
    "stats.sessions_retained": "count",
    "stats.errors_retained": "count",
    "metrics.trace_events_per_session": "count",
    "metrics.http_scrape_ms": "ms",
    "export.busy_us_per_session": "us",
    "generator.late_p99_us": "us",
    "generator.late_max_us": "us",
    "generator.busy_us_per_session": "us",
    "session.lat_p90_us": "us",
    "session.lat_p99_us": "us",
    "host.steal_pct": "%",
    "host.steal_pct.saturation": "%",
    "host.reps_set_aside": "count",
    "budget.residual_us_per_session": "us",
    "trace.overhead_pct.lat_p50_us": "%",
    "trace.overhead_pct.cpu_us_per_session": "%",
    "trace.overhead_pct.capacity_sps": "%",
}


def fail(message):
    print(f"gwbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds the benchmark binary; returns its path."""
    manifest = HERE / "Cargo.toml"
    if not (HERE.parent / "crates" / "core" / "Cargo.toml").is_file():
        fail("the repository's crates are not next to the benchmark; run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target_dir() / "release" / "gwbench"


def run_rep(binary, workload, seed, trace, spans):
    """One repetition in a fresh process; returns its parsed report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"repetition seed {seed} did not finish within {REP_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"repetition seed {seed} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def values_of(reps, section, name):
    values = [r[section][name] for r in reps if r[section].get(name) is not None]
    if not values:
        fail(f"no repetition measured {name}")
    return values


def median_of(reps, section, name):
    return statistics.median(values_of(reps, section, name))


def better_quartile(reps, name):
    """The better quartile of an end-to-end timing over repetitions.

    Interference from the shared host only ever slows a repetition down,
    so the better quartile tracks the program more closely than the
    median does, while a single lucky repetition cannot set it.
    """
    values = values_of(reps, "e2e", name)
    if len(values) < 2:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 if name in HIGHER_IS_BETTER else q1


def overhead_pct(untraced, traced, name):
    base = better_quartile(untraced, name)
    with_spans = better_quartile(traced, name)
    change = (base - with_spans) if name in HIGHER_IS_BETTER else (with_spans - base)
    return 100.0 * change / base


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    spans_dir = target_dir() / "gwbench-spans"
    reps = []

    def enough():
        usable = [r for r in reps if r["steady"]]
        if args.trace:
            traced = sum(r["traced"] for r in usable)
            return traced >= 2 and len(usable) - traced >= 2
        return len(usable) >= MIN_REPS

    start = time.monotonic()
    hard_limit = args.seconds + EXTRA_S
    # A traced run alternates untraced and traced repetitions.
    while len(reps) < MIN_REPS or (
        time.monotonic() - start < hard_limit
        and (time.monotonic() - start < args.seconds or not enough())
    ):
        i = len(reps)
        traced = bool(args.trace) and i % 2 == 1
        spans = spans_dir / f"{args.workload}-seed{args.seed}-rep{i}.jsonl" if traced else None
        report = run_rep(binary, args.workload, args.seed * 1000 + i, traced, spans)
        report["traced"] = traced
        report["steady"] = report["layer"]["host.steal_pct"] <= STEAL_LIMIT_PCT
        reps.append(report)
    reps_log = target_dir() / "gwbench-reps" / f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    reps_log.parent.mkdir(parents=True, exist_ok=True)
    reps_log.write_text("".join(json.dumps(r) + "\n" for r in reps))
    set_aside = sum(not r["steady"] for r in reps)
    if set_aside:
        print(f"gwbench: {set_aside} of {len(reps)} repetitions set aside for host steal",
              file=sys.stderr)
    if enough():
        usable = [r for r in reps if r["steady"]]
    else:
        # Every repetition was disturbed: use the least disturbed ones.
        def least_stolen(group, n):
            return sorted(group, key=lambda r: r["layer"]["host.steal_pct"])[:n]

        if args.trace:
            usable = least_stolen([r for r in reps if r["traced"]], 2)
            usable += least_stolen([r for r in reps if not r["traced"]], 2)
        else:
            usable = least_stolen(reps, MIN_REPS)

    problems = [p for r in reps for p in r["problems"]]
    for p in problems[:20]:
        print(f"gwbench: check failed: {p}", file=sys.stderr)

    untraced = [r for r in usable if not r["traced"]]
    metrics = {}
    if args.trace:
        traced = [r for r in usable if r["traced"]]
        for name, unit in LAYER_UNITS.items():
            if name.startswith("trace.") or name == "host.reps_set_aside":
                continue
            metrics[name] = {"value": median_of(traced, "layer", name), "unit": unit}
        for name in ("lat_p50_us", "cpu_us_per_session", "capacity_sps"):
            metrics[f"trace.overhead_pct.{name}"] = {
                "value": overhead_pct(untraced, traced, name),
                "unit": "%",
            }
        metrics["host.reps_set_aside"] = {"value": set_aside, "unit": "count"}
    else:
        for name, unit in E2E_UNITS.items():
            if name == "setup_s":
                value = statistics.median([s for r in usable for s in r["setup_s"]])
            elif name in QUARTILE_TIMINGS:
                value = better_quartile(usable, name)
            else:
                value = median_of(usable, "e2e", name)
            metrics[name] = {"value": value, "unit": unit}

    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
