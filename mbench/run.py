#!/usr/bin/env python3
"""Two-clock benchmark of the Madeleine II reproduction.

Run from the repository root:

    python3 mbench/run.py --workload pingpong --seed 1 --seconds 10 --trace 0

Builds the harness (mbench/.build) on first use, then runs the workload in
two processes: an untraced one that repeats the workload for --seconds of
host time (the end-to-end metrics), and a traced one that runs it once
with spans, the queue sampler and the host/driver calibrations (the
per-layer metrics). Both must agree bit for bit on the virtual-clock
results. Human-readable lines come first; the last line of
standard output is one JSON object:
  --trace 0: every end-to-end metric; --trace 1: every per-layer metric.
See mbench/README.md for the metric and workload definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
OUT = os.path.join(HERE, ".out")
BINARY = os.path.join(BUILD, "mbench")
WORKLOADS = ("pingpong", "gateway", "fabric")
# Budget for the two workload processes after the build, in seconds.
CHILD_BUDGET_S = 170

# name -> (unit, clock, better); the order of the --trace 0 report.
END_TO_END = {
    "setup_s": ("s", "host", "lower"),
    "peak_rss_mb": ("MB", "host", "lower"),
    "lat_p50_us": ("us", "virtual", "lower"),
    "lat_p99_us": ("us", "virtual", "lower"),
    "bw_mbs": ("MB/s", "virtual", "higher"),
}
# Virtual-clock results the untraced and traced processes must agree on.
DETERMINISTIC = ("lat_p50_us", "lat_p99_us", "bw_mbs", "lat_samples")

LAYER_UNITS = {
    "sim_msgs_per_s": "msg/s",
    "sim.switch_ns": "ns",
    "sim.spawn_us": "us",
    "sim.fibers": "count",
    "hw.memcpy_per_byte": "ratio",
    "hw.allocs_per_msg": "count",
    "hw.gw_pci_busy": "ratio",
    "net.raw_lat_us.sisci": "us",
    "net.raw_lat_us.bip": "us",
    "mad.overhead_us.sisci": "us",
    "mad.overhead_us.bip": "us",
    "mad.pack_vus": "us",
    "mad.transit_vus": "us",
    "mad.unpack_vus": "us",
    "mad.tm_blocks.sci-short": "count",
    "mad.tm_blocks.sci-pio": "count",
    "mad.tm_blocks.sci-dma": "count",
    "mad.tm_blocks.bip-short": "count",
    "mad.tm_blocks.bip-long": "count",
    "mad.tm_blocks.tcp": "count",
    "mad.setup_s": "s",
    "fwd.setup_s": "s",
    "fwd.queue_p99": "count",
    "fwd.pool_in_use_max": "count",
    "fwd.gw_imbalance": "ratio",
    "setup.self_s": "s",
    "lat_samples": "count",
    "trace_overhead": "ratio",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"mbench: library sources not found under {ROOT}/src")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "mbench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"mbench: build step failed: {' '.join(step)}")
            return False
    return True


def child_env():
    # Ambient tracing or schedule pinning from the caller's environment
    # would change what is measured.
    env = dict(os.environ)
    for key in ("MAD2_TRACE", "MAD2_TRACE_DUMP", "MAD2_SCHEDULE",
                "MAD2_FAULT_SEED"):
        env.pop(key, None)
    return env


def run_child(args, deadline):
    """Runs one workload process; returns its JSON result or None."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        log("mbench: out of time before " + " ".join(args))
        return None
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=remaining, env=child_env())
    except subprocess.TimeoutExpired:
        log("mbench: workload process timed out: " + " ".join(args))
        return None
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"mbench: workload process exited {done.returncode}: "
            + " ".join(args))
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    opts = parser.parse_args()
    if opts.seconds <= 0 or opts.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not build():
        return 1
    deadline = time.monotonic() + CHILD_BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--seconds", str(opts.seconds)]
    plain = run_child(common + ["--trace", "0"], deadline)
    spans = os.path.join(OUT, f"{opts.workload}-spans.jsonl")
    traced = plain and run_child(common + ["--trace", "1", "--spans", spans],
                                 deadline)
    if not plain or not traced:
        return 1

    violations = dict(plain["violations"])
    for name, count in traced["violations"].items():
        violations[name] = violations.get(name, 0) + count
    failed = plain["failed"] + traced["failed"]
    for key in DETERMINISTIC:
        if plain[key] != traced[key]:
            violations[f"determinism.{key}"] = 1
            failed += 1
    attempted = plain["attempted"] + traced["attempted"]

    # The first repetition warms caches and the allocator; host figures
    # come from the rest whenever there is a rest.
    warm = slice(1, None) if plain["reps"] > 1 else slice(None)
    untraced_run_s = statistics.median(plain["run_s"][warm])
    e2e = {
        "setup_s": statistics.median(plain["setup_s"][warm]),
        "peak_rss_mb": plain["peak_rss_mb"],
        "lat_p50_us": plain["lat_p50_us"],
        "lat_p99_us": plain["lat_p99_us"],
        "bw_mbs": plain["bw_mbs"],
    }
    layer = dict(traced["layer"])
    layer["sim_msgs_per_s"] = statistics.median(plain["msgs_per_s"][warm])
    layer["lat_samples"] = traced["lat_samples"]
    layer["trace_overhead"] = traced["run_s"][0] / untraced_run_s - 1.0
    missing = [name for name in LAYER_UNITS if name not in layer]
    if missing:
        log("mbench: per-layer metrics missing: " + ", ".join(missing))
        return 1

    print(f"workload {opts.workload}  seed {opts.seed}  "
          f"untraced repetitions {plain['reps']} (the first one warms up)")
    for name, (unit, clock, better) in END_TO_END.items():
        print(f"  {name:<16} {e2e[name]:>14.6g} {unit:<6} "
              f"[{clock} clock, {better} is better]")
    print(f"  lat_p99_us is the p{100 * plain['lat_tail_q']:g} of "
          f"{plain['lat_samples']} samples")
    print(f"  fail_frac        {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} attempted messages failed)")
    for name, count in sorted(violations.items()):
        print(f"  VIOLATION {name}: {count}")
    print("  host: " + "  ".join(
        f"{name}={layer[name]:.4g}" for name in
        ("sim_msgs_per_s", "sim.switch_ns", "sim.spawn_us")) +
        "  raw drivers: " + "  ".join(
        f"{name}={layer[name]:.4g}" for name in
        ("net.raw_lat_us.sisci", "net.raw_lat_us.bip")))
    if opts.trace:
        for name in LAYER_UNITS:
            print(f"  {name:<26} {layer[name]:>14.6g} {LAYER_UNITS[name]}")
        print(f"  spans: {os.path.relpath(spans, ROOT)}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, (unit, _, _) in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0 and not violations,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
