#!/usr/bin/env python3
"""Run one workload of the rppm benchmark and print its metrics.

    python3 benchmark/run.py --workload dse_cold --seed 1 --seconds 15 \
        --trace 0

--workload all runs every workload in turn.

Run from the repository root. The first run configures and builds the
benchmark package (benchmark/CMakeLists.txt, which compiles the library
from src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset.
Inputs, sockets and raw samples go to a per-run directory under
.bench_out/ that is removed afterwards; a traced run leaves its span file
there as .bench_out/trace-<workload>-seed<N>.json (Chrome trace-event
JSON, opens in Perfetto or chrome://tracing).

Standard error gets a human-readable report: every metric with its unit
and sample count, then (traced) the self time per span name. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics untraced and the per-layer metrics traced.
The exit code is 0 only when every answer matched its reference.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

WORKLOADS = ("dse_cold", "ingest_stream", "oracle_check")
OUT_DIR = ".bench_out"
# A run must end within 180 s; the build of a fresh checkout is allowed
# longer, so only the measured program is held to what is left.
RUN_LIMIT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "rppm_benchmark")


def run_program(binary, workload, args, workdir, raw_path, limit_s):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", raw_path]
    env = dict(os.environ, RPPM_STUDY_QUIET="1")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env)
    try:
        code = proc.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        raise RuntimeError("rppm_benchmark exceeded %.0f s" % limit_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError("rppm_benchmark exited with %d" % code)
    with open(raw_path) as f:
        return json.load(f)


def report(raw, e2e, extras, layers, attempted, failed):
    log("workload %s, seed %d, %d jobs, %g s per phase"
        % (raw["workload"], raw["seed"], raw["jobs"], raw["seconds"]))
    for k in raw["kernels"]:
        log("  input %-14s spec seed %s, %d ops, %.1f MB"
            % (k["name"], k["spec_seed"], k["ops"], k["file_bytes"] / 1e6))
    log("end-to-end (untraced): name, value, unit, samples, q1..q3 of "
        "the samples")
    spreads = benchstats.sample_quartiles(raw)
    for name, (value, n) in list(e2e.items()) + list(extras.items()):
        q = spreads.get(name)
        log("  %-22s %14.6g %-6s n=%-6d %s"
            % (name, value, benchstats.UNITS[name], n,
               "%.6g..%.6g" % q if q else ""))
    log("  %-22s %14.6g %-6s n=%d"
        % ("failed_frac", benchstats.failed_frac(attempted, failed),
           "ratio", attempted))
    log("  resident at the start of the measured phase: %.1f MB"
        % raw["untraced"]["start_rss_mb"])
    for e in raw["untraced"]["errors"] + raw.get("traced", {}).get(
            "errors", []):
        log("  error: " + e)
    if layers is None:
        return
    log("per-layer (traced):")
    for name, value in layers.items():
        log("  %-30s %14.6g %s"
            % (name, value, benchstats.LAYER_UNITS[name]))


def write_trace(raw, workload, seed):
    """Write the span file; log self time per span name."""
    spans = benchstats.parse_spans(raw["traced"]["spans"])
    selfs = benchstats.self_times(spans)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
    meta = {"workload": workload, "seed": seed, "jobs": raw["jobs"]}
    with open(path, "w") as f:
        json.dump(benchstats.chrome_trace(spans, selfs, meta), f)
    totals = {}
    for s in spans:
        total, own, n = totals.get(s["name"], (0, 0, 0))
        totals[s["name"]] = (total + s["end"] - s["start"],
                             own + selfs[s["id"]], n + 1)
    log("spans (%s): name, calls, total s, self s" % path)
    for name, (total, own, n) in sorted(totals.items(),
                                        key=lambda kv: -kv[1][1]):
        log("  %-22s %7d %10.4f %10.4f" % (name, n, total / 1e9, own / 1e9))


def run_workload(binary, workload, args, limit_s):
    """Run one workload; returns the result object, or None on error."""
    workdir = os.path.join(OUT_DIR, "%s-%d" % (workload, os.getpid()))
    raw_path = os.path.join(workdir, "raw.json")
    try:
        os.makedirs(workdir, exist_ok=True)
        raw = run_program(binary, workload, args, workdir, raw_path,
                          limit_s)
        e2e = benchstats.end_to_end(raw)
        extras = benchstats.workload_extras(raw)
        attempted, failed = benchstats.operations(raw)
        layers = benchstats.per_layer(raw, e2e) if args.trace else None
        if args.trace:
            write_trace(raw, workload, args.seed)
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        log("benchmark failed: %s" % e)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(raw, e2e, extras, layers, attempted, failed)
    if args.trace:
        metrics = {k: {"value": v, "unit": benchstats.LAYER_UNITS[k]}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": benchstats.UNITS[k]}
                   for k, (v, _) in e2e.items()}
    # Mismatches are failed samples too, so failed == 0 means every
    # answer matched its reference.
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.monotonic()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("benchmark build failed: %s" % e)
        return 2

    # A fresh checkout's build may take long; the program then still
    # gets a full run's worth of time.
    limit = max(RUN_LIMIT_S - (time.monotonic() - started), 60)
    code = 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(binary, workload, args, limit)
        if result is None:
            return 1
        # With --workload all, one result line per workload, in order.
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
