#!/usr/bin/env python3
"""Run one perfbench workload against the LowFive library and print its metrics.

    python3 perfbench/run.py --workload bulk_crossed --seed 1 --seconds 10 --trace 0

Builds perfbench/ (CMake, Release) together with the library sources
under src/, runs the l5perf binary once, and prints every metric of the
run by name and unit, then the layer tables when traced. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the `end_to_end` names of BENCHMARK.json (--trace 0) or
its `per_layer` names (--trace 1). Exits non-zero, without that line, when
the sources are missing or the build fails, and with it when any read
returned wrong bytes or any operation failed.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory, which must be the root of a checkout; the full JSON
report and the Chrome trace of a traced run are written next to it.
L5_* variables are removed from the benchmark's environment so the
library runs with its defaults.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_crossed", "small_reads", "stream_steps")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir(tag="perfbench"):
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), tag)


def build(lib_root=BENCH_ROOT, tag="perfbench"):
    """Build l5perf against lib_root/src (configuring when needed); return its path."""
    if not os.path.isfile(os.path.join(lib_root, "src", "lowfive", "CMakeLists.txt")):
        raise SystemExit("perfbench: no LowFive sources under %s/src" % lib_root)
    out = build_dir(tag)
    root_entry = "LOWFIVE_ROOT:PATH=" + os.path.abspath(lib_root)
    cache = os.path.join(out, "CMakeCache.txt")
    configured = False
    if os.path.isfile(cache):
        with open(cache) as f:
            configured = root_entry in f.read().splitlines()
    if not configured:
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                        "-DLOWFIVE_ROOT=" + os.path.abspath(lib_root)],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "l5perf")


def run_l5perf(binary, workload, seed, seconds, trace, size="full", timeout=170):
    """Run the binary once; return (exit code, report dict or None)."""
    outdir = os.path.join(os.path.dirname(binary), "out")
    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, "%s-%s-%s-%d" % (workload, size, seed, trace))
    report_path = stem + ".json"
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size, "--report", report_path]
    if trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    env = {k: v for k, v in os.environ.items() if not k.startswith("L5_")}
    try:
        code = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: l5perf did not finish within %d s" % timeout)
        return 124, None
    if not os.path.exists(report_path):
        return code or 1, None
    with open(report_path) as f:
        return code, json.load(f)


def describe(name, m):
    extra = []
    if "percentile" in m:
        extra.append("p%.3g" % m["percentile"])
    if "samples" in m:
        extra.append("n=%d" % m["samples"])
    return "  %-36s %14.6g %-12s %s" % (name, m["value"], m["unit"],
                                        "(%s)" % ", ".join(extra) if extra else "")


def print_report(r):
    f = r["facts"]
    print("perfbench %s  seed=%s  seconds=%s  size=%s" % (r["workload"], r["seed"], r["seconds"], r["size"]))
    print("facts: nproc=%d ranks=%d llc=%.1f MiB bulk_payload=%.1f MiB (%.2fx LLC) "
          "mem.memcpy=%.2f GB/s par_workers=%d kern=%s sessions=%d bytes/round=%.0f"
          % (f["nproc"], f["ranks"], f["llc_bytes"] / 2**20, f["payload_bytes"] / 2**20,
             f["payload_over_llc"], f["mem.memcpy_GBps"], f["par_workers"], f["kern_dispatch"],
             f["sessions"], f["bytes_per_round"]))
    print("end-to-end (untraced sessions):")
    for name, m in r["end_to_end"].items():
        print(describe(name, m))
    if "per_layer" in r:
        print("per-layer (traced session):")
        for name, m in r["per_layer"].items():
            print(describe(name, m))
        for role, t in r["layers"].items():
            print("layers, %s role: mean round %.4f ms over %d rank-rounds"
                  % (role, t["wall_ms"], t["rounds"]))
            for row in t["rows"]:
                print("  %-36s %12.4f ms %7.1f%%" % (row["layer"], row["ms"], 100 * row["share"]))
        print("trace: %d events, %d dropped" % (r["trace_events"], r["trace_dropped"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    with open(os.path.join(BENCH_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        raise SystemExit("perfbench: build failed: %s" % e)

    code, report = run_l5perf(binary, args.workload, args.seed, args.seconds, args.trace, args.size)
    if report is None:
        raise SystemExit("perfbench: l5perf exited %d without a report" % code)
    print_report(report)

    source = report["per_layer"] if args.trace else report["end_to_end"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            raise SystemExit("perfbench: the report has no metric %s" % m["name"])
        got = source[m["name"]]
        if got["unit"] != m["unit"]:
            raise SystemExit("perfbench: %s is in %s, BENCHMARK.json says %s"
                             % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if code == 0 and report["correct"] else 1)


if __name__ == "__main__":
    main()
