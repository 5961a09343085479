#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size run of every workload.

    python3 perfbench/selftest.py

Builds l5perf like run.py, then runs each workload at --size tiny for one
second, untraced and traced, and checks that
  - every end-to-end metric of the benchmark is present with its unit,
    and every tail names its percentile and sample count,
  - every BENCHMARK.json metric is present with the unit it declares,
  - the run facts are recorded,
  - every read returned the right bytes (failed_ops_ratio is 0),
  - each traced layer table covers some rounds and its rows, residual
    included, sum to its mean round wall time.
Exits non-zero at the first failed check.
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

END_TO_END = {
    "setup_s": "s", "round_ms_p50": "ms", "round_ms_tail": "ms", "exchange_GBps": "GB/s",
    "producer_stall_ms_p50": "ms", "producer_stall_ms_tail": "ms", "read_ms_p50": "ms",
    "read_ms_tail": "ms", "reads_per_s": "1/s", "steps_per_s": "1/s",
    "step_latency_ms_p50": "ms", "step_latency_ms_tail": "ms", "peak_rss_mib": "MiB",
    "failed_ops_ratio": "ratio",
}
FACTS = ("nproc", "llc_bytes", "mem.memcpy_GBps", "par_workers", "kern_dispatch", "seed")


def check(cond, what):
    if not cond:
        raise SystemExit("selftest FAILED: " + what)


def check_units(section, want, where):
    for name, unit in want.items():
        check(name in section, "%s: missing %s" % (where, name))
        m = section[name]
        check(m["unit"] == unit, "%s: %s in %s, want %s" % (where, name, m["unit"], unit))
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              "%s: %s is not a finite number" % (where, name))


def main():
    with open(os.path.join(run.BENCH_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            where = "%s trace=%d" % (workload, trace)
            code, r = run.run_l5perf(binary, workload, 7, 1, trace, size="tiny", timeout=120)
            check(r is not None and code == 0, "%s: l5perf exited %d" % (where, code))
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  "%s: %d of %d operations failed" % (where, r["failed"], r["attempted"]))
            for fact in FACTS:
                check(fact in r["facts"], "%s: fact %s not recorded" % (where, fact))

            e2e = r["end_to_end"]
            check_units(e2e, END_TO_END, where)
            check_units(e2e, {m["name"]: m["unit"] for m in spec["end_to_end"]}, where)
            check(e2e["failed_ops_ratio"]["value"] == 0, where + ": failed_ops_ratio is not 0")
            for name, m in e2e.items():
                if name.endswith("_tail"):
                    check("percentile" in m and m["samples"] > 0,
                          "%s: %s lacks its percentile or sample count" % (where, name))
            if not trace:
                continue

            check_units(r["per_layer"], {m["name"]: m["unit"] for m in spec["per_layer"]}, where)
            for role, t in r["layers"].items():
                names = [row["layer"] for row in t["rows"]]
                check(t["rounds"] > 0 and names[-1] == "residual", "%s: no %s table" % (where, role))
                total = sum(row["ms"] for row in t["rows"])
                # the report's numbers carry about nine significant digits
                check(abs(total - t["wall_ms"]) <= 1e-6 * max(1.0, t["wall_ms"]),
                      "%s: %s rows sum to %g ms, wall is %g ms" % (where, role, total, t["wall_ms"]))
            print("ok  %-14s %d producer rows, %d consumer rows" % (
                workload, len(r["layers"]["producer"]["rows"]), len(r["layers"]["consumer"]["rows"])))
    print("selftest passed")


if __name__ == "__main__":
    main()
