#!/usr/bin/env python3
"""Same-machine A/B comparison of two LowFive checkouts with one benchmark.

    python3 perfbench/ab.py --base PATH --head PATH [--pairs 10] [--seconds 20]
                            [--workloads bulk_crossed,small_reads,stream_steps] [--seed 1000]

Builds this directory's benchmark code, the same code for both sides,
against each checkout's src/ (build trees ab-base and ab-head next to
run.py's). Then, per workload, it runs `pairs` pairs, each pair on its own
seed, alternating which side runs first. For every end-to-end metric it
prints each side's median and quartiles, the share of pairs the head won
(ties count for neither) and a verdict:

  gain         the head won at least 9/10 of the pairs and the medians
               differ by more than the base's quartile spread
  regression   the head's median is worse than the base's by more than
               the metric's bound in BENCHMARK.json
  unresolved   the base's own quartile spread is wider than that bound,
               and not every head run beat every base run
  level        otherwise

The last line of standard output is the whole comparison as JSON.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def direction_and_bound(name, spec):
    """(higher is better, bound) of a metric; ungated metrics have no bound."""
    for m in spec["end_to_end"]:
        if m["name"] == name:
            return m["better"] == "higher", m["bound"]
    return name.endswith("_GBps") or name.endswith("_per_s"), None


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(base, head, higher, bound):
    q1, bmed, q3 = quartiles(base)
    hmed = statistics.median(head)
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    won = wins / len(base)
    worse = (bmed - hmed) if higher else (hmed - bmed)
    all_better = (min(head) > max(base)) if higher else (max(head) < min(base))
    if won >= 0.9 and abs(hmed - bmed) > q3 - q1:
        v = "gain"
    elif bound is not None and bmed and worse / abs(bmed) > bound:
        v = "regression"
    elif bound is not None and bmed and (q3 - q1) / abs(bmed) > bound and not all_better:
        v = "unresolved"
    else:
        v = "level"
    return won, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="checkout of the parent commit")
    ap.add_argument("--head", required=True, help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = ap.parse_args()

    with open(os.path.join(run.BENCH_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    binaries = {"base": run.build(os.path.abspath(args.base), "ab-base"),
                "head": run.build(os.path.abspath(args.head), "ab-head")}

    results = {}
    for workload in args.workloads.split(","):
        samples = {"base": {}, "head": {}}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                code, r = run.run_l5perf(binaries[side], workload, args.seed + i, seconds, 0)
                if r is None or code != 0 or not r["correct"]:
                    raise SystemExit("ab: %s run of %s (seed %d) failed"
                                     % (side, workload, args.seed + i))
                for name, m in r["end_to_end"].items():
                    samples[side].setdefault(name, []).append(m["value"])
            run.log("ab: %s pair %d/%d done" % (workload, i + 1, args.pairs))

        rows = {}
        print("%s (%d pairs, %g s per run)" % (workload, args.pairs, seconds))
        print("  %-24s %-34s %-34s %6s  %s" % ("metric", "base median [q1, q3]",
                                                "head median [q1, q3]", "won", "verdict"))
        for name, base in samples["base"].items():
            head = samples["head"][name]
            higher, bound = direction_and_bound(name, spec)
            won, v = verdict(base, head, higher, bound)
            bq, hq = quartiles(base), quartiles(head)
            print("  %-24s %-34s %-34s %5.0f%%  %s" % (
                name, "%.5g [%.5g, %.5g]" % (bq[1], bq[0], bq[2]),
                "%.5g [%.5g, %.5g]" % (hq[1], hq[0], hq[2]), 100 * won, v))
            rows[name] = {"base": base, "head": head, "won": won, "verdict": v,
                          "better": "higher" if higher else "lower"}
        results[workload] = rows
    print(json.dumps(results))


if __name__ == "__main__":
    main()
