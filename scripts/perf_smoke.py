#!/usr/bin/env python3
"""Perf smoke gate: compare one bench's runs at the head against the base's.

Usage
-----
    perf_smoke.py --base B.json [B.json ...] --head H.json [H.json ...]
                  [--threshold 0.25] [--min-seconds 0.010]

Every file is one run of the same bench in the unified bench envelope
(bench/common.hpp). Scenarios are matched by (label, procs); each side's
value for a scenario is the median, over that side's runs, of the run's
`seconds_median`. The gate fails when any matched scenario's head median
exceeds the base median by more than the threshold (default +25%,
overridable with --threshold or L5_PERF_SMOKE_THRESHOLD).

scripts/perf_smoke.sh builds both sides on the same machine and runs them
alternately, so the gate compares the change, not two machines. It is
still a *smoke* gate, not a benchmark: a few runs per side on a shared
runner resolve order-of-magnitude regressions (an accidental O(n^2)
path, a lost fast path), not single-digit percent drift; perfbench/ab.py
is the instrument for those. Scenarios that exist on only one side are
reported but never fail the gate, so adding or retiring scenarios does
not require touching this script. Scenarios whose base median sits under
--min-seconds (default 10 ms) are shown but not gated either: at that
scale scheduling jitter swamps any real signal.

Exit status: 0 within budget, 1 regression, 2 usage/IO error.
"""

import argparse
import json
import os
import statistics
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_smoke.py: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != 1:
        print(f"perf_smoke.py: {path}: unknown schema {doc.get('schema')!r}",
              file=sys.stderr)
        sys.exit(2)
    out = {}
    for s in doc.get("scenarios", []):
        key = (s.get("label"), s.get("procs"))
        out[key] = float(s["seconds_median"])
    return doc.get("bench", "?"), out


def load_side(side, paths):
    """(bench, {scenario: median over the runs that have it})."""
    benches, runs = set(), []
    for p in paths:
        bench, scen = load(p)
        benches.add(bench)
        runs.append(scen)
    if len(benches) != 1:
        print(f"perf_smoke.py: {side} runs mix benches {sorted(benches)!r}", file=sys.stderr)
        sys.exit(2)
    keys = set().union(*runs)
    return benches.pop(), {k: statistics.median(r[k] for r in runs if k in r) for k in keys}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", nargs="+", required=True, metavar="JSON",
                    help="the base commit's runs of one bench")
    ap.add_argument("--head", nargs="+", required=True, metavar="JSON",
                    help="the head's runs of the same bench")
    ap.add_argument("--threshold", type=float,
                    default=float(os.environ.get("L5_PERF_SMOKE_THRESHOLD", "0.25")),
                    help="allowed fractional slowdown per scenario (default 0.25)")
    ap.add_argument("--min-seconds", type=float, default=0.010,
                    help="base medians below this are noise, not gated (default 0.010)")
    args = ap.parse_args()

    bench_a, base = load_side("base", args.base)
    bench_b, head = load_side("head", args.head)
    if bench_a != bench_b:
        print(f"perf_smoke.py: bench mismatch: base={bench_a!r} head={bench_b!r}",
              file=sys.stderr)
        sys.exit(2)

    matched = sorted(set(base) & set(head))
    if not matched:
        print("perf_smoke.py: no scenarios in common — nothing to compare",
              file=sys.stderr)
        sys.exit(2)

    failures = 0
    for key in matched:
        label, procs = key
        b, h = base[key], head[key]
        ratio = h / b if b > 0 else float("inf")
        verdict = "ok"
        if b < args.min_seconds:
            verdict = "below noise floor, not gated"
        elif ratio > 1.0 + args.threshold:
            verdict = "REGRESSION"
            failures += 1
        print(f"  {label:<40} procs={procs:<3} "
              f"base={b * 1e3:9.3f}ms head={h * 1e3:9.3f}ms "
              f"ratio={ratio:5.2f}  {verdict}")

    for key in sorted(set(base) - set(head)):
        print(f"  {key[0]:<40} procs={key[1]:<3} only in base (skipped)")
    for key in sorted(set(head) - set(base)):
        print(f"  {key[0]:<40} procs={key[1]:<3} only in head (skipped)")

    runs = f"medians of {len(args.base)} base / {len(args.head)} head run(s)"
    if failures:
        print(f"perf_smoke.py: {failures} scenario(s) regressed past "
              f"+{args.threshold:.0%} of the base median ({runs})", file=sys.stderr)
        return 1
    print(f"perf_smoke.py: {len(matched)} scenario(s) within "
          f"+{args.threshold:.0%} of the base ({bench_a}; {runs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
