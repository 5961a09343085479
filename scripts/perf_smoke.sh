#!/usr/bin/env bash
# Same-machine perf smoke gate: build the three micro-benches from
# BASE_REF and from the working tree, run each bench three times per side
# on this machine, alternating which side goes first, and gate each
# scenario's working-tree median of those runs against the base's with
# scripts/perf_smoke.py (+25% per scenario, 10 ms noise floor).
#
#   scripts/perf_smoke.sh BASE_REF [WORKDIR]
#
# BASE_REF is any commit git resolves (CI passes the pull request's base
# SHA, or the push's `before` SHA). WORKDIR (default: a new temporary
# directory, removed on exit) receives the base's sources, both build
# trees, and each run's BENCH_*.json in its own directory
# (WORKDIR/base/run1 .. run3, WORKDIR/head/run1 .. run3).
# The base is exported with `git archive`, so a run registers nothing in
# the repository. The committed BENCH_*.json are recorded history; they
# are not the reference here.
#
# Exit status: 0 within budget, 1 regression, 2 usage error.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: scripts/perf_smoke.sh BASE_REF [WORKDIR]" >&2
    exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
base_sha=$(git -C "$repo" rev-parse --verify "$1^{commit}")
if [[ $# -eq 2 ]]; then
    work=$2
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
jobs=$(nproc 2>/dev/null || echo 2)
benches=(bench_query_pipeline bench_datapath bench_stream)
runs=3

rm -rf "$work/base-src"
mkdir -p "$work/base-src" "$work/base" "$work/head"
git -C "$repo" archive "$base_sha" | tar -x -C "$work/base-src"

for side in base head; do
    src=$repo
    [[ $side == base ]] && src=$work/base-src
    cmake -S "$src" -B "$work/$side/build" >/dev/null
    cmake --build "$work/$side/build" -j "$jobs" --target "${benches[@]}"
done

# run_bench SIDE BENCH K: the bench writes its BENCH_*.json into
# WORKDIR/SIDE/runK
run_bench() {
    local env=()
    [[ $2 == bench_datapath ]] && env=(L5_DATAPATH_MAX_MIB=64)
    mkdir -p "$work/$1/run$3"
    (cd "$work/$1/run$3" && env "${env[@]}" "../build/bench/$2" >/dev/null)
}

status=0
for b in "${benches[@]}"; do
    json=BENCH_${b#bench_}.json
    base_runs=() head_runs=()
    for ((k = 1; k <= runs; ++k)); do
        # alternate which side goes first, so drift on a shared machine
        # does not always land on the same side
        if ((k % 2 == 1)); then
            run_bench base "$b" "$k"
            run_bench head "$b" "$k"
        else
            run_bench head "$b" "$k"
            run_bench base "$b" "$k"
        fi
        base_runs+=("$work/base/run$k/$json")
        head_runs+=("$work/head/run$k/$json")
    done
    echo "== $b: working tree against ${base_sha:0:12}"
    python3 "$repo/scripts/perf_smoke.py" --base "${base_runs[@]}" --head "${head_runs[@]}" \
        || status=1
done
exit "$status"
