#!/usr/bin/env bash
# Same-machine perf smoke gate: build the three micro-benches from
# BASE_REF and from the working tree, run both sides alternately on this
# machine, and gate each bench's working-tree medians against the base's
# with scripts/perf_smoke.py (+25% per scenario, 10 ms noise floor).
#
#   scripts/perf_smoke.sh BASE_REF [WORKDIR]
#
# BASE_REF is any commit git resolves (CI passes the pull request's base
# SHA, or the push's `before` SHA). WORKDIR (default: a new temporary
# directory, removed on exit) receives the base's sources, both build
# trees, and each side's BENCH_*.json in its own directory
# (WORKDIR/base, WORKDIR/head).
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

rm -rf "$work/base-src"
mkdir -p "$work/base-src" "$work/base" "$work/head"
git -C "$repo" archive "$base_sha" | tar -x -C "$work/base-src"

for side in base head; do
    src=$repo
    [[ $side == base ]] && src=$work/base-src
    cmake -S "$src" -B "$work/$side/build" >/dev/null
    cmake --build "$work/$side/build" -j "$jobs" --target "${benches[@]}"
done

# run_bench SIDE BENCH: the bench writes its BENCH_*.json into WORKDIR/SIDE
run_bench() {
    local env=()
    [[ $2 == bench_datapath ]] && env=(L5_DATAPATH_MAX_MIB=64)
    (cd "$work/$1" && env "${env[@]}" "./build/bench/$2" >/dev/null)
}

status=0
for i in "${!benches[@]}"; do
    b=${benches[$i]}
    # alternate which side goes first, so drift on a shared machine does
    # not always land on the same side
    if ((i % 2 == 0)); then
        run_bench base "$b"
        run_bench head "$b"
    else
        run_bench head "$b"
        run_bench base "$b"
    fi
    json=BENCH_${b#bench_}.json
    echo "== $b: working tree against ${base_sha:0:12}"
    python3 "$repo/scripts/perf_smoke.py" "$work/base/$json" "$work/head/$json" || status=1
done
exit "$status"
