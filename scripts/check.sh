#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
#   scripts/check.sh            build + lint + ctest in ./build, then the
#                               suite once more with the MPI-semantics
#                               checker armed (L5_CHECK=1), then the
#                               benchmark self-test (perfbench/selftest.py)
#   scripts/check.sh --tsan     additionally configure a ThreadSanitizer
#                               tree in ./build-tsan and run the
#                               concurrency-sensitive tests under it
#   scripts/check.sh --ubsan    additionally configure an
#                               UndefinedBehaviorSanitizer tree in
#                               ./build-ubsan and run the full suite under it
#
# Extra arguments after the flags are passed through to ctest
# (e.g. scripts/check.sh -R QueryPipeline).
set -euo pipefail

cd "$(dirname "$0")/.."

tsan=0
ubsan=0
while [[ "${1:-}" == --* ]]; do
    case "$1" in
        --tsan) tsan=1 ;;
        --ubsan) ubsan=1 ;;
        *) echo "check.sh: unknown flag $1" >&2; exit 2 ;;
    esac
    shift
done

jobs=$(nproc 2>/dev/null || echo 2)

echo "== Repo lint (scripts/lint.py) =="
python3 scripts/lint.py

cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
# --timeout turns any regression back into a hang (the failure mode the
# fault-injection suite guards against) into a loud test failure
ctest --test-dir build --output-on-failure --no-tests=error --timeout 180 -j "$jobs" "$@"

# the whole suite must stay diagnostic-free under the MPI-semantics
# checker: wildcard races, collective mismatches, and resource leaks
# escalate to test failures here
echo "== Checked suite (L5_CHECK=1) =="
L5_CHECK=1 ctest --test-dir build --output-on-failure --no-tests=error --timeout 180 -j "$jobs" "$@"

# ... and under the predictive race/lock-order detector: any predicted
# data race, lock-order cycle, forbidden edge, or lock-across-wait is
# raised at the offending site and fails the test that reached it
echo "== Race-checked suite (L5_RACE=1) =="
L5_RACE=1 ctest --test-dir build --output-on-failure --no-tests=error --timeout 180 -j "$jobs" "$@"

# the gated benchmark (BENCHMARK.json) builds l5perf against this tree's
# src/ and runs every workload at tiny size, byte-verifying every read:
# it must compile and stay correct on every library change
echo "== Benchmark self-test (perfbench/selftest.py) =="
python3 perfbench/selftest.py

# deterministic-scheduler sweep: replay the hang-regression suite under a
# handful of seeded schedules (both policies) — interleavings wall-clock
# timing would rarely hit; any failure prints an L5_SCHED repro line.
# --check arms the semantics checker and --race the predictive
# race/lock-order detector in every explored schedule; l5race findings
# are aggregated across seeds and fail the sweep with a repro line.
echo "== Deterministic-scheduler sweep (mh5sched) =="
./build/tools/mh5sched --seeds 1:5 --timeout 120 --jobs "$jobs" --check --race \
    -- ./build/tests/test_fault_injection --gtest_brief=1
./build/tools/mh5sched --seeds 1:5 --policy pct --depth 3 --timeout 120 --jobs "$jobs" --check --race \
    -- ./build/tests/test_fault_injection --gtest_brief=1
# the same sweep with the data-plane worker pool forced on (and a tiny
# fan-out threshold so even small payloads use it): the pool must not
# introduce schedule-dependent behavior into the protocol suites
L5_DATA_THREADS=3 L5_PAR_THRESHOLD=1024 \
    ./build/tools/mh5sched --seeds 1:5 --timeout 120 --jobs "$jobs" --check --race \
    -- ./build/tests/test_dist_vol --gtest_brief=1
# streaming-transport sweep: the step protocol (publish/acquire/pin/
# release, backpressure waits, drop GC) must stay hang-free and
# policy-correct under adversarial interleavings; --check arms the
# step-order checker in every explored schedule
./build/tools/mh5sched --seeds 1:5 --timeout 120 --jobs "$jobs" --check --race \
    -- ./build/tests/test_stream --gtest_brief=1
./build/tools/mh5sched --seeds 1:5 --policy pct --depth 3 --timeout 120 --jobs "$jobs" --check --race \
    -- ./build/tests/test_stream --gtest_brief=1
# aliased-reply sweep: consumers copy straight out of producer piece
# buffers on their own threads while a producer's serve path may drop the
# snapshot those buffers belong to; the payload's snapshot reference must
# keep every read valid under seeded schedules
./build/tools/mh5sched --seeds 1:5 --timeout 120 --jobs "$jobs" --check --race \
    -- ./build/tests/test_zero_copy --gtest_brief=1
./build/tools/mh5sched --seeds 1:5 --policy pct --depth 3 --timeout 120 --jobs "$jobs" --check --race \
    -- ./build/tests/test_zero_copy --gtest_brief=1
# MVCC snapshot-index sweep: versioned pins, GC on last unpin, and the
# defer-until-published read protocol must stay torn-read-free and
# hang-free under seeded schedules (the full 200-seed sweep runs in CI)
./build/tools/mh5sched --seeds 1:5 --timeout 120 --jobs "$jobs" --check --race \
    -- ./build/tests/test_mvcc --gtest_brief=1
./build/tools/mh5sched --seeds 1:5 --policy pct --depth 3 --timeout 120 --jobs "$jobs" --check --race \
    -- ./build/tests/test_mvcc --gtest_brief=1
# serve-engine sweep: every producer answers requests on its serve
# thread, so a sync close, serve_all and drop_file each wait on that
# thread (and sync opens are parked until a close waits) — both serving
# modes must stay hang-free and byte-correct under seeded schedules, and
# the serve loop must drop an unknown op and keep serving
for t in test_async_serve test_query_pipeline test_protocol; do
    ./build/tools/mh5sched --seeds 1:5 --timeout 120 --jobs "$jobs" --check --race \
        -- "./build/tests/$t" --gtest_brief=1
    ./build/tools/mh5sched --seeds 1:5 --policy pct --depth 3 --timeout 120 --jobs "$jobs" --check --race \
        -- "./build/tests/$t" --gtest_brief=1
done

if [[ $tsan -eq 1 ]]; then
    echo "== ThreadSanitizer tree (build-tsan) =="
    cmake -B build-tsan -S . -DLOWFIVE_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$jobs"
    # the concurrency-heavy suites: simmpi mailboxes/collectives,
    # background serving, the pipelined query plane, the telemetry
    # ring buffers / registry (concurrent emit vs snapshot), the
    # abort/deadline/fault-injection hang-regression suite, the
    # deterministic scheduler (cooperative handoffs + replay corpus),
    # the selection kernels and aliased replies (consumers reading
    # producer buffers across threads), the MVCC snapshot store
    # (lock-free pins racing publish/GC), and the wire protocol's
    # serve-loop test
    # scripts/tsan.supp silences the libstdc++ _Sp_atomic artifact (see
    # the file header); everything else still fails the run
    TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp" \
        ctest --test-dir build-tsan --output-on-failure --no-tests=error --timeout 300 -j "$jobs" \
          -R 'Simmpi|AsyncServe|QueryPipeline|DistVol|Telemetry|FaultInjection|Sched|Kern|ZeroCopy|Stream|Mvcc|Snapshot|Protocol'
fi

if [[ $ubsan -eq 1 ]]; then
    echo "== UndefinedBehaviorSanitizer tree (build-ubsan) =="
    cmake -B build-ubsan -S . -DLOWFIVE_SANITIZE=undefined >/dev/null
    cmake --build build-ubsan -j "$jobs"
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --test-dir build-ubsan --output-on-failure --no-tests=error --timeout 300 -j "$jobs"
fi

echo "check.sh: all green"
