#pragma once

/// Small work-stealing thread pool for the selection data plane.
///
/// Large scatter/gather transfers decompose into disjoint-destination
/// byte segments; the pool fans those out across a handful of worker
/// threads. Two execution regimes:
///
///  - Free-running (no deterministic scheduler on the calling thread):
///    persistent workers pull chunk ranges from a shared job, stealing
///    half of the largest remaining range when their own runs dry. The
///    caller participates, so `workers() + 1` threads move bytes.
///
///  - Deterministic (the caller is attached to the cooperative
///    scheduler, i.e. an `L5_SCHED`/`mh5sched`/`L5_CHECK` run): the
///    persistent pool is bypassed. Chunks are statically partitioned
///    across freshly spawned *scheduler participants*
///    (`simmpi::detail::spawn_participant`), whose spawn, attach, and
///    join are all deterministic scheduling points — so the schedule
///    hash replays exactly, pool or no pool. Workers are pure compute
///    (no scheduling points inside a chunk), which keeps the explored
///    schedule space identical to the single-threaded kernel modulo the
///    spawn/join brackets.
///
/// Knobs: `L5_DATA_THREADS` caps the worker count (0 disables the
/// pool), `L5_PAR_THRESHOLD` sets the minimum transfer size in bytes
/// that fans out (default 4 MiB) — below it every query stays on the
/// calling thread, so small-query latency and schedule determinism are
/// untouched by default.

#include <cstddef>
#include <cstdint>
#include <functional>

namespace h5 {
namespace par {

/// Worker threads the pool may use in addition to the calling thread
/// (0 = pool disabled, everything runs inline).
int workers();

/// Minimum transfer size, in bytes, that fans out across the pool.
std::size_t parallel_threshold_bytes();
void        set_parallel_threshold_bytes(std::size_t bytes);

/// Should a transfer of `bytes` fan out? (workers available and at
/// least the threshold.)
bool should_parallelize(std::size_t bytes);

/// Target number of chunks for a transfer of `bytes`: enough to keep
/// every participant busy with some slack for stealing, bounded so each
/// chunk still moves a meaningful amount (≥ ~256 KiB).
std::size_t chunk_count(std::size_t bytes);

/// Execute `fn(i)` for every i in [0, n) across the pool workers plus
/// the calling thread; returns when all n calls have completed.
/// Rethrows the first chunk exception after the job drains. Chunks must
/// write disjoint data. Routes through deterministic scheduler
/// participants when the caller is attached to one (see file comment);
/// runs inline when there are no workers or n < 2.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

} // namespace par
} // namespace h5
