#pragma once

/// Shared infrastructure for the per-figure/table benchmark binaries:
/// the paper's synthetic weak-scaling workload (§IV-B) — one producer
/// task and one consumer task exchanging a 3-d uint64 grid and a list of
/// float32 3-vector particles whose values encode their global position —
/// plus timing and table-printing helpers.
///
/// Environment knobs (all optional):
///   L5_BENCH_MAX_PROCS  largest world size in the sweep (default 64)
///   L5_BENCH_SCALE      per-rank payload multiplier (default 1 =
///                       62,500 grid points + 62,500 particles per
///                       producer rank; the paper used 1e6 + 1e6 on
///                       supercomputer nodes — scale 16 reproduces that)
///   L5_BENCH_TRIALS     trials per data point (default 3, as the paper)
///   L5_PFS_BW_MBPS      modelled PFS aggregate bandwidth for file modes
///   L5_PFS_LAT_MS       modelled PFS open latency

#include <diy/decomposer.hpp>
#include <h5/h5.hpp>
#include <lowfive/lowfive.hpp>
#include <obs/obs.hpp>
#include <simmpi/simmpi.hpp>
#include <workflow/workflow.hpp>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace benchcommon {

struct Params {
    std::uint64_t grid_points_per_rank = 62'500;
    std::uint64_t particles_per_rank   = 62'500;
    int           trials               = 3;
    int           max_procs            = 64;

    static Params from_env();

    /// Bytes exchanged per producer rank (8 B per grid point, 12 B per particle).
    std::uint64_t bytes_per_rank() const {
        return grid_points_per_rank * 8 + particles_per_rank * 12;
    }
};

/// Geometry of one weak-scaling data point: world split 3:1 into
/// producers and consumers (the paper's ratio), a 3-d grid whose global
/// extent grows with the producer count, and a global particle list.
struct Shape {
    int           nprod = 0;
    int           ncons = 0;
    h5::Extent    grid_dims;      ///< 3-d
    std::uint64_t total_particles = 0;

    diy::Bounds domain() const;
    /// Producer r's grid block (its own write decomposition).
    diy::Bounds prod_grid_block(int r) const;
    /// Consumer r's grid block (a different decomposition: consumers
    /// decompose over ncons blocks).
    diy::Bounds cons_grid_block(int r) const;
    /// Producer/consumer r's contiguous particle range [lo, hi).
    std::pair<std::uint64_t, std::uint64_t> prod_particles(int r) const;
    std::pair<std::uint64_t, std::uint64_t> cons_particles(int r) const;
};

/// 3:1 producer:consumer split of `world_size` (paper's Table I).
std::pair<int, int> split_3_to_1(int world_size);

Shape make_shape(int world_size, const Params& p);

/// The datatype of one particle row (compound of three float32).
h5::Datatype particle_type();

/// Fill the values of a producer's grid block: global linear position.
std::vector<std::uint64_t> grid_values(const Shape& s, const diy::Bounds& block);
/// Fill a particle range: component c of particle i is 3*i + c.
std::vector<float> particle_values(std::uint64_t lo, std::uint64_t hi);

/// Validate consumer-side data (sampled); throws on mismatch.
void validate_grid(const Shape& s, const diy::Bounds& block, const std::vector<std::uint64_t>& v);
void validate_particles(std::uint64_t lo, const std::vector<float>& v);

/// Producer body: write grid + particles into `fname` through `vol`.
void produce_synthetic(const Shape& s, int rank, const std::string& fname, const h5::VolPtr& vol);
/// Consumer body: read (and optionally validate) both datasets.
void consume_synthetic(const Shape& s, int rank, const std::string& fname, const h5::VolPtr& vol,
                       bool validate);

/// Barrier-bounded wall time of `fn` across `world`: every rank runs fn,
/// and the returned value (identical on every rank) is the max elapsed.
double timed_section(const simmpi::Comm& world, const std::function<void()>& fn);

/// The world sizes of the sweep: 4, 16, 64, ... up to max_procs.
std::vector<int> world_sizes(const Params& p);

/// One collected series (label -> completion time per world size).
struct Series {
    std::string         label;
    std::vector<double> seconds; ///< aligned with the world-size vector
};

/// Print a paper-style table: rows = world sizes, columns = series.
void print_table(const std::string& title, const Params& p, const std::vector<int>& sizes,
                 const std::vector<Series>& series);

/// Run `run_once(world_size) -> seconds` for each size, `trials` times,
/// keeping the mean (the paper reports averages over 3 trials).
Series sweep(const std::string& label, const Params& p, const std::vector<int>& sizes,
             const std::function<double(int)>& run_once);

/// Collector used by the google-benchmark-driven binaries: each manual
/// iteration records its timing here (optionally with the consumer-side
/// metrics registry snapshot of that run); the binary prints a
/// paper-style table at the end from the recorded medians and writes the
/// unified BENCH_*.json artifact.
void record(const std::string& label, int world_size, double seconds,
            const obs::Registry::Snapshot* metrics = nullptr);
void print_recorded(const std::string& title, const Params& p, const std::vector<int>& sizes);

/// --- unified BENCH_*.json envelope -------------------------------------
///
/// Every benchmark binary emits its machine-readable results through the
/// same schema:
///
///   { "bench": <name>, "schema": 1, "trials": N,
///     "payload_bytes_per_rank": B,
///     "scenarios": [
///       { "label": ..., "procs": P, "nprod": ..., "ncons": ...,
///         "seconds": [...], "seconds_median": ...,
///         "phases":   { "index_ns", "serve_ns", "query_ns",
///                       "query_intersect_ns", "query_data_ns",
///                       "query_other_ns", "query_copy_ns" }, // when metrics known
///         "counters": { "bytes_served", "bytes_fetched", ... }, // when metrics known
///         "query_latency_ns": { "count", "mean", "p50", "p99" } }, ... ],
///     ...bench-specific extras }
///
/// `phases` comes from the DistMetadataVol registry of consumer rank 0:
/// the time_*_ns counters accumulated by obs::ScopedTimerNs, so the
/// index / intersect / data / other breakdown is available without
/// tracing. query_intersect_ns + query_data_ns + query_other_ns ==
/// query_ns by construction. query_copy_ns (the merges of reply pieces
/// into the user buffer) is a sub-phase *inside* query_data_ns and does
/// not enter that identity.

obs::json::Value bench_envelope(const std::string& bench,
                                std::uint64_t payload_bytes_per_rank, int trials);

/// The "phases" object of the schema above; zeros for unknown counters.
obs::json::Value phase_json(const obs::Registry::Snapshot& metrics);

obs::json::Value scenario_json(const std::string& label, int procs, int nprod, int ncons,
                               const std::vector<double>& seconds,
                               const obs::Registry::Snapshot* metrics = nullptr);

void add_scenario(obs::json::Value& envelope, obs::json::Value scenario);

/// Write `envelope` to BENCH_<bench>.json in the working directory.
bool write_bench_json(const obs::json::Value& envelope);

/// Build the envelope from everything record()ed and write
/// BENCH_<bench>.json (one scenario per recorded label × world size).
void write_recorded_json(const std::string& bench, const Params& p,
                         const std::vector<int>& sizes);

} // namespace benchcommon
