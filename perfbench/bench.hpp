#pragma once

/// Shared types of the perfbench driver: the run configuration, the
/// per-rank session log each simulated rank fills while a workload runs,
/// and the entry points of the workload and report halves.
///
/// Every timed region is bracketed by an obs::Span of category "bench"
/// named after the layer whose public call it wraps (h5.create, h5.write,
/// lowfive.open, lowfive.close, h5.read, lowfive.stream.end_step, ...).
/// Spans are inert unless the traced session enabled the tracer, so the
/// untraced sessions time the same code with tracing off.

#include <obs/obs.hpp>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { bulk_crossed, small_reads, stream_steps };

const char* to_string(Workload w);
bool        parse_workload(const std::string& s, Workload& out);

/// Problem dimensions of one workload. `full` is what the benchmark
/// measures; `tiny` keeps the self-test fast.
struct Shape {
    std::uint64_t nx = 0, ny = 0, nz = 0; ///< 3-d uint64 grid
    std::uint64_t particles = 0;          ///< float32x3 rows (bulk_crossed only)
    int           reads_per_open = 0;     ///< small box reads per consumer open (small_reads)
    double        repeat_fraction = 0;    ///< share of those reads that repeat a box

    std::uint64_t grid_bytes() const { return nx * ny * nz * 8; }
    std::uint64_t particle_bytes() const { return particles * 12; }
};

Shape make_shape(Workload w, bool tiny);

struct Config {
    Workload      workload = Workload::bulk_crossed;
    std::uint64_t seed     = 1;
    double        seconds  = 10;
    bool          trace    = false;
    bool          tiny     = false;
    std::string   report_path; ///< full JSON report
    std::string   trace_path;  ///< Chrome trace of the traced session
};

constexpr int nprod = 2;
constexpr int ncons = 2;
constexpr int nranks = nprod + ncons;

/// What one simulated rank observed during one session. Each rank thread
/// writes only its own entry; the driver reads them after workflow::run
/// has joined every rank.
struct RankLog {
    bool producer = false;

    std::uint64_t body_entry_ns  = 0; ///< task body entered (launch done)
    std::uint64_t first_round_ns = 0; ///< first timed round started (setup done)

    std::uint64_t rounds = 0; ///< timed rounds (file) or steps (stream) this rank ran

    std::vector<double> round_ms; ///< rank 0 of the world (file) / consumer 0 (stream)
    std::vector<double> stall_ms; ///< producer: File::close or Writer::end_step
    std::vector<double> read_ms;  ///< consumer: one sample per Dataset::read
    std::vector<double> release_ms; ///< consumer: Reader::close (stream)
    /// Per round/step: producer = publish time (close entry / end_step
    /// return), consumer = the moment the round's file was open.
    std::vector<std::uint64_t> publish_ns;

    std::uint64_t reads        = 0; ///< consumer read calls attempted
    std::uint64_t failed       = 0; ///< reads (or steps) with wrong bytes or an exception
    std::uint64_t bytes_read   = 0; ///< payload bytes delivered to this consumer
    std::int64_t  snapshots_live_max = 0; ///< producer MVCC live set, sampled per step

    obs::Registry::Snapshot metrics; ///< this rank's DistMetadataVol registry at the end
};

struct Session {
    std::uint64_t        entry_ns = 0; ///< workflow::run entered
    std::vector<RankLog> ranks;        ///< indexed by world rank
    std::string          error;        ///< workflow failure, if any
};

/// Run one session (one workflow::run: launch, input generation, timed
/// rounds for about `seconds`) of `cfg.workload`. `traced` only decides
/// whether the driver stops early when the trace buffers overflow.
void run_session(const Config& cfg, int index, double seconds, bool traced, Session& out);

/// Facts of the machine and the run, recorded next to every result.
struct Facts {
    unsigned      nproc           = 0;
    std::uint64_t llc_bytes       = 0; ///< largest cache level sysfs reports for cpu0
    std::uint64_t payload_bytes   = 0; ///< bulk_crossed bytes per round at this size
    double        memcpy_GBps     = 0; ///< single-thread memcpy at payload_bytes
    int           par_workers     = 0;
    std::string   kern_dispatch;
    double        peak_rss_mib    = 0;
};

/// What the traced session adds to a run.
struct Traced {
    Session                 session;
    std::vector<obs::Event> events;     ///< the whole trace (all categories)
    obs::Registry::Snapshot global;     ///< Registry::global() delta over the session
    std::uint64_t           dropped = 0;
};

/// The full report of one run: facts, end-to-end metrics from the
/// untraced sessions, and — when `traced` is given — the per-role layer
/// tables and per-layer metrics. Sets `correct`/`attempted`/`failed`.
obs::json::Value make_report(const Config& cfg, const Facts& facts,
                             const std::vector<Session>& sessions, const Traced* traced);

} // namespace perfbench
