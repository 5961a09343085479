#pragma once

#include "metadata_vol.hpp"
#include "mvcc.hpp"
#include "protocol.hpp"
#include "stream/step.hpp"
#include "stream/window.hpp"

#include <diy/decomposer.hpp>
#include <obs/metrics.hpp>
#include <simmpi/comm.hpp>
#include <simmpi/sched.hpp>

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

namespace lowfive {

/// LowFive's distributed metadata VOL (paper §III-A level (c) and §III-B):
/// connects the ranks of a producer task to the ranks of a consumer task
/// through intercommunicators and redistributes dataset data with the
/// index–serve–query protocol:
///
///  - Index (Algorithm 1): on closing an in-memory file, the producer
///    ranks agree on a *common decomposition* of each dataset (n blocks
///    from factoring n into d near-equal factors) and exchange the
///    bounding boxes of their written data spaces so that rank i holds
///    the index for block i.
///  - Serve (Algorithm 2): producer ranks then answer consumer requests:
///    metadata queries (the serialized tree skeleton), intersection
///    queries (which producer ranks hold data intersecting a box), and
///    data queries (the actual selected elements), until every consumer
///    rank has closed the file (sent its done message).
///  - Query (Algorithm 3): a consumer read first asks the index-owning
///    ranks which producers hold intersecting data, then requests the
///    data from exactly those producers — all communication is direct
///    point-to-point, with no intermediate staging resources.
///
/// Connections are tagged with a file-name glob so a task can consume
/// from several producers and serve several consumers at once (fan-in /
/// fan-out). For passthru (file-mode) files, closing the file sends a
/// file-ready notification instead, and consumers block on it before
/// opening the physical file — reproducing the paper's synchronization
/// through file close.
class DistMetadataVol : public MetadataVol {
public:
    DistMetadataVol(simmpi::Comm local, h5::VolPtr passthru_vol = nullptr);

    /// The remote side of `intercomm` consumes files matching `pattern`.
    void serve_to(simmpi::Comm intercomm, std::string pattern = "*");
    /// The remote side of `intercomm` produces files matching `pattern`.
    void consume_from(simmpi::Comm intercomm, std::string pattern = "*");

    /// Block until every outstanding round has been served (all pending
    /// done messages have arrived) and every stream has drained.
    void serve_all();

    /// One serve thread per producer rank, spawned at its first publish,
    /// answers every request; this flag decides what a close waits for.
    /// Off (default, the paper's synchronization through file close):
    /// closing an in-memory file that someone consumes publishes it, then
    /// blocks until all consumer ranks are done with the round, and opens
    /// are answered only while such a close waits, so an open pairs with
    /// the producer's next close. On (the paper's §V-C future work,
    /// "consume data as soon as it is available, and overlap reading and
    /// writing"): the close returns right after publishing and opens are
    /// answered at once; zero-copy buffers must then stay valid until
    /// finish_serving(). Streams always run as if on. Reserves
    /// wire::tag_request on the local communicator for the serve thread's
    /// own signals.
    void set_serve_in_background(bool v);

    /// Block until every outstanding round has been served and stop the
    /// serve thread. Cannot hang: when the serve thread died (world
    /// abort, a request a handler rejects) the wait ends, the thread is
    /// joined, and its exception is rethrown here.
    void finish_serving();

    ~DistMetadataVol() override;

    // --- step-versioned streaming (see stream/stream.hpp and DESIGN.md
    // § Streaming transport): producers publish immutable versioned
    // snapshots of a base file name into a bounded staging window and
    // consumers drain them asynchronously; backpressure per StreamConfig.

    /// Producer side: register the stream configuration (window size,
    /// backpressure policy, block-publish timeout) for streams whose base
    /// name matches `pattern`; first match wins, unmatched streams run
    /// under the StreamConfig defaults. The producer's window alone
    /// decides what an acquire gets, so consumers configure nothing.
    void set_stream(const std::string& pattern, stream::StreamConfig cfg);

    // Wire entry points for stream::Writer / stream::Reader. Writer side:
    /// Register stream `name` (must be in-memory; forces background
    /// serving) under the first matching set_stream config, and return
    /// it normalized.
    stream::StreamConfig stream_begin(const std::string& name);
    /// End of stream: consumers past the last published step see eos.
    void stream_end(const std::string& name);
    // Reader side:
    /// Check that stream `name` can be consumed here (a producer
    /// connection routes it, in-memory mode); throws h5::Error if not.
    void stream_subscribe(const std::string& name);
    /// Acquire a step >= `min` as the producer's window grants it (the
    /// oldest, or the newest under latest_only), pinning it on every
    /// producer rank so it cannot be evicted while held; blocks until one
    /// is published; nullopt at end of stream. Collective over the
    /// consumer task: rank 0 runs the grant/pin protocol and broadcasts
    /// the result, so every consumer rank steps through the same versions.
    std::optional<stream::StepId> stream_acquire(const std::string& name, stream::StepId min);
    /// Release the pins of `step` (collective: barriers so every rank
    /// finished reading before rank 0 releases on all producer ranks).
    void stream_release(const std::string& name, stream::StepId step);
    /// Done with the stream (collective): lets producers retire it once
    /// every subscribed consumer task has unsubscribed.
    void stream_unsubscribe(const std::string& name);

    /// Transfer statistics for reporting: a point-in-time snapshot of the
    /// metrics registry, returned by value so it is safe to read while a
    /// background serve thread is updating the underlying counters.
    struct Stats {
        std::uint64_t bytes_served   = 0; ///< payload bytes sent while serving
        std::uint64_t bytes_fetched  = 0; ///< payload bytes received by queries
        std::uint64_t n_data_queries = 0;
        std::uint64_t n_intersect_queries = 0;
        std::uint64_t n_intersect_cache_hits   = 0; ///< reads that skipped the intersect round
        std::uint64_t n_intersect_cache_misses = 0; ///< reads that had to run it
        std::uint64_t n_zero_copy_pieces  = 0; ///< reply pieces served as aliased buffers
        /// requests the serve loop dropped: undecodable ones, and step
        /// releases naming no stream or no pinned step (none owes a reply)
        std::uint64_t n_malformed_requests = 0;
        // streaming (producer side unless noted)
        std::uint64_t n_steps_published    = 0; ///< steps admitted to the staging window
        std::uint64_t n_steps_dropped      = 0; ///< steps evicted before full consumption
        std::uint64_t n_steps_drained      = 0; ///< steps fully released after an acquire
        std::uint64_t n_step_publish_waits = 0; ///< publishes that blocked on a full window
        std::uint64_t n_steps_acquired     = 0; ///< consumer side: successful next_step()s
        std::uint64_t n_step_pin_rollbacks = 0; ///< consumer side: gone-grant rollback retries
        // MVCC snapshot index (producer side)
        std::int64_t  n_snapshots_live = 0; ///< versions in the live set right now
        std::uint64_t n_snapshot_pins  = 0; ///< snapshot pins ever taken
        std::uint64_t n_snapshot_gc    = 0; ///< versions GC'd from the live set
        // piece-buffer recycling (producer side; see PiecePool)
        std::uint64_t n_recycled_pieces = 0; ///< Deep writes that reused a dead tree's buffer
        std::uint64_t bytes_recycled    = 0; ///< bytes those writes packed
        std::int64_t  piece_pool_bytes  = 0; ///< spare buffer capacity held right now
    };
    Stats stats() const;

    /// The full metrics registry behind stats(): counters (including the
    /// per-phase time_*_ns breakdown) and latency histograms.
    const obs::Registry& metrics() const { return metrics_; }

    /// The MVCC snapshot store behind the serve-side index (read-only
    /// introspection: live versions, outstanding pins). See mvcc.hpp.
    const mvcc::SnapshotStore& snapshot_store() const { return snapshots_; }

    /// Consumer-side cache size: producer sets retained across all open
    /// remote files (each valid for exactly one publish version). For
    /// boundedness regression tests; touched only by the consumer thread.
    std::size_t producer_cache_sets() const {
        std::size_t n = 0;
        for (const auto& [file, fc] : producer_cache_) n += fc.sets.size();
        return n;
    }

    void* file_create(const std::string& name) override;
    void* file_open(const std::string& name) override;
    void  file_close(void* file) override;
    void  drop_file(const std::string& name) override;

protected:
    void after_file_close(FileEntry& entry) override;
    void remote_dataset_read(FileEntry& f, h5::Object* node, const h5::Dataspace& memspace,
                             const h5::Dataspace& filespace, void* buf) override;

private:
    struct Conn {
        simmpi::Comm ic;
        std::string  pattern;
    };

    int route_consume(const std::string& name) const; ///< -1 when no match

    /// Algorithm 1 over the local communicator (collective); publishes
    /// the resulting index + frozen tree as a new MVCC snapshot version.
    void index_file(FileEntry& entry);

    /// Dispatch one request: Intersect/Data queries answer against a
    /// pinned snapshot with no serve-mutex acquisition; everything else
    /// (Done, MetadataQuery, stream control) runs under mutex_ and then
    /// wakes the owed waits.
    void handle_request(Conn& conn, int src, wire::Request&& req);
    void handle_read_request(Conn& conn, int src, wire::Request&& req);
    void handle_control_request(Conn& conn, int src, wire::Request&& req);
    /// Replay parked requests after a publish/stream event: hands the
    /// replay to the serve thread via a replay self-signal, so request
    /// handling stays on that one thread. Requires mutex_ held.
    void schedule_deferred_retry_locked();
    /// The owed waits (sync close, serve_all, drop_file, finish_serving):
    /// block until every expected Done arrived (with `streams`, also every
    /// stream drained), there is no serve thread, or serving failed, whose
    /// error is rethrown. Runs under the world deadline; a timeout (a
    /// consumer stalled mid-round) becomes the serve error and stops the
    /// serve thread, so later waits fail at once. `lock` holds mutex_.
    void wait_owed_locked(simmpi::detail::CoopLock<std::mutex>& lock, const char* site,
                          bool streams);
    /// Raise the leaked-snapshot-pin lint (L5_CHECK) when pins are still
    /// outstanding at finish_serving.
    void check_pin_leaks();

    /// The serve thread: the only place requests are handled.
    void serve_loop();

    /// Wake dones_cv_ waiters on both paths: the real condition variable
    /// and (when a deterministic scheduler is active) its channel.
    void notify_dones();

    // --- streaming internals (all require mutex_ held) --------------------
    /// Window admission for the step about to be published: runs the
    /// block-policy backpressure wait (which releases `lock` for the
    /// serve thread) and the drop/latest_only evictions that make room.
    void stream_admit(simmpi::detail::CoopLock<std::mutex>& lock, const std::string& base);
    /// Publish one versioned snapshot: index it, answer deferred acquires.
    void publish_step(FileEntry& entry, const std::string& base, stream::StepId step);
    /// Evict + GC per policy after a release/done/publish changed the
    /// window; retires the whole stream once drained.
    void stream_room_locked(const std::string& base, stream::StepWindow& window);
    /// GC one evicted step: drop its retained snapshot and index.
    void gc_step_locked(const std::string& base, stream::StepWindow::Evicted ev);
    /// Every registered stream ended, fully unsubscribed, and unpinned.
    bool streams_drained_locked() const;
    /// Consumer tasks subscribed to `base`: one per matching serve
    /// connection (each consumer task pins/releases through its rank 0).
    std::uint64_t stream_expected_consumers(const std::string& base) const;
    /// Spawn the serve thread if not already running.
    void ensure_serve_thread_locked();

    simmpi::Comm      local_;
    std::vector<Conn> serve_conns_;
    std::vector<Conn> consume_conns_;

    // consumer state (touched only by the consumer's own thread): the
    // producer sets learned for one remote file, valid for exactly one
    // publish version — stale hits are impossible by construction, and a
    // reopen at a newer version evicts the file's sets eagerly, so
    // superseded versions never accumulate across long streams (each
    // step's entry additionally dies at stream_release)
    struct FileCache {
        std::uint64_t                                    version = 0;
        std::map<std::string, std::vector<std::int32_t>> sets; ///< dset \0 bounds → ranks
    };
    std::map<std::string, FileCache> producer_cache_;
    std::uint64_t                    next_req_id_ = 1;

    // serving: the serve thread and the producer thread share the
    // publish/teardown control state — files_/deferred_/owed rounds/
    // stream windows — guarded by mutex_, which nothing
    // re-enters. The query hot path (Intersect/Data) does NOT take it: it
    // reads a pinned MVCC snapshot (snapshots_), enforced by the
    // serve-lock-after-pin lint under L5_CHECK. background_: see
    // set_serve_in_background (streams force it on).
    bool                        background_ = false;
    std::thread                 serve_thread_;
    mutable std::mutex          mutex_;
    std::condition_variable_any dones_cv_;
    // set (under mutex_) when serving fails — the serve thread died (world
    // abort, a request a handler rejects) or an owed wait timed out — so
    // waiters on dones_cv_ wake instead of hanging; finish_serving()
    // surfaces it once
    std::exception_ptr          serve_error_;

    // owed rounds (guarded by mutex_), per (serve connection, consumer
    // rank, file): a publish adds one owed round and one snapshot pin to
    // each key, and that rank's Done takes a round off and drops the pins
    // of versions strictly older than the one it read — the exact
    // version a consumer opened stays live (and byte-identically
    // readable) until it finished its round, no matter how many rewrites
    // landed in between. A sync open is answered only while its own key
    // owes a round, so a rank that already sent its Done cannot reopen
    // the round, and a key never goes below 0. A background open is
    // answered at once, so a rank may reopen the current version and send
    // two Dones for one publish: the extra one leaves the key below 0, a
    // credit that the next publish uses up. The owed waits watch the
    // total of the keys above 0.
    struct Owed {
        std::int64_t                   rounds = 0;
        std::vector<mvcc::SnapshotPin> pins;
    };
    std::map<std::tuple<std::size_t, int, std::string>, Owed> rounds_;
    std::uint64_t rounds_owed_ = 0; ///< the sum of rounds_[*].rounds above 0

    // metadata queries for files that do not exist yet (a fast consumer
    // ran ahead, or a sync producer is not waiting in a close) and step
    // acquires with nothing available yet; retried after every file close
    // / step publish / stream end
    struct Deferred {
        std::size_t   conn;
        int           src;
        wire::Request request;
    };
    std::vector<Deferred> deferred_;

    // streaming state (guarded by mutex_): one staging window per active
    // stream on this producer rank, plus the config registry (first
    // matching pattern wins)
    std::map<std::string, stream::StepWindow>                 streams_;
    std::vector<std::pair<std::string, stream::StreamConfig>> stream_cfgs_;
    // StreamDone messages that raced ahead of stream_begin (a consumer
    // subscribed and quit before the writer registered the stream)
    std::map<std::string, std::uint64_t> pending_stream_dones_;

    // metrics (always on): atomics shared between the producer thread,
    // the consumer thread, and the background serve thread — updates and
    // stats() snapshots never race. Refs are resolved once here; the
    // registry member must precede them.
    obs::Registry   metrics_;
    obs::Counter&   c_bytes_served_     = metrics_.counter("bytes_served");
    obs::Counter&   c_bytes_fetched_    = metrics_.counter("bytes_fetched");
    obs::Counter&   c_data_queries_     = metrics_.counter("n_data_queries");
    obs::Counter&   c_intersect_queries_ = metrics_.counter("n_intersect_queries");
    obs::Counter&   c_cache_hits_       = metrics_.counter("n_intersect_cache_hits");
    obs::Counter&   c_cache_misses_     = metrics_.counter("n_intersect_cache_misses");
    obs::Counter&   c_t_index_ns_       = metrics_.counter("time_index_ns");
    obs::Counter&   c_t_serve_ns_       = metrics_.counter("time_serve_ns");
    obs::Counter&   c_malformed_requests_ = metrics_.counter("n_malformed_requests");
    obs::Counter&   c_t_query_ns_       = metrics_.counter("time_query_ns");
    obs::Counter&   c_t_intersect_ns_   = metrics_.counter("time_query_intersect_ns");
    obs::Counter&   c_t_data_ns_        = metrics_.counter("time_query_data_ns");
    // data-plane breakdown: merging reply pieces into the caller's
    // buffer (time_query_copy_ns) is a sub-phase of the data phase
    obs::Counter&   c_zero_copy_pieces_ = metrics_.counter("n_zero_copy_pieces");
    obs::Counter&   c_t_copy_ns_        = metrics_.counter("time_query_copy_ns");
    obs::Histogram& h_query_ns_         = metrics_.histogram("query_latency_ns");
    // streaming lifecycle: counts mirror Stats; the gauge tracks the
    // occupancy of the most recently updated stream window and the
    // histogram the publish→first-full-drain latency per step
    obs::Counter&   c_steps_published_    = metrics_.counter("n_steps_published");
    obs::Counter&   c_steps_dropped_      = metrics_.counter("n_steps_dropped");
    obs::Counter&   c_steps_drained_      = metrics_.counter("n_steps_drained");
    obs::Counter&   c_step_publish_waits_ = metrics_.counter("n_step_publish_waits");
    obs::Counter&   c_steps_acquired_     = metrics_.counter("n_steps_acquired");
    obs::Gauge&     g_window_occupancy_   = metrics_.gauge("stream_window_occupancy");
    obs::Histogram& h_step_latency_ns_    = metrics_.histogram("step_latency_ns");
    obs::Counter&   c_step_pin_rollbacks_ = metrics_.counter("n_step_pin_rollbacks");
    // MVCC snapshot lifecycle (updated by the store; resolved here so the
    // registry member precedes the store member)
    obs::Gauge&     g_snapshots_live_ = metrics_.gauge("n_snapshots_live");
    obs::Counter&   c_snapshot_pins_  = metrics_.counter("n_snapshot_pins");
    obs::Counter&   c_snapshot_gc_    = metrics_.counter("n_snapshot_gc");
    // piece-buffer recycling (updated by piece_pool_, which the
    // constructor instruments with these)
    obs::Counter&   c_recycled_pieces_  = metrics_.counter("n_recycled_pieces");
    obs::Counter&   c_bytes_recycled_   = metrics_.counter("bytes_recycled");
    obs::Gauge&     g_piece_pool_bytes_ = metrics_.gauge("piece_pool_bytes");

    // the MVCC snapshot index: every publish installs an immutable
    // versioned snapshot here; the serve-side query path pins and reads
    // with no serve-mutex acquisition (see mvcc.hpp). Declared after the
    // metric refs it captures.
    mvcc::SnapshotStore snapshots_{
        mvcc::SnapshotStore::Metrics{&g_snapshots_live_, &c_snapshot_pins_, &c_snapshot_gc_}};
};

} // namespace lowfive
