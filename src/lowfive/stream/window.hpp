#pragma once

/// The per-rank staging-window state machine of the streaming transport.
///
/// One StepWindow lives on every producer rank per stream, guarded by the
/// owning DistMetadataVol's serve mutex. It tracks, per published step,
/// the live consumer pins (refs) and the total number of acquires, and
/// implements the policy-dependent admission/eviction rules (see
/// DESIGN.md § Streaming transport for the full state machine):
///
///  - a step is *consumed* when no consumer holds it and every still-
///    active consumer rank has either acquired it or finished the stream;
///  - `block`: only consumed steps are evicted — when the window is full
///    of unconsumed steps the producer waits (can_admit() drives the
///    wait predicate);
///  - `drop` / `latest_only`: the oldest unheld step is evicted even if
///    unconsumed (counted as dropped); when *every* windowed step is
///    pinned the publish is admitted anyway (bounded overcommit — one
///    held step per consumer rank) so the producer never blocks.
///
/// Pure bookkeeping: no locking, no communication, no clocks — fully
/// unit-testable and deterministic under the cooperative scheduler.

#include "step.hpp"

#include <check/race.hpp>

#include <cstdint>
#include <map>
#include <vector>

namespace lowfive::stream {

class StepWindow {
public:
    explicit StepWindow(StreamConfig cfg) : cfg_(cfg.normalized()) {}

    const StreamConfig& config() const { return cfg_; }

    std::size_t occupancy() const { return steps_.size(); }
    bool        empty() const { return steps_.empty(); }

    /// End of stream: no further publishes; pending acquires past the
    /// last step answer "eos" instead of deferring.
    void set_eos() {
        L5_SHARED_WRITE(this, "window", "window/set_eos");
        eos_ = true;
    }
    bool eos() const { return eos_; }

    /// Consumer-population accounting: `expected` is the number of
    /// consumer tasks subscribed to this stream (set once at stream
    /// begin); consumer_done() retires one (its StreamDone arrived).
    void set_expected_consumers(std::uint64_t n) { expected_ = n; }
    std::uint64_t expected_consumers() const { return expected_; }
    void          consumer_done() {
        L5_SHARED_WRITE(this, "window", "window/consumer_done");
        ++dones_;
    }
    std::uint64_t done_consumers() const { return dones_; }

    /// Would publishing one more step succeed without evicting an
    /// unconsumed step? (The block-policy wait predicate.)
    bool can_admit() const;

    /// A step evicted from the window; `dropped` means no consumer ever
    /// read it although consumers were subscribed (drop/latest_only
    /// eviction or skip, or a premature stream end).
    struct Evicted {
        StepId step;
        bool   dropped = false;
    };

    /// Evict per policy until the window has room (or nothing more may
    /// be evicted — under drop/latest_only the caller admits anyway;
    /// under block the caller must have waited on can_admit() first).
    /// Returns the evicted steps for GC.
    std::vector<Evicted> make_room();

    /// Housekeeping after a release/done changed the window: GC every
    /// consumed step, then (drop/latest_only) drain overcommit back down
    /// to the window budget by evicting the oldest unheld steps.
    std::vector<Evicted> reap();

    /// Admit a published step. Steps must be strictly increasing.
    /// `publish_ns` is an opaque timestamp echoed back at first drain
    /// (end-to-end latency accounting).
    void publish(StepId step, std::uint64_t publish_ns);

    /// Most recently published step (none before the first publish).
    StepId last_published() const { return last_published_; }

    /// Coordinator-side acquire: grant the oldest windowed step >= `min`
    /// (the newest instead under latest_only), pinning it. `retry_later`
    /// means nothing is available yet and the stream is still open — the
    /// caller defers the request until the next publish or eos.
    struct Acquire {
        enum class Status { granted, eos, retry_later };
        Status status = Status::retry_later;
        StepId step;
    };
    Acquire acquire(StepId min);

    /// Non-coordinator pin; false when the step is gone (this rank's
    /// window raced ahead — the consumer releases and retries higher).
    bool pin(StepId step);

    /// Drop one pin. First release that empties the pins of an acquired
    /// step reports it drained (with the publish timestamp, for latency
    /// accounting); nullopt when the step is unknown or unpinned — a
    /// protocol error the serve loop drops and counts.
    struct Released {
        bool          first_drain = false;
        std::uint64_t publish_ns  = 0;
    };
    std::optional<Released> release(StepId step);

    /// Fully drained: stream ended, every subscribed consumer finished,
    /// and no step is still pinned.
    bool drained() const;

    /// Evict everything (terminal GC once drained, or teardown).
    std::vector<Evicted> clear();

private:
    struct StepInfo {
        std::uint64_t refs       = 0; ///< live consumer pins on this rank
        std::uint64_t acquires   = 0; ///< total grants + pins ever taken
        std::uint64_t publish_ns = 0;
        bool          drain_counted = false;
    };

    bool consumed(const StepInfo& info) const {
        return info.refs == 0 && info.acquires + dones_ >= expected_;
    }
    bool never_read(const StepInfo& info) const {
        return info.acquires == 0 && expected_ > 0;
    }

    StreamConfig               cfg_;
    std::map<StepId, StepInfo> steps_;
    bool                       eos_      = false;
    std::uint64_t              expected_ = 0;
    std::uint64_t              dones_    = 0;
    StepId                     last_published_;
};

} // namespace lowfive::stream
