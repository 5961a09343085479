#pragma once

/// User-facing streaming API: ADIOS2-style begin_step/end_step on the
/// producer and subscribe/next_step on the consumer, layered over the
/// DistMetadataVol step protocol (see DESIGN.md § Streaming transport).
///
/// Producer:
///     stream::Writer w(vol, "sim.h5");          // registers the stream
///     for (int t = 0; t < nsteps; ++t) {
///         h5::File& f = w.begin_step();          // a fresh writable file
///         ... create groups/datasets, write ...
///         w.end_step();                          // publish (may block /
///     }                                          //  drop per policy)
///     w.close();                                 // end of stream
///
/// Consumer:
///     stream::Reader r(vol, "sim.h5");           // subscribes
///     while (r.next_step()) {                    // acquire + pin a step
///         h5::File& f = r.file();                // frozen snapshot
///         ... open datasets, read ...
///     }                                          // false at end of stream
///     r.close();                                 // unsubscribe
///
/// Every step is an immutable versioned snapshot: end_step() indexes and
/// publishes it into the bounded staging window, next_step() pins one
/// step on every producer rank so it cannot be evicted while reads are
/// in flight, and closing the step's file releases those pins. Only the
/// producer configures a stream: the Writer runs under the first
/// vol->set_stream pattern that matches its name (workflow links with
/// `stream:` register it), and that window's policy decides which step
/// each of the Reader's acquires gets.

#include "../dist_vol.hpp"
#include "step.hpp"

#include <h5/api.hpp>

#include <memory>
#include <string>

namespace lowfive::stream {

/// Producer handle: publishes versioned snapshots of `name` under the
/// vol's set_stream config for it. Forces the owning vol into background
/// serving (consumers drain asynchronously). Requires in-memory mode for
/// the stream's base name.
class Writer {
public:
    Writer(std::shared_ptr<DistMetadataVol> vol, std::string name);
    ~Writer(); ///< implicit close(); swallows errors like h5::File

    Writer(const Writer&)            = delete;
    Writer& operator=(const Writer&) = delete;

    const StreamConfig& config() const { return cfg_; }

    /// Open a fresh writable snapshot for the next step.
    h5::File& begin_step();

    /// Publish the open snapshot into the staging window. Under the
    /// block policy this may wait for window space (honoring the
    /// stream's timeout_ms or the communicator deadline — TimeoutError,
    /// never a hang); under drop/latest_only it never waits.
    void end_step();

    /// The last published step (none before the first end_step()).
    StepId current_step() const { return current_; }

    /// End the stream: consumers past the last step see end-of-stream.
    void close();

private:
    std::shared_ptr<DistMetadataVol> vol_;
    std::string                      name_;
    StreamConfig                     cfg_;
    h5::File                         file_;
    StepId                           current_;
    bool                             open_step_ = false;
    bool                             closed_    = false;
};

/// Consumer handle: drains steps of `name` at its own pace. next_step()
/// and close() are collective over the consumer task's ranks: rank 0
/// runs the grant/pin protocol and broadcasts the step, so every rank
/// reads the same frozen snapshot.
class Reader {
public:
    Reader(std::shared_ptr<DistMetadataVol> vol, std::string name);
    ~Reader(); ///< implicit close(); swallows errors like h5::File

    Reader(const Reader&)            = delete;
    Reader& operator=(const Reader&) = delete;

    /// Release the current step (if any) and acquire the next one: the
    /// oldest available step newer than the last one seen — or, when the
    /// producer's policy is latest_only, the newest published step,
    /// skipping intermediate steps. Blocks until a step is published;
    /// returns false at end of stream. The acquired step is pinned on every producer rank until
    /// the next next_step()/close().
    bool next_step();

    /// The step currently held (none before the first next_step()).
    StepId current_step() const { return current_; }

    /// The frozen snapshot of the current step; valid between a
    /// successful next_step() and the following next_step()/close().
    h5::File& file();

    /// Release the current step and unsubscribe (the producer may then
    /// retire the stream once every consumer has closed).
    void close();

private:
    std::shared_ptr<DistMetadataVol> vol_;
    std::string                      name_;
    h5::File                         file_;
    StepId                           current_;
    bool                             done_   = false;
    bool                             closed_ = false;
};

} // namespace lowfive::stream
