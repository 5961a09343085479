#pragma once

#include <lowfive/dist_vol.hpp>
#include <simmpi/simmpi.hpp>

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace workflow {

/// Data transport mode for a run, switchable without touching task code —
/// the paper's "seamlessly switch between storage and in situ".
struct Mode {
    bool memory   = true;  ///< keep data in memory / transport in situ
    bool passthru = false; ///< write/read physical files through the native VOL

    static Mode in_situ() { return {true, false}; }
    static Mode file() { return {false, true}; }
    static Mode both() { return {true, true}; }

    /// Parse `L5_MODE` = "memory" | "file" | "both" (default memory).
    static Mode from_env();
};

/// Everything a task body receives: its communicators and a fully wired
/// LowFive VOL (connections, mode, zero-copy patterns already applied).
struct Context {
    std::string                               task_name;
    int                                       task_index = 0;
    simmpi::Comm                              world; ///< all ranks of the workflow
    simmpi::Comm                              local; ///< this task's ranks
    std::shared_ptr<lowfive::DistMetadataVol> vol;

    int rank() const { return local.rank(); }
    int size() const { return local.size(); }
};

/// One task (separate "executable") of the workflow graph.
struct TaskSpec {
    std::string                   name;
    int                           nprocs = 1;
    std::function<void(Context&)> fn;
    /// Retry budget for transient failures: a rank whose task body throws
    /// reruns it up to this many times before the failure is final. Only
    /// sound for idempotent bodies (reruns reuse the same Context and
    /// VOL); a world abort caused by *another* rank is never retried.
    int max_restarts = 0;
};

/// A task body failed (restarts exhausted): names the task and its local
/// rank, keeps the original exception reachable. workflow::run surfaces
/// this wrapped in simmpi::RankFailure, whose message embeds this one.
class TaskError : public std::runtime_error {
public:
    TaskError(std::string task, int rank, const std::string& cause, std::exception_ptr error)
        : std::runtime_error("workflow: task '" + task + "' rank " + std::to_string(rank)
                             + " failed: " + cause),
          task_(std::move(task)), rank_(rank), error_(std::move(error)) {}

    const std::string& task() const { return task_; }
    int                rank() const { return rank_; } ///< rank within the task
    std::exception_ptr cause() const { return error_; }

private:
    std::string        task_;
    int                rank_;
    std::exception_ptr error_;
};

/// A producer→consumer edge in the task graph; `pattern` routes files by
/// name, enabling fan-in and fan-out.
struct Link {
    int         producer = 0; ///< index into the task list
    int         consumer = 1;
    std::string pattern = "*";
    /// Step-versioned streaming for files matching `pattern`: empty = off;
    /// otherwise the backpressure policy ("block" | "drop" | "latest_only")
    /// registered on the producer end via DistMetadataVol::set_stream.
    /// Config files spell this `stream:` (and `window:`) on a link.
    std::string stream;
    /// Staging-window size for the streamed files; 0 = the default (4).
    /// latest_only always runs with a window of 1.
    int stream_window = 0;

    // not an aggregate: the constructor keeps pre-streaming three-field
    // Link{p, c, pattern} call sites warning-free under
    // -Wmissing-field-initializers
    Link() = default;
    Link(int producer_, int consumer_, std::string pattern_ = "*", std::string stream_ = {},
         int stream_window_ = 0)
        : producer(producer_), consumer(consumer_), pattern(std::move(pattern_)),
          stream(std::move(stream_)), stream_window(stream_window_) {}
};

struct Options {
    Mode                              mode = Mode::from_env();
    std::vector<lowfive::PatternPair> zerocopy; ///< datasets stored as shallow references
    /// Producer file closes return right after publishing instead of
    /// waiting for the consumers to finish the round, so producers overlap
    /// computation with data delivery (the paper's §V-C future work).
    /// Either way a serve thread answers the consumers; the runner calls
    /// finish_serving() after each task body returns.
    bool background_serve = false;
    /// Runtime knobs: fault-injection plan and world-default deadline
    /// (defaults read `L5_FAULTS` / `L5_TIMEOUT_MS`).
    simmpi::Runtime::RunOptions runtime;
};

/// Run a workflow: spawns the sum of all task process counts as ranks,
/// splits a communicator per task, builds an intercommunicator per link,
/// and hands each rank its Context. Blocks until every task finishes.
///
/// Failure containment: a rank whose task body throws (after exhausting
/// its max_restarts budget) aborts the world — peers blocked on it get
/// simmpi::AbortedError instead of hanging — and run rethrows a
/// simmpi::RankFailure naming the failed task and rank.
void run(const std::vector<TaskSpec>& tasks, const std::vector<Link>& links,
         const Options& opts = Options{});

} // namespace workflow
