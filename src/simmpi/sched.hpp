#pragma once

#include "error.hpp"

#include <check/race.hpp>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace simmpi {

/// Every task of the world is blocked on something that no other task can
/// provide: a true deadlock, detected instantly by the deterministic
/// scheduler's blocked-rank accounting (instead of a watchdog timeout).
/// The message names each task's wait site; wait_sites() carries them
/// individually for tooling.
class DeadlockError : public Error {
public:
    DeadlockError(const std::string& what, std::vector<std::string> sites)
        : Error(what), sites_(std::move(sites)) {}

    /// One "task at site (src=…, tag=…)" entry per blocked task.
    const std::vector<std::string>& wait_sites() const { return sites_; }

private:
    std::vector<std::string> sites_;
};

/// Configuration of the deterministic cooperative scheduler, parsed from
/// `L5_SCHED` (or passed programmatically via Runtime::RunOptions::sched).
///
/// Spec grammar, fields separated by ',':
///
///   seed=42             — PRNG seed; same seed replays the same schedule
///   policy=random|pct   — uniform random walk (default) or PCT-style
///                         priority chaos
///   depth=3             — PCT only: number of seeded priority-change points
///   horizon=10000       — PCT only: change points are drawn in
///                         [1, horizon]; also the anti-starvation bound
///                         (a forced change point fires every `horizon`
///                         scheduling decisions without one)
///
/// Example: `L5_SCHED='seed=7,policy=pct,depth=3'`.
struct SchedConfig {
    enum class Policy { random, pct };

    std::uint64_t seed    = 0;
    Policy        policy  = Policy::random;
    int           depth   = 3;
    std::uint64_t horizon = 10000;

    /// Parse a spec string; throws simmpi::Error on malformed input.
    static SchedConfig parse(const std::string& spec);

    /// Config from `L5_SCHED`, or nullopt when unset/empty.
    static std::optional<SchedConfig> from_env();

    /// Canonical spec string ("seed=7,policy=pct,depth=3,horizon=10000").
    std::string describe() const;
};

namespace detail {

/// Deterministic cooperative scheduler: when installed on a World, every
/// participating thread (one per rank, plus auxiliary threads such as
/// DistMetadataVol's serve thread) serializes through this
/// controller — exactly one task runs at a time, and at every scheduling
/// point (send, recv, probe, collective entry, mailbox wait, serve-loop
/// wait) the controller picks the next runnable task with a seeded PRNG.
/// The same seed therefore replays the identical interleaving, and a
/// seed sweep explores schedules that wall-clock timing would never hit.
///
/// Blocked-task accounting replaces timing heuristics:
///  - all tasks blocked, at least one with a deadline → simulated time:
///    the earliest deadline fires immediately as TimeoutError;
///  - all tasks blocked, none with a deadline → DeadlockError thrown at
///    every blocked task's wait site, naming all of them.
///
/// Locking protocol (lost-wakeup freedom): a task blocks by acquiring
/// the scheduler mutex *before* releasing the inner lock that protects
/// its predicate (Mailbox queue, dist_vol state). Wakers notify the
/// scheduler after publishing under the inner lock, so they either see
/// the predicate before the waiter re-checks it or rendezvous on the
/// scheduler mutex after the waiter is registered. The scheduler never
/// acquires any inner lock.
class Scheduler {
public:
    Scheduler(const SchedConfig& cfg, int nranks);

    const SchedConfig& config() const { return cfg_; }

    /// True when scheduling decisions are being made: the start barrier
    /// has been passed and no deadlock has been declared. After a
    /// deadlock the scheduler turns inert so the normal abort/poison
    /// unwinding machinery (real CV waits) can drain the world.
    bool usable() const {
        return started_.load(std::memory_order_relaxed)
               && !dead_.load(std::memory_order_relaxed);
    }

    /// Is the calling thread one of this scheduler's tasks?
    bool attached_here() const;

    // --- thread binding ---------------------------------------------------

    /// Bind the calling thread to rank slot `rank`. Blocks until every
    /// rank has attached (the start barrier — thread spawn order cannot
    /// perturb the schedule), then until this task is scheduled.
    void attach_rank(int rank);

    /// Bind the calling thread as an auxiliary task (use through
    /// spawn_participant, which makes the spawn a deterministic point).
    void attach_aux(const std::string& role);

    /// Unbind the calling thread; its slot becomes Done and the next
    /// runnable task is scheduled. Safe to call when never/no longer
    /// attached.
    void detach();

    // --- scheduling points ------------------------------------------------

    /// Non-blocking scheduling point: offer the controller a chance to
    /// switch tasks. No-op for unattached threads and inert schedulers.
    void yield(const char* site);

    /// Deschedule the calling task because its predicate (protected by
    /// `inner`) does not hold. `inner` is released only after this task
    /// is registered under the scheduler mutex and reacquired before a
    /// normal return. Returns false when the task's simulated deadline
    /// fired (caller throws TimeoutError); throws DeadlockError when the
    /// whole world is blocked; returns true otherwise — spuriously if
    /// the scheduler is inert, so callers must loop on their predicate.
    template <class Lock>
    bool block(Lock& inner, const void* chan, const char* site, int src, int tag,
               const std::optional<std::chrono::steady_clock::time_point>& deadline = {},
               std::int64_t deadline_ms = 0) {
        std::unique_lock<std::mutex> lk(m_);
        if (!block_would_park()) return true;
        // inner.unlock() may re-enter notify() (CoopLock wakes waiters of
        // its mutex); mark ownership so that runs inline instead of
        // self-deadlocking on m_
        mark_m_owner();
        inner.unlock();
        clear_m_owner();
        // DeadlockError propagates with `inner` unlocked: the caller is
        // unwinding and must not re-enter the cooperative machinery
        bool ok = block_registered(lk, chan, site, src, tag, deadline, deadline_ms);
        lk.unlock();
        inner.lock();
        return ok;
    }

    /// Mark every task blocked on `chan` runnable (they re-check their
    /// predicates and may block again) — the scheduler-side half of a
    /// cv.notify_all(). Callable from any thread, including unattached
    /// ones (e.g. World::abort poisoning mailboxes).
    void notify(const void* chan);

    /// Cooperatively acquire `m` (a mutex shared between tasks, e.g.
    /// dist_vol's): on contention the caller blocks on channel &m so the
    /// descheduled holder can run to release it; the holder's unlock
    /// notifies &m. Never holds the scheduler mutex across a blocking
    /// mutex acquisition.
    template <class Mutex>
    void coop_lock(Mutex& m, const char* site) {
        std::unique_lock<std::mutex> lk(m_);
        while (!m.try_lock()) {
            if (!block_would_park()) {
                // inert: fall back to a real blocking acquire
                lk.unlock();
                m.lock();
                return;
            }
            block_registered(lk, &m, site, -1, -1, {}, 0);
        }
    }

    // --- auxiliary-thread rendezvous -------------------------------------

    /// Announce an auxiliary thread about to be spawned; pair with
    /// wait_spawn so its attachment is a deterministic point in the
    /// spawner's execution.
    std::uint64_t pre_spawn();
    void          wait_spawn(std::uint64_t token);

    /// Step out of the schedule to join the task running on thread
    /// `target` (use through coop_join): other tasks keep running while
    /// this one is away, and the *joined task's detach* promotes this
    /// one back to Ready — a deterministic point, unlike the real-time
    /// instant join() happens to return. Returns false (caller stays
    /// Running, no reenter needed) when the target already detached or
    /// never attached: join() then returns promptly and no scheduling
    /// decision can occur in between. While any task is away, deadlock
    /// and timeout delivery are suppressed (the away task may unblock
    /// them).
    bool leave_for(std::thread::id target);
    void reenter();

    // --- replay identity --------------------------------------------------

    /// Number of scheduling decisions taken so far.
    std::uint64_t steps() const;

    /// FNV-1a hash over the full (step, chosen-task) decision sequence:
    /// two runs replayed the same schedule iff their hashes agree.
    std::uint64_t schedule_hash() const;

private:
    struct Task {
        enum class State {
            Unborn,  ///< slot exists, thread not yet attached
            Ready,   ///< runnable, waiting to be scheduled
            Running, ///< the single executing task
            Blocked, ///< descheduled on a channel
            Away,    ///< out of the schedule (external blocking op)
            Done,    ///< detached
        };
        State         state = State::Unborn;
        std::string   name;
        const char*   site = "";
        int           src  = -1;
        int           tag  = -1;
        const void*   chan = nullptr;
        std::optional<std::chrono::steady_clock::time_point> deadline;
        std::int64_t  deadline_ms   = 0;
        bool          timeout_fired = false;
        bool          deadlocked    = false;
        std::uint64_t priority      = 0;  ///< PCT: higher runs first
        std::thread::id tid{};            ///< backing thread (aux tasks; for leave_for)
        int             joiner = -1;      ///< Away task joining this one, promoted at detach
        std::condition_variable cv;
    };

    // All private helpers require m_ held (except the TLS reads).
    bool block_would_park() const;
    bool block_registered(std::unique_lock<std::mutex>& lk, const void* chan, const char* site,
                          int src, int tag,
                          const std::optional<std::chrono::steady_clock::time_point>& deadline,
                          std::int64_t deadline_ms);
    void mark_m_owner();
    void clear_m_owner();
    void wait_until_running(std::unique_lock<std::mutex>& lk, Task& me);
    void schedule_locked();
    int  pick(const std::vector<int>& ready);
    void handle_no_ready();
    void declare_deadlock();
    void record_decision(int chosen);
    std::string describe_wait(const Task& t) const;

    SchedConfig cfg_;
    int         nranks_;

    mutable std::mutex m_;
    std::vector<std::unique_ptr<Task>> tasks_;
    int               attached_ranks_ = 0;
    int               running_        = -1; ///< index of the Running task, -1 = none
    std::atomic<bool> started_{false};
    std::atomic<bool> dead_{false};

    std::mt19937_64 rng_;
    std::uint64_t   step_ = 0;
    std::uint64_t   hash_ = 1469598103934665603ull; // FNV-1a offset basis

    // PCT state
    std::vector<std::uint64_t> change_points_;     ///< sorted ascending
    std::size_t                next_change_   = 0;
    std::uint64_t              last_change_   = 0; ///< step of the last change point
    std::uint64_t              low_priority_  = 1u << 16;

    // precomputed at declare_deadlock so every thrower reports the same
    // complete site list
    std::string              deadlock_msg_;
    std::vector<std::string> deadlock_sites_;

    // spawn rendezvous
    std::uint64_t           spawn_expected_ = 0;
    std::uint64_t           spawn_attached_ = 0;
    std::condition_variable spawn_cv_;
};

/// Spawn `fn` on a new thread that participates in the deterministic
/// schedule when `s` is active and the calling thread is one of its
/// tasks; a plain std::thread otherwise. The spawner blocks until the
/// new task has attached, making the spawn itself deterministic.
std::thread spawn_participant(Scheduler* s, const char* role, std::function<void()> fn);

/// The scheduler the calling thread is attached to, or nullptr when the
/// thread is free-running. Lets layers below simmpi (e.g. the h5::par
/// data-plane pool) route their helper threads through the deterministic
/// schedule instead of bypassing it.
Scheduler* this_thread_scheduler();

/// Scheduler-aware guard for a mutex shared between tasks (e.g.
/// DistMetadataVol's serve-state mutex): under an active scheduler,
/// contention blocks through the controller so the descheduled holder
/// can be scheduled to release it; otherwise it is a plain lock. Also a
/// BasicLockable, so it can back a condition_variable_any wait.
template <class Mutex>
class CoopLock {
public:
    CoopLock(Scheduler* s, Mutex& m, const char* site) : s_(s), m_(m), site_(site) { lock(); }
    ~CoopLock() {
        if (held_) unlock();
    }
    CoopLock(const CoopLock&)            = delete;
    CoopLock& operator=(const CoopLock&) = delete;

    void lock() {
        if (s_ && s_->attached_here() && s_->usable()) s_->coop_lock(m_, site_);
        else m_.lock();
        held_ = true;
        // after the physical lock and held_, so a raise-mode lockdep
        // throw unwinds through ~CoopLock and still releases the mutex
        l5race::lock_acquired(static_cast<const void*>(&m_), site_);
    }

    void unlock() {
        l5race::lock_released(static_cast<const void*>(&m_));
        held_ = false;
        m_.unlock();
        if (s_) s_->notify(&m_);
    }

    /// Address identity of the backing mutex (l5race wait-lint channel).
    Mutex& mutex() const { return m_; }

private:
    Scheduler*  s_;
    Mutex&      m_;
    const char* site_;
    bool        held_ = false;
};

/// Scheduler-aware condition wait: equivalent to cv.wait(lk, pred), but
/// under an active scheduler the wait is a scheduling point on channel
/// &cv. Wakers must pair cv.notify_all() with s->notify(&cv).
template <class Mutex, class Pred>
void coop_wait(Scheduler* s, std::condition_variable_any& cv, CoopLock<Mutex>& lk,
               const char* site, Pred pred) {
    l5race::on_cv_block(static_cast<const void*>(&lk.mutex()), site);
    while (s && s->attached_here() && s->usable() && !pred())
        s->block(lk, &cv, site, -1, -1);
    cv.wait(lk, pred); // lint: allow-bare-wait(free-running fallback of coop_wait itself)
}

/// Deadline-aware coop_wait: waits for `pred` like coop_wait, but gives
/// up after `timeout_ms` (<= 0 means no deadline — plain coop_wait).
/// Returns the final pred() value: false means the deadline fired first
/// (the caller turns that into a TimeoutError). Under a deterministic
/// scheduler the deadline fires in simulated time (instantly, when the
/// whole world is otherwise blocked); a deadline-free wait that blocks
/// the whole world still throws DeadlockError naming `site`.
template <class Mutex, class Pred>
bool coop_wait_deadline(Scheduler* s, std::condition_variable_any& cv, CoopLock<Mutex>& lk,
                        const char* site, std::int64_t timeout_ms, Pred pred) {
    if (timeout_ms <= 0) {
        coop_wait(s, cv, lk, site, pred);
        return true;
    }
    l5race::on_cv_block(static_cast<const void*>(&lk.mutex()), site);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (s && s->attached_here() && s->usable()) {
        if (pred()) return true;
        if (!s->block(lk, &cv, site, -1, -1, deadline, timeout_ms)) return pred();
    }
    // lint: allow-bare-wait(free-running fallback of coop_wait_deadline itself)
    return cv.wait_until(lk, deadline, pred);
}

/// Join `t` without monopolizing the schedule: the calling task steps
/// away so the joined task can be scheduled to completion.
void coop_join(Scheduler* s, std::thread& t);

void set_last_schedule_hash(std::uint64_t h);

} // namespace detail

/// Process-wide schedule hash of the most recently completed
/// deterministic run, set by Runtime::run after joining a scheduled
/// world (0 until then). Replay-determinism checks compare it across
/// runs with equal seeds.
std::uint64_t last_schedule_hash();

} // namespace simmpi
