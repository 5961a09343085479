#include "par.hpp"

#include "obs/metrics.hpp"
#include "simmpi/sched.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace h5 {
namespace par {
namespace {

struct Metrics {
    obs::Counter& jobs;        ///< free-running pool jobs
    obs::Counter& chunks;      ///< chunks executed across all jobs
    obs::Counter& steals;      ///< range steals between participants
    obs::Counter& sched_jobs;  ///< jobs routed through scheduler participants
    obs::Counter& inline_runs; ///< parallel_for calls that ran inline

    static Metrics& get() {
        static Metrics m{
            obs::Registry::global().counter("par.jobs"),
            obs::Registry::global().counter("par.chunks"),
            obs::Registry::global().counter("par.steals"),
            obs::Registry::global().counter("par.sched_jobs"),
            obs::Registry::global().counter("par.inline"),
        };
        return m;
    }
};

int resolve_workers() {
    if (const char* e = std::getenv("L5_DATA_THREADS"); e && *e) {
        int v = std::atoi(e);
        return std::clamp(v, 0, 64);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 2 ? static_cast<int>(std::min(4u, hw - 1)) : 0;
}

std::size_t resolve_threshold() {
    if (const char* e = std::getenv("L5_PAR_THRESHOLD"); e && *e) {
        const long long v = std::atoll(e);
        return v > 0 ? static_cast<std::size_t>(v) : 0;
    }
    return std::size_t(4) << 20;
}

int configured_workers() {
    static const int w = resolve_workers();
    return w;
}

std::atomic<std::size_t>& threshold_state() {
    static std::atomic<std::size_t> t{resolve_threshold()};
    return t;
}

/// Persistent free-running pool. One job at a time (jobs from different
/// threads serialize on job_mutex_); within a job, every participant
/// (workers + the calling thread) owns a contiguous chunk range and
/// steals the upper half of the largest remaining range when its own
/// drains. Chunks are coarse (≥ ~256 KiB of bytes moved), so the shared
/// mutex around range bookkeeping is uncontended noise next to the
/// copies themselves.
class Pool {
public:
    static Pool& instance() {
        static Pool p;
        return p;
    }

    void run(std::size_t n, const std::function<void(std::size_t)>& fn) {
        std::lock_guard<std::mutex> job(job_mutex_);
        std::unique_lock<std::mutex> lk(m_);
        const std::size_t P = threads_.size() + 1;
        ranges_.assign(P, {0, 0});
        for (std::size_t p = 0; p < P; ++p)
            ranges_[p] = {n * p / P, n * (p + 1) / P};
        fn_         = &fn;
        unfinished_ = n;
        err_        = nullptr;
        ++gen_;
        lk.unlock();
        wake_cv_.notify_all();
        lk.lock();
        participate(lk, P - 1); // the caller claims the last slot
        // stragglers may still be inside their final chunk
        done_cv_.wait(lk, [&] { return unfinished_ == 0; }); // lint: allow-bare-wait(free-running pool only; deterministic runs bypass Pool via scheduler participants)
        fn_      = nullptr;
        auto err = std::exchange(err_, nullptr);
        lk.unlock();
        if (err) std::rethrow_exception(err);
    }

private:
    Pool() {
        const int w = configured_workers();
        threads_.reserve(static_cast<std::size_t>(w));
        for (int i = 0; i < w; ++i)
            threads_.emplace_back([this, i] { worker_loop(static_cast<std::size_t>(i)); });
    }

    ~Pool() {
        {
            std::lock_guard<std::mutex> lk(m_);
            stop_ = true;
        }
        wake_cv_.notify_all();
        for (auto& t : threads_) t.join();
    }

    void worker_loop(std::size_t me) {
        std::unique_lock<std::mutex> lk(m_);
        std::uint64_t seen = 0;
        for (;;) {
            wake_cv_.wait(lk, [&] { return stop_ || gen_ != seen; }); // lint: allow-bare-wait(free-running pool only; deterministic runs bypass Pool via scheduler participants)
            if (stop_) return;
            seen = gen_;
            participate(lk, me);
        }
    }

    /// Claim and execute chunks until none are left anywhere. `lk` held
    /// on entry and exit, released across each fn call.
    void participate(std::unique_lock<std::mutex>& lk, std::size_t me) {
        Metrics& metrics = Metrics::get();
        for (;;) {
            if (fn_ == nullptr) return; // job already torn down
            std::size_t chunk;
            if (ranges_[me].first < ranges_[me].second) {
                chunk = ranges_[me].first++;
            } else {
                std::size_t victim = me, best = 0;
                for (std::size_t p = 0; p < ranges_.size(); ++p) {
                    if (p == me) continue;
                    const std::size_t rem = ranges_[p].second - ranges_[p].first;
                    if (rem > best) {
                        best   = rem;
                        victim = p;
                    }
                }
                if (best == 0) return; // nothing left to claim
                const std::size_t take = (best + 1) / 2;
                ranges_[me]            = {ranges_[victim].second - take, ranges_[victim].second};
                ranges_[victim].second -= take;
                chunk = ranges_[me].first++;
                metrics.steals.inc();
            }
            const auto* fn = fn_;
            lk.unlock();
            std::exception_ptr err;
            try {
                (*fn)(chunk);
            } catch (...) {
                err = std::current_exception();
            }
            lk.lock();
            if (err && !err_) err_ = err;
            if (--unfinished_ == 0) done_cv_.notify_all();
        }
    }

    std::mutex job_mutex_; ///< serializes whole jobs across calling threads

    std::mutex              m_; ///< job state below
    std::condition_variable wake_cv_;
    std::condition_variable done_cv_;
    bool                    stop_ = false;
    std::uint64_t           gen_  = 0;

    const std::function<void(std::size_t)>*          fn_ = nullptr;
    std::vector<std::pair<std::size_t, std::size_t>> ranges_;
    std::size_t                                      unfinished_ = 0;
    std::exception_ptr                               err_;

    std::vector<std::thread> threads_;
};

/// Deterministic path: statically partition the chunks across freshly
/// spawned scheduler participants. Spawn, attach, and join are
/// deterministic points; the workers themselves are pure compute, so
/// the same seed replays the same schedule hash with the pool enabled.
void run_scheduled(simmpi::detail::Scheduler* s, std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
    const std::size_t P =
        std::min<std::size_t>(static_cast<std::size_t>(configured_workers()) + 1, n);
    std::vector<std::exception_ptr> errs(P);
    std::vector<std::thread>        threads;
    threads.reserve(P - 1);
    for (std::size_t p = 1; p < P; ++p) {
        const std::size_t b = n * p / P, e = n * (p + 1) / P;
        threads.push_back(simmpi::detail::spawn_participant(s, "par.worker", [&errs, &fn, b, e, p] {
            try {
                for (std::size_t i = b; i < e; ++i) fn(i);
            } catch (...) {
                errs[p] = std::current_exception();
            }
        }));
    }
    const std::size_t e0 = n * 1 / P;
    try {
        for (std::size_t i = 0; i < e0; ++i) fn(i);
    } catch (...) {
        errs[0] = std::current_exception();
    }
    for (auto& t : threads) simmpi::detail::coop_join(s, t);
    for (auto& err : errs)
        if (err) std::rethrow_exception(err);
}

} // namespace

int workers() { return configured_workers(); }

std::size_t parallel_threshold_bytes() {
    return threshold_state().load(std::memory_order_relaxed);
}
void set_parallel_threshold_bytes(std::size_t bytes) {
    threshold_state().store(bytes, std::memory_order_relaxed);
}

bool should_parallelize(std::size_t bytes) {
    return configured_workers() > 0 && bytes >= parallel_threshold_bytes();
}

std::size_t chunk_count(std::size_t bytes) {
    constexpr std::size_t grain = 256u << 10;
    const std::size_t     P     = static_cast<std::size_t>(configured_workers()) + 1;
    return std::clamp<std::size_t>(bytes / grain, 2, 4 * P);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    Metrics& metrics = Metrics::get();
    if (n < 2 || configured_workers() < 1) {
        metrics.inline_runs.inc();
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
    }
    if (auto* s = simmpi::detail::this_thread_scheduler()) {
        metrics.sched_jobs.inc();
        metrics.chunks.add(n);
        run_scheduled(s, n, fn);
        return;
    }
    metrics.jobs.inc();
    metrics.chunks.add(n);
    Pool::instance().run(n, fn);
}

} // namespace par
} // namespace h5
