/// Streaming-transport benchmark: a producer publishing steps as fast
/// as it can against a consumer that drains them at roughly a quarter
/// of that rate (it reads the full dataset four times per acquired
/// step), under each staging policy:
///
///   block        lossless — the producer backpressures into the
///                window, so publish rate collapses to the drain rate
///   drop         bounded staging — the producer never waits; steps
///                that were never acquired are evicted oldest-first
///   latest_only  window of one — the consumer always jumps to the
///                newest snapshot, everything in between is dropped
///
/// Reported per policy: producer-side steps/s, published/dropped/
/// drained counts, publish waits, and the publish→first-full-drain
/// latency quantiles from the step_latency_ns histogram. Emits
/// BENCH_stream.json (median of L5_BENCH_TRIALS trials, default 3).

#include "common.hpp"

#include <lowfive/stream/stream.hpp>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

using namespace h5;
using workflow::Context;
using workflow::Link;
using workflow::Options;

namespace {

constexpr std::uint64_t points  = 1u << 16; ///< uint64 per step (512 KiB)
constexpr int           nprod   = 2, ncons = 1;
constexpr int           nsteps  = 32;
constexpr int           reads_per_step = 4; ///< the consumer's R/4 drag

struct ScenarioResult {
    std::string             label;
    std::vector<double>     seconds; ///< producer wall per trial
    obs::Registry::Snapshot metrics; ///< producer rank 0, last trial

    std::uint64_t counter(const char* name) const {
        auto it = metrics.counters.find(name);
        return it == metrics.counters.end() ? 0 : it->second;
    }

    double median() const {
        auto s = seconds;
        std::sort(s.begin(), s.end());
        return s[s.size() / 2];
    }
};

lowfive::stream::StreamConfig make_config(lowfive::stream::StepPolicy policy) {
    lowfive::stream::StreamConfig cfg;
    cfg.policy = policy;
    return cfg.normalized(); // latest_only collapses the window to 1
}

/// One trial: the producer publishes `nsteps` steps back to back and
/// the consumer drains at ~1/4 of that rate. Returns the producer-side
/// wall time of the whole stream (publish loop + drain of the window).
double run_trial(lowfive::stream::StepPolicy policy, ScenarioResult* sink) {
    const auto cfg = make_config(policy);

    double  seconds = 0.0;
    Options opts;
    opts.mode = workflow::Mode::in_situ();

    workflow::run(
        {
            {"producer", nprod,
             [&](Context& ctx) {
                 const std::uint64_t half = points / nprod;
                 ctx.vol->set_stream("bs.h5", cfg);
                 double t = benchcommon::timed_section(ctx.local, [&] {
                     lowfive::stream::Writer w(ctx.vol, "bs.h5");
                     for (int s = 0; s < nsteps; ++s) {
                         File& f = w.begin_step();
                         auto  d = f.create_dataset("v", dt::uint64(), Dataspace({points}));
                         Dataspace sel({points});
                         diy::Bounds b(1);
                         b.min[0] = static_cast<std::int64_t>(half) * ctx.rank();
                         b.max[0] = static_cast<std::int64_t>(half) * (ctx.rank() + 1);
                         sel.select_box(b);
                         std::vector<std::uint64_t> vals(half);
                         for (std::uint64_t i = 0; i < half; ++i)
                             vals[i] = static_cast<std::uint64_t>(s) * points + half * ctx.rank() + i;
                         d.write(vals.data(), sel);
                         w.end_step();
                     }
                     w.close();
                     ctx.vol->finish_serving(); // wait for the consumer to drain out
                 });
                 if (ctx.rank() == 0 && sink) {
                     seconds       = t;
                     sink->metrics = ctx.vol->metrics().snapshot();
                 }
             }},
            {"consumer", ncons,
             [&](Context& ctx) {
                 lowfive::stream::Reader r(ctx.vol, "bs.h5");
                 while (r.next_step()) {
                     const auto step = r.current_step().value();
                     auto       d    = r.file().open_dataset("v");
                     for (int k = 0; k < reads_per_step; ++k) {
                         auto vals = d.read_vector<std::uint64_t>();
                         // spot-check so the reads cannot be elided
                         if (vals.front() != step * points)
                             throw std::runtime_error("bench_stream: wrong snapshot");
                     }
                 }
                 r.close();
             }},
        },
        {Link{0, 1, "*", "", 0}}, opts);

    return seconds;
}

ScenarioResult run_scenario(lowfive::stream::StepPolicy policy, int trials) {
    ScenarioResult res;
    res.label = lowfive::stream::to_string(policy);
    for (int t = 0; t < trials; ++t) res.seconds.push_back(run_trial(policy, &res));
    const double median = res.median();
    std::printf("  %-12s median %.4f s  %6.1f steps/s  published %llu  dropped %llu  "
                "drained %llu  waits %llu\n",
                res.label.c_str(), median, median > 0 ? nsteps / median : 0.0,
                static_cast<unsigned long long>(res.counter("n_steps_published")),
                static_cast<unsigned long long>(res.counter("n_steps_dropped")),
                static_cast<unsigned long long>(res.counter("n_steps_drained")),
                static_cast<unsigned long long>(res.counter("n_step_publish_waits")));
    return res;
}

void emit_json(const std::vector<ScenarioResult>& results, int trials) {
    auto env = benchcommon::bench_envelope("stream", points * 8 / nprod, trials);
    env.set("steps", nsteps);
    env.set("step_bytes", points * 8);
    env.set("reads_per_step", reads_per_step);
    for (const auto& r : results) {
        auto sc = benchcommon::scenario_json(r.label, nprod + ncons, nprod, ncons, r.seconds,
                                             &r.metrics);
        const double median = r.median();
        sc.set("steps_per_second", median > 0 ? nsteps / median : 0.0);
        if (auto it = r.metrics.histograms.find("step_latency_ns");
            it != r.metrics.histograms.end() && it->second.count) {
            obs::json::Value h{obs::json::Object{}};
            h.set("count", it->second.count);
            h.set("mean", it->second.mean());
            h.set("p50", it->second.quantile(0.5));
            h.set("p99", it->second.quantile(0.99));
            sc.set("step_latency_ns", std::move(h));
        }
        benchcommon::add_scenario(env, std::move(sc));
    }
    benchcommon::write_bench_json(env);
}

} // namespace

int main() {
    const auto params = benchcommon::Params::from_env();
    const int  trials = params.trials;

    std::printf("stream bench: %dx%d ranks, %d steps of %llu KiB, consumer reads %dx per step, "
                "%d trials\n",
                nprod, ncons, nsteps, static_cast<unsigned long long>(points * 8 >> 10),
                reads_per_step, trials);

    std::vector<ScenarioResult> results;
    results.push_back(run_scenario(lowfive::stream::StepPolicy::Block, trials));
    results.push_back(run_scenario(lowfive::stream::StepPolicy::Drop, trials));
    results.push_back(run_scenario(lowfive::stream::StepPolicy::LatestOnly, trials));
    emit_json(results, trials);
    return 0;
}
