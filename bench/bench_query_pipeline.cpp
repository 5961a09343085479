/// Data-plane benchmark for the pipelined, cached, zero-copy
/// index–serve–query path: m=4 consumers repeatedly read y-slabs of a
/// 256x512x64 uint64 grid (64 MiB) written as x-slabs by n=8 producers,
/// so producer and consumer decompositions cross and every read touches
/// every producer.
///
/// Scenarios (same run, same data):
///   pipelined_cached         the query plane: intersect queries issued up
///                            front, replies drained in arrival order, and
///                            repeated reads skip the intersect round
///   concurrent_readers_during_publish  the MVCC serve plane: producers
///                            rewrite the file while consumers read
///                            concurrently (background serve); every
///                            read pins one snapshot version and must
///                            come back version-consistent
///
/// Emits BENCH_query_pipeline.json (median of L5_BENCH_TRIALS trials,
/// default 3) into the working directory.

#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace h5;
using workflow::Context;
using workflow::Link;
using workflow::Options;

namespace {

constexpr std::uint64_t dim_x = 256, dim_y = 512, dim_z = 64;
constexpr int           nprod = 8, ncons = 4;
constexpr int           reads_per_open = 4;

struct ScenarioResult {
    std::string             label;
    std::vector<double>     seconds; ///< one entry per trial
    obs::Registry::Snapshot metrics; ///< consumer rank 0, last trial
    double                  last_wall = 0; ///< wall of the trial `metrics` describes

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

diy::Bounds producer_block(int r) {
    diy::Bounds b(3);
    b.min = {static_cast<std::int64_t>(dim_x) / nprod * r, 0, 0};
    b.max = {static_cast<std::int64_t>(dim_x) / nprod * (r + 1),
             static_cast<std::int64_t>(dim_y), static_cast<std::int64_t>(dim_z)};
    return b;
}

diy::Bounds consumer_block(int r) {
    diy::Bounds b(3);
    b.min = {0, static_cast<std::int64_t>(dim_y) / ncons * r, 0};
    b.max = {static_cast<std::int64_t>(dim_x),
             static_cast<std::int64_t>(dim_y) / ncons * (r + 1),
             static_cast<std::int64_t>(dim_z)};
    return b;
}

/// One trial: returns the barrier-bounded wall time of the consume phase
/// (open + reads_per_open reads + close, overlapped with producer serving).
double run_trial(ScenarioResult* stats_sink) {
    double  seconds = 0.0;
    Options opts;
    opts.mode = workflow::Mode::in_situ();

    workflow::run(
        {
            {"producer", nprod,
             [&](Context& ctx) {
                 File f = File::create("qp.h5", ctx.vol);
                 auto d = f.create_dataset("grid", dt::uint64(), Dataspace({dim_x, dim_y, dim_z}));

                 const auto mine = producer_block(ctx.rank());
                 Dataspace  sel({dim_x, dim_y, dim_z});
                 sel.select_box(mine);
                 std::vector<std::uint64_t> vals(sel.npoints());
                 std::size_t                k = 0;
                 for (auto x = mine.min[0]; x < mine.max[0]; ++x)
                     for (auto y = mine.min[1]; y < mine.max[1]; ++y)
                         for (auto z = mine.min[2]; z < mine.max[2]; ++z)
                             vals[k++] = (static_cast<std::uint64_t>(x) * dim_y
                                          + static_cast<std::uint64_t>(y)) * dim_z
                                         + static_cast<std::uint64_t>(z);
                 d.write(vals.data(), sel);
                 // the close indexes the file and serves the whole round
                 double t = benchcommon::timed_section(ctx.world, [&] { f.close(); });
                 if (ctx.world.rank() == 0) seconds = t;
             }},
            {"consumer", ncons,
             [&](Context& ctx) {
                 const auto mine = consumer_block(ctx.rank());
                 Dataspace  sel({dim_x, dim_y, dim_z});
                 sel.select_box(mine);

                 double t = benchcommon::timed_section(ctx.world, [&] {
                     File f = File::open("qp.h5", ctx.vol);
                     auto d = f.open_dataset("grid");
                     for (int r = 0; r < reads_per_open; ++r) {
                         auto vals = d.read_vector<std::uint64_t>(sel);
                         // spot-check so the reads cannot be elided
                         if (vals.front() != (static_cast<std::uint64_t>(mine.min[0]) * dim_y
                                              + static_cast<std::uint64_t>(mine.min[1])) * dim_z)
                             throw std::runtime_error("bench: wrong data");
                     }
                     f.close();
                 });
                 if (stats_sink && ctx.rank() == 0) {
                     stats_sink->metrics   = ctx.vol->metrics().snapshot();
                     stats_sink->last_wall = t;
                 }
             }},
        },
        {Link{0, 1, "*"}}, opts);

    return seconds;
}

/// One MVCC-plane trial: producers rewrite qpc.h5 `rewrites` times while
/// consumers read concurrently under background serve; every consumer
/// round pins one snapshot version and the spot-check asserts the read
/// came back version-consistent (no torn cross-version reads). Returns
/// the barrier-bounded wall time of the consumer's read loop.
double run_concurrent_trial(ScenarioResult* stats_sink) {
    constexpr int rewrites = 4;

    double  seconds = 0.0;
    Options opts;
    opts.mode             = workflow::Mode::in_situ();
    opts.background_serve = true;

    workflow::run(
        {
            {"producer", nprod,
             [&](Context& ctx) {
                 const auto mine = producer_block(ctx.rank());
                 Dataspace  sel({dim_x, dim_y, dim_z});
                 sel.select_box(mine);
                 std::vector<std::uint64_t> vals(sel.npoints());

                 for (int k = 0; k < rewrites; ++k) {
                     File f = File::create("qpc.h5", ctx.vol);
                     auto d = f.create_dataset("grid", dt::uint64(),
                                               Dataspace({dim_x, dim_y, dim_z}));
                     std::size_t j = 0;
                     for (auto x = mine.min[0]; x < mine.max[0]; ++x)
                         for (auto y = mine.min[1]; y < mine.max[1]; ++y)
                             for (auto z = mine.min[2]; z < mine.max[2]; ++z)
                                 vals[j++] = (static_cast<std::uint64_t>(x) * dim_y
                                              + static_cast<std::uint64_t>(y)) * dim_z
                                             + static_cast<std::uint64_t>(z)
                                             + static_cast<std::uint64_t>(k);
                     d.write(vals.data(), sel);
                     f.close(); // publishes snapshot version k+1
                 }
                 ctx.vol->finish_serving();
             }},
            {"consumer", ncons,
             [&](Context& ctx) {
                 const auto mine = consumer_block(ctx.rank());
                 Dataspace  sel({dim_x, dim_y, dim_z});
                 sel.select_box(mine);
                 const std::uint64_t front_base =
                     (static_cast<std::uint64_t>(mine.min[0]) * dim_y
                      + static_cast<std::uint64_t>(mine.min[1])) * dim_z;

                 // time over the consumer sub-world only: producers are
                 // still publishing and never enter this collective
                 double t = benchcommon::timed_section(ctx.local, [&] {
                     for (int r = 0; r < rewrites; ++r) {
                         File f    = File::open("qpc.h5", ctx.vol);
                         auto d    = f.open_dataset("grid");
                         auto vals = d.read_vector<std::uint64_t>(sel);
                         // version-consistency check: front and back of the
                         // slab must carry the same rewrite offset k
                         const std::uint64_t k = vals.front() - front_base;
                         const std::uint64_t back_base =
                             (static_cast<std::uint64_t>(mine.max[0] - 1) * dim_y
                              + static_cast<std::uint64_t>(mine.max[1] - 1)) * dim_z
                             + (dim_z - 1);
                         if (k >= rewrites || vals.back() - back_base != k)
                             throw std::runtime_error("bench: torn concurrent read");
                         f.close();
                     }
                 });
                 if (ctx.rank() == 0) {
                     seconds = t;
                     if (stats_sink) {
                         stats_sink->metrics   = ctx.vol->metrics().snapshot();
                         stats_sink->last_wall = t;
                     }
                 }
             }},
        },
        {Link{0, 1, "*"}}, opts);

    return seconds;
}

ScenarioResult run_scenario(const std::string& label, int trials) {
    ScenarioResult res;
    res.label = label;
    for (int t = 0; t < trials; ++t) res.seconds.push_back(run_trial(&res));
    std::printf("  %-24s median %.4f s  (intersects/rank %llu, cache hits %llu)\n", label.c_str(),
                res.median(),
                static_cast<unsigned long long>(res.counter("n_intersect_queries")),
                static_cast<unsigned long long>(res.counter("n_intersect_cache_hits")));
    return res;
}

ScenarioResult run_concurrent_scenario(int trials) {
    ScenarioResult res;
    res.label = "concurrent_readers_during_publish";
    for (int t = 0; t < trials; ++t)
        res.seconds.push_back(run_concurrent_trial(&res));
    std::printf("  %-24s median %.4f s  (intersects/rank %llu, cache hits %llu)\n",
                res.label.c_str(), res.median(),
                static_cast<unsigned long long>(res.counter("n_intersect_queries")),
                static_cast<unsigned long long>(res.counter("n_intersect_cache_hits")));
    return res;
}

void emit_json(const std::vector<ScenarioResult>& results, int trials) {
    auto env = benchcommon::bench_envelope("query_pipeline", dim_x * dim_y * dim_z * 8 / nprod,
                                           trials);
    env.set("grid", obs::json::Value{obs::json::Array{
                        obs::json::Value{dim_x}, obs::json::Value{dim_y}, obs::json::Value{dim_z}}});
    env.set("dataset_bytes", dim_x * dim_y * dim_z * 8);
    env.set("reads_per_open", reads_per_open);
    for (const auto& r : results) {
        auto sc = benchcommon::scenario_json(r.label, nprod + ncons, nprod, ncons, r.seconds,
                                             &r.metrics);
        sc.set("wall_last_trial_seconds", r.last_wall);
        benchcommon::add_scenario(env, std::move(sc));
    }
    benchcommon::write_bench_json(env);
}

} // namespace

int main() {
    const auto params = benchcommon::Params::from_env();
    const int  trials = params.trials;

    std::printf("query-pipeline bench: %dx%d ranks, %llux%llux%llu uint64 grid (%llu MiB), "
                "%d reads per open, %d trials\n",
                nprod, ncons, static_cast<unsigned long long>(dim_x),
                static_cast<unsigned long long>(dim_y), static_cast<unsigned long long>(dim_z),
                static_cast<unsigned long long>(dim_x * dim_y * dim_z * 8 >> 20), reads_per_open,
                trials);

    std::vector<ScenarioResult> results;
    results.push_back(run_scenario("pipelined_cached", trials));
    results.push_back(run_concurrent_scenario(trials));
    emit_json(results, trials);
    return 0;
}
