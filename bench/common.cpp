#include "common.hpp"

#include <chrono>
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>

namespace benchcommon {

Params Params::from_env() {
    Params p;
    double scale = 1.0;
    if (const char* s = std::getenv("L5_BENCH_SCALE")) scale = std::atof(s);
    if (scale > 0) {
        p.grid_points_per_rank = static_cast<std::uint64_t>(62'500 * scale);
        p.particles_per_rank   = static_cast<std::uint64_t>(62'500 * scale);
    }
    if (const char* s = std::getenv("L5_BENCH_TRIALS")) p.trials = std::max(1, std::atoi(s));
    if (const char* s = std::getenv("L5_BENCH_MAX_PROCS")) p.max_procs = std::max(4, std::atoi(s));
    return p;
}

std::pair<int, int> split_3_to_1(int world_size) {
    int ncons = std::max(1, world_size / 4);
    return {world_size - ncons, ncons};
}

diy::Bounds Shape::domain() const {
    diy::Bounds d(3);
    for (int i = 0; i < 3; ++i)
        d.max[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(grid_dims[static_cast<std::size_t>(i)]);
    return d;
}

diy::Bounds Shape::prod_grid_block(int r) const {
    return diy::RegularDecomposer(domain(), nprod).block_bounds(r);
}

diy::Bounds Shape::cons_grid_block(int r) const {
    return diy::RegularDecomposer(domain(), ncons).block_bounds(r);
}

std::pair<std::uint64_t, std::uint64_t> Shape::prod_particles(int r) const {
    auto n = static_cast<std::uint64_t>(nprod);
    return {total_particles * static_cast<std::uint64_t>(r) / n,
            total_particles * static_cast<std::uint64_t>(r + 1) / n};
}

std::pair<std::uint64_t, std::uint64_t> Shape::cons_particles(int r) const {
    auto m = static_cast<std::uint64_t>(ncons);
    return {total_particles * static_cast<std::uint64_t>(r) / m,
            total_particles * static_cast<std::uint64_t>(r + 1) / m};
}

Shape make_shape(int world_size, const Params& p) {
    Shape s;
    std::tie(s.nprod, s.ncons) = split_3_to_1(world_size);

    // per-producer-rank cube of ~grid_points_per_rank cells, arranged by
    // the near-equal factorization of the producer count
    auto side = static_cast<std::uint64_t>(
        std::llround(std::cbrt(static_cast<double>(p.grid_points_per_rank))));
    side         = std::max<std::uint64_t>(side, 2);
    auto factors = diy::RegularDecomposer::factor(s.nprod, 3);
    s.grid_dims  = {factors[0] * side, factors[1] * side, factors[2] * side};

    s.total_particles = p.particles_per_rank * static_cast<std::uint64_t>(s.nprod);
    return s;
}

h5::Datatype particle_type() {
    return h5::Datatype::compound(12)
        .insert("x", 0, h5::dt::float32())
        .insert("y", 4, h5::dt::float32())
        .insert("z", 8, h5::dt::float32());
}

std::vector<std::uint64_t> grid_values(const Shape& s, const diy::Bounds& block) {
    std::vector<std::uint64_t> v(block.size());
    const auto                 dy = s.grid_dims[1], dz = s.grid_dims[2];
    std::size_t                k = 0;
    for (auto x = block.min[0]; x < block.max[0]; ++x)
        for (auto y = block.min[1]; y < block.max[1]; ++y)
            for (auto z = block.min[2]; z < block.max[2]; ++z)
                v[k++] = (static_cast<std::uint64_t>(x) * dy + static_cast<std::uint64_t>(y)) * dz
                         + static_cast<std::uint64_t>(z);
    return v;
}

namespace {
float particle_component(std::uint64_t i, int c) {
    return static_cast<float>(i % 1'000'000) + 0.25f * static_cast<float>(c);
}
} // namespace

std::vector<float> particle_values(std::uint64_t lo, std::uint64_t hi) {
    std::vector<float> v((hi - lo) * 3);
    for (std::uint64_t i = lo; i < hi; ++i)
        for (int c = 0; c < 3; ++c) v[(i - lo) * 3 + static_cast<std::uint64_t>(c)] = particle_component(i, c);
    return v;
}

void validate_grid(const Shape& s, const diy::Bounds& block, const std::vector<std::uint64_t>& v) {
    const auto    dy = s.grid_dims[1], dz = s.grid_dims[2];
    std::uint64_t k = 0;
    for (auto x = block.min[0]; x < block.max[0]; ++x)
        for (auto y = block.min[1]; y < block.max[1]; ++y)
            for (auto z = block.min[2]; z < block.max[2]; ++z, ++k) {
                if (k % 97 != 0) continue; // sampled validation
                auto expect = (static_cast<std::uint64_t>(x) * dy + static_cast<std::uint64_t>(y)) * dz
                              + static_cast<std::uint64_t>(z);
                if (v[k] != expect)
                    throw std::runtime_error("bench: grid validation failed at k=" + std::to_string(k));
            }
}

void validate_particles(std::uint64_t lo, const std::vector<float>& v) {
    for (std::uint64_t k = 0; k < v.size() / 3; k += 97) {
        for (int c = 0; c < 3; ++c)
            if (v[k * 3 + static_cast<std::uint64_t>(c)] != particle_component(lo + k, c))
                throw std::runtime_error("bench: particle validation failed at k=" + std::to_string(k));
    }
}

void produce_synthetic(const Shape& s, int rank, const std::string& fname, const h5::VolPtr& vol) {
    h5::File f = h5::File::create(fname, vol);

    auto g1 = f.create_group("group1");
    auto dg = g1.create_dataset("grid", h5::dt::uint64(),
                                h5::Dataspace({s.grid_dims[0], s.grid_dims[1], s.grid_dims[2]}));
    auto          block  = s.prod_grid_block(rank);
    auto          values = grid_values(s, block);
    h5::Dataspace gsel({s.grid_dims[0], s.grid_dims[1], s.grid_dims[2]});
    gsel.select_box(block);
    dg.write(values.data(), gsel);

    auto g2       = f.create_group("group2");
    auto dp       = g2.create_dataset("particles", particle_type(), h5::Dataspace({s.total_particles}));
    auto [lo, hi] = s.prod_particles(rank);
    auto pvals    = particle_values(lo, hi);
    h5::Dataspace psel({s.total_particles});
    diy::Bounds   pb(1);
    pb.min[0] = static_cast<std::int64_t>(lo);
    pb.max[0] = static_cast<std::int64_t>(hi);
    psel.select_box(pb);
    dp.write(pvals.data(), psel);

    f.close();
}

void consume_synthetic(const Shape& s, int rank, const std::string& fname, const h5::VolPtr& vol,
                       bool validate) {
    h5::File f = h5::File::open(fname, vol);

    auto          dg    = f.open_dataset("group1/grid");
    auto          block = s.cons_grid_block(rank);
    h5::Dataspace gsel({s.grid_dims[0], s.grid_dims[1], s.grid_dims[2]});
    gsel.select_box(block);
    auto gv = dg.read_vector<std::uint64_t>(gsel);

    auto dp       = f.open_dataset("group2/particles");
    auto [lo, hi] = s.cons_particles(rank);
    h5::Dataspace psel({s.total_particles});
    diy::Bounds   pb(1);
    pb.min[0] = static_cast<std::int64_t>(lo);
    pb.max[0] = static_cast<std::int64_t>(hi);
    psel.select_box(pb);
    std::vector<float> pv((hi - lo) * 3);
    dp.read(pv.data(), psel);

    f.close();

    if (validate) {
        validate_grid(s, block, gv);
        validate_particles(lo, pv);
    }
}

double timed_section(const simmpi::Comm& world, const std::function<void()>& fn) {
    world.barrier();
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return world.allreduce(elapsed, [](double a, double b) { return std::max(a, b); });
}

std::vector<int> world_sizes(const Params& p) {
    std::vector<int> sizes;
    for (int n = 4; n <= p.max_procs; n *= 4) sizes.push_back(n);
    if (sizes.empty()) sizes.push_back(4);
    return sizes;
}

void print_table(const std::string& title, const Params& p, const std::vector<int>& sizes,
                 const std::vector<Series>& series) {
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("(per-producer-rank payload: %" PRIu64 " grid points + %" PRIu64
                " particles = %.2f MiB; %d trials averaged)\n",
                p.grid_points_per_rank, p.particles_per_rank,
                static_cast<double>(p.bytes_per_rank()) / (1024.0 * 1024.0), p.trials);
    std::printf("%-8s %-8s %-8s %-12s", "procs", "nprod", "ncons", "data(MiB)");
    for (const auto& s : series) std::printf(" %-24s", s.label.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        auto [np, nc] = split_3_to_1(sizes[i]);
        double mib    = static_cast<double>(p.bytes_per_rank()) * np / (1024.0 * 1024.0);
        std::printf("%-8d %-8d %-8d %-12.1f", sizes[i], np, nc, mib);
        for (const auto& s : series) {
            if (i < s.seconds.size() && s.seconds[i] >= 0)
                std::printf(" %-24.4f", s.seconds[i]);
            else
                std::printf(" %-24s", "-");
        }
        std::printf("\n");
    }
    std::fflush(stdout);
}

namespace {
std::mutex                                        record_mutex;
std::map<std::string, std::map<int, std::vector<double>>> recorded;
std::vector<std::string>                          record_order;
// latest metrics snapshot per (label, world size); missing = no metrics
std::map<std::string, std::map<int, obs::Registry::Snapshot>> recorded_metrics;
} // namespace

void record(const std::string& label, int world_size, double seconds,
            const obs::Registry::Snapshot* metrics) {
    std::lock_guard<std::mutex> lock(record_mutex);
    if (!recorded.count(label)) record_order.push_back(label);
    recorded[label][world_size].push_back(seconds);
    if (metrics) recorded_metrics[label][world_size] = *metrics;
}

void print_recorded(const std::string& title, const Params& p, const std::vector<int>& sizes) {
    std::vector<Series> series;
    {
        std::lock_guard<std::mutex> lock(record_mutex);
        for (const auto& label : record_order) {
            Series s;
            s.label = label;
            for (int ws : sizes) {
                auto it = recorded[label].find(ws);
                if (it == recorded[label].end() || it->second.empty()) {
                    s.seconds.push_back(-1);
                } else {
                    // median: robust against scheduler noise when many
                    // rank-threads share few cores
                    auto v = it->second;
                    std::sort(v.begin(), v.end());
                    s.seconds.push_back(v[v.size() / 2]);
                }
            }
            series.push_back(std::move(s));
        }
    }
    print_table(title, p, sizes, series);
}

// --- unified BENCH_*.json envelope -------------------------------------

obs::json::Value bench_envelope(const std::string& bench,
                                std::uint64_t payload_bytes_per_rank, int trials) {
    obs::json::Value env{obs::json::Object{}};
    env.set("bench", bench);
    env.set("schema", 1);
    env.set("trials", trials);
    env.set("payload_bytes_per_rank", payload_bytes_per_rank);
    // timings taken under the deterministic scheduler measure the
    // serialized schedule, not the parallel data plane — record the mode
    // so such results are never compared against real ones
    const char* sched = std::getenv("L5_SCHED");
    env.set("sched", sched && *sched ? sched : "off");
    env.set("scenarios", obs::json::Value{obs::json::Array{}});
    return env;
}

obs::json::Value phase_json(const obs::Registry::Snapshot& metrics) {
    auto c = [&](const char* name) -> std::uint64_t {
        auto it = metrics.counters.find(name);
        return it == metrics.counters.end() ? 0 : it->second;
    };
    const std::uint64_t query     = c("time_query_ns");
    const std::uint64_t intersect = c("time_query_intersect_ns");
    const std::uint64_t data      = c("time_query_data_ns");

    obs::json::Value phases{obs::json::Object{}};
    phases.set("index_ns", c("time_index_ns"));
    phases.set("serve_ns", c("time_serve_ns"));
    phases.set("query_ns", query);
    phases.set("query_intersect_ns", intersect);
    phases.set("query_data_ns", data);
    phases.set("query_other_ns", query >= intersect + data ? query - intersect - data : 0);
    // a sub-phase *inside* query_data_ns (it does not enter the
    // intersect + data + other == query identity): the merges of the
    // reply pieces into the user buffer
    phases.set("query_copy_ns", c("time_query_copy_ns"));
    return phases;
}

obs::json::Value scenario_json(const std::string& label, int procs, int nprod, int ncons,
                               const std::vector<double>& seconds,
                               const obs::Registry::Snapshot* metrics) {
    obs::json::Value sc{obs::json::Object{}};
    sc.set("label", label);
    sc.set("procs", procs);
    sc.set("nprod", nprod);
    sc.set("ncons", ncons);
    obs::json::Array times;
    for (double s : seconds) times.emplace_back(s);
    sc.set("seconds", obs::json::Value{std::move(times)});
    {
        auto v = seconds;
        std::sort(v.begin(), v.end());
        sc.set("seconds_median", v.empty() ? 0.0 : v[v.size() / 2]);
    }
    if (metrics) {
        sc.set("phases", phase_json(*metrics));
        obs::json::Value counters{obs::json::Object{}};
        for (const auto& [name, v] : metrics->counters)
            if (name.rfind("time_", 0) != 0) counters.set(name, v);
        sc.set("counters", std::move(counters));
        if (auto it = metrics->histograms.find("query_latency_ns");
            it != metrics->histograms.end() && it->second.count) {
            obs::json::Value h{obs::json::Object{}};
            h.set("count", it->second.count);
            h.set("mean", it->second.mean());
            h.set("p50", it->second.quantile(0.5));
            h.set("p99", it->second.quantile(0.99));
            sc.set("query_latency_ns", std::move(h));
        }
    }
    return sc;
}

void add_scenario(obs::json::Value& envelope, obs::json::Value scenario) {
    if (auto* scs = envelope.find("scenarios")) scs->array().push_back(std::move(scenario));
}

bool write_bench_json(const obs::json::Value& envelope) {
    const auto* name = envelope.find("bench");
    if (!name || !name->is_string()) return false;
    const std::string path = "BENCH_" + name->str() + ".json";
    FILE*             f    = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::string text = envelope.dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
}

void write_recorded_json(const std::string& bench, const Params& p,
                         const std::vector<int>& sizes) {
    auto env = bench_envelope(bench, p.bytes_per_rank(), p.trials);
    std::lock_guard<std::mutex> lock(record_mutex);
    for (const auto& label : record_order) {
        for (int ws : sizes) {
            auto it = recorded[label].find(ws);
            if (it == recorded[label].end() || it->second.empty()) continue;
            auto [np, nc] = split_3_to_1(ws);
            const obs::Registry::Snapshot* metrics = nullptr;
            if (auto lit = recorded_metrics.find(label); lit != recorded_metrics.end())
                if (auto mit = lit->second.find(ws); mit != lit->second.end())
                    metrics = &mit->second;
            add_scenario(env, scenario_json(label, ws, np, nc, it->second, metrics));
        }
    }
    write_bench_json(env);
}

Series sweep(const std::string& label, const Params& p, const std::vector<int>& sizes,
             const std::function<double(int)>& run_once) {
    Series s;
    s.label = label;
    for (int ws : sizes) {
        double sum = 0;
        for (int t = 0; t < p.trials; ++t) sum += run_once(ws);
        s.seconds.push_back(sum / p.trials);
    }
    return s;
}

} // namespace benchcommon
