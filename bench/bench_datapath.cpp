/// Raw-speed benchmark for the data plane: how fast do bytes move from a
/// producer's write buffer into a consumer's read buffer, compared
/// against this machine's raw memcpy bandwidth?
///
/// One producer writes a 1-d uint64 array, one consumer reads all of it:
/// the consumer merges each reply piece straight into the user buffer
/// along the read's mapped runs (here one run), so the end-to-end
/// transfer is producer-extract + envelope + consumer merge.
///
/// Sections:
///   memcpy     raw single-copy bandwidth per payload size (the baseline
///              the acceptance target is expressed against)
///   sweep      end-to-end payload-size sweep; the JSON records bytes /
///              time_query_data_ns per size and the ratio against memcpy
///              at the largest payload
///
/// Environment knobs:
///   L5_BENCH_TRIALS        trials per scenario (default 3)
///   L5_DATAPATH_MAX_MIB    largest payload in MiB (default 128; set 1024
///                          for the paper-style GB-scale point)
///
/// Emits BENCH_datapath.json into the working directory.

#include "common.hpp"

#include <h5/par.hpp>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace h5;
using workflow::Context;
using workflow::Link;
using workflow::Options;

namespace {

std::size_t max_payload_bytes() {
    std::size_t mib = 128;
    if (const char* e = std::getenv("L5_DATAPATH_MAX_MIB"); e && *e) {
        const long long v = std::atoll(e);
        if (v > 0) mib = static_cast<std::size_t>(v);
    }
    return mib << 20;
}

/// Best-of-5 bandwidth of one memcpy of `bytes`, in GB/s.
double memcpy_GBps(std::size_t bytes) {
    std::vector<std::byte> src(bytes), dst(bytes);
    for (std::size_t i = 0; i < bytes; i += 64) src[i] = static_cast<std::byte>(i);
    double best = 0;
    for (int t = 0; t < 5; ++t) {
        const auto t0 = std::chrono::steady_clock::now();
        std::memcpy(dst.data(), src.data(), bytes);
        const auto t1 = std::chrono::steady_clock::now();
        // keep the copy observable
        if (dst[bytes / 2] == std::byte{0xFF}) std::abort();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        if (s > 0) best = std::max(best, static_cast<double>(bytes) / s / 1e9);
    }
    return best;
}

struct EteResult {
    std::vector<double>     seconds; ///< consumer wall per trial
    obs::Registry::Snapshot metrics; ///< consumer, last trial

    std::uint64_t counter(const char* name) const {
        auto it = metrics.counters.find(name);
        return it == metrics.counters.end() ? 0 : it->second;
    }
    double median() const {
        auto s = seconds;
        std::sort(s.begin(), s.end());
        return s.empty() ? 0 : s[s.size() / 2];
    }
};

/// One end-to-end trial: 1 producer writes n uint64s (values = index), 1
/// consumer reads the full array once.
void run_ete(std::size_t bytes, int trials, EteResult& out) {
    const std::uint64_t n = bytes / 8;

    for (int t = 0; t < trials; ++t) {
        Options opts;
        opts.mode = workflow::Mode::in_situ();
        workflow::run(
            {
                {"producer", 1,
                 [&](Context& ctx) {
                     File f = File::create("dp.h5", ctx.vol);
                     auto d = f.create_dataset("v", dt::uint64(), Dataspace({n}));
                     std::vector<std::uint64_t> vals(n);
                     for (std::uint64_t i = 0; i < n; ++i) vals[i] = i;
                     d.write(vals.data(), Dataspace({n}));
                     // the close serves the consumer's whole round; the
                     // timed_section barriers pair with the consumer's
                     benchcommon::timed_section(ctx.world, [&] { f.close(); });
                 }},
                {"consumer", 1,
                 [&](Context& ctx) {
                     double s = benchcommon::timed_section(ctx.world, [&] {
                         File f    = File::open("dp.h5", ctx.vol);
                         auto vals = f.open_dataset("v").read_vector<std::uint64_t>();
                         if (vals[n / 2] != n / 2)
                             throw std::runtime_error("bench: wrong data");
                         f.close();
                     });
                     out.seconds.push_back(s);
                     if (t == trials - 1) out.metrics = ctx.vol->metrics().snapshot();
                 }},
            },
            {Link{0, 1, "*"}}, opts);
    }
}

/// GB/s of the data phase: payload bytes over time_query_data_ns.
double data_GBps(const EteResult& r, std::size_t bytes) {
    const auto ns = r.counter("time_query_data_ns");
    return ns ? static_cast<double>(bytes) / static_cast<double>(ns) : 0.0;
}

obs::json::Value ete_scenario(const std::string& label, std::size_t bytes, const EteResult& r) {
    auto sc = benchcommon::scenario_json(label, 2, 1, 1, r.seconds, &r.metrics);
    sc.set("payload_bytes", static_cast<std::uint64_t>(bytes));
    sc.set("data_GBps", data_GBps(r, bytes));
    return sc;
}

} // namespace

int main() {
    const auto params = benchcommon::Params::from_env();
    const int  trials = params.trials;

    const std::size_t        max_bytes = max_payload_bytes();
    std::vector<std::size_t> sizes;
    for (std::size_t b = max_bytes; b > (1u << 20) && sizes.size() < 3; b /= 8)
        sizes.push_back(b);
    std::reverse(sizes.begin(), sizes.end()); // ascending, largest last

    std::printf("datapath bench: payload sweep up to %zu MiB, %d trials, %d pool workers (%s)\n",
                max_bytes >> 20, trials, par::workers(), kern::dispatch_name());

    auto env = benchcommon::bench_envelope("datapath", max_bytes, trials);
    env.set("kern_dispatch", std::string(kern::dispatch_name()));
    env.set("pool_workers", par::workers());

    // --- memcpy baseline -----------------------------------------------------
    obs::json::Value memcpy_tbl{obs::json::Object{}};
    double           memcpy_largest = 0;
    for (std::size_t b : sizes) {
        const double gbps = memcpy_GBps(b);
        std::printf("  memcpy  %6zu MiB  %7.2f GB/s\n", b >> 20, gbps);
        memcpy_tbl.set(std::to_string(b), gbps);
        if (b == sizes.back()) memcpy_largest = gbps;
    }
    env.set("memcpy_GBps", std::move(memcpy_tbl));

    // --- end-to-end payload sweep -------------------------------------------
    double data_largest = 0;
    for (std::size_t b : sizes) {
        EteResult r;
        run_ete(b, trials, r);
        const double gbps = data_GBps(r, b);
        std::printf("  sweep   %6zu MiB  %7.2f GB/s data phase  (median wall %.4f s)\n", b >> 20,
                    gbps, r.median());
        benchcommon::add_scenario(
            env, ete_scenario("sweep_vectorized_" + std::to_string(b >> 20) + "mib", b, r));
        if (b == sizes.back()) data_largest = gbps;
    }
    const double ratio = data_largest > 0 ? memcpy_largest / data_largest : 0;
    std::printf("  largest payload: data phase at 1/%.2f of memcpy bandwidth (target <= 2)\n",
                ratio);
    env.set("uncompressed_data_vs_memcpy_ratio_largest", ratio);

    benchcommon::write_bench_json(env);
    return 0;
}
