/// l5perf — one run of one perfbench workload.
///
///   l5perf --workload bulk_crossed|small_reads|stream_steps --seed N
///          --seconds S --trace 0|1 [--size full|tiny]
///          --report PATH [--trace-out PATH]
///
/// Untraced (--trace 0): ten sessions of S/10 seconds each; every
/// end-to-end metric comes from their pooled raw samples and set-up time
/// is the median of the ten set-ups. Traced (--trace 1): one untraced session
/// of S/2 seconds, then one session of S/2 seconds with the tracer on;
/// the traced session gives the layer tables and per-layer metrics, and
/// the difference of the two sessions' round_ms p50 is the tracing
/// overhead. Writes the JSON report to PATH (and the Chrome trace to the
/// --trace-out path); exits 1 when any read returned wrong bytes or any
/// operation failed, 2 on bad arguments.

#include "bench.hpp"

#include <h5/copy.hpp>
#include <h5/par.hpp>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace perfbench;

/// Events each trace buffer holds; a traced session stops at the first
/// overflow (see another_round).
constexpr std::size_t trace_capacity = std::size_t(1) << 16;

/// The largest cache level the kernel reports for cpu0, in bytes.
std::uint64_t llc_bytes() {
    std::uint64_t best = 0;
    int           best_level = -1;
    for (int i = 0; i < 16; ++i) {
        const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
        std::ifstream     level_in(dir + "level"), size_in(dir + "size");
        int               level = 0;
        std::string       size;
        if (!(level_in >> level) || !(size_in >> size)) break;
        std::uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
        if (size.back() == 'K') bytes <<= 10;
        if (size.back() == 'M') bytes <<= 20;
        if (level >= best_level) {
            best_level = level;
            best       = bytes;
        }
    }
    return best;
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string   line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

/// Best-of-3 single-thread memcpy bandwidth at `bytes`, in GB/s.
double memcpy_GBps(std::uint64_t bytes) {
    std::vector<std::byte> src(bytes, std::byte{1}), dst(bytes);
    double                 best = 0;
    for (int t = 0; t < 3; ++t) {
        const auto t0 = std::chrono::steady_clock::now();
        std::memcpy(dst.data(), src.data(), bytes);
        const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        if (dst[bytes / 2] != std::byte{1}) std::abort(); // keep the copy observable
        if (s > 0) best = std::max(best, static_cast<double>(bytes) / s / 1e9);
    }
    return best;
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "l5perf: %s\nusage: l5perf --workload bulk_crossed|small_reads|stream_steps "
                 "--seed N --seconds S --trace 0|1 [--size full|tiny] --report PATH "
                 "[--trace-out PATH]\n",
                 why);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    Config cfg;
    bool   have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], val = argv[i + 1];
        if (key == "--workload") {
            if (!parse_workload(val, cfg.workload)) return usage("unknown workload");
            have_workload = true;
        } else if (key == "--seed") {
            cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            cfg.seconds = std::strtod(val.c_str(), nullptr);
        } else if (key == "--trace") {
            cfg.trace = val == "1";
        } else if (key == "--size") {
            if (val != "full" && val != "tiny") return usage("--size must be full or tiny");
            cfg.tiny = val == "tiny";
        } else if (key == "--report") {
            cfg.report_path = val;
        } else if (key == "--trace-out") {
            cfg.trace_path = val;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (argc % 2 == 0) return usage("arguments come in --key value pairs");
    if (!have_workload || cfg.report_path.empty() || !(cfg.seconds > 0))
        return usage("--workload, --report and a positive --seconds are required");

    Facts facts;
    facts.nproc         = std::thread::hardware_concurrency();
    facts.llc_bytes     = llc_bytes();
    const Shape bulk    = make_shape(Workload::bulk_crossed, cfg.tiny);
    facts.payload_bytes = bulk.grid_bytes() + bulk.particle_bytes();
    facts.par_workers   = h5::par::workers();
    facts.kern_dispatch = h5::kern::dispatch_name();

    std::vector<Session> sessions;
    Traced               traced;
    if (!cfg.trace) {
        constexpr int n = 10;
        sessions.resize(n);
        for (int i = 0; i < n; ++i) run_session(cfg, i, cfg.seconds / n, false, sessions[i]);
    } else {
        sessions.resize(1);
        run_session(cfg, 0, cfg.seconds / 2, false, sessions[0]);

        auto& tracer = obs::Tracer::instance();
        tracer.clear();
        tracer.set_capacity(trace_capacity);
        const auto before = obs::Registry::global().snapshot();
        tracer.set_enabled(true);
        run_session(cfg, 1, cfg.seconds / 2, true, traced.session);
        tracer.set_enabled(false);
        traced.global = obs::Registry::global().snapshot();
        for (auto& [name, v] : traced.global.counters)
            if (auto it = before.counters.find(name); it != before.counters.end()) v -= it->second;
        traced.events  = tracer.snapshot();
        traced.dropped = tracer.dropped();
        if (!cfg.trace_path.empty()) {
            std::ofstream os(cfg.trace_path);
            obs::write_chrome_trace(os, traced.events);
        }
    }
    facts.peak_rss_mib = peak_rss_mib(); // before the memcpy baseline allocates
    facts.memcpy_GBps  = memcpy_GBps(facts.payload_bytes);

    const auto report = make_report(cfg, facts, sessions, cfg.trace ? &traced : nullptr);
    std::ofstream out(cfg.report_path);
    out << report.dump(2) << '\n';
    if (!out) {
        std::fprintf(stderr, "l5perf: cannot write %s\n", cfg.report_path.c_str());
        return 2;
    }
    for (const auto& e : report.find("errors")->array())
        std::fprintf(stderr, "l5perf: session failed: %s\n", e.str().c_str());
    return report.find("correct")->boolean() ? 0 : 1;
}
