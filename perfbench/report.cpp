/// Turns the per-rank session logs (and the traced session's events) into
/// the run's report: end-to-end metrics with exact quantiles, registries
/// merged per role, and per-role layer tables whose rows plus an explicit
/// residual sum to the mean round wall time.

#include "bench.hpp"

#include <algorithm>
#include <cstring>
#include <map>

namespace perfbench {
namespace {

using obs::json::Value;
using Snapshot = obs::Registry::Snapshot;

// --- exact quantiles from raw samples ----------------------------------------------

/// Quantile q of `v` by linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto   lo  = static_cast<std::size_t>(pos);
    const auto   hi  = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

Value metric(double value, const char* unit) {
    Value m;
    m.set("value", value);
    m.set("unit", unit);
    return m;
}

/// The p50 of `v` and its tail: the highest percentile with at least ten
/// samples beyond it (the p50 itself below 21 samples).
void timing(Value& out, const std::string& name, const std::vector<double>& v) {
    auto p50 = metric(median(v), "ms");
    p50.set("samples", static_cast<std::uint64_t>(v.size()));
    out.set(name + "_p50", std::move(p50));

    const double n = static_cast<double>(v.size());
    const double q = n > 20 ? 1 - 10 / n : 0.5;
    auto tail = metric(quantile(v, q), "ms");
    tail.set("percentile", 100 * q);
    tail.set("samples", static_cast<std::uint64_t>(v.size()));
    out.set(name + "_tail", std::move(tail));
}

// --- registries per role -----------------------------------------------------------

void add_into(Snapshot& acc, const Snapshot& s) {
    for (const auto& [k, v] : s.counters) acc.counters[k] += v;
    for (const auto& [k, v] : s.gauges) acc.gauges[k] += v;
    for (const auto& [k, h] : s.histograms) {
        auto& a = acc.histograms[k];
        for (std::size_t i = 0; i < h.buckets.size(); ++i) a.buckets[i] += h.buckets[i];
        a.count += h.count;
        a.sum += h.sum;
    }
}

struct Roles {
    Snapshot producer, consumer, all;
};

Roles merge_roles(const std::vector<const Session*>& sessions) {
    Roles r;
    for (const Session* s : sessions)
        for (const auto& log : s->ranks) {
            add_into(log.producer ? r.producer : r.consumer, log.metrics);
            add_into(r.all, log.metrics);
        }
    return r;
}

std::uint64_t counter(const Snapshot& s, const char* name) {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
}

Value registry_json(const Snapshot& s) {
    Value out{obs::json::Object{}};
    for (const auto& [k, v] : s.counters) out.set(k, v);
    for (const auto& [k, v] : s.gauges) out.set(k, v);
    for (const auto& [k, h] : s.histograms) {
        Value hv;
        hv.set("count", h.count);
        hv.set("mean_ns", h.mean());
        out.set(k, std::move(hv));
    }
    return out;
}

// --- layer tables from the trace ---------------------------------------------------

struct Interval {
    std::string   name;
    std::uint64_t t0 = 0, t1 = 0;
    bool          eos = false;
};

/// Pair the "bench" spans of every rank (Begin/End, LIFO per rank).
std::map<int, std::vector<Interval>> bench_intervals(const std::vector<obs::Event>& events) {
    std::map<int, std::vector<Interval>> out;
    std::map<int, std::vector<Interval>> open;
    for (const auto& e : events) {
        if (!e.cat || std::strcmp(e.cat, "bench") != 0 || !e.name) continue;
        auto& stack = open[e.rank];
        if (e.type == obs::EventType::Begin) {
            stack.push_back({e.name, e.ts_ns, 0, false});
        } else if (e.type == obs::EventType::End) {
            while (!stack.empty()) {
                Interval iv = std::move(stack.back());
                stack.pop_back();
                if (iv.name != e.name) continue;
                iv.t1 = e.ts_ns;
                for (int i = 0; i < e.nargs; ++i)
                    if (e.args[i].key && std::strcmp(e.args[i].key, "eos") == 0) iv.eos = true;
                out[e.rank].push_back(std::move(iv));
                break;
            }
        }
    }
    return out;
}

/// A span whose time a library registry splits further: `parts` are
/// (row, counter) pairs measured inside the span; the rest of the span
/// becomes row `rest`.
struct Split {
    bool                                            producer;
    const char*                                     span;
    std::vector<std::pair<const char*, const char*>> parts;
    const char*                                     rest;
};

const std::vector<Split>& splits() {
    static const std::vector<Split> s = {
        {true, "lowfive.close",
         {{"lowfive.index", "time_index_ns"}, {"lowfive.serve", "time_serve_ns"}},
         "lowfive.close.wait"},
        {true, "lowfive.stream.end_step", {{"lowfive.index", "time_index_ns"}},
         "lowfive.stream.end_step.other"},
        {false, "h5.read",
         {{"lowfive.query_intersect", "time_query_intersect_ns"},
          {"lowfive.query_data", "time_query_data_ns"}},
         "h5.read.other"},
    };
    return s;
}

struct LayerTable {
    double                                       wall_ms = 0; ///< mean round span per rank
    std::uint64_t                                rounds  = 0; ///< complete traced rank-rounds
    std::vector<std::pair<std::string, double>> rows;        ///< ms per rank-round, residual last
    std::map<std::string, double>               spans;       ///< span rows before registry splits

    double row(const std::string& name) const {
        for (const auto& [n, ms] : rows)
            if (n == name) return ms;
        return 0;
    }
    double span(const std::string& name) const {
        auto it = spans.find(name);
        return it == spans.end() ? 0 : it->second;
    }
};

/// Per round: when the last producer published it (see RankLog::publish_ns).
std::vector<std::uint64_t> last_publish(const Session& s) {
    std::vector<std::uint64_t> pub;
    for (const auto& log : s.ranks)
        if (log.producer) {
            pub.resize(std::max(pub.size(), log.publish_ns.size()));
            for (std::size_t k = 0; k < log.publish_ns.size(); ++k)
                pub[k] = std::max(pub[k], log.publish_ns[k]);
        }
    return pub;
}

/// Per-round layer table of one role. Span rows are averaged over the
/// complete traced rounds of the role's ranks; registry parts over every
/// round the role ran (`rank_rounds`). With `publish`, a consumer's k-th
/// lowfive.open is split at the round's publish time: until then it only
/// waits for the producers to write and index (row lowfive.open.wait).
LayerTable layer_table(bool producer, const Session& session,
                       const std::map<int, std::vector<Interval>>& intervals,
                       const Snapshot& registry, const std::vector<std::uint64_t>* publish) {
    LayerTable                    t;
    std::vector<std::string>      order;
    std::map<std::string, double> sum_ns;
    double                        wall_ns     = 0;
    std::uint64_t                 rank_rounds = 0;
    auto add = [&](const std::string& name, std::uint64_t ns) {
        if (!sum_ns.count(name)) order.push_back(name);
        sum_ns[name] += static_cast<double>(ns);
    };

    for (std::size_t r = 0; r < session.ranks.size(); ++r) {
        if (session.ranks[r].producer != producer) continue;
        rank_rounds += session.ranks[r].rounds;
        auto it = intervals.find(static_cast<int>(r));
        if (it == intervals.end()) continue;

        std::vector<const Interval*> rounds;
        for (const auto& iv : it->second)
            if (iv.name == "bench.round" && !iv.eos && iv.t1 >= iv.t0) rounds.push_back(&iv);
        std::sort(rounds.begin(), rounds.end(),
                  [](const Interval* a, const Interval* b) { return a->t0 < b->t0; });
        for (const Interval* rd : rounds) wall_ns += static_cast<double>(rd->t1 - rd->t0);
        t.rounds += rounds.size();

        std::size_t opens = 0;
        for (const auto& iv : it->second) {
            if (iv.name == "bench.round") continue;
            std::uint64_t cut = iv.t0;
            if (publish && !producer && iv.name == "lowfive.open" && opens < publish->size())
                cut = std::clamp((*publish)[opens++], iv.t0, iv.t1);
            // only spans inside a complete round count
            auto pos = std::upper_bound(rounds.begin(), rounds.end(), iv.t0,
                                        [](std::uint64_t ts, const Interval* rd) { return ts < rd->t0; });
            if (pos == rounds.begin() || iv.t1 > (*std::prev(pos))->t1) continue;
            if (cut > iv.t0) add("lowfive.open.wait", cut - iv.t0);
            add(iv.name, iv.t1 - cut);
        }
    }
    if (t.rounds == 0) return t;

    const double n = static_cast<double>(t.rounds);
    t.wall_ms      = wall_ns / n / 1e6;
    double covered = 0;
    for (const auto& name : order) {
        double ms     = sum_ns[name] / n / 1e6;
        t.spans[name] = ms;
        const Split* split = nullptr;
        for (const auto& s : splits())
            if (s.producer == producer && name == s.span) split = &s;
        if (split && rank_rounds) {
            for (const auto& [row, ctr] : split->parts) {
                const double part = static_cast<double>(counter(registry, ctr)) / 1e6
                                    / static_cast<double>(rank_rounds);
                t.rows.emplace_back(row, part);
                covered += part;
                ms -= part;
            }
            t.rows.emplace_back(split->rest, ms);
        } else {
            t.rows.emplace_back(name, ms);
        }
        covered += ms;
    }
    t.rows.emplace_back("residual", t.wall_ms - covered);
    return t;
}

Value table_json(const LayerTable& t) {
    Value out;
    out.set("wall_ms", t.wall_ms);
    out.set("rounds", t.rounds);
    obs::json::Array rows;
    for (const auto& [name, ms] : t.rows) {
        Value r;
        r.set("layer", name);
        r.set("ms", ms);
        r.set("share", t.wall_ms > 0 ? ms / t.wall_ms : 0.0);
        rows.emplace_back(std::move(r));
    }
    out.set("rows", Value{std::move(rows)});
    return out;
}

// --- end-to-end metrics ------------------------------------------------------------

struct Totals {
    std::vector<double> setup_s, round_ms, stall_ms, read_ms, latency_ms, release_ms;
    std::uint64_t       rounds = 0, reads = 0, failed = 0, bytes = 0;
    std::vector<std::string> errors;
};

void collect(Totals& t, const Session& s) {
    if (!s.error.empty()) t.errors.push_back(s.error);
    const RankLog& first = s.ranks.front(); // world rank 0, producer 0
    if (first.first_round_ns)
        t.setup_s.push_back(static_cast<double>(first.first_round_ns - s.entry_ns) / 1e9);

    std::uint64_t rounds = 0;
    for (const auto& log : s.ranks) {
        t.round_ms.insert(t.round_ms.end(), log.round_ms.begin(), log.round_ms.end());
        t.stall_ms.insert(t.stall_ms.end(), log.stall_ms.begin(), log.stall_ms.end());
        t.read_ms.insert(t.read_ms.end(), log.read_ms.begin(), log.read_ms.end());
        t.release_ms.insert(t.release_ms.end(), log.release_ms.begin(), log.release_ms.end());
        if (log.producer) continue;
        t.reads += log.reads;
        t.failed += log.failed;
        t.bytes += log.bytes_read;
        rounds = log.rounds;
    }
    t.rounds += rounds;

    // publish → consumer has it: per round, from the last producer's
    // publish to each consumer's open (file) or acquire (stream)
    const auto pub = last_publish(s);
    for (const auto& log : s.ranks)
        for (std::size_t k = 0; !log.producer && k < std::min(pub.size(), log.publish_ns.size()); ++k)
            t.latency_ms.push_back(
                (static_cast<double>(log.publish_ns[k]) - static_cast<double>(pub[k])) / 1e6);
}

Value end_to_end(const Totals& t, const Facts& facts) {
    Value out{obs::json::Object{}};
    out.set("setup_s", metric(median(t.setup_s), "s"));
    const double round_p50 = median(t.round_ms);
    timing(out, "round_ms", t.round_ms);
    // rates at the median round, so a few stalled rounds on a shared
    // machine do not swing them; per-round work is the mean over rounds
    const double rounds_per_s = round_p50 > 0 ? 1e3 / round_p50 : 0;
    const double n            = static_cast<double>(std::max<std::uint64_t>(t.rounds, 1));
    out.set("exchange_GBps", metric(static_cast<double>(t.bytes) / n * rounds_per_s / 1e9, "GB/s"));
    timing(out, "producer_stall_ms", t.stall_ms);
    timing(out, "read_ms", t.read_ms);
    out.set("reads_per_s", metric(static_cast<double>(t.reads) / n * rounds_per_s, "1/s"));
    out.set("steps_per_s", metric(rounds_per_s, "1/s"));
    timing(out, "step_latency_ms", t.latency_ms);
    out.set("peak_rss_mib", metric(facts.peak_rss_mib, "MiB"));
    const std::uint64_t attempted = std::max<std::uint64_t>(t.reads, 1);
    out.set("failed_ops_ratio",
            metric(static_cast<double>(t.failed) / static_cast<double>(attempted), "ratio"));
    return out;
}

// --- per-layer metrics (traced run) -----------------------------------------------

/// `totals` are the traced session's; `overhead_ms` its round_ms p50 minus
/// the untraced one's.
Value per_layer(const Traced& tr, const Totals& totals, const LayerTable& prod,
                const LayerTable& cons, const Roles& roles, const Facts& facts, double overhead_ms) {
    const Session& s = tr.session;
    std::uint64_t  rounds = 0, launch_ns = 0;
    std::int64_t   live_max = 0;
    for (const auto& log : s.ranks) {
        if (!log.producer) rounds = log.rounds;
        launch_ns = std::max(launch_ns, log.body_entry_ns - s.entry_ns);
        live_max  = std::max(live_max, log.snapshots_live_max);
    }
    // registry counts per round (whole role) and times per rank-round
    const double n   = static_cast<double>(std::max<std::uint64_t>(rounds, 1));
    auto         per = [&](const Snapshot& r, const char* c) {
        return static_cast<double>(counter(r, c)) / n;
    };
    auto per_rank_ms = [&](const Snapshot& r, const char* c, int ranks) {
        return per(r, c) / 1e6 / ranks;
    };

    const auto& p = roles.producer;
    const auto& c = roles.consumer;
    const double hits = static_cast<double>(counter(c, "n_intersect_cache_hits"));
    const double miss = static_cast<double>(counter(c, "n_intersect_cache_misses"));
    auto global = [&](const char* name) {
        auto it = tr.global.counters.find(name);
        return it == tr.global.counters.end() ? 0.0 : static_cast<double>(it->second) / n;
    };

    Value out{obs::json::Object{}};
    out.set("workflow.launch_ms", metric(static_cast<double>(launch_ns) / 1e6, "ms"));
    out.set("h5.create_ms", metric(prod.row("h5.create"), "ms/round"));
    out.set("h5.write_ms", metric(prod.row("h5.write"), "ms/round"));
    out.set("lowfive.index_ms", metric(per_rank_ms(p, "time_index_ns", nprod), "ms/round"));
    out.set("lowfive.serve_ms", metric(per_rank_ms(p, "time_serve_ns", nprod), "ms/round"));
    out.set("lowfive.bytes_served", metric(per(p, "bytes_served"), "B/round"));
    out.set("lowfive.zero_copy_pieces", metric(per(p, "n_zero_copy_pieces"), "count/round"));
    out.set("lowfive.open_ms", metric(cons.span("lowfive.open"), "ms/round"));
    out.set("lowfive.query_intersect_ms",
            metric(per_rank_ms(c, "time_query_intersect_ns", ncons), "ms/round"));
    out.set("lowfive.intersect_rpcs", metric(per(c, "n_intersect_queries"), "count/round"));
    out.set("lowfive.cache_hit_ratio", metric(hits + miss > 0 ? hits / (hits + miss) : 0, "ratio"));
    out.set("lowfive.query_data_ms", metric(per_rank_ms(c, "time_query_data_ns", ncons), "ms/round"));
    out.set("lowfive.query_copy_ms", metric(per_rank_ms(c, "time_query_copy_ns", ncons), "ms/round"));
    out.set("lowfive.data_rpcs", metric(per(c, "n_data_queries"), "count/round"));
    out.set("lowfive.close_ms", metric(cons.span("lowfive.close"), "ms/round"));
    out.set("lowfive.stream.end_step_ms", metric(prod.span("lowfive.stream.end_step"), "ms/round"));
    out.set("lowfive.stream.publish_waits", metric(per(p, "n_step_publish_waits"), "count/round"));
    out.set("lowfive.stream.next_step_ms", metric(cons.span("lowfive.stream.next_step"), "ms/round"));
    out.set("lowfive.stream.release_ms", metric(median(totals.release_ms), "ms"));
    out.set("lowfive.mvcc.snapshots_live_max", metric(static_cast<double>(live_max), "count"));
    out.set("lowfive.mvcc.gc", metric(per(p, "n_snapshot_gc"), "count/round"));
    out.set("h5.par.jobs", metric(global("par.jobs"), "count/round"));
    out.set("h5.par.steals", metric(global("par.steals"), "count/round"));
    out.set("simmpi.barrier_wait_ms",
            metric((prod.span("simmpi.barrier") + cons.span("simmpi.barrier")) / 2, "ms/round"));
    out.set("mem.memcpy_GBps", metric(facts.memcpy_GBps, "GB/s"));
    out.set("layers.producer.residual_ms", metric(prod.row("residual"), "ms/round"));
    out.set("layers.consumer.residual_ms", metric(cons.row("residual"), "ms/round"));
    auto share = [](const LayerTable& t, const char* row) {
        return t.wall_ms > 0 ? t.row(row) / t.wall_ms : 0.0;
    };
    out.set("layers.consumer.query_data_share", metric(share(cons, "lowfive.query_data"), "ratio"));
    out.set("layers.consumer.query_intersect_share",
            metric(share(cons, "lowfive.query_intersect"), "ratio"));
    out.set("layers.consumer.open_share", metric(share(cons, "lowfive.open"), "ratio"));
    out.set("layers.producer.serve_share", metric(share(prod, "lowfive.serve"), "ratio"));
    out.set("trace_overhead_ms", metric(overhead_ms, "ms"));
    return out;
}

} // namespace

Value make_report(const Config& cfg, const Facts& facts, const std::vector<Session>& sessions,
                  const Traced* traced) {
    const bool stream = cfg.workload == Workload::stream_steps;

    Totals                      t;
    std::vector<const Session*> untraced;
    for (const auto& s : sessions) {
        collect(t, s);
        untraced.push_back(&s);
    }

    Value report;
    report.set("workload", to_string(cfg.workload));
    report.set("seed", cfg.seed);
    report.set("seconds", cfg.seconds);
    report.set("size", cfg.tiny ? "tiny" : "full");

    Value f;
    f.set("nproc", static_cast<int>(facts.nproc));
    f.set("ranks", nranks);
    f.set("llc_bytes", facts.llc_bytes);
    f.set("payload_bytes", facts.payload_bytes);
    f.set("payload_over_llc",
          facts.llc_bytes ? static_cast<double>(facts.payload_bytes) / static_cast<double>(facts.llc_bytes) : 0.0);
    f.set("mem.memcpy_GBps", facts.memcpy_GBps);
    f.set("par_workers", facts.par_workers);
    f.set("kern_dispatch", facts.kern_dispatch);
    f.set("seed", cfg.seed);
    f.set("sessions", static_cast<std::uint64_t>(sessions.size()));
    f.set("bytes_per_round",
          t.rounds ? static_cast<double>(t.bytes) / static_cast<double>(t.rounds) : 0.0);
    report.set("facts", std::move(f));

    report.set("end_to_end", end_to_end(t, facts));

    const Roles roles = merge_roles(untraced);
    Value       regs;
    regs.set("producer", registry_json(roles.producer));
    regs.set("consumer", registry_json(roles.consumer));
    regs.set("all", registry_json(roles.all));

    if (traced) {
        const auto       intervals = bench_intervals(traced->events);
        const Roles      troles    = merge_roles({&traced->session});
        const auto       publish   = last_publish(traced->session);
        const LayerTable prod = layer_table(true, traced->session, intervals, troles.producer, nullptr);
        const LayerTable cons = layer_table(false, traced->session, intervals, troles.consumer,
                                            stream ? nullptr : &publish);
        Value            layers;
        layers.set("producer", table_json(prod));
        layers.set("consumer", table_json(cons));
        report.set("layers", std::move(layers));
        Totals tt;
        collect(tt, traced->session);
        report.set("per_layer", per_layer(*traced, tt, prod, cons, troles, facts,
                                          median(tt.round_ms) - median(t.round_ms)));
        report.set("trace_events", static_cast<std::uint64_t>(traced->events.size()));
        report.set("trace_dropped", traced->dropped);

        t.reads += tt.reads;
        t.failed += tt.failed;
        t.errors.insert(t.errors.end(), tt.errors.begin(), tt.errors.end());
        Value treg;
        treg.set("producer", registry_json(troles.producer));
        treg.set("consumer", registry_json(troles.consumer));
        treg.set("all", registry_json(troles.all));
        treg.set("global", registry_json(traced->global));
        regs.set("traced", std::move(treg));
    }
    report.set("registries", std::move(regs));

    obs::json::Array errors;
    for (const auto& e : t.errors) errors.emplace_back(e);
    report.set("errors", Value{std::move(errors)});
    report.set("attempted", std::max<std::uint64_t>(t.reads, 1));
    report.set("failed", t.failed + t.errors.size());
    report.set("correct", t.failed == 0 && t.errors.empty() && t.reads > 0);
    return report;
}

} // namespace perfbench
