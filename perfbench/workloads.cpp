/// The three workloads. Each drives LowFive only through its public
/// calls (workflow::run, h5::File/Dataset, stream::Writer/Reader and the
/// DistMetadataVol metrics registry) with library defaults: sync
/// serve-on-close for files, the default block-policy window for streams.
///
///  bulk_crossed  2 producers write x-slabs of a 3-d uint64 grid plus
///                contiguous ranges of a float32x3 particle list; 2
///                consumers read y-slabs (crossing both producers) plus
///                their own particle ranges. One file per round.
///  small_reads   the same decompositions on a cache-resident grid; per
///                open every consumer issues many seeded small box reads
///                inside its y-slab, each repeating an earlier box of the
///                same open with a fixed probability.
///  stream_steps  2 producers publish grid x-slabs step by step through
///                stream::Writer; 2 consumers acquire, read their y-slab
///                and release each step through the collective Reader.
///
/// Values are closed-form functions of the seed and the element's global
/// position, so consumers check every byte they receive.

#include "bench.hpp"

#include <h5/h5.hpp>
#include <lowfive/lowfive.hpp>
#include <lowfive/stream/stream.hpp>
#include <workflow/workflow.hpp>

#include <algorithm>
#include <array>

namespace perfbench {

const char* to_string(Workload w) {
    switch (w) {
    case Workload::bulk_crossed: return "bulk_crossed";
    case Workload::small_reads: return "small_reads";
    case Workload::stream_steps: return "stream_steps";
    }
    return "?";
}

bool parse_workload(const std::string& s, Workload& out) {
    for (auto w : {Workload::bulk_crossed, Workload::small_reads, Workload::stream_steps})
        if (s == to_string(w)) {
            out = w;
            return true;
        }
    return false;
}

Shape make_shape(Workload w, bool tiny) {
    Shape s;
    switch (w) {
    case Workload::bulk_crossed:
        // 256 MiB per round, half grid and half particles. The round keeps
        // about 4.5x that resident (inputs, published copies, extracts,
        // consumer buffers), well past the last-level cache, while 4x the
        // reported L3 per round would not fit a shared machine's memory.
        s.nx = s.ny = s.nz = tiny ? 32 : 256;
        s.particles        = s.grid_bytes() / 12;
        s.particles -= s.particles % 2;
        break;
    case Workload::small_reads:
        s.nx = s.ny = s.nz = tiny ? 16 : 64;
        s.reads_per_open   = tiny ? 16 : 256;
        s.repeat_fraction  = 0.25;
        break;
    case Workload::stream_steps:
        s.nx = s.ny = s.nz = tiny ? 16 : 64;
        break;
    }
    return s;
}

namespace {

using h5::Dataset;
using h5::Dataspace;
using h5::File;
using workflow::Context;

/// At least this many timed rounds run per session, whatever the budget.
constexpr std::uint64_t min_rounds = 3;

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z               = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z               = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t s = a ^ (b * 0xD6E8FEB86659FD93ull);
    return splitmix64(s);
}

/// The closed-form values every rank can compute for any element.
struct Values {
    std::uint64_t grid_salt;
    std::uint32_t particle_salt;

    explicit Values(std::uint64_t seed)
        : grid_salt(mix(seed, 1)), particle_salt(static_cast<std::uint32_t>(mix(seed, 2)) & 0xFFFFFFu) {}

    std::uint64_t grid(std::uint64_t lin) const { return lin * 0x9E3779B97F4A7C15ull + grid_salt; }
    /// Integers below 2^24, so every value is exact in float32.
    float particle(std::uint64_t i, std::uint64_t c) const {
        return static_cast<float>(((i * 3 + c) ^ particle_salt) & 0xFFFFFFu);
    }
};

std::uint64_t now() { return obs::now_ns(); }
double        ms_since(std::uint64_t t0) { return static_cast<double>(now() - t0) / 1e6; }

diy::Bounds box3(const std::array<std::uint64_t, 3>& lo, const std::array<std::uint64_t, 3>& hi) {
    diy::Bounds b(3);
    for (std::size_t i = 0; i < 3; ++i) {
        b.min[i] = static_cast<std::int64_t>(lo[i]);
        b.max[i] = static_cast<std::int64_t>(hi[i]);
    }
    return b;
}

/// Block r of n along `axis` (x-slabs for producers, y-slabs for consumers).
diy::Bounds slab(const Shape& s, std::size_t axis, int r, int n) {
    std::array<std::uint64_t, 3> lo{0, 0, 0}, hi{s.nx, s.ny, s.nz};
    const std::uint64_t          len = hi[axis];
    lo[axis] = len * static_cast<std::uint64_t>(r) / static_cast<std::uint64_t>(n);
    hi[axis] = len * static_cast<std::uint64_t>(r + 1) / static_cast<std::uint64_t>(n);
    return box3(lo, hi);
}

std::pair<std::uint64_t, std::uint64_t> particle_range(const Shape& s, int r, int n) {
    return {s.particles * static_cast<std::uint64_t>(r) / static_cast<std::uint64_t>(n),
            s.particles * static_cast<std::uint64_t>(r + 1) / static_cast<std::uint64_t>(n)};
}

Dataspace grid_selection(const Shape& s, const diy::Bounds& b) {
    Dataspace sel({s.nx, s.ny, s.nz});
    sel.select_box(b);
    return sel;
}

Dataspace particle_selection(const Shape& s, std::uint64_t lo, std::uint64_t hi) {
    Dataspace   sel({s.particles});
    diy::Bounds b(1);
    b.min[0] = static_cast<std::int64_t>(lo);
    b.max[0] = static_cast<std::int64_t>(hi);
    sel.select_box(b);
    return sel;
}

h5::Datatype particle_type() {
    return h5::Datatype::compound(12)
        .insert("x", 0, h5::dt::float32())
        .insert("y", 4, h5::dt::float32())
        .insert("z", 8, h5::dt::float32());
}

/// Visit the rows of `b` (row-major, z fastest): fn(global linear index
/// of the row's first element, offset of that row in the packed box, row
/// length).
template <typename Fn>
void for_rows(const Shape& s, const diy::Bounds& b, Fn&& fn) {
    const auto    zlen = static_cast<std::uint64_t>(b.max[2] - b.min[2]);
    std::uint64_t k    = 0;
    for (auto x = b.min[0]; x < b.max[0]; ++x)
        for (auto y = b.min[1]; y < b.max[1]; ++y, k += zlen)
            fn((static_cast<std::uint64_t>(x) * s.ny + static_cast<std::uint64_t>(y)) * s.nz
                   + static_cast<std::uint64_t>(b.min[2]),
               k, zlen);
}

std::vector<std::uint64_t> grid_values(const Shape& s, const Values& v, const diy::Bounds& b) {
    std::vector<std::uint64_t> out(b.size());
    for_rows(s, b, [&](std::uint64_t lin, std::uint64_t k, std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) out[k + i] = v.grid(lin + i);
    });
    return out;
}

/// Elements of the packed box `got` that differ from the closed form.
std::uint64_t grid_mismatches(const Shape& s, const Values& v, const diy::Bounds& b,
                              const std::uint64_t* got) {
    std::uint64_t bad = 0;
    for_rows(s, b, [&](std::uint64_t lin, std::uint64_t k, std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) bad += got[k + i] != v.grid(lin + i);
    });
    return bad;
}

std::vector<float> particle_values(const Values& v, std::uint64_t lo, std::uint64_t hi) {
    std::vector<float> out((hi - lo) * 3);
    for (std::uint64_t i = lo; i < hi; ++i)
        for (std::uint64_t c = 0; c < 3; ++c) out[(i - lo) * 3 + c] = v.particle(i, c);
    return out;
}

std::uint64_t particle_mismatches(const Values& v, std::uint64_t lo, std::uint64_t hi,
                                  const float* got) {
    std::uint64_t bad = 0;
    for (std::uint64_t i = lo; i < hi; ++i)
        for (std::uint64_t c = 0; c < 3; ++c) bad += got[(i - lo) * 3 + c] != v.particle(i, c);
    return bad;
}

/// One timed consumer read: a latency sample, an attempt, and the bytes.
void timed_read(RankLog& log, const Dataset& d, void* buf, const Dataspace& sel,
                std::uint64_t bytes) {
    obs::Span span("h5.read", "bench");
    ++log.reads;
    const auto t0 = now();
    try {
        d.read(buf, sel);
    } catch (...) {
        ++log.failed;
        throw;
    }
    log.read_ms.push_back(ms_since(t0));
    log.bytes_read += bytes;
}

/// Rank 0 of `comm` decides whether another timed round runs: the first
/// `min_rounds` always do, later ones while the budget lasts. A traced
/// session also stops once a trace buffer overflowed, so every traced
/// round but the last is complete.
bool another_round(const simmpi::Comm& comm, std::uint64_t rounds, std::uint64_t deadline_ns,
                   bool traced) {
    std::uint8_t go = 0;
    if (comm.rank() == 0) {
        const bool dropped = traced && obs::Tracer::instance().dropped() > 0;
        go = !dropped && (rounds < min_rounds || now() < deadline_ns);
    }
    return comm.bcast_value(go, 0) != 0;
}

std::uint64_t budget_ns(double seconds) { return static_cast<std::uint64_t>(seconds * 1e9); }

/// Barrier-bounded rounds over the whole world. `round(i)` is the timed
/// work of this rank; `after(i)` runs outside the timed window (output
/// verification). The round-edge barrier wait is this rank's imbalance.
template <typename Round, typename After>
void timed_rounds(Context& ctx, RankLog& log, double seconds, bool traced, Round&& round,
                  After&& after) {
    std::uint64_t deadline = 0;
    while (another_round(ctx.world, log.rounds, deadline, traced)) {
        ctx.world.barrier();
        const auto t0 = now();
        if (log.rounds == 0) {
            log.first_round_ns = t0;
            deadline           = t0 + budget_ns(seconds);
        }
        {
            obs::Span span("bench.round", "bench");
            round(log.rounds);
            obs::Span wait("simmpi.barrier", "bench");
            ctx.world.barrier();
        }
        if (ctx.world.rank() == 0) log.round_ms.push_back(ms_since(t0));
        after(log.rounds++);
    }
}

// --- bulk_crossed / small_reads: one file per round -------------------------------

const char* const file_name = "perfbench.h5";

void produce_files(Context& ctx, const Shape& s, const Values& val, double seconds, bool traced,
                   RankLog& log) {
    const diy::Bounds block = slab(s, 0, ctx.rank(), nprod);
    const auto        gvals = grid_values(s, val, block);
    const Dataspace   gsel  = grid_selection(s, block);

    const auto [plo, phi] = particle_range(s, ctx.rank(), nprod);
    const auto      pvals = particle_values(val, plo, phi);
    const Dataspace psel  = s.particles ? particle_selection(s, plo, phi) : Dataspace{};

    timed_rounds(
        ctx, log, seconds, traced,
        [&](std::uint64_t round) {
            File    f;
            Dataset grid, parts;
            {
                obs::Span span("h5.create", "bench");
                f    = File::create(file_name, ctx.vol);
                grid = f.create_dataset("grid", h5::dt::uint64(), Dataspace({s.nx, s.ny, s.nz}));
                if (s.particles)
                    parts = f.create_dataset("particles", particle_type(), Dataspace({s.particles}));
                f.write_attribute("round", round);
            }
            {
                obs::Span span("h5.write", "bench");
                grid.write(gvals.data(), gsel);
                if (s.particles) parts.write(pvals.data(), psel);
            }
            obs::Span  span("lowfive.close", "bench");
            const auto t0 = now();
            log.publish_ns.push_back(t0);
            f.close(); // index, then serve until every consumer is done
            log.stall_ms.push_back(ms_since(t0));
        },
        [](std::uint64_t) {});
}

/// Check that an open file is the round the consumer expects.
bool right_round(const File& f, std::uint64_t round) {
    return f.read_attribute<std::uint64_t>("round") == round;
}

void consume_bulk(Context& ctx, const Shape& s, const Values& val, double seconds, bool traced,
                  RankLog& log) {
    const diy::Bounds          block = slab(s, 1, ctx.rank(), ncons);
    const Dataspace            gsel  = grid_selection(s, block);
    std::vector<std::uint64_t> gbuf(block.size());
    const auto [plo, phi] = particle_range(s, ctx.rank(), ncons);
    const Dataspace    psel = particle_selection(s, plo, phi);
    std::vector<float> pbuf((phi - plo) * 3);
    bool               round_ok = true;

    timed_rounds(
        ctx, log, seconds, traced,
        [&](std::uint64_t round) {
            File    f;
            Dataset grid, parts;
            {
                obs::Span span("lowfive.open", "bench");
                f     = File::open(file_name, ctx.vol);
                grid  = f.open_dataset("grid");
                parts = f.open_dataset("particles");
                log.publish_ns.push_back(now());
            }
            round_ok = right_round(f, round);
            timed_read(log, grid, gbuf.data(), gsel, gbuf.size() * 8);
            timed_read(log, parts, pbuf.data(), psel, pbuf.size() * 4);
            obs::Span span("lowfive.close", "bench");
            f.close();
        },
        [&](std::uint64_t) {
            log.failed += !round_ok || grid_mismatches(s, val, block, gbuf.data()) != 0;
            log.failed += !round_ok || particle_mismatches(val, plo, phi, pbuf.data()) != 0;
            // a read that leaves holes must not pass on the last round's bytes
            std::fill(gbuf.begin(), gbuf.end(), 0);
            std::fill(pbuf.begin(), pbuf.end(), 0.f);
        });
}

void consume_small(Context& ctx, const Shape& s, const Values& val, std::uint64_t seed,
                   int session, double seconds, bool traced, RankLog& log) {
    const diy::Bounds       mine     = slab(s, 1, ctx.rank(), ncons);
    constexpr std::uint64_t max_side = 8;

    std::vector<diy::Bounds>   boxes;
    std::vector<std::uint64_t> offsets, buf;
    bool                       round_ok = true;

    // one open's seeded read list, drawn outside the timed round: small
    // boxes inside the consumer's y-slab, each read repeating an earlier
    // box of the same open with probability repeat_fraction
    auto plan = [&](std::uint64_t round) {
        std::uint64_t rng = mix(mix(seed, static_cast<std::uint64_t>(session)),
                                round * ncons + static_cast<std::uint64_t>(ctx.rank()));
        boxes.clear();
        offsets.clear();
        std::uint64_t total = 0;
        for (int i = 0; i < s.reads_per_open; ++i) {
            const double draw = static_cast<double>(splitmix64(rng) >> 11) * 0x1p-53;
            if (i > 0 && draw < s.repeat_fraction) {
                boxes.push_back(boxes[splitmix64(rng) % boxes.size()]);
            } else {
                std::array<std::uint64_t, 3> lo{}, hi{};
                for (std::size_t a = 0; a < 3; ++a) {
                    const auto first = static_cast<std::uint64_t>(mine.min[a]);
                    const auto len   = static_cast<std::uint64_t>(mine.max[a]) - first;
                    const auto side  = 1 + splitmix64(rng) % std::min(max_side, len);
                    lo[a]            = first + splitmix64(rng) % (len - side + 1);
                    hi[a]            = lo[a] + side;
                }
                boxes.push_back(box3(lo, hi));
            }
            offsets.push_back(total);
            total += boxes.back().size();
        }
        buf.assign(total, 0);
    };

    plan(0);
    timed_rounds(
        ctx, log, seconds, traced,
        [&](std::uint64_t round) {
            File    f;
            Dataset grid;
            {
                obs::Span span("lowfive.open", "bench");
                f    = File::open(file_name, ctx.vol);
                grid = f.open_dataset("grid");
                log.publish_ns.push_back(now());
            }
            round_ok = right_round(f, round);
            for (std::size_t i = 0; i < boxes.size(); ++i) {
                const Dataspace sel = grid_selection(s, boxes[i]);
                timed_read(log, grid, buf.data() + offsets[i], sel, boxes[i].size() * 8);
            }
            obs::Span span("lowfive.close", "bench");
            f.close();
        },
        [&](std::uint64_t round) {
            for (std::size_t i = 0; i < boxes.size(); ++i)
                log.failed += !round_ok || grid_mismatches(s, val, boxes[i], buf.data() + offsets[i]) != 0;
            plan(round + 1);
        });
}

// --- stream_steps ------------------------------------------------------------------

const char* const stream_name = "perfbench-stream.h5";

void produce_steps(Context& ctx, const Shape& s, const Values& val, double seconds, bool traced,
                   RankLog& log) {
    const diy::Bounds block = slab(s, 0, ctx.rank(), nprod);
    const auto        gvals = grid_values(s, val, block);
    const Dataspace   gsel  = grid_selection(s, block);

    lowfive::stream::Writer w(ctx.vol, stream_name);
    ctx.world.barrier(); // every rank is set up
    log.first_round_ns   = now();
    const auto deadline  = log.first_round_ns + budget_ns(seconds);

    // producer rank 0 decides for the producer task, so every producer
    // publishes the same steps
    while (another_round(ctx.local, log.rounds, deadline, traced)) {
        obs::Span round("bench.round", "bench");
        Dataset   grid;
        {
            obs::Span span("h5.create", "bench");
            File&     f = w.begin_step();
            grid = f.create_dataset("grid", h5::dt::uint64(), Dataspace({s.nx, s.ny, s.nz}));
            f.write_attribute("step", log.rounds);
        }
        {
            obs::Span span("h5.write", "bench");
            grid.write(gvals.data(), gsel);
        }
        {
            obs::Span  span("lowfive.stream.end_step", "bench");
            const auto t0 = now();
            w.end_step(); // admission (may wait for window space), index, publish
            log.publish_ns.push_back(now());
            log.stall_ms.push_back(static_cast<double>(log.publish_ns.back() - t0) / 1e6);
        }
        if (traced) {
            const auto snap = ctx.vol->metrics().snapshot();
            if (auto it = snap.gauges.find("n_snapshots_live"); it != snap.gauges.end())
                log.snapshots_live_max = std::max(log.snapshots_live_max, it->second);
        }
        ++log.rounds;
    }
    w.close();
    ctx.vol->finish_serving(); // consumers drained every step
}

void consume_steps(Context& ctx, const Shape& s, const Values& val, RankLog& log) {
    const diy::Bounds          block = slab(s, 1, ctx.rank(), ncons);
    const Dataspace            gsel  = grid_selection(s, block);
    std::vector<std::uint64_t> gbuf(block.size());

    lowfive::stream::Reader r(ctx.vol, stream_name);
    ctx.world.barrier();
    log.first_round_ns = now();
    auto last          = log.first_round_ns;

    for (;;) {
        obs::Span round("bench.round", "bench");
        bool      more = false;
        {
            obs::Span span("lowfive.stream.next_step", "bench");
            more = r.next_step(); // release the previous step, acquire the next
        }
        const auto acquired = now();
        if (!more) {
            round.end_arg("eos", 1); // waited for the end of stream, not a step
            break;
        }
        // the block policy is lossless: steps arrive in order, none skipped
        const std::uint64_t step = r.current_step().value();
        bool                ok   = step == log.publish_ns.size();
        log.publish_ns.push_back(acquired);
        if (ctx.rank() == 0) log.round_ms.push_back(static_cast<double>(acquired - last) / 1e6);
        last = acquired;

        Dataset grid;
        {
            obs::Span span("lowfive.open", "bench");
            grid = r.file().open_dataset("grid");
            ok   = ok && r.file().read_attribute<std::uint64_t>("step") == step;
        }
        timed_read(log, grid, gbuf.data(), gsel, gbuf.size() * 8);
        {
            // on the consumer's step path: the stream's pace includes it
            obs::Span span("bench.verify", "bench");
            log.failed += !ok || grid_mismatches(s, val, block, gbuf.data()) != 0;
            std::fill(gbuf.begin(), gbuf.end(), 0);
        }
        ++log.rounds;
    }
    {
        obs::Span  span("lowfive.stream.release", "bench");
        const auto t0 = now();
        r.close(); // release the last step and unsubscribe
        log.release_ms.push_back(ms_since(t0));
    }
}

} // namespace

void run_session(const Config& cfg, int index, double seconds, bool traced, Session& out) {
    const Shape  s = make_shape(cfg.workload, cfg.tiny);
    const Values val(cfg.seed);

    out.ranks.assign(nranks, RankLog{});
    auto body = [&](bool producer) {
        return [&, producer](Context& ctx) {
            RankLog& log      = out.ranks[static_cast<std::size_t>(ctx.world.rank())];
            log.producer      = producer;
            log.body_entry_ns = now();
            switch (cfg.workload) {
            case Workload::bulk_crossed:
                if (producer)
                    produce_files(ctx, s, val, seconds, traced, log);
                else
                    consume_bulk(ctx, s, val, seconds, traced, log);
                break;
            case Workload::small_reads:
                if (producer)
                    produce_files(ctx, s, val, seconds, traced, log);
                else
                    consume_small(ctx, s, val, cfg.seed, index, seconds, traced, log);
                break;
            case Workload::stream_steps:
                if (producer)
                    produce_steps(ctx, s, val, seconds, traced, log);
                else
                    consume_steps(ctx, s, val, log);
                break;
            }
            log.metrics = ctx.vol->metrics().snapshot();
        };
    };

    out.entry_ns = now();
    try {
        workflow::run({{"producer", nprod, body(true)}, {"consumer", ncons, body(false)}},
                      {workflow::Link{0, 1, "*"}});
    } catch (const std::exception& e) {
        out.error = e.what();
    }
}

} // namespace perfbench
