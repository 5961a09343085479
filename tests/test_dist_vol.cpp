#include <lowfive/lowfive.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <thread>

using namespace h5;
using workflow::Context;
using workflow::Link;
using workflow::Options;
using workflow::TaskSpec;

namespace {

/// Producer writes a 2-d grid decomposed row-wise among its ranks; values
/// encode global position so the consumer can validate redistribution
/// (the paper's validation scheme, §IV-B).
void write_grid(Context& ctx, const std::string& fname, std::uint64_t rows, std::uint64_t cols) {
    File f = File::create(fname, ctx.vol);
    auto g = f.create_group("group1");
    auto d = g.create_dataset("grid", dt::uint64(), Dataspace({rows, cols}));

    diy::Bounds domain(2);
    domain.max            = {static_cast<std::int64_t>(rows), static_cast<std::int64_t>(cols)};
    diy::RegularDecomposer dec(domain, ctx.size());
    diy::Bounds            mine = dec.block_bounds(ctx.rank());

    Dataspace sel({rows, cols});
    sel.select_box(mine);
    std::vector<std::uint64_t> vals(sel.npoints());
    std::size_t                k = 0;
    for (auto r = mine.min[0]; r < mine.max[0]; ++r)
        for (auto c = mine.min[1]; c < mine.max[1]; ++c)
            vals[k++] = static_cast<std::uint64_t>(r) * cols + static_cast<std::uint64_t>(c);
    d.write(vals.data(), sel);
    f.close(); // indexes + serves until all consumer ranks are done
}

/// Consumer reads the grid column-wise (a different decomposition) and
/// validates every value.
void read_grid_colwise(Context& ctx, const std::string& fname, std::uint64_t rows,
                       std::uint64_t cols) {
    File f = File::open(fname, ctx.vol);
    auto d = f.open_dataset("group1/grid");
    EXPECT_EQ(d.space().dims(), (Extent{rows, cols}));
    EXPECT_EQ(d.type(), dt::uint64());

    diy::Bounds domain(2);
    domain.max = {static_cast<std::int64_t>(rows), static_cast<std::int64_t>(cols)};
    // transpose-flavoured decomposition: split columns among consumer ranks
    auto          c0 = cols * static_cast<std::uint64_t>(ctx.rank()) / static_cast<std::uint64_t>(ctx.size());
    auto          c1 = cols * static_cast<std::uint64_t>(ctx.rank() + 1) / static_cast<std::uint64_t>(ctx.size());
    diy::Bounds   mine(2);
    mine.min = {0, static_cast<std::int64_t>(c0)};
    mine.max = {static_cast<std::int64_t>(rows), static_cast<std::int64_t>(c1)};

    Dataspace sel({rows, cols});
    sel.select_box(mine);
    auto vals = d.read_vector<std::uint64_t>(sel);

    std::size_t k = 0;
    for (auto r = mine.min[0]; r < mine.max[0]; ++r)
        for (auto c = mine.min[1]; c < mine.max[1]; ++c, ++k)
            ASSERT_EQ(vals[k], static_cast<std::uint64_t>(r) * cols + static_cast<std::uint64_t>(c))
                << "rank " << ctx.rank() << " at (" << r << "," << c << ")";
    f.close(); // sends done to the producers
}

void run_n_to_m(int n, int m, std::uint64_t rows, std::uint64_t cols,
                Options opts = Options{.mode = workflow::Mode::in_situ(), .zerocopy = {}, .background_serve = false, .runtime = {}}) {
    workflow::run(
        {
            {"producer", n, [&](Context& ctx) { write_grid(ctx, "grid.h5", rows, cols); }},
            {"consumer", m, [&](Context& ctx) { read_grid_colwise(ctx, "grid.h5", rows, cols); }},
        },
        {Link{0, 1, "*"}}, opts);
}

} // namespace

TEST(DistVol, OneToOne) { run_n_to_m(1, 1, 16, 16); }
TEST(DistVol, FanOutProcesses) { run_n_to_m(1, 4, 16, 16); }
TEST(DistVol, FanInProcesses) { run_n_to_m(4, 1, 16, 16); }
TEST(DistVol, PaperShape6to4) { run_n_to_m(6, 4, 24, 24); }
TEST(DistVol, MoreConsumersThanProducers) { run_n_to_m(3, 8, 32, 32); }
TEST(DistVol, CoprimeCounts) { run_n_to_m(5, 7, 33, 29); }

struct NmParam {
    int n, m;
};

class DistVolSweep : public ::testing::TestWithParam<NmParam> {};

TEST_P(DistVolSweep, RedistributesCorrectly) {
    run_n_to_m(GetParam().n, GetParam().m, 20, 20);
}

INSTANTIATE_TEST_SUITE_P(NxM, DistVolSweep,
                         ::testing::Values(NmParam{1, 2}, NmParam{2, 1}, NmParam{2, 2},
                                           NmParam{2, 3}, NmParam{3, 2}, NmParam{4, 4},
                                           NmParam{6, 2}, NmParam{2, 6}, NmParam{8, 3},
                                           NmParam{7, 5}),
                         [](const auto& p) {
                             return std::to_string(p.param.n) + "to" + std::to_string(p.param.m);
                         });

TEST(DistVol, ZeroCopyProducer) {
    Options opts;
    opts.mode     = workflow::Mode::in_situ();
    opts.zerocopy = {{"*", "*"}};
    run_n_to_m(3, 2, 16, 16, opts);
}

TEST(DistVol, ThreeDimensionalGrid) {
    workflow::run(
        {
            {"producer", 4,
             [&](Context& ctx) {
                 File f = File::create("cube.h5", ctx.vol);
                 auto d = f.create_dataset("v", dt::uint64(), Dataspace({8, 8, 8}));

                 diy::Bounds domain(3);
                 domain.max = {8, 8, 8};
                 diy::RegularDecomposer dec(domain, ctx.size());
                 auto                   mine = dec.block_bounds(ctx.rank());
                 Dataspace              sel({8, 8, 8});
                 sel.select_box(mine);
                 std::vector<std::uint64_t> vals(sel.npoints());
                 std::size_t                k = 0;
                 for (auto x = mine.min[0]; x < mine.max[0]; ++x)
                     for (auto y = mine.min[1]; y < mine.max[1]; ++y)
                         for (auto z = mine.min[2]; z < mine.max[2]; ++z)
                             vals[k++] = static_cast<std::uint64_t>((x * 8 + y) * 8 + z);
                 d.write(vals.data(), sel);
                 f.close();
             }},
            {"consumer", 2,
             [&](Context& ctx) {
                 File f = File::open("cube.h5", ctx.vol);
                 auto d = f.open_dataset("v");
                 // read z-slabs
                 diy::Bounds mine(3);
                 mine.min = {0, 0, ctx.rank() * 4};
                 mine.max = {8, 8, ctx.rank() * 4 + 4};
                 Dataspace sel({8, 8, 8});
                 sel.select_box(mine);
                 auto vals = d.read_vector<std::uint64_t>(sel);
                 std::size_t k = 0;
                 for (auto x = mine.min[0]; x < mine.max[0]; ++x)
                     for (auto y = mine.min[1]; y < mine.max[1]; ++y)
                         for (auto z = mine.min[2]; z < mine.max[2]; ++z, ++k)
                             ASSERT_EQ(vals[k], static_cast<std::uint64_t>((x * 8 + y) * 8 + z));
                 f.close();
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(DistVol, OneDimensionalParticles) {
    // particles as a 1-d compound-typed dataset with contiguous blocks
    struct P {
        float x, y, z;
    };
    const std::uint64_t per_rank = 1000;
    Datatype            ptype    = Datatype::compound(sizeof(P))
                           .insert("x", 0, dt::float32())
                           .insert("y", 4, dt::float32())
                           .insert("z", 8, dt::float32());

    workflow::run(
        {
            {"producer", 3,
             [&](Context& ctx) {
                 const std::uint64_t total = per_rank * 3;
                 File                f     = File::create("parts.h5", ctx.vol);
                 auto                d     = f.create_dataset("p", ptype, Dataspace({total}));
                 std::vector<P>      mine(per_rank);
                 for (std::uint64_t i = 0; i < per_rank; ++i) {
                     auto gid  = static_cast<float>(ctx.rank() * per_rank + i);
                     mine[i] = {gid, gid + 0.25f, gid + 0.5f};
                 }
                 Dataspace   sel({total});
                 diy::Bounds b(1);
                 b.min[0] = ctx.rank() * static_cast<std::int64_t>(per_rank);
                 b.max[0] = (ctx.rank() + 1) * static_cast<std::int64_t>(per_rank);
                 sel.select_box(b);
                 d.write(mine.data(), sel);
                 f.close();
             }},
            {"consumer", 2,
             [&](Context& ctx) {
                 const std::uint64_t total = per_rank * 3;
                 File                f     = File::open("parts.h5", ctx.vol);
                 auto                d     = f.open_dataset("p");
                 auto lo = total * static_cast<std::uint64_t>(ctx.rank()) / 2;
                 auto hi = total * static_cast<std::uint64_t>(ctx.rank() + 1) / 2;
                 Dataspace   sel({total});
                 diy::Bounds b(1);
                 b.min[0] = static_cast<std::int64_t>(lo);
                 b.max[0] = static_cast<std::int64_t>(hi);
                 sel.select_box(b);
                 auto vals = d.read_vector<P>(sel);
                 for (std::uint64_t i = 0; i < hi - lo; ++i) {
                     ASSERT_EQ(vals[i].x, static_cast<float>(lo + i));
                     ASSERT_EQ(vals[i].z, static_cast<float>(lo + i) + 0.5f);
                 }
                 f.close();
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(DistVol, MultipleDatasetsOneFile) {
    // the paper's synthetic workload: one file, a grid and a particle list
    workflow::run(
        {
            {"producer", 3,
             [&](Context& ctx) {
                 File f = File::create("two.h5", ctx.vol);
                 auto g1 = f.create_group("group1");
                 auto g2 = f.create_group("group2");
                 auto dg = g1.create_dataset("grid", dt::uint64(), Dataspace({12, 12}));
                 auto dp = g2.create_dataset("particles", dt::float32(), Dataspace({30, 3}));

                 diy::Bounds domain(2);
                 domain.max = {12, 12};
                 diy::RegularDecomposer dec(domain, 3);
                 auto                   mine = dec.block_bounds(ctx.rank());
                 Dataspace              gsel({12, 12});
                 gsel.select_box(mine);
                 std::vector<std::uint64_t> gv(gsel.npoints());
                 std::size_t                k = 0;
                 for (auto r = mine.min[0]; r < mine.max[0]; ++r)
                     for (auto c = mine.min[1]; c < mine.max[1]; ++c)
                         gv[k++] = static_cast<std::uint64_t>(r * 12 + c);
                 dg.write(gv.data(), gsel);

                 Dataspace   psel({30, 3});
                 diy::Bounds pb(2);
                 pb.min = {ctx.rank() * 10, 0};
                 pb.max = {(ctx.rank() + 1) * 10, 3};
                 psel.select_box(pb);
                 std::vector<float> pv(30);
                 for (int i = 0; i < 10; ++i)
                     for (int c = 0; c < 3; ++c)
                         pv[static_cast<std::size_t>(i * 3 + c)] =
                             static_cast<float>((ctx.rank() * 10 + i) * 3 + c);
                 dp.write(pv.data(), psel);
                 f.close();
             }},
            {"consumer", 1,
             [&](Context& ctx) {
                 File f = File::open("two.h5", ctx.vol);
                 EXPECT_EQ(f.children(), (std::vector<std::string>{"group1", "group2"}));
                 auto gv = f.open_dataset("group1/grid").read_vector<std::uint64_t>();
                 for (std::uint64_t i = 0; i < 144; ++i) ASSERT_EQ(gv[i], i);
                 auto pv = f.open_dataset("group2/particles").read_vector<float>();
                 for (std::uint64_t i = 0; i < 90; ++i) ASSERT_EQ(pv[i], static_cast<float>(i));
                 f.close();
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(DistVol, MultipleTimestepFiles) {
    // lock-step rounds over separately named files (Nyx-style snapshots)
    constexpr int steps = 3;
    workflow::run(
        {
            {"sim", 2,
             [&](Context& ctx) {
                 for (int s = 0; s < steps; ++s) {
                     std::string name = "ts" + std::to_string(s) + ".h5";
                     File        f    = File::create(name, ctx.vol);
                     auto d = f.create_dataset("v", dt::int32(), Dataspace({8}));
                     Dataspace   sel({8});
                     diy::Bounds b(1);
                     b.min[0] = ctx.rank() * 4;
                     b.max[0] = ctx.rank() * 4 + 4;
                     sel.select_box(b);
                     std::vector<std::int32_t> v(4);
                     for (int i = 0; i < 4; ++i) v[static_cast<std::size_t>(i)] = s * 100 + ctx.rank() * 4 + i;
                     d.write(v.data(), sel);
                     f.close();
                     ctx.vol->drop_file(name); // free the served snapshot
                 }
             }},
            {"ana", 3,
             [&](Context& ctx) {
                 for (int s = 0; s < steps; ++s) {
                     std::string name = "ts" + std::to_string(s) + ".h5";
                     File        f    = File::open(name, ctx.vol);
                     auto        v    = f.open_dataset("v").read_vector<std::int32_t>();
                     for (int i = 0; i < 8; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], s * 100 + i);
                     f.close();
                 }
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(DistVol, FanInFanOutTasks) {
    // 2 producer tasks, 2 consumer tasks; both consumers read both files
    auto producer = [](const std::string& fname, int base) {
        return [fname, base](Context& ctx) {
            File f = File::create(fname, ctx.vol);
            auto d = f.create_dataset("v", dt::int32(), Dataspace({6}));
            Dataspace   sel({6});
            diy::Bounds b(1);
            b.min[0] = ctx.rank() * 3;
            b.max[0] = ctx.rank() * 3 + 3;
            sel.select_box(b);
            std::vector<std::int32_t> v(3);
            for (int i = 0; i < 3; ++i) v[static_cast<std::size_t>(i)] = base + ctx.rank() * 3 + i;
            d.write(v.data(), sel);
            f.close();
        };
    };
    auto consumer = [](Context& ctx) {
        for (const auto& [fname, base] : {std::pair{std::string("fa.h5"), 100},
                                          std::pair{std::string("fb.h5"), 200}}) {
            File f = File::open(fname, ctx.vol);
            auto v = f.open_dataset("v").read_vector<std::int32_t>();
            for (int i = 0; i < 6; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], base + i);
            f.close();
        }
    };

    workflow::run(
        {
            {"prodA", 2, producer("fa.h5", 100)},
            {"prodB", 2, producer("fb.h5", 200)},
            {"consX", 2, consumer},
            {"consY", 1, consumer},
        },
        {
            Link{0, 2, "fa.h5"},
            Link{0, 3, "fa.h5"},
            Link{1, 2, "fb.h5"},
            Link{1, 3, "fb.h5"},
        });
}

TEST(DistVol, PipelineThreeStages) {
    // A -> B -> C: the middle task consumes from A and produces for C
    workflow::run(
        {
            {"A", 2,
             [](Context& ctx) {
                 File f = File::create("stage_a.h5", ctx.vol);
                 auto d = f.create_dataset("v", dt::int32(), Dataspace({8}));
                 Dataspace   sel({8});
                 diy::Bounds b(1);
                 b.min[0] = ctx.rank() * 4;
                 b.max[0] = ctx.rank() * 4 + 4;
                 sel.select_box(b);
                 std::vector<std::int32_t> v(4);
                 for (int i = 0; i < 4; ++i) v[static_cast<std::size_t>(i)] = ctx.rank() * 4 + i;
                 d.write(v.data(), sel);
                 f.close();
             }},
            {"B", 2,
             [](Context& ctx) {
                 std::vector<std::int32_t> v;
                 {
                     File f = File::open("stage_a.h5", ctx.vol);
                     v      = f.open_dataset("v").read_vector<std::int32_t>();
                     f.close();
                 }
                 for (auto& x : v) x *= 10; // transform
                 {
                     File f = File::create("stage_b.h5", ctx.vol);
                     auto d = f.create_dataset("v", dt::int32(), Dataspace({8}));
                     Dataspace   sel({8});
                     diy::Bounds b(1);
                     b.min[0] = ctx.rank() * 4;
                     b.max[0] = ctx.rank() * 4 + 4;
                     sel.select_box(b);
                     d.write(v.data() + ctx.rank() * 4, sel);
                     f.close();
                 }
             }},
            {"C", 1,
             [](Context& ctx) {
                 File f = File::open("stage_b.h5", ctx.vol);
                 auto v = f.open_dataset("v").read_vector<std::int32_t>();
                 for (int i = 0; i < 8; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], i * 10);
                 f.close();
             }},
        },
        {Link{0, 1, "stage_a.h5"}, Link{1, 2, "stage_b.h5"}});
}

TEST(DistVol, ConsumerReadsSubsetOnly) {
    // only one dataset of several is read: the others are never transported
    workflow::run(
        {
            {"producer", 2,
             [](Context& ctx) {
                 File f = File::create("subset.h5", ctx.vol);
                 for (int v = 0; v < 4; ++v) {
                     auto d = f.create_dataset("var" + std::to_string(v), dt::int32(),
                                               Dataspace({4}));
                     if (ctx.rank() == 0) {
                         std::vector<std::int32_t> data{v, v, v, v};
                         d.write(data.data());
                     }
                 }
                 f.close();
                 auto st = ctx.vol->stats();
                 // at most one dataset's worth of payload was served
                 EXPECT_LT(st.bytes_served, 4u * 4 * sizeof(std::int32_t));
             }},
            {"consumer", 2,
             [](Context& ctx) {
                 File f = File::open("subset.h5", ctx.vol);
                 auto v = f.open_dataset("var2").read_vector<std::int32_t>();
                 for (auto x : v) ASSERT_EQ(x, 2);
                 f.close();
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(DistVol, SyncOpensPairWithTheirClose) {
    // a sync producer answers an open only while its close is waiting on
    // the round: consumers that open before the producer has even created
    // round r's file (it is still "computing") must read round r, never
    // the round r-1 version that is still live
    constexpr int           rounds = 20;
    constexpr std::uint64_t n      = 64;
    Options                 opts;
    opts.mode = workflow::Mode::in_situ();
    workflow::run(
        {
            {"producer", 2,
             [](Context& ctx) {
                 for (int r = 0; r < rounds; ++r) {
                     ctx.world.barrier();
                     std::this_thread::sleep_for(std::chrono::milliseconds(2)); // compute
                     File f = File::create("paired.h5", ctx.vol);
                     f.write_attribute("round", r);
                     auto        d = f.create_dataset("v", dt::int64(), Dataspace({n}));
                     const auto  lo = n * static_cast<std::uint64_t>(ctx.rank()) / 2;
                     const auto  hi = n * static_cast<std::uint64_t>(ctx.rank() + 1) / 2;
                     Dataspace   sel({n});
                     diy::Bounds b(1);
                     b.min[0] = static_cast<std::int64_t>(lo);
                     b.max[0] = static_cast<std::int64_t>(hi);
                     sel.select_box(b);
                     std::vector<std::int64_t> v(hi - lo);
                     for (std::uint64_t i = lo; i < hi; ++i)
                         v[i - lo] = r * 1000 + static_cast<std::int64_t>(i);
                     d.write(v.data(), sel);
                     f.close();
                 }
             }},
            {"consumer", 2,
             [](Context& ctx) {
                 for (int r = 0; r < rounds; ++r) {
                     ctx.world.barrier();
                     File f = File::open("paired.h5", ctx.vol);
                     // EXPECT, not ASSERT: an early return would strand
                     // the other ranks in the next round's barrier
                     EXPECT_EQ(f.read_attribute<int>("round"), r) << "rank " << ctx.rank();
                     auto        v   = f.open_dataset("v").read_vector<std::int64_t>();
                     std::size_t bad = 0;
                     for (std::uint64_t i = 0; i < n; ++i)
                         bad += v[i] != r * 1000 + static_cast<std::int64_t>(i);
                     EXPECT_EQ(bad, 0u) << "round " << r << " rank " << ctx.rank();
                     f.close();
                 }
             }},
        },
        {Link{0, 1, "*"}}, opts);
}

TEST(DistVol, FastConsumerRankReadsEveryRoundOnce) {
    // no barrier pairs the consumer ranks: rank 0 finishes each round
    // while rank 1 still reads it. A sync producer must park rank 0's
    // next open until the round after, not answer it with the round it
    // just closed — or its extra Done completes the producer's close
    // under rank 1, which then skips rounds
    constexpr int           rounds = 6;
    constexpr std::uint64_t n      = 64;
    Options                 opts;
    opts.mode = workflow::Mode::in_situ();
    workflow::run(
        {
            {"producer", 2,
             [](Context& ctx) {
                 for (int r = 0; r < rounds; ++r) {
                     File f = File::create("fast.h5", ctx.vol);
                     f.write_attribute("round", r);
                     auto        d  = f.create_dataset("v", dt::int64(), Dataspace({n}));
                     const auto  lo = n * static_cast<std::uint64_t>(ctx.rank()) / 2;
                     const auto  hi = n * static_cast<std::uint64_t>(ctx.rank() + 1) / 2;
                     Dataspace   sel({n});
                     diy::Bounds b(1);
                     b.min[0] = static_cast<std::int64_t>(lo);
                     b.max[0] = static_cast<std::int64_t>(hi);
                     sel.select_box(b);
                     std::vector<std::int64_t> v(hi - lo);
                     for (std::uint64_t i = lo; i < hi; ++i)
                         v[i - lo] = r * 1000 + static_cast<std::int64_t>(i);
                     d.write(v.data(), sel);
                     f.close();
                 }
             }},
            {"consumer", 2,
             [](Context& ctx) {
                 for (int r = 0; r < rounds; ++r) {
                     File f = File::open("fast.h5", ctx.vol);
                     EXPECT_EQ(f.read_attribute<int>("round"), r) << "rank " << ctx.rank();
                     auto        v   = f.open_dataset("v").read_vector<std::int64_t>();
                     std::size_t bad = 0;
                     for (std::uint64_t i = 0; i < n; ++i)
                         bad += v[i] != r * 1000 + static_cast<std::int64_t>(i);
                     EXPECT_EQ(bad, 0u) << "round " << r << " rank " << ctx.rank();
                     if (ctx.rank() == 1) std::this_thread::sleep_for(std::chrono::milliseconds(20));
                     f.close();
                 }
             }},
        },
        {Link{0, 1, "*"}}, opts);
}

TEST(DistVol, DoneAheadOfALaggingProducerRankIsKept) {
    // a file with no dataset publishes with no collective, so producer
    // rank 1 can lag a whole round behind rank 0: the consumer opens
    // round r from rank 0 and its Done for r reaches rank 1 before rank 1
    // published r. That Done must still count for round r there, or
    // rank 1's close waits for a Done that never comes again
    constexpr int rounds = 4;
    Options       opts;
    opts.mode                       = workflow::Mode::in_situ();
    opts.runtime.default_timeout_ms = 10000;
    workflow::run(
        {
            {"producer", 2,
             [](Context& ctx) {
                 for (int r = 0; r < rounds; ++r) {
                     if (ctx.rank() == 1) std::this_thread::sleep_for(std::chrono::milliseconds(20));
                     File f = File::create("lag.h5", ctx.vol);
                     f.write_attribute("round", r);
                     f.close();
                 }
             }},
            {"consumer", 1,
             [](Context& ctx) {
                 for (int r = 0; r < rounds; ++r) {
                     File f = File::open("lag.h5", ctx.vol);
                     EXPECT_EQ(f.read_attribute<int>("round"), r);
                     f.close();
                 }
             }},
        },
        {Link{0, 1, "*"}}, opts);
}

TEST(DistVol, FileModeThroughPhysicalStorage) {
    PfsModel::instance().configure(0, 0);
    // pid-unique name: parallel sweeps (mh5sched --jobs N) run several
    // instances of this binary at once, and they must not share the file
    auto tmp = std::filesystem::temp_directory_path()
               / ("l5_dist_filemode." + std::to_string(getpid()) + ".h5");
    std::filesystem::remove(tmp);

    Options opts;
    opts.mode = workflow::Mode::file();
    workflow::run(
        {
            {"producer", 3,
             [&](Context& ctx) {
                 File f = File::create(tmp.string(), ctx.vol);
                 auto d = f.create_dataset("v", dt::int32(), Dataspace({9}));
                 Dataspace   sel({9});
                 diy::Bounds b(1);
                 b.min[0] = ctx.rank() * 3;
                 b.max[0] = ctx.rank() * 3 + 3;
                 sel.select_box(b);
                 std::vector<std::int32_t> v(3);
                 for (int i = 0; i < 3; ++i) v[static_cast<std::size_t>(i)] = ctx.rank() * 3 + i;
                 d.write(v.data(), sel);
                 f.close();
             }},
            {"consumer", 2,
             [&](Context& ctx) {
                 File f = File::open(tmp.string(), ctx.vol);
                 auto v = f.open_dataset("v").read_vector<std::int32_t>();
                 for (int i = 0; i < 9; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], i);
                 f.close();
             }},
        },
        {Link{0, 1, "*"}}, opts);

    EXPECT_TRUE(std::filesystem::exists(tmp));
    std::filesystem::remove(tmp);
}

// --- piece-buffer recycling -------------------------------------------------------
//
// A Deep write takes a dead tree's buffer when one fits [n, 2n] (PiecePool).
// These tests rewrite files round after round and check that every
// read still matches its own round byte for byte, that the recycling count
// and the pool's size are exactly what the tree lifetimes predict, and that
// Shallow pieces and buffers still aliased by a reader are never reused.

namespace {

constexpr std::uint64_t kPoolCols = 16; ///< grid columns
constexpr std::uint64_t kPoolPad  = 3;  ///< junk columns on each side of a producer row
constexpr std::uint64_t kRowBytes = kPoolCols * sizeof(std::uint64_t);

diy::Bounds box2(std::uint64_t r0, std::uint64_t r1, std::uint64_t c0, std::uint64_t c1) {
    diy::Bounds b(2);
    b.min = {static_cast<std::int64_t>(r0), static_cast<std::int64_t>(c0)};
    b.max = {static_cast<std::int64_t>(r1), static_cast<std::int64_t>(c1)};
    return b;
}

/// Round r's value at grid cell (row, col): a byte left over from any
/// other round reads wrong.
std::uint64_t pool_value(std::uint64_t r, std::uint64_t row, std::uint64_t col) {
    return (r + 1) * 1'000'003u + row * kPoolCols + col;
}

/// Producer side of round r: a (rows * ranks) x kPoolCols grid, each rank
/// writing one x-slab of `rows` rows (one Deep piece) out of a padded
/// buffer, so the memspace is strided. The world barrier before close
/// lets consumers open only once this round's file exists, so a fast
/// consumer never re-reads the previous round.
void write_pool_round(Context& ctx, const std::string& fname, std::uint64_t r,
                      std::uint64_t rows) {
    const std::uint64_t nrows = rows * static_cast<std::uint64_t>(ctx.size());
    const std::uint64_t row0  = rows * static_cast<std::uint64_t>(ctx.rank());
    const std::uint64_t width = kPoolCols + 2 * kPoolPad;

    File f = File::create(fname, ctx.vol);
    auto d = f.create_dataset("grid", dt::uint64(), Dataspace({nrows, kPoolCols}));
    std::vector<std::uint64_t> buf(rows * width, 0xdeadbeefdeadbeefULL);
    for (std::uint64_t i = 0; i < rows; ++i)
        for (std::uint64_t c = 0; c < kPoolCols; ++c)
            buf[i * width + kPoolPad + c] = pool_value(r, row0 + i, c);
    Dataspace mem({rows, width});
    mem.select_box(box2(0, rows, kPoolPad, kPoolPad + kPoolCols));
    Dataspace file({nrows, kPoolCols});
    file.select_box(box2(row0, row0 + rows, 0, kPoolCols));
    d.write(buf.data(), mem, file);
    ctx.world.barrier();
    f.close();
}

/// Consumer side of round r: read this rank's column slab across every
/// row (crossing the producers' x-slabs) and check each value.
void read_pool_round(Context& ctx, const std::string& fname, std::uint64_t r,
                     std::uint64_t nrows) {
    ctx.world.barrier();
    File f = File::open(fname, ctx.vol);
    auto d = f.open_dataset("grid");
    ASSERT_EQ(d.space().dims(), (Extent{nrows, kPoolCols})) << "round " << r;
    const auto c0 = kPoolCols * static_cast<std::uint64_t>(ctx.rank())
                    / static_cast<std::uint64_t>(ctx.size());
    const auto c1 = kPoolCols * static_cast<std::uint64_t>(ctx.rank() + 1)
                    / static_cast<std::uint64_t>(ctx.size());
    Dataspace sel({nrows, kPoolCols});
    sel.select_box(box2(0, nrows, c0, c1));
    auto        vals = d.read_vector<std::uint64_t>(sel);
    std::size_t k    = 0;
    for (std::uint64_t i = 0; i < nrows; ++i)
        for (std::uint64_t c = c0; c < c1; ++c, ++k)
            ASSERT_EQ(vals[k], pool_value(r, i, c)) << "round " << r << " at (" << i << "," << c << ")";
    f.close();
}

Options pool_options(bool background) {
    return Options{.mode             = workflow::Mode::in_situ(),
                   .zerocopy         = {},
                   .background_serve = background,
                   .runtime          = {}};
}

} // namespace

TEST(DistVolPiecePool, RewriteRoundsReuseBuffersByteForByte) {
    // Sync serve: tree r-1 dies while round r is served (the consumers'
    // round-r Dones release its pins), so round r+1 may take its buffer.
    // Rows per producer rank, and what each round's write finds:
    //   r0 16 fresh   r1 16 fresh (tree 0 is still pinned)
    //   r2 12 takes tree 0's 16 (capacity above n)
    //   r3 14 takes tree 1's 16
    //   r4  5 fresh: 16 > 2*5; tree 3's 16 is past the bound and freed
    //   r5 16 takes tree 2's buffer (size 12: the resize zero-fills 4 rows)
    //   r6  8 fresh: the only spare is tree 4's 5
    const std::vector<std::uint64_t> rows{16, 16, 12, 14, 5, 16, 8};
    const std::vector<std::uint64_t> held{0, 16, 16, 16, 16, 5, 5}; // spare rows after close
    constexpr int                    nprod = 2;
    workflow::run(
        {
            {"producer", nprod,
             [&](Context& ctx) {
                 for (std::size_t r = 0; r < rows.size(); ++r) {
                     write_pool_round(ctx, "pool_rw.h5", r, rows[r]);
                     EXPECT_EQ(ctx.vol->stats().piece_pool_bytes,
                               static_cast<std::int64_t>(held[r] * kRowBytes))
                         << "round " << r;
                 }
                 const auto s = ctx.vol->stats();
                 EXPECT_EQ(s.n_recycled_pieces, 3u);
                 EXPECT_EQ(s.bytes_recycled, (12u + 14u + 16u) * kRowBytes);
                 EXPECT_GT(s.n_zero_copy_pieces, 0u);
             }},
            {"consumer", 3,
             [&](Context& ctx) {
                 for (std::size_t r = 0; r < rows.size(); ++r)
                     read_pool_round(ctx, "pool_rw.h5", r, rows[r] * nprod);
             }},
        },
        {Link{0, 1, "*"}}, pool_options(false));
}

TEST(DistVolPiecePool, PoolStaysWithinTheLargestTree) {
    // two files rewritten in turn: trees of 16 and 12 rows die into one
    // pool, which would hold 28 rows without its bound — it never holds
    // more than the largest tree's 16
    const std::vector<std::pair<std::string, std::uint64_t>> files{{"pool_a.h5", 16},
                                                                   {"pool_b.h5", 12}};
    const std::int64_t bound  = static_cast<std::int64_t>(16 * kRowBytes);
    const std::uint64_t rounds = 5;
    workflow::run(
        {
            {"producer", 2,
             [&](Context& ctx) {
                 std::int64_t peak = 0;
                 for (std::uint64_t r = 0; r < rounds; ++r)
                     for (const auto& [fname, rows] : files) {
                         write_pool_round(ctx, fname, r, rows);
                         const auto s = ctx.vol->stats();
                         EXPECT_LE(s.piece_pool_bytes, bound) << fname << " round " << r;
                         peak = std::max(peak, s.piece_pool_bytes);
                     }
                 EXPECT_EQ(peak, bound);
                 EXPECT_GT(ctx.vol->stats().n_recycled_pieces, 0u);
             }},
            {"consumer", 2,
             [&](Context& ctx) {
                 for (std::uint64_t r = 0; r < rounds; ++r)
                     for (const auto& [fname, rows] : files) read_pool_round(ctx, fname, r, rows * 2);
             }},
        },
        {Link{0, 1, "*"}}, pool_options(false));
}

TEST(DistVolPiecePool, ShallowPiecesAreNeverRecycled) {
    // each round writes one Deep and one Shallow (set_zerocopy) piece of
    // the same size: only the Deep ones are recycled (rounds 2 and 3),
    // and no user buffer behind a Shallow piece is ever written
    constexpr std::uint64_t n = 256, rounds = 4;
    std::vector<std::vector<std::uint64_t>> user(rounds), copies(rounds);
    workflow::run(
        {
            {"producer", 1,
             [&](Context& ctx) {
                 ctx.vol->set_zerocopy("*", "/shallow");
                 for (std::uint64_t r = 0; r < rounds; ++r) {
                     std::vector<std::uint64_t> deep(n);
                     user[r].resize(n);
                     for (std::uint64_t i = 0; i < n; ++i) {
                         deep[i]    = pool_value(r, 0, i);
                         user[r][i] = pool_value(r, 1, i);
                     }
                     copies[r] = user[r];
                     File f    = File::create("pool_shallow.h5", ctx.vol);
                     f.create_dataset("deep", dt::uint64(), Dataspace({n})).write(deep.data());
                     f.create_dataset("shallow", dt::uint64(), Dataspace({n})).write(user[r].data());
                     ctx.world.barrier();
                     f.close();
                 }
                 const auto s = ctx.vol->stats();
                 EXPECT_EQ(s.n_recycled_pieces, 2u);
                 EXPECT_EQ(s.bytes_recycled, 2 * n * sizeof(std::uint64_t));
                 EXPECT_EQ(s.piece_pool_bytes, static_cast<std::int64_t>(n * sizeof(std::uint64_t)));
                 for (std::uint64_t r = 0; r < rounds; ++r)
                     EXPECT_EQ(user[r], copies[r]) << "user buffer of round " << r << " was written";
             }},
            {"consumer", 2,
             [&](Context& ctx) {
                 for (std::uint64_t r = 0; r < rounds; ++r) {
                     ctx.world.barrier();
                     File f    = File::open("pool_shallow.h5", ctx.vol);
                     auto deep = f.open_dataset("deep").read_vector<std::uint64_t>();
                     auto shal = f.open_dataset("shallow").read_vector<std::uint64_t>();
                     for (std::uint64_t i = 0; i < n; ++i) {
                         ASSERT_EQ(deep[i], pool_value(r, 0, i)) << "round " << r;
                         ASSERT_EQ(shal[i], pool_value(r, 1, i)) << "round " << r;
                     }
                     f.close();
                 }
             }},
        },
        {Link{0, 1, "*"}}, pool_options(false));
}

TEST(DistVolPiecePool, ConsumerThreadHarvestFeedsTheNextWrite) {
    // Background serve, crossing aliased reads, rewrites. A consumer drops
    // its reply payloads before its Done, so in a plain read the serve
    // thread drops a tree last. Here each producer rank also hands the
    // consumer of the same rank an aliased payload of its round-r piece,
    // built the way the serve path builds one (the bytes, owned by the
    // snapshot), and the consumer keeps it past round r+1's serve. Then:
    //   - the payload still reads round r, while round r+1 was written;
    //   - dropping it on the consumer thread is the tree's last owner
    //     letting go: the producer's pool grows between the two barriers
    //     around that drop, while the producer thread waits in one;
    //   - round r+2's write takes that buffer.
    constexpr std::uint64_t rows = 16, rounds = 5;
    constexpr int           tag  = 51;
    constexpr int           n    = 2; // producer ranks = consumer ranks
    const std::int64_t      piece = static_cast<std::int64_t>(rows * kRowBytes);
    workflow::run(
        {
            {"producer", n,
             [&](Context& ctx) {
                 for (std::uint64_t r = 0; r < rounds; ++r) {
                     write_pool_round(ctx, "pool_bg.h5", r, rows);
                     if (r + 1 < rounds) {
                         // round pins hold v_r until the consumers' round
                         // r+1 Dones: the payload is taken while it is live
                         auto pin = ctx.vol->snapshot_store().pin("pool_bg.h5");
                         ASSERT_TRUE(pin);
                         const auto* packed = pin->root()->resolve("grid")->pieces.at(0).packed_bytes();
                         ASSERT_NE(packed, nullptr);
                         ctx.world.send_shared(n + ctx.rank(), tag,
                                               simmpi::SharedPayload(pin.shared(), packed));
                     }
                     ctx.vol->serve_all(); // every round-r Done is in: v_{r-1} is unpinned
                     if (r >= 1) {
                         EXPECT_EQ(ctx.vol->stats().piece_pool_bytes, 0) << "round " << r;
                     }
                     ctx.world.barrier(); // the consumer drops the round r-1 payload ...
                     ctx.world.barrier(); // ... and its tree is in the pool
                     if (r >= 1) {
                         EXPECT_EQ(ctx.vol->stats().piece_pool_bytes, piece) << "round " << r;
                     }
                 }
                 EXPECT_EQ(ctx.vol->stats().n_recycled_pieces, rounds - 2);
             }},
            {"consumer", n,
             [&](Context& ctx) {
                 simmpi::SharedPayload held;
                 for (std::uint64_t r = 0; r < rounds; ++r) {
                     read_pool_round(ctx, "pool_bg.h5", r, rows * n);
                     ctx.world.barrier();
                     if (held) {
                         // the superseded round, byte for byte
                         const auto row0 = rows * static_cast<std::uint64_t>(ctx.rank());
                         std::vector<std::uint64_t> want(rows * kPoolCols);
                         for (std::uint64_t i = 0; i < rows; ++i)
                             for (std::uint64_t c = 0; c < kPoolCols; ++c)
                                 want[i * kPoolCols + c] = pool_value(r - 1, row0 + i, c);
                         std::vector<std::uint64_t> got(held->size() / sizeof(std::uint64_t));
                         std::memcpy(got.data(), held->data(), got.size() * sizeof(std::uint64_t));
                         EXPECT_EQ(got, want) << "payload of round " << r - 1;
                         held.reset(); // last owner: the tree is harvested here
                     }
                     ctx.world.barrier();
                     if (r + 1 < rounds) ctx.world.recv_shared(ctx.rank(), tag, held);
                 }
             }},
        },
        {Link{0, 1, "*"}}, pool_options(true));
}
