/// Additional distributed-VOL coverage: remote metadata (attributes,
/// hierarchy introspection), strided hyperslab selections through the
/// full protocol, transfer statistics, and throttled file mode.

#include <lowfive/lowfive.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <filesystem>

using namespace h5;
using workflow::Context;
using workflow::Link;

TEST(DistExtra, ConsumerSeesAttributesAndHierarchy) {
    workflow::run(
        {
            {"producer", 2,
             [](Context& ctx) {
                 File f = File::create("meta.h5", ctx.vol);
                 f.write_attribute("step", 7);
                 f.write_attribute("time", 2.5);
                 auto g = f.create_group("fields");
                 g.write_attribute("units", 42);
                 auto d = g.create_dataset("rho", dt::float64(), Dataspace({4, 4}));
                 d.write_attribute("fill", -1.0);
                 if (ctx.rank() == 0) {
                     std::vector<double> v(16, 1.0);
                     d.write(v.data());
                 }
                 f.close();
             }},
            {"consumer", 2,
             [](Context& ctx) {
                 File f = File::open("meta.h5", ctx.vol);
                 // the fetched skeleton carries the full hierarchy + attributes
                 EXPECT_EQ(f.read_attribute<int>("step"), 7);
                 EXPECT_EQ(f.read_attribute<double>("time"), 2.5);
                 EXPECT_TRUE(f.exists("fields/rho"));
                 EXPECT_FALSE(f.exists("fields/nope"));
                 EXPECT_EQ(f.children(), std::vector<std::string>{"fields"});
                 auto g = f.open_group("fields");
                 EXPECT_EQ(g.read_attribute<int>("units"), 42);
                 auto d = g.open_dataset("rho");
                 EXPECT_EQ(d.read_attribute<double>("fill"), -1.0);
                 EXPECT_EQ(d.type(), dt::float64());
                 EXPECT_EQ(d.space().dims(), (Extent{4, 4}));
                 f.close();
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(DistExtra, StridedHyperslabQuery) {
    workflow::run(
        {
            {"producer", 2,
             [](Context& ctx) {
                 File f = File::create("strided.h5", ctx.vol);
                 auto d = f.create_dataset("v", dt::uint32(), Dataspace({8, 8}));
                 // each rank writes half the rows
                 Dataspace     sel({8, 8});
                 std::uint64_t start[] = {static_cast<std::uint64_t>(ctx.rank()) * 4, 0};
                 std::uint64_t count[] = {4, 8};
                 sel.select_box(start, count);
                 std::vector<std::uint32_t> v(32);
                 for (int i = 0; i < 32; ++i)
                     v[static_cast<std::size_t>(i)] =
                         static_cast<std::uint32_t>(ctx.rank() * 32 + i);
                 d.write(v.data(), sel);
                 f.close();
             }},
            {"consumer", 1,
             [](Context& ctx) {
                 File f = File::open("strided.h5", ctx.vol);
                 auto d = f.open_dataset("v");
                 // read every other row and every other column
                 Dataspace     sel({8, 8});
                 std::uint64_t start[]  = {0, 0};
                 std::uint64_t stride[] = {2, 2};
                 std::uint64_t count[]  = {4, 4};
                 std::uint64_t block[]  = {1, 1};
                 sel.select_hyperslab(start, stride, count, block);
                 auto v = d.read_vector<std::uint32_t>(sel);
                 ASSERT_EQ(v.size(), 16u);
                 std::size_t k = 0;
                 for (int r = 0; r < 8; r += 2)
                     for (int c = 0; c < 8; c += 2, ++k)
                         ASSERT_EQ(v[k], static_cast<std::uint32_t>(r * 8 + c));
                 f.close();
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(DistExtra, StatsCountQueriesAndBytes) {
    workflow::run(
        {
            {"producer", 2,
             [](Context& ctx) {
                 File f = File::create("stats.h5", ctx.vol);
                 auto d = f.create_dataset("v", dt::int64(), Dataspace({64}));
                 Dataspace   sel({64});
                 diy::Bounds b(1);
                 b.min[0] = ctx.rank() * 32;
                 b.max[0] = ctx.rank() * 32 + 32;
                 sel.select_box(b);
                 std::vector<std::int64_t> v(32, ctx.rank());
                 d.write(v.data(), sel);
                 f.close();
                 // both producer ranks together served the full dataset once
                 auto served = ctx.local.allreduce(ctx.vol->stats().bytes_served);
                 EXPECT_EQ(served, 64u * 8u);
             }},
            {"consumer", 1,
             [](Context& ctx) {
                 File f = File::open("stats.h5", ctx.vol);
                 auto v = f.open_dataset("v").read_vector<std::int64_t>();
                 EXPECT_EQ(v[0], 0);
                 EXPECT_EQ(v[63], 1);
                 f.close();
                 const auto& st = ctx.vol->stats();
                 EXPECT_EQ(st.bytes_fetched, 64u * 8u);
                 EXPECT_GE(st.n_intersect_queries, 1u);
                 EXPECT_EQ(st.n_data_queries, 2u); // one per producer with data
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(DistExtra, FileModeWithThrottledPfs) {
    // the modelled PFS must not change results, only timing
    auto& pfs = PfsModel::instance();
    pfs.configure(500, 0.5, 2);
    auto tmp = (std::filesystem::temp_directory_path() / "l5_throttled.h5").string();
    std::filesystem::remove(tmp);

    workflow::Options opts;
    opts.mode = workflow::Mode::file();
    workflow::run(
        {
            {"producer", 2,
             [&](Context& ctx) {
                 File f = File::create(tmp, ctx.vol);
                 auto d = f.create_dataset("v", dt::float32(), Dataspace({1000}));
                 Dataspace   sel({1000});
                 diy::Bounds b(1);
                 b.min[0] = ctx.rank() * 500;
                 b.max[0] = ctx.rank() * 500 + 500;
                 sel.select_box(b);
                 std::vector<float> v(500);
                 for (int i = 0; i < 500; ++i)
                     v[static_cast<std::size_t>(i)] = static_cast<float>(ctx.rank() * 500 + i);
                 d.write(v.data(), sel);
                 f.close();
             }},
            {"consumer", 1,
             [&](Context& ctx) {
                 File f = File::open(tmp, ctx.vol);
                 auto v = f.open_dataset("v").read_vector<float>();
                 for (int i = 0; i < 1000; ++i)
                     ASSERT_EQ(v[static_cast<std::size_t>(i)], static_cast<float>(i));
                 f.close();
             }},
        },
        {Link{0, 1, "*"}}, opts);

    pfs.configure(0, 0, 0);
    std::filesystem::remove(tmp);
}

TEST(DistExtra, BothModeServesInSituAndWritesFile) {
    auto tmp = (std::filesystem::temp_directory_path() / "l5_bothmode.h5").string();
    std::filesystem::remove(tmp);
    PfsModel::instance().configure(0, 0, 0);

    workflow::Options opts;
    opts.mode = workflow::Mode::both();
    workflow::run(
        {
            {"producer", 2,
             [&](Context& ctx) {
                 File f = File::create(tmp, ctx.vol);
                 auto d = f.create_dataset("v", dt::int32(), Dataspace({6}));
                 Dataspace   sel({6});
                 diy::Bounds b(1);
                 b.min[0] = ctx.rank() * 3;
                 b.max[0] = ctx.rank() * 3 + 3;
                 sel.select_box(b);
                 std::vector<std::int32_t> v{ctx.rank() * 3, ctx.rank() * 3 + 1, ctx.rank() * 3 + 2};
                 d.write(v.data(), sel);
                 f.close();
             }},
            {"consumer", 2,
             [&](Context& ctx) {
                 // in-situ read (memory rules match, so the consumer queries)
                 File f = File::open(tmp, ctx.vol);
                 auto v = f.open_dataset("v").read_vector<std::int32_t>();
                 for (int i = 0; i < 6; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], i);
                 f.close();
             }},
        },
        {Link{0, 1, "*"}}, opts);

    // and the checkpoint exists on disk with the same contents
    EXPECT_TRUE(std::filesystem::exists(tmp));
    auto vol = std::make_shared<NativeVol>();
    File f   = File::open(tmp, vol);
    auto v   = f.open_dataset("v").read_vector<std::int32_t>();
    for (int i = 0; i < 6; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
    f.close();
    std::filesystem::remove(tmp);
}
