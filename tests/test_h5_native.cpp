#include <h5/h5.hpp>
#include <simmpi/simmpi.hpp>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <numeric>

using namespace h5;

namespace {

class TempDir : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path()
               / ("minih5_test_" + std::to_string(::getpid()) + "_"
                  + ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::create_directories(dir_);
        PfsModel::instance().configure(0, 0); // no throttling in tests
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string& name) const { return (dir_ / name).string(); }

    std::filesystem::path dir_;
};

using NativeVolTest = TempDir;

diy::Bounds box2(std::int64_t x0, std::int64_t x1, std::int64_t y0, std::int64_t y1) {
    diy::Bounds b(2);
    b.min = {x0, y0};
    b.max = {x1, y1};
    return b;
}

} // namespace

TEST_F(NativeVolTest, CreateWriteReadRoundtrip) {
    auto vol = std::make_shared<NativeVol>();
    {
        File f = File::create(path("a.mh5"), vol);
        auto g = f.create_group("group1");
        auto d = g.create_dataset("grid", dt::uint64(), Dataspace({8, 8}));
        std::vector<std::uint64_t> data(64);
        std::iota(data.begin(), data.end(), 0u);
        d.write(data.data());
    }
    {
        File f = File::open(path("a.mh5"), vol);
        auto d = f.open_dataset("group1/grid");
        EXPECT_EQ(d.type(), dt::uint64());
        EXPECT_EQ(d.space().dims(), (Extent{8, 8}));
        auto data = d.read_vector<std::uint64_t>();
        ASSERT_EQ(data.size(), 64u);
        for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(data[i], i);
    }
}

TEST_F(NativeVolTest, PartialReadOfSelection) {
    auto vol = std::make_shared<NativeVol>();
    {
        File f = File::create(path("b.mh5"), vol);
        auto d = f.create_dataset("grid", dt::uint32(), Dataspace({10, 10}));
        std::vector<std::uint32_t> data(100);
        std::iota(data.begin(), data.end(), 0u);
        d.write(data.data());
    }
    File      f = File::open(path("b.mh5"), vol);
    auto      d = f.open_dataset("grid");
    Dataspace sel({10, 10});
    sel.select_box(box2(2, 4, 3, 6));
    auto vals = d.read_vector<std::uint32_t>(sel);
    ASSERT_EQ(vals.size(), 6u);
    EXPECT_EQ(vals[0], 23u);
    EXPECT_EQ(vals[3], 33u);
}

TEST_F(NativeVolTest, MultiplePartialWritesComposeOnDisk) {
    auto vol = std::make_shared<NativeVol>();
    {
        File      f = File::create(path("c.mh5"), vol);
        auto      d = f.create_dataset("grid", dt::int32(), Dataspace({4, 4}));
        Dataspace top({4, 4}), bottom({4, 4});
        top.select_box(box2(0, 2, 0, 4));
        bottom.select_box(box2(2, 4, 0, 4));
        std::vector<std::int32_t> hi(8, 7), lo(8, -7);
        d.write(hi.data(), top);
        d.write(lo.data(), bottom);
    }
    File f    = File::open(path("c.mh5"), vol);
    auto vals = f.open_dataset("grid").read_vector<std::int32_t>();
    for (int i = 0; i < 8; ++i) EXPECT_EQ(vals[static_cast<std::size_t>(i)], 7);
    for (int i = 8; i < 16; ++i) EXPECT_EQ(vals[static_cast<std::size_t>(i)], -7);
}

TEST_F(NativeVolTest, ReadBackBeforeCloseServedFromPieces) {
    auto vol = std::make_shared<NativeVol>();
    File f   = File::create(path("d.mh5"), vol);
    auto d   = f.create_dataset("x", dt::float64(), Dataspace({6}));
    std::vector<double> v{0, 1, 2, 3, 4, 5};
    d.write(v.data());
    auto r = d.read_vector<double>();
    EXPECT_EQ(r, v);
}

TEST_F(NativeVolTest, AttributesPersist) {
    auto vol = std::make_shared<NativeVol>();
    {
        File f = File::create(path("e.mh5"), vol);
        f.write_attribute("step", 42);
        auto g = f.create_group("g");
        g.write_attribute("dx", 0.125);
        auto d = g.create_dataset("data", dt::float32(), Dataspace({2}));
        float v[2] = {1.f, 2.f};
        d.write(v);
        d.write_attribute("units", std::uint8_t{3});
    }
    File f = File::open(path("e.mh5"), vol);
    EXPECT_EQ(f.read_attribute<int>("step"), 42);
    EXPECT_EQ(f.open_group("g").read_attribute<double>("dx"), 0.125);
    EXPECT_EQ(f.open_dataset("g/data").read_attribute<std::uint8_t>("units"), 3);
    EXPECT_TRUE(f.has_attribute("step"));
    EXPECT_FALSE(f.has_attribute("nope"));
}

TEST_F(NativeVolTest, DeepHierarchyAndIntrospection) {
    auto vol = std::make_shared<NativeVol>();
    {
        File f  = File::create(path("f.mh5"), vol);
        auto g1 = f.create_group("a");
        auto g2 = g1.create_group("b");
        auto g3 = g2.create_group("c");
        g3.create_dataset("leaf", dt::int8(), Dataspace({1}));
        std::int8_t v = 5;
        f.open_dataset("a/b/c/leaf").write(&v);
    }
    File f = File::open(path("f.mh5"), vol);
    EXPECT_TRUE(f.exists("a/b/c/leaf"));
    EXPECT_FALSE(f.exists("a/b/x"));
    EXPECT_EQ(f.children(), std::vector<std::string>{"a"});
    EXPECT_EQ(f.open_group("a/b").children(), std::vector<std::string>{"c"});
    std::int8_t v = 0;
    f.open_dataset("a/b/c/leaf").read(&v);
    EXPECT_EQ(v, 5);
}

TEST_F(NativeVolTest, CompoundTypeRoundtrip) {
    struct Particle {
        float x, y, z;
    };
    Datatype ptype = Datatype::compound(sizeof(Particle))
                         .insert("x", offsetof(Particle, x), dt::float32())
                         .insert("y", offsetof(Particle, y), dt::float32())
                         .insert("z", offsetof(Particle, z), dt::float32());
    auto vol = std::make_shared<NativeVol>();
    {
        File                  f = File::create(path("g.mh5"), vol);
        auto                  d = f.create_dataset("particles", ptype, Dataspace({3}));
        std::vector<Particle> p{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
        d.write(p.data());
    }
    File f = File::open(path("g.mh5"), vol);
    auto d = f.open_dataset("particles");
    EXPECT_TRUE(d.type().is_compound());
    EXPECT_EQ(d.type().n_members(), 3u);
    EXPECT_EQ(d.type().member_name(1), "y");
    auto p = d.read_vector<Particle>();
    EXPECT_EQ(p[2].z, 9.f);
}

TEST_F(NativeVolTest, OpenMissingFileThrows) {
    auto vol = std::make_shared<NativeVol>();
    EXPECT_THROW(File::open(path("missing.mh5"), vol), Error);
}

TEST_F(NativeVolTest, OpenGarbageFileThrows) {
    std::string p = path("garbage.mh5");
    {
        FILE* fp = std::fopen(p.c_str(), "wb");
        std::fputs("this is not a MiniH5 file, but it is long enough to hold a header", fp);
        std::fclose(fp);
    }
    auto vol = std::make_shared<NativeVol>();
    EXPECT_THROW(File::open(p, vol), Error);
}

TEST_F(NativeVolTest, DuplicateNamesRejected) {
    auto vol = std::make_shared<NativeVol>();
    File f   = File::create(path("h.mh5"), vol);
    f.create_group("g");
    EXPECT_THROW(f.create_group("g"), Error);
    EXPECT_THROW(f.create_dataset("g", dt::int32(), Dataspace({1})), Error);
}

TEST_F(NativeVolTest, WriteToOpenedFileRejected) {
    auto vol = std::make_shared<NativeVol>();
    {
        File f = File::create(path("i.mh5"), vol);
        f.create_dataset("d", dt::int32(), Dataspace({4}));
        std::int32_t v[4] = {};
        f.open_dataset("d").write(v);
    }
    File         f    = File::open(path("i.mh5"), vol);
    std::int32_t v[4] = {};
    EXPECT_THROW(f.open_dataset("d").write(v), Error);
}

TEST_F(NativeVolTest, UnwrittenRegionReadsAsZero) {
    auto vol = std::make_shared<NativeVol>();
    {
        File      f = File::create(path("j.mh5"), vol);
        auto      d = f.create_dataset("d", dt::uint8(), Dataspace({4}));
        Dataspace half({4});
        diy::Bounds b(1);
        b.min[0] = 0;
        b.max[0] = 2;
        half.select_box(b);
        std::uint8_t v[2] = {9, 9};
        d.write(v, half);
        // read-back before close: unwritten tail is zero
        auto r = d.read_vector<std::uint8_t>();
        EXPECT_EQ(r, (std::vector<std::uint8_t>{9, 9, 0, 0}));
    }
}

TEST_F(NativeVolTest, StridedMemspaceReadWithHoles) {
    // rows 0-3 of an 8x4 grid are written, rows 2-3 twice (the later
    // write wins); columns 1-2 are read into a padded 8x5 buffer, a
    // multi-run memory selection. The unwritten rows read 0 and the
    // padding keeps its poison, both before close (from the pieces) and
    // after (from the file)
    constexpr std::uint32_t poison = 0xdeadbeefu;
    Dataspace               file({8, 4}), mem({8, 5});
    file.select_box(box2(0, 8, 1, 3));
    mem.select_box(box2(0, 8, 0, 2));
    ASSERT_GT(mem.runs().size(), 1u);
    auto check = [&](const Dataset& d) {
        std::vector<std::uint32_t> buf(40, poison);
        d.read(buf.data(), mem, file);
        for (std::uint32_t x = 0; x < 8; ++x)
            for (std::uint32_t c = 0; c < 5; ++c) {
                const std::uint32_t y    = c + 1;
                const std::uint32_t want = c >= 2 ? poison
                                         : x < 2  ? 100 * x + y
                                         : x < 4  ? 1000 + 100 * x + y
                                                  : 0;
                ASSERT_EQ(buf[x * 5 + c], want) << "at row " << x << ", column " << c;
            }
    };

    auto vol = std::make_shared<NativeVol>();
    {
        File f = File::create(path("k.mh5"), vol);
        auto d = f.create_dataset("g", dt::uint32(), Dataspace({8, 4}));
        for (std::uint32_t w = 0; w < 2; ++w) {
            Dataspace rows({8, 4});
            rows.select_box(box2(2 * w, 4, 0, 4));
            std::vector<std::uint32_t> v;
            for (std::uint32_t x = 2 * w; x < 4; ++x)
                for (std::uint32_t y = 0; y < 4; ++y) v.push_back(1000 * w + 100 * x + y);
            d.write(v.data(), rows);
        }
        check(d);
    }
    File f = File::open(path("k.mh5"), vol);
    check(f.open_dataset("g"));
}

TEST_F(NativeVolTest, CollectiveSharedFileWrite) {
    const std::string p = path("collective.mh5");
    simmpi::Runtime::run(4, [&](simmpi::Comm& comm) {
        auto vol = std::make_shared<NativeVol>(comm);
        {
            File f = File::create(p, vol);
            auto d = f.create_dataset("grid", dt::uint64(), Dataspace({4, 8}));
            // each rank writes its own row-block
            Dataspace sel({4, 8});
            sel.select_box(box2(comm.rank(), comm.rank() + 1, 0, 8));
            std::vector<std::uint64_t> row(8);
            for (int c = 0; c < 8; ++c)
                row[static_cast<std::size_t>(c)] = static_cast<std::uint64_t>(comm.rank() * 8 + c);
            d.write(row.data(), sel);
        } // collective close
        comm.barrier();
        {
            File f    = File::open(p, vol);
            auto vals = f.open_dataset("grid").read_vector<std::uint64_t>();
            for (std::uint64_t i = 0; i < 32; ++i) EXPECT_EQ(vals[i], i);
        }
    });
}

TEST_F(NativeVolTest, CollectiveDifferentDecompositionOnRead) {
    const std::string p = path("redecomp.mh5");
    simmpi::Runtime::run(4, [&](simmpi::Comm& comm) {
        auto vol = std::make_shared<NativeVol>(comm);
        {
            File      f = File::create(p, vol);
            auto      d = f.create_dataset("grid", dt::uint32(), Dataspace({8, 8}));
            Dataspace sel({8, 8}); // row-wise write decomposition
            sel.select_box(box2(comm.rank() * 2, comm.rank() * 2 + 2, 0, 8));
            std::vector<std::uint32_t> mine(16);
            for (int i = 0; i < 16; ++i)
                mine[static_cast<std::size_t>(i)] =
                    static_cast<std::uint32_t>((comm.rank() * 2 + i / 8) * 8 + i % 8);
            d.write(mine.data(), sel);
        }
        comm.barrier();
        {
            File      f = File::open(p, vol);
            Dataspace sel({8, 8}); // column-wise read decomposition
            sel.select_box(box2(0, 8, comm.rank() * 2, comm.rank() * 2 + 2));
            auto vals = f.open_dataset("grid").read_vector<std::uint32_t>(sel);
            ASSERT_EQ(vals.size(), 16u);
            for (int r = 0; r < 8; ++r)
                for (int c = 0; c < 2; ++c)
                    EXPECT_EQ(vals[static_cast<std::size_t>(r * 2 + c)],
                              static_cast<std::uint32_t>(r * 8 + comm.rank() * 2 + c));
        }
    });
}

TEST(PfsModelTest, ThrottleChargesTime) {
    auto& pfs = PfsModel::instance();
    pfs.configure(100.0, 0.0); // 100 MB/s
    pfs.reset_stats();
    auto t0 = std::chrono::steady_clock::now();
    pfs.charge_io(10'000'000); // 10 MB -> 0.1 s
    auto dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    EXPECT_GE(dt, 0.08);
    EXPECT_EQ(pfs.bytes_charged(), 10'000'000u);
    pfs.configure(0, 0);
}

TEST(PfsModelTest, NoThrottleIsFast) {
    auto& pfs = PfsModel::instance();
    pfs.configure(0, 0);
    auto t0 = std::chrono::steady_clock::now();
    pfs.charge_io(100'000'000);
    auto dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    EXPECT_LT(dt, 0.05);
}
