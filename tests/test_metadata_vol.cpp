#include <lowfive/lowfive.hpp>

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <numeric>

using namespace h5;
using lowfive::MetadataVol;

namespace {
diy::Bounds box1(std::int64_t lo, std::int64_t hi) {
    diy::Bounds b(1);
    b.min[0] = lo;
    b.max[0] = hi;
    return b;
}
diy::Bounds box2(std::int64_t x0, std::int64_t x1, std::int64_t y0, std::int64_t y1) {
    diy::Bounds b(2);
    b.min = {x0, y0};
    b.max = {x1, y1};
    return b;
}
} // namespace

TEST(GlobMatch, Basics) {
    using lowfive::glob_match;
    EXPECT_TRUE(glob_match("*", "anything.h5"));
    EXPECT_TRUE(glob_match("*.h5", "step1.h5"));
    EXPECT_FALSE(glob_match("*.h5", "step1.bp"));
    EXPECT_TRUE(glob_match("step?.h5", "step1.h5"));
    EXPECT_FALSE(glob_match("step?.h5", "step12.h5"));
    EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));
    EXPECT_FALSE(glob_match("a*b*c", "aXXcYYb"));
    EXPECT_TRUE(glob_match("", ""));
    EXPECT_FALSE(glob_match("", "x"));
    EXPECT_TRUE(glob_match("**", "x"));
}

TEST(MetadataVolTest, InMemoryRoundtripNoDisk) {
    auto vol = std::make_shared<MetadataVol>();
    {
        File f = File::create("mem_only.h5", vol);
        auto g = f.create_group("group1");
        auto d = g.create_dataset("grid", dt::uint64(), Dataspace({4, 4}));
        std::vector<std::uint64_t> v(16);
        std::iota(v.begin(), v.end(), 0u);
        d.write(v.data());
    }
    // nothing written to disk
    EXPECT_FALSE(std::filesystem::exists("mem_only.h5"));

    // reopen from memory
    File f = File::open("mem_only.h5", vol);
    auto d = f.open_dataset("group1/grid");
    auto v = d.read_vector<std::uint64_t>();
    for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(v[i], i);
    f.close();
    vol->drop_file("mem_only.h5");
    EXPECT_EQ(vol->retained_files().size(), 0u);
}

TEST(MetadataVolTest, HierarchyReplicatedInTree) {
    auto vol = std::make_shared<MetadataVol>();
    File f   = File::create("tree.h5", vol);
    auto g1  = f.create_group("group1");
    auto g2  = f.create_group("group2");
    g1.create_dataset("grid", dt::uint64(), Dataspace({2, 2, 2}));
    g2.create_dataset("particles", dt::float32(), Dataspace({10}));
    f.close();

    Object* root = vol->find_file("tree.h5");
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->kind, ObjectKind::File);
    ASSERT_EQ(root->children.size(), 2u);
    Object* d = root->resolve("group1/grid");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->kind, ObjectKind::Dataset);
    EXPECT_EQ(d->space.dims(), (Extent{2, 2, 2}));
    EXPECT_EQ(d->path(), "/group1/grid");
}

TEST(MetadataVolTest, DeepCopyIsImmuneToUserBufferChanges) {
    auto vol = std::make_shared<MetadataVol>();
    File f   = File::create("deep.h5", vol);
    auto d   = f.create_dataset("d", dt::int32(), Dataspace({4}));
    std::vector<std::int32_t> v{1, 2, 3, 4};
    d.write(v.data());
    v.assign(4, -1); // user may modify the buffer after a deep-copy write
    auto r = d.read_vector<std::int32_t>();
    EXPECT_EQ(r, (std::vector<std::int32_t>{1, 2, 3, 4}));
}

TEST(MetadataVolTest, ZeroCopySeesUserBuffer) {
    auto vol = std::make_shared<MetadataVol>();
    vol->set_zerocopy("*", "*");
    File f = File::create("shallow.h5", vol);
    auto d = f.create_dataset("d", dt::int32(), Dataspace({4}));
    std::vector<std::int32_t> v{1, 2, 3, 4};
    d.write(v.data());
    v[0] = 99; // shallow reference: the tree sees the user's buffer
    auto r = d.read_vector<std::int32_t>();
    EXPECT_EQ(r[0], 99);
    EXPECT_EQ(r[3], 4);
}

TEST(MetadataVolTest, ZeroCopyPatternIsPerDataset) {
    auto vol = std::make_shared<MetadataVol>();
    vol->set_zerocopy("*", "*/particles");
    File f  = File::create("mixed.h5", vol);
    auto dg = f.create_dataset("grid", dt::int32(), Dataspace({2}));
    auto dp = f.create_dataset("particles", dt::int32(), Dataspace({2}));
    std::vector<std::int32_t> g{1, 2}, p{3, 4};
    dg.write(g.data());
    dp.write(p.data());
    g[0] = -1;
    p[0] = -1;
    EXPECT_EQ(dg.read_vector<std::int32_t>()[0], 1);  // deep: unaffected
    EXPECT_EQ(dp.read_vector<std::int32_t>()[0], -1); // shallow: affected
}

TEST(MetadataVolTest, PartialWritesAndRedistributedRead) {
    // two row-wise writes, one column-wise read — the core local
    // redistribution path (read_pieces)
    auto vol = std::make_shared<MetadataVol>();
    File f   = File::create("redist.h5", vol);
    auto d   = f.create_dataset("grid", dt::uint32(), Dataspace({4, 4}));

    for (int half = 0; half < 2; ++half) {
        Dataspace sel({4, 4});
        sel.select_box(box2(half * 2, half * 2 + 2, 0, 4));
        std::vector<std::uint32_t> v(8);
        for (int i = 0; i < 8; ++i)
            v[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>((half * 2 + i / 4) * 4 + i % 4);
        d.write(v.data(), sel);
    }

    Dataspace col({4, 4});
    col.select_box(box2(0, 4, 1, 2));
    auto v = d.read_vector<std::uint32_t>(col);
    EXPECT_EQ(v, (std::vector<std::uint32_t>{1, 5, 9, 13}));
}

TEST(MetadataVolTest, StridedMemspaceReadWithHoles) {
    // rows 0-3 of an 8x4 grid are written, rows 2-3 twice (the later
    // write wins), as Deep and as Shallow pieces; columns 1-2 are read
    // into a padded 8x5 buffer, a multi-run memory selection. The
    // unwritten rows read 0 and the padding keeps its poison; so does
    // every element of a dataset never written
    constexpr std::uint32_t poison = 0xdeadbeefu;
    Dataspace               file({8, 4}), mem({8, 5});
    file.select_box(box2(0, 8, 1, 3));
    mem.select_box(box2(0, 8, 0, 2));
    ASSERT_GT(mem.runs().size(), 1u);
    auto check = [&](const Dataset& d, bool written, const char* what) {
        std::vector<std::uint32_t> buf(40, poison);
        d.read(buf.data(), mem, file);
        for (std::uint32_t x = 0; x < 8; ++x)
            for (std::uint32_t c = 0; c < 5; ++c) {
                const std::uint32_t y    = c + 1;
                const std::uint32_t want = c >= 2                ? poison
                                         : written && x < 2 ? 100 * x + y
                                         : written && x < 4 ? 1000 + 100 * x + y
                                                                 : 0;
                ASSERT_EQ(buf[x * 5 + c], want) << what << " at row " << x << ", column " << c;
            }
    };
    for (const bool shallow : {false, true}) {
        auto vol = std::make_shared<MetadataVol>();
        if (shallow) vol->set_zerocopy("*", "*");
        File f = File::create("holes.h5", vol);
        auto d = f.create_dataset("g", dt::uint32(), Dataspace({8, 4}));
        std::array<std::vector<std::uint32_t>, 2> v; // Shallow pieces reference these
        for (std::uint32_t w = 0; w < 2; ++w) {
            Dataspace rows({8, 4});
            rows.select_box(box2(2 * w, 4, 0, 4));
            for (std::uint32_t x = 2 * w; x < 4; ++x)
                for (std::uint32_t y = 0; y < 4; ++y) v[w].push_back(1000 * w + 100 * x + y);
            d.write(v[w].data(), rows);
        }
        check(d, true, shallow ? "shallow" : "deep");
        check(f.create_dataset("e", dt::uint32(), Dataspace({8, 4})), false, "never written");
    }
}

TEST(MetadataVolTest, FileModePassthruWritesRealFile) {
    auto tmp = std::filesystem::temp_directory_path() / "l5_passthru_test.h5";
    std::filesystem::remove(tmp);
    PfsModel::instance().configure(0, 0);

    auto vol = std::make_shared<MetadataVol>();
    vol->clear_memory();
    vol->set_passthru("*", "*");
    {
        File f = File::create(tmp.string(), vol);
        auto d = f.create_dataset("d", dt::float64(), Dataspace({3}));
        double v[3] = {1.5, 2.5, 3.5};
        d.write(v);
    }
    EXPECT_TRUE(std::filesystem::exists(tmp));
    EXPECT_TRUE(vol->retained_files().empty()); // nothing kept in memory

    // a completely fresh VOL can read the physical file
    auto vol2 = std::make_shared<MetadataVol>();
    File f    = File::open(tmp.string(), vol2);
    auto v    = f.open_dataset("d").read_vector<double>();
    EXPECT_EQ(v, (std::vector<double>{1.5, 2.5, 3.5}));
    f.close();
    std::filesystem::remove(tmp);
}

TEST(MetadataVolTest, BothModeKeepsMemoryAndWritesFile) {
    auto tmp = std::filesystem::temp_directory_path() / "l5_both_test.h5";
    std::filesystem::remove(tmp);
    PfsModel::instance().configure(0, 0);

    auto vol = std::make_shared<MetadataVol>();
    vol->set_passthru("*", "*"); // memory stays on by default
    {
        File f = File::create(tmp.string(), vol);
        auto d = f.create_dataset("d", dt::int32(), Dataspace({2}));
        std::int32_t v[2] = {10, 20};
        d.write(v);
    }
    EXPECT_TRUE(std::filesystem::exists(tmp));
    EXPECT_NE(vol->find_file(tmp.string()), nullptr);

    // memory read
    File f = File::open(tmp.string(), vol);
    EXPECT_EQ(f.open_dataset("d").read_vector<std::int32_t>()[1], 20);
    f.close();
    std::filesystem::remove(tmp);
}

TEST(MetadataVolTest, AttributesInMemory) {
    auto vol = std::make_shared<MetadataVol>();
    File f   = File::create("attrs.h5", vol);
    f.write_attribute("time", 1.25);
    auto g = f.create_group("g");
    g.write_attribute("count", 7);
    EXPECT_EQ(f.read_attribute<double>("time"), 1.25);
    EXPECT_EQ(g.read_attribute<int>("count"), 7);
    EXPECT_FALSE(g.has_attribute("missing"));
    std::int32_t dummy;
    EXPECT_THROW(vol->attribute_read(g.handle(), "missing", &dummy), Error);
}

TEST(MetadataVolTest, UnwrittenDatasetReadsZero) {
    auto vol = std::make_shared<MetadataVol>();
    File f   = File::create("zeros.h5", vol);
    auto d   = f.create_dataset("d", dt::uint8(), Dataspace({5}));
    auto v   = d.read_vector<std::uint8_t>();
    EXPECT_EQ(v, (std::vector<std::uint8_t>(5, 0)));
}

TEST(MetadataVolTest, OverlappingWritesLastWins) {
    auto vol = std::make_shared<MetadataVol>();
    File f   = File::create("overlap.h5", vol);
    auto d   = f.create_dataset("d", dt::int32(), Dataspace({6}));

    Dataspace first({6}), second({6});
    first.select_box(box1(0, 4));
    second.select_box(box1(2, 6));
    std::vector<std::int32_t> a(4, 1), b(4, 2);
    d.write(a.data(), first);
    d.write(b.data(), second);
    auto v = d.read_vector<std::int32_t>();
    EXPECT_EQ(v, (std::vector<std::int32_t>{1, 1, 2, 2, 2, 2}));
}

TEST(MetadataVolTest, MissingObjectsThrow) {
    auto vol = std::make_shared<MetadataVol>();
    File f   = File::create("missing.h5", vol);
    f.create_group("g");
    EXPECT_THROW(f.open_dataset("nope"), Error);
    EXPECT_THROW(f.open_group("g/nope"), Error);
    EXPECT_THROW(f.open_dataset("g"), Error); // group is not a dataset
}

TEST(MetadataVolTest, SelectionSizeMismatchThrows) {
    auto vol = std::make_shared<MetadataVol>();
    File f   = File::create("mismatch.h5", vol);
    auto d   = f.create_dataset("d", dt::int32(), Dataspace({8}));
    Dataspace fsel({8});
    fsel.select_box(box1(0, 4));
    std::vector<std::int32_t> v(8);
    EXPECT_THROW(vol->dataset_write(d.handle(), Dataspace::linear(8), fsel, v.data()), Error);
}

TEST(MetadataVolTest, FailedCloseIsNotRetried) {
    // a VOL close that throws has still consumed its handle: neither the
    // File nor its destructor may hand the freed handle back to the VOL
    struct FailingCloseVol : MetadataVol {
        int  calls = 0;
        void file_close(void* file) override {
            if (++calls > 1) return; // a retry would pass a freed handle
            MetadataVol::file_close(file);
            throw Error("injected close failure");
        }
    };
    auto vol = std::make_shared<FailingCloseVol>();
    {
        File f = File::create("failed_close.h5", vol);
        EXPECT_THROW(f.close(), Error);
        EXPECT_FALSE(f.valid());
    }
    EXPECT_EQ(vol->calls, 1);
}
