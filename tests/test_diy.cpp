#include <diy/diy.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

using namespace diy;

namespace {
Bounds box3(std::int64_t x0, std::int64_t x1, std::int64_t y0, std::int64_t y1, std::int64_t z0,
            std::int64_t z1) {
    Bounds b(3);
    b.min = {x0, y0, z0};
    b.max = {x1, y1, z1};
    return b;
}
} // namespace

TEST(Bounds, SizeAndEmpty) {
    Bounds b = box3(0, 4, 0, 3, 0, 2);
    EXPECT_EQ(b.size(), 24u);
    EXPECT_FALSE(b.empty());
    Bounds e = box3(2, 2, 0, 3, 0, 2);
    EXPECT_TRUE(e.empty());
    EXPECT_EQ(e.size(), 0u);
}

TEST(Bounds, Contains) {
    Bounds b = box3(1, 4, 1, 4, 1, 4);
    EXPECT_TRUE(b.contains({1, 1, 1}));
    EXPECT_TRUE(b.contains({3, 3, 3}));
    EXPECT_FALSE(b.contains({4, 3, 3})); // max is exclusive
    EXPECT_FALSE(b.contains({0, 3, 3}));
}

TEST(Bounds, Intersect) {
    Bounds a = box3(0, 10, 0, 10, 0, 10);
    Bounds b = box3(5, 15, 5, 15, 5, 15);
    auto   r = intersect(a, b);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, box3(5, 10, 5, 10, 5, 10));
    EXPECT_TRUE(intersects(a, b));

    Bounds c = box3(10, 20, 0, 10, 0, 10); // touching faces do not intersect
    EXPECT_FALSE(intersect(a, c).has_value());
    EXPECT_FALSE(intersects(a, c));
}

TEST(Bounds, SerializationRoundtrip) {
    Bounds       b = box3(-3, 7, 0, 5, 2, 9);
    BinaryBuffer bb;
    b.save(bb);
    Bounds r = Bounds::load(bb);
    EXPECT_EQ(b, r);
}

TEST(Factor, ProductAlwaysN) {
    for (int n : {1, 2, 3, 4, 6, 7, 12, 16, 48, 64, 100, 192, 768, 1024}) {
        for (int d : {1, 2, 3, 4}) {
            auto f = RegularDecomposer::factor(n, d);
            ASSERT_EQ(f.size(), static_cast<std::size_t>(d));
            EXPECT_EQ(std::accumulate(f.begin(), f.end(), 1, std::multiplies<>()), n)
                << "n=" << n << " d=" << d;
        }
    }
}

TEST(Factor, NearEqualFactors) {
    // the paper: factors as close to each other as possible
    EXPECT_EQ(RegularDecomposer::factor(64, 3), (std::vector<int>{4, 4, 4}));
    EXPECT_EQ(RegularDecomposer::factor(64, 2), (std::vector<int>{8, 8}));
    EXPECT_EQ(RegularDecomposer::factor(12, 2), (std::vector<int>{4, 3}));
    EXPECT_EQ(RegularDecomposer::factor(6, 2), (std::vector<int>{3, 2}));
    EXPECT_EQ(RegularDecomposer::factor(1, 3), (std::vector<int>{1, 1, 1}));
}

TEST(Factor, PrimeN) {
    EXPECT_EQ(RegularDecomposer::factor(7, 2), (std::vector<int>{7, 1}));
    EXPECT_EQ(RegularDecomposer::factor(13, 3), (std::vector<int>{13, 1, 1}));
}

TEST(Decomposer, BlocksPartitionDomain) {
    Bounds            domain = box3(0, 100, 0, 60, 0, 30);
    RegularDecomposer dec(domain, 12);

    std::uint64_t total = 0;
    for (int gid = 0; gid < 12; ++gid) {
        Bounds b = dec.block_bounds(gid);
        total += b.size();
        // disjoint from all other blocks
        for (int other = gid + 1; other < 12; ++other)
            EXPECT_FALSE(intersects(b, dec.block_bounds(other))) << gid << " vs " << other;
    }
    EXPECT_EQ(total, domain.size());
}

TEST(Decomposer, LargestFactorOnLargestExtent) {
    Bounds domain = box3(0, 1000, 0, 10, 0, 10);
    RegularDecomposer dec(domain, 8);
    // 8 = 2*2*2: balanced, so shape is 2x2x2 regardless
    EXPECT_EQ(dec.shape(), (std::vector<int>{2, 2, 2}));

    RegularDecomposer dec2(domain, 12);
    // 12 -> {3,2,2}: the 3 must land on the first (largest) dimension
    EXPECT_EQ(dec2.shape()[0], 3);
}

TEST(Decomposer, PointToBlockConsistent) {
    Bounds            domain = box3(0, 17, 0, 13, 0, 11);
    RegularDecomposer dec(domain, 6);
    for (std::int64_t x = 0; x < 17; x += 3)
        for (std::int64_t y = 0; y < 13; y += 2)
            for (std::int64_t z = 0; z < 11; z += 2) {
                int gid = dec.point_to_block({x, y, z});
                ASSERT_GE(gid, 0);
                EXPECT_TRUE(dec.block_bounds(gid).contains({x, y, z}));
            }
    EXPECT_EQ(dec.point_to_block({17, 0, 0}), -1);
    EXPECT_EQ(dec.point_to_block({-1, 0, 0}), -1);
}

TEST(Decomposer, IntersectingBlocksExactlyThoseThatIntersect) {
    Bounds            domain = box3(0, 64, 0, 64, 0, 64);
    RegularDecomposer dec(domain, 8);
    Bounds            query = box3(10, 40, 20, 50, 0, 5);

    auto blocks = dec.intersecting_blocks(query);
    std::vector<bool> in(8, false);
    for (int g : blocks) in[static_cast<std::size_t>(g)] = true;
    for (int g = 0; g < 8; ++g)
        EXPECT_EQ(in[static_cast<std::size_t>(g)], intersects(dec.block_bounds(g), query)) << g;
}

TEST(Decomposer, QueryOutsideDomainGivesNothing) {
    Bounds            domain = box3(0, 10, 0, 10, 0, 10);
    RegularDecomposer dec(domain, 4);
    EXPECT_TRUE(dec.intersecting_blocks(box3(20, 30, 0, 10, 0, 10)).empty());
}

TEST(Decomposer, OneDimensional) {
    Bounds domain(1);
    domain.min[0] = 0;
    domain.max[0] = 1000;
    RegularDecomposer dec(domain, 7);
    std::uint64_t     total = 0;
    std::int64_t      prev  = 0;
    for (int g = 0; g < 7; ++g) {
        Bounds b = dec.block_bounds(g);
        EXPECT_EQ(b.min[0], prev); // contiguous coverage in order
        prev = b.max[0];
        total += b.size();
    }
    EXPECT_EQ(total, 1000u);
}

TEST(Decomposer, MoreBlocksThanPointsInOneDim) {
    Bounds domain(1);
    domain.min[0] = 0;
    domain.max[0] = 3;
    RegularDecomposer dec(domain, 5); // some blocks empty
    std::uint64_t     total = 0;
    for (int g = 0; g < 5; ++g) total += dec.block_bounds(g).size();
    EXPECT_EQ(total, 3u);
}

TEST(BinaryBuffer, PodRoundtrip) {
    BinaryBuffer bb;
    bb.save<std::int32_t>(-7);
    bb.save<double>(2.75);
    bb.save<std::uint8_t>(255);
    EXPECT_EQ(bb.load<std::int32_t>(), -7);
    EXPECT_EQ(bb.load<double>(), 2.75);
    EXPECT_EQ(bb.load<std::uint8_t>(), 255);
    EXPECT_TRUE(bb.exhausted());
}

TEST(BinaryBuffer, StringAndVectorRoundtrip) {
    BinaryBuffer bb;
    bb.save(std::string("hello/world"));
    bb.save(std::vector<float>{1.f, 2.f, 3.f});
    std::string s;
    bb.load(s);
    EXPECT_EQ(s, "hello/world");
    std::vector<float> v;
    bb.load(v);
    EXPECT_EQ(v, (std::vector<float>{1.f, 2.f, 3.f}));
}

TEST(BinaryBuffer, ReadPastEndThrows) {
    BinaryBuffer bb;
    bb.save<std::int16_t>(1);
    (void)bb.load<std::int16_t>();
    EXPECT_THROW(bb.load<std::int16_t>(), std::out_of_range);
}

TEST(BinaryBuffer, RewindReplays) {
    BinaryBuffer bb;
    bb.save<int>(42);
    EXPECT_EQ(bb.load<int>(), 42);
    bb.rewind();
    EXPECT_EQ(bb.load<int>(), 42);
}

TEST(BinaryBuffer, HugeSkipThrowsAndKeepsCursor) {
    // pos + n wraps for a wire-supplied n near SIZE_MAX: the check must
    // compare against the bytes left instead
    BinaryBuffer bb;
    bb.save<std::uint32_t>(7);
    bb.save<std::uint32_t>(9);
    EXPECT_EQ(bb.load<std::uint32_t>(), 7u);
    const auto pos = bb.position();
    EXPECT_THROW(bb.skip(SIZE_MAX), std::out_of_range);
    EXPECT_THROW(bb.skip(SIZE_MAX - 2), std::out_of_range);
    std::uint32_t sink = 0;
    EXPECT_THROW(bb.load_raw(&sink, SIZE_MAX), std::out_of_range);
    EXPECT_EQ(bb.position(), pos);
    EXPECT_EQ(bb.load<std::uint32_t>(), 9u);
}

TEST(BinaryBuffer, OversizedLengthPrefixThrowsBeforeAllocating) {
    // 2^33 u64s would be a 64 GiB resize; the claim exceeds the bytes
    // left, so the load throws with the vector still unallocated
    BinaryBuffer bb;
    bb.save<std::uint64_t>(std::uint64_t{1} << 33);
    bb.save<std::uint64_t>(5);
    std::vector<std::uint64_t> v;
    EXPECT_THROW(bb.load(v), std::out_of_range);
    EXPECT_EQ(v.capacity(), 0u);

    // a count whose byte size wraps in n * sizeof(T)
    BinaryBuffer wrap;
    wrap.save<std::uint64_t>((std::uint64_t{1} << 61) + 1);
    wrap.save<std::uint64_t>(5);
    EXPECT_THROW(wrap.load(v), std::out_of_range);
    EXPECT_EQ(v.capacity(), 0u);

    BinaryBuffer str;
    str.save<std::uint64_t>(std::uint64_t{1} << 40);
    std::string s;
    EXPECT_THROW(str.load(s), std::out_of_range);
    EXPECT_EQ(s.capacity(), std::string().capacity());
}

TEST(Bounds, LoadRejectsDimensionOutsideMaxDim) {
    // a wire dim of 9 would write past the 8-entry coordinate arrays
    for (std::int32_t d : {max_dim + 1, 1000, -1}) {
        BinaryBuffer bb;
        bb.save<std::int32_t>(d);
        for (int i = 0; i < 2 * 16; ++i) bb.save<std::int64_t>(i);
        EXPECT_THROW(Bounds::load(bb), std::out_of_range) << "dim " << d;
    }
}
