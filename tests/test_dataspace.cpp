#include <h5/dataspace.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

using namespace h5;

namespace {

diy::Bounds box2(std::int64_t x0, std::int64_t x1, std::int64_t y0, std::int64_t y1) {
    diy::Bounds b(2);
    b.min = {x0, y0};
    b.max = {x1, y1};
    return b;
}

std::vector<std::uint32_t> iota_buffer(std::uint64_t n) {
    std::vector<std::uint32_t> v(n);
    std::iota(v.begin(), v.end(), 0u);
    return v;
}

} // namespace

TEST(Dataspace, ExtentAndAllSelection) {
    Dataspace sp({4, 5, 6});
    EXPECT_EQ(sp.dim(), 3);
    EXPECT_EQ(sp.extent_npoints(), 120u);
    EXPECT_TRUE(sp.all_selected());
    EXPECT_EQ(sp.npoints(), 120u);
    ASSERT_EQ(sp.boxes().size(), 1u);
    EXPECT_EQ(sp.boxes()[0].size(), 120u);
}

TEST(Dataspace, RankLimits) {
    EXPECT_THROW(Dataspace(Extent{}), Error);
    EXPECT_THROW(Dataspace(Extent(9, 2)), Error);
    EXPECT_NO_THROW(Dataspace(Extent(8, 2)));
}

TEST(Dataspace, SelectBoxNpoints) {
    Dataspace sp({10, 10});
    sp.select_box(box2(2, 5, 3, 7));
    EXPECT_EQ(sp.npoints(), 12u);
    EXPECT_FALSE(sp.all_selected());
    EXPECT_EQ(sp.bounding_box(), box2(2, 5, 3, 7));
}

TEST(Dataspace, SelectNone) {
    Dataspace sp({10});
    sp.select_none();
    EXPECT_TRUE(sp.none_selected());
    EXPECT_EQ(sp.npoints(), 0u);
}

TEST(Dataspace, SelectionOutsideExtentThrows) {
    Dataspace sp({10, 10});
    EXPECT_THROW(sp.select_box(box2(5, 11, 0, 5)), Error);
    diy::Bounds neg = box2(0, 5, 0, 5);
    neg.min[0]      = -1;
    EXPECT_THROW(sp.select_box(neg), Error);
}

TEST(Dataspace, OverlappingBoxesRejected) {
    Dataspace sp({10, 10});
    sp.select_box(box2(0, 5, 0, 5));
    EXPECT_THROW(sp.add_box(box2(4, 8, 4, 8)), Error);
    EXPECT_NO_THROW(sp.add_box(box2(5, 8, 5, 8)));
    EXPECT_EQ(sp.npoints(), 25u + 9u);
}

TEST(Dataspace, MultiBoxBoundingBox) {
    Dataspace sp({20, 20});
    sp.select_none();
    sp.add_box(box2(1, 3, 1, 3));
    sp.add_box(box2(10, 15, 12, 18));
    EXPECT_EQ(sp.bounding_box(), box2(1, 15, 1, 18));
}

TEST(Dataspace, HyperslabSingleBlock) {
    Dataspace     sp({8, 8});
    std::uint64_t start[] = {2, 2}, stride[] = {0, 0}, count[] = {1, 1}, block[] = {3, 4};
    sp.select_hyperslab(start, stride, count, block);
    EXPECT_EQ(sp.npoints(), 12u);
    EXPECT_EQ(sp.boxes().size(), 1u);
}

TEST(Dataspace, HyperslabStrided) {
    Dataspace     sp({10});
    std::uint64_t start[] = {0}, stride[] = {3}, count[] = {3}, block[] = {2};
    // selects {0,1, 3,4, 6,7}
    sp.select_hyperslab(start, stride, count, block);
    EXPECT_EQ(sp.npoints(), 6u);
    EXPECT_EQ(sp.boxes().size(), 3u);

    std::vector<std::uint64_t> offsets;
    sp.for_each_run([&](std::uint64_t fo, std::uint64_t n, std::uint64_t) {
        EXPECT_EQ(n, 2u);
        offsets.push_back(fo);
    });
    EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 3, 6}));
}

TEST(Dataspace, Hyperslab2dStrided) {
    Dataspace     sp({6, 6});
    std::uint64_t start[] = {0, 0}, stride[] = {2, 3}, count[] = {3, 2}, block[] = {1, 1};
    sp.select_hyperslab(start, stride, count, block);
    EXPECT_EQ(sp.npoints(), 6u);
    EXPECT_EQ(sp.boxes().size(), 6u);
}

TEST(Dataspace, HyperslabZeroCountSelectsNothing) {
    Dataspace     sp({10});
    std::uint64_t start[] = {0}, stride[] = {1}, count[] = {0}, block[] = {1};
    sp.select_hyperslab(start, stride, count, block);
    EXPECT_TRUE(sp.none_selected());
}

TEST(Dataspace, RunsRowMajorOrder) {
    Dataspace sp({4, 6});
    sp.select_box(box2(1, 3, 2, 5));
    std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
    sp.for_each_run([&](std::uint64_t fo, std::uint64_t n, std::uint64_t po) {
        runs.emplace_back(fo, n);
        EXPECT_EQ(po, (runs.size() - 1) * 3);
    });
    // rows at (1,2..5) -> offset 1*6+2 = 8, and (2,2..5) -> 14
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0], std::make_pair(std::uint64_t{8}, std::uint64_t{3}));
    EXPECT_EQ(runs[1], std::make_pair(std::uint64_t{14}, std::uint64_t{3}));
}

TEST(Dataspace, SaveLoadRoundtrip) {
    Dataspace sp({12, 9});
    sp.select_none();
    sp.add_box(box2(0, 3, 0, 3));
    sp.add_box(box2(5, 9, 4, 8));
    diy::BinaryBuffer bb;
    sp.save(bb);
    Dataspace r = Dataspace::load(bb);
    EXPECT_EQ(sp, r);

    Dataspace all({7});
    diy::BinaryBuffer bb2;
    all.save(bb2);
    EXPECT_EQ(Dataspace::load(bb2), all);
}

TEST(Dataspace, LoadRejectsMalformedBoxes) {
    // hand-built wire bytes: a rank-2 extent with one explicit box whose
    // rank comes from the wire (coordinates for up to 16 dims follow)
    auto with_box_rank = [](std::int32_t box_dim) {
        diy::BinaryBuffer bb;
        bb.save(Extent{8, 8});
        bb.save<std::uint8_t>(0);
        bb.save<std::uint64_t>(1);
        bb.save<std::int32_t>(box_dim);
        for (int i = 0; i < 16; ++i) {
            bb.save<std::int64_t>(0);
            bb.save<std::int64_t>(2);
        }
        return bb;
    };
    auto ok = with_box_rank(2);
    EXPECT_EQ(Dataspace::load(ok).npoints(), 4u);
    // past max_dim: rejected before writing a coordinate
    auto too_deep = with_box_rank(diy::max_dim + 1);
    EXPECT_THROW(Dataspace::load(too_deep), std::out_of_range);
    auto negative = with_box_rank(-3);
    EXPECT_THROW(Dataspace::load(negative), std::out_of_range);
    // a valid rank that is not the extent's
    auto other_rank = with_box_rank(3);
    EXPECT_THROW(Dataspace::load(other_rank), Error);
}

TEST(SelectionAlgebra, IntersectDisjointResult) {
    Dataspace a({10, 10}), b({10, 10});
    a.select_box(box2(0, 6, 0, 6));
    b.select_none();
    b.add_box(box2(3, 10, 3, 10));
    b.add_box(box2(0, 2, 8, 10));
    auto boxes = intersect_selections(a, b);
    ASSERT_EQ(boxes.size(), 1u);
    EXPECT_EQ(boxes[0], box2(3, 6, 3, 6));
}

TEST(SelectionAlgebra, PackUnpackRoundtrip) {
    Dataspace sp({5, 5});
    sp.select_box(box2(1, 4, 1, 4));
    auto full = iota_buffer(25);

    std::vector<std::uint32_t> packed(9);
    pack_selection(sp, full.data(), 4, packed.data());
    // first packed row: elements (1,1),(1,2),(1,3) -> 6,7,8
    EXPECT_EQ(packed[0], 6u);
    EXPECT_EQ(packed[1], 7u);
    EXPECT_EQ(packed[2], 8u);
    EXPECT_EQ(packed[3], 11u);

    // restore: the merge whose destination is the full buffer, located
    // by pairing the selection with itself
    std::vector<std::uint32_t> restored(25, 999);
    gather_scatter(sp.runs_by_file(), packed.data(), sp, mapped_runs(sp, sp), restored.data(), 4);
    for (std::uint64_t i = 0; i < 25; ++i) {
        bool selected = (i / 5 >= 1 && i / 5 < 4 && i % 5 >= 1 && i % 5 < 4);
        EXPECT_EQ(restored[i], selected ? full[i] : 999u) << i;
    }
}

TEST(SelectionAlgebra, MappedRunsPairEnumerationOrder) {
    // a 2x3 region of a 4x4 file selection pairs with a 2x3 box at
    // another corner of a 6x6 memory buffer, row by row
    Dataspace file({4, 4}), mem({6, 6});
    file.select_box(box2(0, 2, 0, 3));
    mem.select_box(box2(3, 5, 2, 5));
    const auto runs = mapped_runs(file, mem);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].file_off, 0u);
    EXPECT_EQ(runs[0].len, 3u);
    EXPECT_EQ(runs[0].packed_off, 3u * 6 + 2);
    EXPECT_EQ(runs[1].file_off, 4u);
    EXPECT_EQ(runs[1].packed_off, 4u * 6 + 2);

    // the merge copies buffer to buffer through both selections
    auto                       sbuf = iota_buffer(16);
    std::vector<std::uint32_t> dbuf(36, 0);
    gather_scatter(mapped_runs(file, file), sbuf.data(), file, runs, dbuf.data(), 4);
    EXPECT_EQ(dbuf[3 * 6 + 2], 0u);
    EXPECT_EQ(dbuf[3 * 6 + 4], 2u);
    EXPECT_EQ(dbuf[4 * 6 + 2], 4u);
    EXPECT_EQ(dbuf[4 * 6 + 4], 6u);
    EXPECT_EQ(std::count(dbuf.begin(), dbuf.end(), 0u), 36 - 5); // one copied 0

    // boxes stored out of file order: the k-th elements still pair, and
    // the runs come back sorted by file offset, split where either side's
    // run ends
    Dataspace two({4, 4}), flat({8});
    two.select_none();
    two.add_box(box2(2, 3, 0, 4));
    two.add_box(box2(0, 1, 1, 3));
    diy::Bounds b(1);
    b.min[0] = 1;
    b.max[0] = 7;
    flat.select_box(b);
    const auto split = mapped_runs(two, flat);
    ASSERT_EQ(split.size(), 2u);
    EXPECT_EQ(split[0].file_off, 1u); // row 0, cols 1-2: enumeration 4-5
    EXPECT_EQ(split[0].len, 2u);
    EXPECT_EQ(split[0].packed_off, 1u + 4);
    EXPECT_EQ(split[1].file_off, 8u); // row 2: enumeration 0-3
    EXPECT_EQ(split[1].len, 4u);
    EXPECT_EQ(split[1].packed_off, 1u);

    Dataspace short_mem({4});
    diy::Bounds s(1);
    s.min[0] = 0;
    s.max[0] = 3;
    short_mem.select_box(s);
    EXPECT_THROW(mapped_runs(two, short_mem), Error);
}

TEST(SelectionAlgebra, ExtractFromPackedSubBox) {
    // piece covers rows 0..4 of a 8x8 grid; extract a 2x2 interior box
    Dataspace piece({8, 8});
    piece.select_box(box2(0, 4, 0, 8));
    auto packed = iota_buffer(32); // piece data = linear ids of covered region

    Dataspace want({8, 8});
    want.select_box(box2(1, 3, 2, 4));

    // an extract: gather_scatter with the destination laid out as want
    std::vector<std::uint32_t> vals(want.npoints());
    gather_scatter(piece.runs_by_file(), packed.data(), want, want.runs_by_file(), vals.data(), 4);
    ASSERT_EQ(vals.size(), 4u);
    // piece packing: row-major over 4x8 region, so (r,c) -> 8r + c
    EXPECT_EQ(vals[0], 8u * 1 + 2);
    EXPECT_EQ(vals[1], 8u * 1 + 3);
    EXPECT_EQ(vals[2], 8u * 2 + 2);
    EXPECT_EQ(vals[3], 8u * 2 + 3);
}

TEST(SelectionAlgebra, ExtractUncoveredThrows) {
    Dataspace piece({4, 4});
    piece.select_box(box2(0, 2, 0, 2));
    auto      packed = iota_buffer(4);
    Dataspace want({4, 4});
    want.select_box(box2(2, 4, 2, 4));
    std::vector<std::byte> out(want.npoints() * 4);
    EXPECT_THROW(gather_scatter(piece.runs_by_file(), packed.data(), want, want.runs_by_file(),
                                out.data(), 4),
                 Error);
}

TEST(SelectionAlgebra, ScatterIntoPackedInverse) {
    Dataspace dest({6, 6});
    dest.select_box(box2(0, 6, 0, 6));
    std::vector<std::uint32_t> dest_packed(36, 0);

    Dataspace sub({6, 6});
    sub.select_box(box2(2, 4, 2, 4));
    std::vector<std::uint32_t> sub_packed{11, 22, 33, 44};

    // a scatter: gather_scatter with the source laid out as sub
    gather_scatter(sub.runs_by_file(), sub_packed.data(), sub, dest.runs_by_file(),
                   dest_packed.data(), 4);
    EXPECT_EQ(dest_packed[2 * 6 + 2], 11u);
    EXPECT_EQ(dest_packed[2 * 6 + 3], 22u);
    EXPECT_EQ(dest_packed[3 * 6 + 2], 33u);
    EXPECT_EQ(dest_packed[3 * 6 + 3], 44u);
    EXPECT_EQ(dest_packed[0], 0u);
}

TEST(SelectionAlgebra, ExtractViaMappingIdentity) {
    // memspace == filespace layout: zero-copy extraction out of a local
    // buffer holding a 3x4 sub-block of a 6x8 dataset
    Dataspace filespace({6, 8});
    filespace.select_box(box2(2, 5, 3, 7));
    Dataspace memspace({3, 4}); // local buffer exactly the sub-block, all selected

    auto membuf = iota_buffer(12);

    Dataspace want({6, 8});
    want.select_box(box2(3, 5, 4, 6));

    std::vector<std::byte> out;
    extract_via_mapping(filespace, memspace, membuf.data(), want, 4, out);
    ASSERT_EQ(out.size(), 4u * 4u);
    const auto* vals = reinterpret_cast<const std::uint32_t*>(out.data());
    // global (3,4) -> local (1,1) -> 1*4+1 = 5
    EXPECT_EQ(vals[0], 5u);
    EXPECT_EQ(vals[1], 6u);
    EXPECT_EQ(vals[2], 9u);
    EXPECT_EQ(vals[3], 10u);
}

TEST(SelectionAlgebra, ExtractViaMappingWithMemOffset) {
    // the user's buffer is larger than the written region (ghost zones):
    // memspace selects the interior of a 5x6 buffer
    Dataspace filespace({10, 10});
    filespace.select_box(box2(0, 3, 0, 4));
    Dataspace memspace({5, 6});
    memspace.select_box(box2(1, 4, 1, 5));

    std::vector<std::uint32_t> membuf(30);
    std::iota(membuf.begin(), membuf.end(), 0u);

    Dataspace want({10, 10});
    want.select_box(box2(1, 2, 1, 3));

    std::vector<std::byte> out;
    extract_via_mapping(filespace, memspace, membuf.data(), want, 4, out);
    ASSERT_EQ(out.size(), 2u * 4u);
    const auto* vals = reinterpret_cast<const std::uint32_t*>(out.data());
    // global (1,1) pairs with mem (2,2) -> 2*6+2 = 14
    EXPECT_EQ(vals[0], 14u);
    EXPECT_EQ(vals[1], 15u);
}

TEST(SelectionAlgebra, RunsCoverSelectionExactlyOnce) {
    Dataspace sp({7, 5, 3});
    sp.select_none();
    diy::Bounds b1(3), b2(3);
    b1.min = {0, 0, 0};
    b1.max = {2, 2, 3};
    b2.min = {4, 1, 0};
    b2.max = {7, 4, 2};
    sp.add_box(b1);
    sp.add_box(b2);

    std::vector<int> hits(105, 0);
    std::uint64_t    total = 0;
    sp.for_each_run([&](std::uint64_t fo, std::uint64_t n, std::uint64_t po) {
        EXPECT_EQ(po, total);
        for (std::uint64_t k = 0; k < n; ++k) ++hits[fo + k];
        total += n;
    });
    EXPECT_EQ(total, sp.npoints());
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_LE(hits[i], 1) << i;
}
