/// Property-style parameterized tests: invariants of the selection
/// algebra, the decomposer, and — most importantly — the index–serve–
/// query protocol under *irregular* producer decompositions (random
/// recursive partitions, multiple write pieces per rank, random consumer
/// queries), which is the full generality the paper claims.

#include <lowfive/lowfive.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>

using namespace h5;

namespace {

diy::Bounds box2(std::int64_t x0, std::int64_t x1, std::int64_t y0, std::int64_t y1) {
    diy::Bounds b(2);
    b.min = {x0, y0};
    b.max = {x1, y1};
    return b;
}

/// Recursively split `domain` into random disjoint boxes.
void random_partition(std::mt19937& rng, const diy::Bounds& domain, int depth,
                      std::vector<diy::Bounds>& out) {
    bool can_split = false;
    for (int i = 0; i < domain.dim; ++i)
        if (domain.max[static_cast<std::size_t>(i)] - domain.min[static_cast<std::size_t>(i)] >= 2)
            can_split = true;
    if (depth == 0 || !can_split) {
        out.push_back(domain);
        return;
    }
    // pick a splittable axis
    int axis;
    do {
        axis = static_cast<int>(rng() % static_cast<unsigned>(domain.dim));
    } while (domain.max[static_cast<std::size_t>(axis)] - domain.min[static_cast<std::size_t>(axis)] < 2);
    auto u   = static_cast<std::size_t>(axis);
    auto lo  = domain.min[u] + 1;
    auto hi  = domain.max[u];
    auto cut = lo + static_cast<std::int64_t>(rng() % static_cast<unsigned>(hi - lo));

    diy::Bounds left = domain, right = domain;
    left.max[u]  = cut;
    right.min[u] = cut;
    random_partition(rng, left, depth - 1, out);
    random_partition(rng, right, depth - 1, out);
}

std::uint64_t grid_value(const Extent& dims, std::int64_t x, std::int64_t y) {
    return static_cast<std::uint64_t>(x) * dims[1] + static_cast<std::uint64_t>(y);
}

} // namespace

// --- selection algebra invariants ------------------------------------------------

class SelectionProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(SelectionProperty, PackUnpackIsIdentityOnSelection) {
    std::mt19937 rng(GetParam());
    Extent       dims{8 + rng() % 20, 8 + rng() % 20};
    Dataspace    sp(dims);
    sp.select_none();
    std::vector<diy::Bounds> boxes;
    diy::Bounds              domain(2);
    domain.max = {static_cast<std::int64_t>(dims[0]), static_cast<std::int64_t>(dims[1])};
    random_partition(rng, domain, 3, boxes);
    // select a random subset of the partition (disjoint by construction)
    std::vector<diy::Bounds> chosen;
    for (const auto& b : boxes)
        if (rng() % 2) {
            sp.add_box(b);
            chosen.push_back(b);
        }
    if (sp.npoints() == 0) return;

    std::vector<std::uint32_t> full(dims[0] * dims[1]);
    for (std::size_t i = 0; i < full.size(); ++i) full[i] = static_cast<std::uint32_t>(i * 7 + 1);

    std::vector<std::uint32_t> packed(sp.npoints());
    pack_selection(sp, full.data(), 4, packed.data());
    std::vector<std::uint32_t> restored(full.size(), 0);
    gather_scatter(sp.runs_by_file(), packed.data(), sp, mapped_runs(sp, sp), restored.data(), 4);

    for (std::uint64_t x = 0; x < dims[0]; ++x)
        for (std::uint64_t y = 0; y < dims[1]; ++y) {
            bool in = false;
            for (const auto& b : chosen)
                if (b.contains({static_cast<std::int64_t>(x), static_cast<std::int64_t>(y)})) in = true;
            auto idx = x * dims[1] + y;
            ASSERT_EQ(restored[idx], in ? full[idx] : 0u);
        }
}

TEST_P(SelectionProperty, ExtractFromPackedMatchesDirectPack) {
    std::mt19937 rng(GetParam() + 1000);
    Extent       dims{10 + rng() % 20, 10 + rng() % 20};

    // the piece covers a random box; want is a random sub-box of it
    auto rand_box_within = [&](const diy::Bounds& outer) {
        diy::Bounds b(2);
        for (int i = 0; i < 2; ++i) {
            auto u  = static_cast<std::size_t>(i);
            auto lo = outer.min[u] + static_cast<std::int64_t>(
                          rng() % static_cast<unsigned>(outer.max[u] - outer.min[u]));
            auto hi = lo + 1 + static_cast<std::int64_t>(
                          rng() % static_cast<unsigned>(outer.max[u] - lo));
            b.min[u] = lo;
            b.max[u] = hi;
        }
        return b;
    };
    diy::Bounds whole(2);
    whole.max = {static_cast<std::int64_t>(dims[0]), static_cast<std::int64_t>(dims[1])};
    diy::Bounds piece_box = rand_box_within(whole);
    diy::Bounds want_box  = rand_box_within(piece_box);

    Dataspace piece(dims), want(dims);
    piece.select_box(piece_box);
    want.select_box(want_box);

    std::vector<std::uint32_t> full(dims[0] * dims[1]);
    for (std::size_t i = 0; i < full.size(); ++i) full[i] = static_cast<std::uint32_t>(i);

    std::vector<std::uint32_t> piece_packed(piece.npoints());
    pack_selection(piece, full.data(), 4, piece_packed.data());

    // an extract: the fused merge with the destination laid out as want
    std::vector<std::uint32_t> extracted(want.npoints());
    gather_scatter(piece.runs_by_file(), piece_packed.data(), want, want.runs_by_file(),
                   extracted.data(), 4);

    std::vector<std::uint32_t> direct(want.npoints());
    pack_selection(want, full.data(), 4, direct.data());

    EXPECT_EQ(extracted, direct);
}

TEST_P(SelectionProperty, GatherScatterMatchesNaiveExtractThenScatter) {
    // the fused merge against its oracle: a random multi-box piece (boxes
    // shuffled, so its packed order is not file order) and a random
    // multi-box destination; the sub-selection they share moves from the
    // piece's packed buffer to the destination's in one pass
    std::mt19937      rng(GetParam() + 3000);
    const Extent      dims{6 + rng() % 20, 6 + rng() % 20};
    const diy::Bounds domain =
        box2(0, static_cast<std::int64_t>(dims[0]), 0, static_cast<std::int64_t>(dims[1]));
    auto random_selection = [&](int depth) {
        std::vector<diy::Bounds> parts;
        random_partition(rng, domain, depth, parts);
        std::shuffle(parts.begin(), parts.end(), rng);
        Dataspace sp(dims);
        sp.select_none();
        for (const auto& b : parts)
            if (rng() % 3) sp.add_box(b);
        if (sp.npoints() == 0) sp.add_box(parts.front());
        return sp;
    };
    const Dataspace piece = random_selection(3);
    const Dataspace dest  = random_selection(2);

    // what the serve side sends for an aliased reply: the shared part and
    // where each of its boxes sits in the piece's packed buffer
    const auto [sub, where] = intersect_located(piece, dest, dims);
    if (sub.npoints() == 0) return;
    std::uint64_t end = 0; // one past the last enclosing box's elements
    for (const auto& w : where) end = std::max(end, w.offset + w.outer.size());

    std::vector<std::uint32_t> full(dims[0] * dims[1]);
    for (std::size_t i = 0; i < full.size(); ++i) full[i] = static_cast<std::uint32_t>(i * 7 + 3);
    std::vector<std::uint32_t> piece_packed(piece.npoints());
    pack_selection(piece, full.data(), 4, piece_packed.data());

    // oracle: naive extract into a temporary, then naive scatter
    std::vector<std::byte> sub_packed;
    extract_from_packed_naive(piece, piece_packed.data(), sub, 4, sub_packed);
    std::vector<std::uint32_t> want(dest.npoints(), 0xdeadbeefu);
    scatter_into_packed_naive(dest, want.data(), sub, sub_packed.data(), 4);

    const std::vector<SelRun> located = located_runs(sub, where, piece.npoints());
    // source runs from the reply header's form, and the piece's own
    for (const auto* src_runs : {&located, &piece.runs_by_file()}) {
        std::vector<std::uint32_t> got(dest.npoints(), 0xdeadbeefu);
        gather_scatter(*src_runs, piece_packed.data(), sub, dest.runs_by_file(), got.data(), 4);
        ASSERT_EQ(got, want) << "seed " << GetParam();
    }

    // a buffer one element shorter than the last enclosing box is refused
    EXPECT_THROW(located_runs(sub, where, end - 1), Error);
}

TEST_P(SelectionProperty, IntersectionNpointsSymmetric) {
    std::mt19937 rng(GetParam() + 2000);
    Extent       dims{16, 16};
    Dataspace    a(dims), b(dims);
    a.select_none();
    b.select_none();
    std::vector<diy::Bounds> pa, pb;
    diy::Bounds              domain = box2(0, 16, 0, 16);
    random_partition(rng, domain, 2, pa);
    random_partition(rng, domain, 2, pb);
    for (std::size_t i = 0; i < pa.size(); i += 2) a.add_box(pa[i]);
    for (std::size_t i = 0; i < pb.size(); i += 2) b.add_box(pb[i]);

    auto          ab = intersect_selections(a, b);
    auto          ba = intersect_selections(b, a);
    std::uint64_t nab = 0, nba = 0;
    for (const auto& x : ab) nab += x.size();
    for (const auto& x : ba) nba += x.size();
    EXPECT_EQ(nab, nba);

    // intersection never exceeds either operand
    EXPECT_LE(nab, a.npoints());
    EXPECT_LE(nab, b.npoints());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionProperty, ::testing::Range(1u, 16u));

// --- decomposer invariants ---------------------------------------------------------

// all 64-bit so the struct has no padding: gtest names each case by the
// parameter's raw bytes, and uninitialized padding bytes would change the
// case's name from run to run
struct DecompParam {
    std::int64_t nblocks, x, y, z;
};

class DecomposerProperty : public ::testing::TestWithParam<DecompParam> {};

TEST_P(DecomposerProperty, BlocksTileTheDomainExactly) {
    auto [nblocks, x, y, z] = GetParam();
    const int   n = static_cast<int>(nblocks);
    diy::Bounds domain(3);
    domain.max = {x, y, z};
    diy::RegularDecomposer dec(domain, n);

    std::uint64_t total = 0;
    for (int g = 0; g < n; ++g) {
        auto b = dec.block_bounds(g);
        total += b.size();
        for (int h = g + 1; h < n; ++h)
            ASSERT_FALSE(diy::intersects(b, dec.block_bounds(h)));
    }
    EXPECT_EQ(total, domain.size());

    // every sampled point maps to the block that contains it
    std::mt19937 rng(42);
    for (int k = 0; k < 50; ++k) {
        std::array<std::int64_t, diy::max_dim> pt{
            static_cast<std::int64_t>(rng() % static_cast<unsigned>(x)),
            static_cast<std::int64_t>(rng() % static_cast<unsigned>(y)),
            static_cast<std::int64_t>(rng() % static_cast<unsigned>(z))};
        int g = dec.point_to_block(pt);
        ASSERT_GE(g, 0);
        ASSERT_TRUE(dec.block_bounds(g).contains(pt));
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DecomposerProperty,
                         ::testing::Values(DecompParam{1, 10, 10, 10}, DecompParam{2, 9, 17, 3},
                                           DecompParam{5, 11, 7, 23}, DecompParam{6, 64, 64, 64},
                                           DecompParam{12, 30, 20, 10}, DecompParam{16, 17, 17, 17},
                                           DecompParam{48, 100, 60, 30},
                                           DecompParam{7, 13, 29, 5}));

// --- irregular-decomposition redistribution (full protocol generality) -----------

class IrregularRedistribution : public ::testing::TestWithParam<unsigned> {};

TEST_P(IrregularRedistribution, RandomPiecesRandomQueries) {
    const unsigned seed = GetParam();
    std::mt19937   setup_rng(seed);

    const Extent dims{24 + setup_rng() % 16, 24 + setup_rng() % 16};
    const int    nprod = 2 + static_cast<int>(setup_rng() % 4);
    const int    ncons = 1 + static_cast<int>(setup_rng() % 4);

    // random disjoint partition, leaves dealt round-robin to producers:
    // producers hold MULTIPLE non-rectangular-union pieces each
    std::vector<diy::Bounds> leaves;
    diy::Bounds              domain = box2(0, static_cast<std::int64_t>(dims[0]), 0,
                                           static_cast<std::int64_t>(dims[1]));
    random_partition(setup_rng, domain, 4, leaves);

    workflow::run(
        {
            {"producer", nprod,
             [&](workflow::Context& ctx) {
                 File f = File::create("irregular.h5", ctx.vol);
                 auto d = f.create_dataset("g", dt::uint64(), Dataspace(dims));
                 for (std::size_t i = 0; i < leaves.size(); ++i) {
                     if (static_cast<int>(i % static_cast<std::size_t>(nprod)) != ctx.rank())
                         continue;
                     const auto& leaf = leaves[i];
                     Dataspace   sel(dims);
                     sel.select_box(leaf);
                     std::vector<std::uint64_t> vals(leaf.size());
                     std::size_t                k = 0;
                     for (auto x = leaf.min[0]; x < leaf.max[0]; ++x)
                         for (auto y = leaf.min[1]; y < leaf.max[1]; ++y)
                             vals[k++] = grid_value(dims, x, y);
                     d.write(vals.data(), sel);
                 }
                 f.close();
             }},
            {"consumer", ncons,
             [&](workflow::Context& ctx) {
                 std::mt19937 rng(seed * 100 + static_cast<unsigned>(ctx.rank()));
                 File         f = File::open("irregular.h5", ctx.vol);
                 auto         d = f.open_dataset("g");
                 for (int q = 0; q < 3; ++q) {
                     // random query box
                     auto x0 = static_cast<std::int64_t>(rng() % dims[0]);
                     auto y0 = static_cast<std::int64_t>(rng() % dims[1]);
                     auto x1 = x0 + 1 + static_cast<std::int64_t>(rng() % (dims[0] - static_cast<std::uint64_t>(x0)));
                     auto y1 = y0 + 1 + static_cast<std::int64_t>(rng() % (dims[1] - static_cast<std::uint64_t>(y0)));
                     Dataspace sel(dims);
                     sel.select_box(box2(x0, x1, y0, y1));
                     auto        vals = d.read_vector<std::uint64_t>(sel);
                     std::size_t k    = 0;
                     for (auto x = x0; x < x1; ++x)
                         for (auto y = y0; y < y1; ++y, ++k)
                             ASSERT_EQ(vals[k], grid_value(dims, x, y))
                                 << "seed " << seed << " query " << q << " at (" << x << "," << y << ")";
                 }
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrregularRedistribution, ::testing::Range(1u, 13u));

// --- 3-d irregular redistribution, with and without zero-copy ------------------

class IrregularRedistribution3d : public ::testing::TestWithParam<unsigned> {};

TEST_P(IrregularRedistribution3d, RandomBoxesValidate) {
    const unsigned seed = GetParam();
    std::mt19937   setup_rng(seed * 31 + 5);

    const std::uint64_t n = 10 + setup_rng() % 8;
    const Extent        dims{n, n, n};
    const int           nprod    = 2 + static_cast<int>(setup_rng() % 3);
    const int           ncons    = 1 + static_cast<int>(setup_rng() % 3);
    const bool          zerocopy = (seed % 2) == 0;

    std::vector<diy::Bounds> leaves;
    diy::Bounds              domain(3);
    domain.max = {static_cast<std::int64_t>(n), static_cast<std::int64_t>(n),
                  static_cast<std::int64_t>(n)};
    random_partition(setup_rng, domain, 4, leaves);

    auto value_at = [&](std::int64_t x, std::int64_t y, std::int64_t z) {
        return (static_cast<std::uint64_t>(x) * n + static_cast<std::uint64_t>(y)) * n
               + static_cast<std::uint64_t>(z);
    };

    workflow::Options opts;
    opts.mode = workflow::Mode::in_situ();
    if (zerocopy) opts.zerocopy = {{"*", "*"}};

    workflow::run(
        {
            {"producer", nprod,
             [&](workflow::Context& ctx) {
                 // zero-copy contract: buffers must outlive the close
                 std::vector<std::vector<std::uint64_t>> kept;
                 File f = File::create("irr3.h5", ctx.vol);
                 auto d = f.create_dataset("g", dt::uint64(), Dataspace(dims));
                 for (std::size_t i = 0; i < leaves.size(); ++i) {
                     if (static_cast<int>(i % static_cast<std::size_t>(nprod)) != ctx.rank())
                         continue;
                     const auto& leaf = leaves[i];
                     Dataspace   sel(dims);
                     sel.select_box(leaf);
                     kept.emplace_back(leaf.size());
                     std::size_t k = 0;
                     for (auto x = leaf.min[0]; x < leaf.max[0]; ++x)
                         for (auto y = leaf.min[1]; y < leaf.max[1]; ++y)
                             for (auto z = leaf.min[2]; z < leaf.max[2]; ++z)
                                 kept.back()[k++] = value_at(x, y, z);
                     d.write(kept.back().data(), sel);
                 }
                 f.close();
             }},
            {"consumer", ncons,
             [&](workflow::Context& ctx) {
                 std::mt19937 rng(seed * 1000 + static_cast<unsigned>(ctx.rank()));
                 File         f = File::open("irr3.h5", ctx.vol);
                 auto         d = f.open_dataset("g");
                 for (int q = 0; q < 2; ++q) {
                     diy::Bounds box(3);
                     for (int i = 0; i < 3; ++i) {
                         auto u   = static_cast<std::size_t>(i);
                         box.min[u] = static_cast<std::int64_t>(rng() % n);
                         box.max[u] = box.min[u] + 1
                                      + static_cast<std::int64_t>(
                                            rng() % (n - static_cast<std::uint64_t>(box.min[u])));
                     }
                     Dataspace sel(dims);
                     sel.select_box(box);
                     auto        vals = d.read_vector<std::uint64_t>(sel);
                     std::size_t k    = 0;
                     for (auto x = box.min[0]; x < box.max[0]; ++x)
                         for (auto y = box.min[1]; y < box.max[1]; ++y)
                             for (auto z = box.min[2]; z < box.max[2]; ++z, ++k)
                                 ASSERT_EQ(vals[k], value_at(x, y, z))
                                     << "seed " << seed << (zerocopy ? " (zerocopy)" : "");
                 }
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}}, opts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrregularRedistribution3d, ::testing::Range(1u, 9u));

// --- differential transport oracle ------------------------------------------------
//
// The paper's core claim is that switching L5_MODE between in-situ and
// file transport is *seamless*: task code is unchanged and consumers see
// identical bytes. This seeded differential suite checks exactly that —
// a randomized workflow (producer/consumer counts, domain shape, random
// disjoint decomposition, union-of-boxes hyperslab queries, atomic and
// compound datatypes) runs once through the memory data plane and once
// through physical files (passthru), and the consumers' raw reply bytes
// must agree bit-for-bit. A failure prints the seed: replay with the
// same GetParam() value (and L5_SCHED, if scheduled) to reproduce.

namespace {

/// One randomized workflow pass; returns every consumer's replies,
/// concatenated in (consumer rank, query index) order, and adds the
/// pieces the producers served as aliased buffers to `*aliased`.
template <class T, class ValueFn>
std::vector<std::byte> run_differential(unsigned seed, workflow::Mode mode,
                                        const h5::Datatype& type, ValueFn value_at,
                                        std::atomic<std::uint64_t>* aliased = nullptr) {
    std::mt19937 setup(seed * 2654435761u + 97);

    const Extent dims{6 + setup() % 18, 6 + setup() % 18};
    const int    nprod = 1 + static_cast<int>(setup() % 4);
    const int    ncons = 1 + static_cast<int>(setup() % 3);

    std::vector<diy::Bounds> leaves;
    diy::Bounds domain = box2(0, static_cast<std::int64_t>(dims[0]), 0,
                              static_cast<std::int64_t>(dims[1]));
    random_partition(setup, domain, 3, leaves);

    const std::string fname =
        "diff_" + std::to_string(seed) + (mode.memory ? "_mem" : "_file") + ".h5";

    std::vector<std::vector<std::byte>> got(static_cast<std::size_t>(ncons));
    workflow::Options opts;
    opts.mode = mode;
    workflow::run(
        {
            {"producer", nprod,
             [&](workflow::Context& ctx) {
                 // this rank's leaves; `flip` inverts every byte. Returns
                 // the number of pieces written
                 auto write_leaves = [&](const auto& d, bool flip) {
                     std::uint64_t pieces = 0;
                     for (std::size_t i = 0; i < leaves.size(); ++i) {
                         if (static_cast<int>(i % static_cast<std::size_t>(nprod)) != ctx.rank())
                             continue;
                         const auto& leaf = leaves[i];
                         Dataspace   sel(dims);
                         sel.select_box(leaf);
                         std::vector<T> vals(leaf.size());
                         std::size_t    k = 0;
                         for (auto x = leaf.min[0]; x < leaf.max[0]; ++x)
                             for (auto y = leaf.min[1]; y < leaf.max[1]; ++y)
                                 vals[k++] = value_at(x, y);
                         if (flip)
                             for (auto& b : std::span(reinterpret_cast<std::byte*>(vals.data()),
                                                      vals.size() * sizeof(T)))
                                 b = ~b;
                         d.write(vals.data(), sel);
                         ++pieces;
                     }
                     return pieces;
                 };
                 if (mode.memory) {
                     // write the file once with other values and drop it:
                     // the compared write below packs into the recycled
                     // buffers of that dead tree
                     File f = File::create(fname, ctx.vol);
                     write_leaves(f.create_dataset("g", type, Dataspace(dims)), true);
                     f.close();
                     ctx.vol->drop_file(fname);
                     ctx.world.barrier();
                 }
                 File       f      = File::create(fname, ctx.vol);
                 const auto pieces = write_leaves(f.create_dataset("g", type, Dataspace(dims)), false);
                 f.close();
                 if (mode.memory) {
                     EXPECT_EQ(ctx.vol->stats().n_recycled_pieces, pieces);
                 }
                 if (aliased) *aliased += ctx.vol->stats().n_zero_copy_pieces;
             }},
            {"consumer", ncons,
             [&](workflow::Context& ctx) {
                 // query stream depends only on (seed, rank): both modes
                 // replay the identical selections
                 std::mt19937 rng(seed * 131071u + static_cast<unsigned>(ctx.rank()));
                 if (mode.memory) {
                     // the producers' first write: closed unread, and no
                     // open of the compared file before they dropped it
                     File::open(fname, ctx.vol).close();
                     ctx.world.barrier();
                 }
                 File         f = File::open(fname, ctx.vol);
                 auto         d = f.open_dataset("g");
                 auto&        mine = got[static_cast<std::size_t>(ctx.rank())];
                 for (int q = 0; q < 3; ++q) {
                     // union of disjoint boxes from a fresh random
                     // partition: a genuinely irregular hyperslab
                     std::vector<diy::Bounds> qleaves;
                     random_partition(rng, domain, 2, qleaves);
                     Dataspace sel(dims);
                     sel.select_none();
                     for (std::size_t i = 0; i < qleaves.size(); ++i)
                         if (rng() % 2) sel.add_box(qleaves[i]);
                     if (sel.npoints() == 0) sel.select_box(qleaves[0]);
                     auto vals = d.read_vector<T>(sel);
                     const auto* p = reinterpret_cast<const std::byte*>(vals.data());
                     mine.insert(mine.end(), p, p + vals.size() * sizeof(T));
                 }
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}}, opts);

    if (mode.passthru) std::remove(fname.c_str());

    std::vector<std::byte> all;
    for (const auto& c : got) all.insert(all.end(), c.begin(), c.end());
    return all;
}

template <class T, class ValueFn>
void expect_modes_agree(unsigned seed, const h5::Datatype& type, ValueFn value_at) {
    SCOPED_TRACE("differential seed " + std::to_string(seed));
    h5::PfsModel::instance().configure(0, 0, 0); // no simulated PFS latency
    // every piece a query touches is served as an aliased buffer: the
    // irregular multi-box queries want arbitrary parts of it
    std::atomic<std::uint64_t> aliased{0};
    auto mem  = run_differential<T>(seed, workflow::Mode::in_situ(), type, value_at, &aliased);
    auto file = run_differential<T>(seed, workflow::Mode::file(), type, value_at);
    EXPECT_GT(aliased.load(), 0u) << "no piece took the aliased path at seed " << seed;
    ASSERT_EQ(mem.size(), file.size()) << "reply sizes diverged at seed " << seed;
    EXPECT_EQ(std::memcmp(mem.data(), file.data(), mem.size()), 0)
        << "memory-mode bytes differ from the file oracle at seed " << seed;
}

// padding-free on purpose: the memory plane ships raw struct bytes while
// the file oracle converts member-by-member, so padding bytes are not part
// of the seamless-transport contract and must not participate in memcmp
struct DiffPair {
    double        b;
    std::uint32_t a;
    std::uint32_t c;
};
static_assert(sizeof(DiffPair) == 16, "DiffPair must have no padding");

h5::Datatype diff_pair_type() {
    return h5::Datatype::compound(sizeof(DiffPair))
        .insert("b", offsetof(DiffPair, b), dt::float64())
        .insert("a", offsetof(DiffPair, a), dt::uint32())
        .insert("c", offsetof(DiffPair, c), dt::uint32());
}

} // namespace

class DifferentialTransport : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialTransport, Uint32MatchesFileOracle) {
    expect_modes_agree<std::uint32_t>(GetParam(), dt::uint32(), [](std::int64_t x, std::int64_t y) {
        return static_cast<std::uint32_t>(x * 131 + y);
    });
}

TEST_P(DifferentialTransport, Uint64MatchesFileOracle) {
    expect_modes_agree<std::uint64_t>(
        GetParam() + 100, dt::uint64(), [](std::int64_t x, std::int64_t y) {
            return static_cast<std::uint64_t>(x) * 1000003u + static_cast<std::uint64_t>(y);
        });
}

TEST_P(DifferentialTransport, Float32MatchesFileOracle) {
    expect_modes_agree<float>(GetParam() + 200, dt::float32(), [](std::int64_t x, std::int64_t y) {
        return static_cast<float>(x) + static_cast<float>(y) * 0.5f;
    });
}

TEST_P(DifferentialTransport, Float64MatchesFileOracle) {
    expect_modes_agree<double>(GetParam() + 300, dt::float64(), [](std::int64_t x, std::int64_t y) {
        return static_cast<double>(x) * 1.25 + static_cast<double>(y) / 7.0;
    });
}

TEST_P(DifferentialTransport, CompoundMatchesFileOracle) {
    expect_modes_agree<DiffPair>(
        GetParam() + 400, diff_pair_type(), [](std::int64_t x, std::int64_t y) {
            return DiffPair{static_cast<double>(x) + static_cast<double>(y) / 7.0,
                            static_cast<std::uint32_t>(x * 31 + y),
                            static_cast<std::uint32_t>(x ^ (y << 3))};
        });
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTransport, ::testing::Range(1u, 7u));

// --- multi-step streaming differential oracle ----------------------------------------
//
// The streaming transport extends the seamless-transport contract across
// time: a block-policy (lossless) streamed drain through the memory data
// plane must deliver, step by step, the same bytes as writing each step
// to its own physical file and reading the files back sequentially. The
// producer decomposition, the payload, and the consumers' irregular
// hyperslab queries are all reseeded per step, so any cross-step state
// leak (a stale intersect-cache entry, a snapshot mutated after publish,
// a misrouted step) breaks the byte comparison.

namespace {

constexpr int kStreamSteps   = 3;
constexpr int kStreamQueries = 2;

std::uint64_t stream_value_at(std::int64_t x, std::int64_t y, int step) {
    return static_cast<std::uint64_t>(step) * 1000000u
           + static_cast<std::uint64_t>(x) * 1000u + static_cast<std::uint64_t>(y);
}

/// Write one step's dataset: seeded random disjoint decomposition, each
/// leaf owned by a producer rank round-robin.
void write_stream_step(workflow::Context& ctx, h5::File& f, unsigned seed, int step,
                       const Extent& dims, const diy::Bounds& domain) {
    auto         d = f.create_dataset("g", dt::uint64(), Dataspace(dims));
    std::mt19937 rng(seed * 7919u + static_cast<unsigned>(step));
    std::vector<diy::Bounds> leaves;
    random_partition(rng, domain, 3, leaves);
    for (std::size_t i = 0; i < leaves.size(); ++i) {
        if (static_cast<int>(i % static_cast<std::size_t>(ctx.size())) != ctx.rank()) continue;
        const auto& leaf = leaves[i];
        Dataspace   sel(dims);
        sel.select_box(leaf);
        std::vector<std::uint64_t> vals(leaf.size());
        std::size_t                k = 0;
        for (auto x = leaf.min[0]; x < leaf.max[0]; ++x)
            for (auto y = leaf.min[1]; y < leaf.max[1]; ++y)
                vals[k++] = stream_value_at(x, y, step);
        d.write(vals.data(), sel);
    }
}

/// Read one step back with the consumer's seeded irregular queries and
/// append the raw reply bytes.
void query_stream_step(h5::File& f, std::mt19937& rng, const Extent& dims,
                       const diy::Bounds& domain, std::vector<std::byte>& out) {
    auto d = f.open_dataset("g");
    for (int q = 0; q < kStreamQueries; ++q) {
        std::vector<diy::Bounds> qleaves;
        random_partition(rng, domain, 2, qleaves);
        Dataspace sel(dims);
        sel.select_none();
        for (std::size_t i = 0; i < qleaves.size(); ++i)
            if (rng() % 2) sel.add_box(qleaves[i]);
        if (sel.npoints() == 0) sel.select_box(qleaves[0]);
        auto        vals = d.read_vector<std::uint64_t>(sel);
        const auto* p    = reinterpret_cast<const std::byte*>(vals.data());
        out.insert(out.end(), p, p + vals.size() * sizeof(std::uint64_t));
    }
}

/// The streamed pass: one stream, kStreamSteps published snapshots,
/// block policy (lossless) so the drain sees every step in order.
std::vector<std::byte> run_stream_pass(unsigned seed, int nprod, int ncons,
                                       const Extent& dims, const diy::Bounds& domain) {
    std::vector<std::vector<std::byte>> got(static_cast<std::size_t>(ncons));
    workflow::run(
        {
            {"producer", nprod,
             [&](workflow::Context& ctx) {
                 lowfive::stream::Writer w(ctx.vol, "stream_diff.h5");
                 for (int t = 0; t < kStreamSteps; ++t) {
                     write_stream_step(ctx, w.begin_step(), seed, t, dims, domain);
                     w.end_step();
                 }
                 w.close();
             }},
            {"consumer", ncons,
             [&](workflow::Context& ctx) {
                 std::mt19937 rng(seed * 131071u + static_cast<unsigned>(ctx.rank()));
                 auto&        mine = got[static_cast<std::size_t>(ctx.rank())];
                 lowfive::stream::Reader r(ctx.vol, "stream_diff.h5");
                 int t = 0;
                 while (r.next_step()) {
                     EXPECT_EQ(r.current_step().value(), static_cast<std::uint64_t>(t));
                     query_stream_step(r.file(), rng, dims, domain, mine);
                     ++t;
                 }
                 EXPECT_EQ(t, kStreamSteps); // block policy: lossless
                 r.close();
             }},
        },
        {workflow::Link{0, 1, "*", "block", 2}});

    std::vector<std::byte> all;
    for (const auto& c : got) all.insert(all.end(), c.begin(), c.end());
    return all;
}

/// The oracle pass: the same steps written sequentially, one physical
/// file per step, read back through the native VOL.
std::vector<std::byte> run_file_steps_pass(unsigned seed, int nprod, int ncons,
                                           const Extent& dims, const diy::Bounds& domain) {
    std::vector<std::vector<std::byte>> got(static_cast<std::size_t>(ncons));
    workflow::Options opts;
    opts.mode = workflow::Mode::file();
    auto fname = [&](int t) {
        return "stream_diff_" + std::to_string(seed) + "_" + std::to_string(t) + ".h5";
    };
    workflow::run(
        {
            {"producer", nprod,
             [&](workflow::Context& ctx) {
                 for (int t = 0; t < kStreamSteps; ++t) {
                     File f = File::create(fname(t), ctx.vol);
                     write_stream_step(ctx, f, seed, t, dims, domain);
                     f.close();
                 }
             }},
            {"consumer", ncons,
             [&](workflow::Context& ctx) {
                 std::mt19937 rng(seed * 131071u + static_cast<unsigned>(ctx.rank()));
                 auto&        mine = got[static_cast<std::size_t>(ctx.rank())];
                 for (int t = 0; t < kStreamSteps; ++t) {
                     File f = File::open(fname(t), ctx.vol);
                     query_stream_step(f, rng, dims, domain, mine);
                     f.close();
                 }
             }},
        },
        {workflow::Link{0, 1, "*", "", 0}}, opts);

    for (int t = 0; t < kStreamSteps; ++t) std::remove(fname(t).c_str());

    std::vector<std::byte> all;
    for (const auto& c : got) all.insert(all.end(), c.begin(), c.end());
    return all;
}

} // namespace

class StreamDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(StreamDifferential, DrainMatchesPerStepFileOracle) {
    const unsigned seed = GetParam();
    SCOPED_TRACE("stream differential seed " + std::to_string(seed));
    h5::PfsModel::instance().configure(0, 0, 0); // no simulated PFS latency

    std::mt19937 setup(seed * 2654435761u + 1013);
    const Extent dims{6 + setup() % 14, 6 + setup() % 14};
    const int    nprod = 1 + static_cast<int>(setup() % 3);
    const int    ncons = 1 + static_cast<int>(setup() % 2);
    diy::Bounds  domain = box2(0, static_cast<std::int64_t>(dims[0]), 0,
                               static_cast<std::int64_t>(dims[1]));

    auto mem  = run_stream_pass(seed, nprod, ncons, dims, domain);
    auto file = run_file_steps_pass(seed, nprod, ncons, dims, domain);
    ASSERT_EQ(mem.size(), file.size()) << "reply sizes diverged at seed " << seed;
    EXPECT_EQ(std::memcmp(mem.data(), file.data(), mem.size()), 0)
        << "streamed drain differs from the per-step file oracle at seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamDifferential, ::testing::Range(1u, 6u));

// --- glob properties -----------------------------------------------------------------

TEST(GlobProperty, PrefixStarSuffix) {
    std::mt19937 rng(7);
    for (int k = 0; k < 50; ++k) {
        std::string s;
        for (int i = 0; i < static_cast<int>(rng() % 12); ++i)
            s.push_back(static_cast<char>('a' + rng() % 26));
        // every string matches "*", itself, and prefix+"*"
        EXPECT_TRUE(lowfive::glob_match("*", s));
        EXPECT_TRUE(lowfive::glob_match(s, s));
        if (!s.empty()) {
            EXPECT_TRUE(lowfive::glob_match(s.substr(0, s.size() / 2) + "*", s));
            EXPECT_TRUE(lowfive::glob_match("*" + s.substr(s.size() / 2), s));
            std::string q = s;
            q[rng() % q.size()] = '?';
            EXPECT_TRUE(lowfive::glob_match(q, s));
        }
    }
}
