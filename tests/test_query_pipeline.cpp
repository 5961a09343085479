/// Tests for the pipelined, cached query path (out-of-order reply
/// completion, the consumer-side producer-set cache and its
/// invalidation) and for the selection kernels against their naive
/// reference implementations.

#include <lowfive/lowfive.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <random>

using namespace h5;
using workflow::Context;
using workflow::Link;
using workflow::Options;

namespace {

/// Producers write contiguous quarters of a 1-d array; consumers read the
/// whole array, so every producer answers both intersect and data queries.
void write_quarter(Context& ctx, const std::string& fname, std::uint64_t total) {
    File f = File::create(fname, ctx.vol);
    auto d = f.create_dataset("v", dt::uint64(), Dataspace({total}));

    const auto  per = total / static_cast<std::uint64_t>(ctx.size());
    Dataspace   sel({total});
    diy::Bounds b(1);
    b.min[0] = static_cast<std::int64_t>(per) * ctx.rank();
    b.max[0] = static_cast<std::int64_t>(per) * (ctx.rank() + 1);
    sel.select_box(b);
    std::vector<std::uint64_t> vals(sel.npoints());
    for (std::uint64_t i = 0; i < vals.size(); ++i)
        vals[i] = static_cast<std::uint64_t>(b.min[0]) + i;
    d.write(vals.data(), sel);
    f.close();
}

} // namespace

TEST(QueryPipeline, OutOfOrderRepliesByteIdentical) {
    // Producers reply with staggered delays chosen so that higher-rank
    // replies overtake lower-rank ones: ranks 0/1 (the metadata targets)
    // reply at once, and every intersect and data reply of rank 2 is
    // delayed past rank 3's, forcing reply order 0,1,3,2. The consumer's
    // any-source drain must reassemble a byte-identical buffer
    // regardless of arrival order.
    const std::uint64_t total = 4096;
    Options             opts;
    opts.mode           = workflow::Mode::in_situ();
    opts.runtime.faults = simmpi::FaultPlan::parse(
        "delay:tag=902,ms=80,rank=2;delay:tag=904,ms=80,rank=2;"
        "delay:tag=902,ms=40,rank=3;delay:tag=904,ms=40,rank=3");

    workflow::run(
        {
            {"producer", 4, [&](Context& ctx) { write_quarter(ctx, "ooo.h5", total); }},
            {"consumer", 2,
             [&](Context& ctx) {
                 File f = File::open("ooo.h5", ctx.vol);
                 auto vals = f.open_dataset("v").read_vector<std::uint64_t>();
                 ASSERT_EQ(vals.size(), total);
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(vals[i], i);
                 f.close();
                 // the read touched every producer's index block
                 EXPECT_EQ(ctx.vol->stats().n_intersect_queries, 4u);
                 EXPECT_EQ(ctx.vol->stats().n_data_queries, 4u);
             }},
        },
        {Link{0, 1, "*"}}, opts);
}

TEST(QueryPipeline, SecondReadHitsCacheZeroIntersects) {
    const std::uint64_t total = 1024;
    workflow::run(
        {
            {"producer", 2, [&](Context& ctx) { write_quarter(ctx, "cached.h5", total); }},
            {"consumer", 1,
             [&](Context& ctx) {
                 File f = File::open("cached.h5", ctx.vol);
                 auto d = f.open_dataset("v");

                 auto first = d.read_vector<std::uint64_t>();
                 const auto after_first = ctx.vol->stats();
                 EXPECT_GT(after_first.n_intersect_queries, 0u);
                 EXPECT_EQ(after_first.n_intersect_cache_hits, 0u);
                 EXPECT_EQ(after_first.n_intersect_cache_misses, 1u);

                 // the repeated read must skip the intersect round entirely
                 auto second = d.read_vector<std::uint64_t>();
                 const auto after_second = ctx.vol->stats();
                 EXPECT_EQ(after_second.n_intersect_queries, after_first.n_intersect_queries);
                 EXPECT_EQ(after_second.n_intersect_cache_hits, 1u);
                 EXPECT_EQ(after_second.n_intersect_cache_misses, 1u);

                 ASSERT_EQ(first, second);
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(first[i], i);
                 f.close();
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(QueryPipeline, CacheInvalidatedOnReopenAfterRewrite) {
    // The producer rewrites the file between the consumer's two opens;
    // the second read must re-run the intersect round (no stale cache)
    // and observe the new contents.
    const std::uint64_t total = 256;
    workflow::run(
        {
            {"producer", 2,
             [&](Context& ctx) {
                 write_quarter(ctx, "rw.h5", total); // values i
                 ctx.vol->drop_file("rw.h5");

                 // version 2: values i + 1000, written by the *opposite*
                 // rank so even the producer set changes
                 File f = File::create("rw.h5", ctx.vol);
                 auto d = f.create_dataset("v", dt::uint64(), Dataspace({total}));
                 const auto  per   = total / 2;
                 const int   other = 1 - ctx.rank();
                 Dataspace   sel({total});
                 diy::Bounds b(1);
                 b.min[0] = static_cast<std::int64_t>(per) * other;
                 b.max[0] = static_cast<std::int64_t>(per) * (other + 1);
                 sel.select_box(b);
                 std::vector<std::uint64_t> vals(per);
                 for (std::uint64_t i = 0; i < per; ++i)
                     vals[i] = static_cast<std::uint64_t>(b.min[0]) + i + 1000;
                 d.write(vals.data(), sel);
                 ctx.world.barrier(); // consumer finished round 1
                 f.close();
             }},
            {"consumer", 1,
             [&](Context& ctx) {
                 {
                     File f = File::open("rw.h5", ctx.vol);
                     auto v = f.open_dataset("v").read_vector<std::uint64_t>();
                     for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(v[i], i);
                     f.close();
                 }
                 ctx.world.barrier(); // producer may now close version 2
                 {
                     File f = File::open("rw.h5", ctx.vol);
                     auto v = f.open_dataset("v").read_vector<std::uint64_t>();
                     for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(v[i], i + 1000);
                     f.close();
                 }
                 // both reads ran the intersect round: the close of the
                 // first open invalidated the cached producer set
                 EXPECT_EQ(ctx.vol->stats().n_intersect_cache_hits, 0u);
                 EXPECT_EQ(ctx.vol->stats().n_intersect_cache_misses, 2u);
             }},
        },
        {Link{0, 1, "*"}});
}

TEST(QueryPipeline, SameVersionReopenHitsCache) {
    // The intersect cache is keyed by the producer's publish version, so
    // a plain close/reopen of an *unchanged* file keeps it warm: before
    // version keying the close wiped the cache wholesale and the second
    // open had to re-run the intersect round.
    const std::uint64_t total = 512;
    Options             opts;
    opts.background_serve = true; // keep serving across both opens
    workflow::run(
        {
            {"producer", 2,
             [&](Context& ctx) {
                 write_quarter(ctx, "warm.h5", total);
                 if (ctx.rank() == 0) ctx.world.recv_value<int>(2, 88);
                 ctx.local.barrier(); // both ranks outlive the reopen
             }},
            {"consumer", 1,
             [&](Context& ctx) {
                 {
                     File f = File::open("warm.h5", ctx.vol);
                     auto v = f.open_dataset("v").read_vector<std::uint64_t>();
                     for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(v[i], i);
                     f.close();
                 }
                 const auto mid = ctx.vol->stats();
                 EXPECT_EQ(mid.n_intersect_cache_misses, 1u);
                 EXPECT_EQ(mid.n_intersect_cache_hits, 0u);
                 {
                     File f = File::open("warm.h5", ctx.vol);
                     auto v = f.open_dataset("v").read_vector<std::uint64_t>();
                     for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(v[i], i);
                     f.close();
                 }
                 const auto after = ctx.vol->stats();
                 // same version ⇒ the cached producer set is still valid:
                 // no new intersect round, one cache hit
                 EXPECT_EQ(after.n_intersect_queries, mid.n_intersect_queries);
                 EXPECT_EQ(after.n_intersect_cache_hits, 1u);
                 EXPECT_EQ(after.n_intersect_cache_misses, 1u);
                 ctx.world.send_value(0, 88, 1); // producer may retire
             }},
        },
        {Link{0, 1, "*"}}, opts);
}

// --- kernel property tests ---------------------------------------------------

namespace {

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
    int axis;
    do {
        axis = static_cast<int>(rng() % static_cast<unsigned>(domain.dim));
    } while (domain.max[static_cast<std::size_t>(axis)] - domain.min[static_cast<std::size_t>(axis)] < 2);
    auto u   = static_cast<std::size_t>(axis);
    auto lo  = domain.min[u] + 1;
    auto cut = lo + static_cast<std::int64_t>(rng() % static_cast<unsigned>(domain.max[u] - lo));

    diy::Bounds left = domain, right = domain;
    left.max[u]  = cut;
    right.min[u] = cut;
    random_partition(rng, left, depth - 1, out);
    random_partition(rng, right, depth - 1, out);
}

} // namespace

class CoalescedKernelProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(CoalescedKernelProperty, KernelsByteMatchNaiveReference) {
    std::mt19937 rng(GetParam());
    const Extent dims{24 + rng() % 40, 16 + rng() % 32};
    diy::Bounds  domain(2);
    domain.max = {static_cast<std::int64_t>(dims[0]), static_cast<std::int64_t>(dims[1])};

    // the piece covers the whole domain as a shuffled disjoint partition,
    // so any `want` selection is covered
    std::vector<diy::Bounds> pboxes;
    random_partition(rng, domain, 4, pboxes);
    std::shuffle(pboxes.begin(), pboxes.end(), rng);
    Dataspace piece(dims);
    piece.select_none();
    for (const auto& b : pboxes) piece.add_box(b);

    // `want`: a random subset of an independent partition
    std::vector<diy::Bounds> wboxes;
    random_partition(rng, domain, 5, wboxes);
    Dataspace want(dims);
    want.select_none();
    for (const auto& b : wboxes)
        if (rng() % 2) want.add_box(b);
    if (want.npoints() == 0) return;

    const std::size_t      elem = sizeof(std::uint32_t);
    std::vector<std::byte> piece_packed(piece.npoints() * elem);
    for (std::size_t i = 0; i < piece_packed.size(); ++i)
        piece_packed[i] = static_cast<std::byte>((i * 13 + 7) & 0xff);

    // extract (the fused merge with the destination laid out as want) vs
    // the naive binary search
    std::vector<std::byte> got(want.npoints() * elem), ref;
    gather_scatter(piece.runs_by_file(), piece_packed.data(), want, want.runs_by_file(),
                   got.data(), elem);
    extract_from_packed_naive(piece, piece_packed.data(), want, elem, ref);
    ASSERT_EQ(got, ref);

    // scatter (the merge with the source laid out as want): write the
    // extracted bytes back through both kernels and compare destinations
    std::vector<std::byte> dst_got(piece_packed.size(), std::byte{0});
    std::vector<std::byte> dst_ref(piece_packed.size(), std::byte{0});
    gather_scatter(want.runs_by_file(), got.data(), want, piece.runs_by_file(), dst_got.data(),
                   elem);
    scatter_into_packed_naive(piece, dst_ref.data(), want, ref.data(), elem);
    ASSERT_EQ(dst_got, dst_ref);

    // extract_via_mapping: the piece's enumeration mapped into a larger
    // 1-d memory buffer at an offset
    const std::uint64_t pad = 5;
    Dataspace           mem(Extent{piece.npoints() + 2 * pad});
    diy::Bounds         mb(1);
    mb.min[0] = static_cast<std::int64_t>(pad);
    mb.max[0] = static_cast<std::int64_t>(pad + piece.npoints());
    mem.select_box(mb);
    std::vector<std::byte> membuf((piece.npoints() + 2 * pad) * elem);
    for (std::size_t i = 0; i < membuf.size(); ++i)
        membuf[i] = static_cast<std::byte>((i * 31 + 3) & 0xff);

    std::vector<std::byte> map_got, map_ref;
    extract_via_mapping(piece, mem, membuf.data(), want, elem, map_got);
    extract_via_mapping_naive(piece, mem, membuf.data(), want, elem, map_ref);
    ASSERT_EQ(map_got, map_ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescedKernelProperty, ::testing::Range(1u, 25u));

TEST(CoalescedRuns, SlabCoalescesToSingleRun) {
    // full rows of a slab merge into one run per slab
    Dataspace sp({16, 8});
    sp.select_box(std::array<std::uint64_t, 2>{4, 0}, std::array<std::uint64_t, 2>{6, 8});
    ASSERT_EQ(sp.runs().size(), 1u);
    EXPECT_EQ(sp.runs()[0].file_off, 32u);
    EXPECT_EQ(sp.runs()[0].len, 48u);
    EXPECT_EQ(sp.runs()[0].packed_off, 0u);
}

TEST(CoalescedRuns, CacheInvalidatedOnMutation) {
    Dataspace sp({8, 8});
    sp.select_box(std::array<std::uint64_t, 2>{0, 0}, std::array<std::uint64_t, 2>{2, 8});
    ASSERT_EQ(sp.runs().size(), 1u);
    sp.select_none();
    EXPECT_TRUE(sp.runs().empty());
    diy::Bounds b(2);
    b.min = {4, 2};
    b.max = {6, 5};
    sp.add_box(b);
    EXPECT_EQ(sp.runs().size(), 2u); // partial rows cannot merge
    // a copy shares the memoized runs but mutates independently
    Dataspace cp = sp;
    cp.select_all();
    EXPECT_EQ(cp.runs().size(), 1u);
    EXPECT_EQ(sp.runs().size(), 2u);
}
