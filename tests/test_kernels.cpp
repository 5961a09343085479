/// Property tests for the data-plane copy kernels: kern::copy_segments
/// across segment sizes and destination alignments, byte identity of the
/// selection kernels with their naive oracle across odd element widths
/// and degenerate selections, pool/inline identity, and schedule-hash
/// replay with the pool forced on under the deterministic scheduler.

#include <h5/copy.hpp>
#include <h5/par.hpp>
#include <lowfive/lowfive.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

using namespace h5;

namespace {

/// Restore the process-wide fan-out threshold on scope exit so a failing
/// assertion cannot leak a setting into later tests.
struct KernelEnvGuard {
    std::size_t thresh = par::parallel_threshold_bytes();
    ~KernelEnvGuard() { par::set_parallel_threshold_bytes(thresh); }
};

std::vector<std::byte> pattern_buffer(std::size_t n, unsigned salt) {
    std::vector<std::byte> buf(n);
    for (std::size_t i = 0; i < n; ++i)
        buf[i] = static_cast<std::byte>((i * 131 + salt * 17 + 7) & 0xff);
    return buf;
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

// --- kern:: copy primitives --------------------------------------------------

TEST(KernCopy, ByteIdentityAcrossSizesWithSentinels) {
    // one segment per size: small and odd lengths, every power-of-two
    // boundary up to 4 KiB, and both sides of the 4 MiB switch to the
    // non-temporal loop, whose memcpy head and tail depend on the
    // destination's offset from a 32-byte boundary
    std::vector<std::size_t> sizes;
    for (std::size_t n = 0; n <= 70; ++n) sizes.push_back(n);
    for (std::size_t n : {127u, 128u, 129u, 255u, 256u, 257u, 1000u, 4095u, 4096u, 4097u})
        sizes.push_back(n);
    sizes.push_back((1u << 16) + 3);
    for (std::size_t n : {(4u << 20) - 1, 4u << 20, (4u << 20) + 13}) sizes.push_back(n);

    constexpr std::size_t guard    = 64;
    const auto            sentinel = [](std::byte b) { return b == std::byte{0xEE}; };
    for (std::size_t n : sizes) {
        // n = 0 comes from an empty vector, whose data() may be null
        const auto src = pattern_buffer(n, static_cast<unsigned>(n));
        for (std::size_t off : {0u, 1u, 16u, 31u}) {
            // the segment starts `off` bytes past a 32-byte boundary
            std::vector<std::byte> dst(n + 3 * guard, std::byte{0xEE});
            const auto             base = reinterpret_cast<std::uintptr_t>(dst.data());
            const kern::Seg        seg{guard + (32 - base % 32) % 32 + off, 0, n};
            kern::copy_segments(dst.data(), src.data(), &seg, 1);
            const auto begin = dst.begin() + static_cast<std::ptrdiff_t>(seg.dst);
            const auto end   = begin + static_cast<std::ptrdiff_t>(n);
            ASSERT_TRUE(std::equal(src.begin(), src.end(), begin)) << "n=" << n << " off=" << off;
            ASSERT_TRUE(std::all_of(dst.begin(), begin, sentinel))
                << "n=" << n << " off=" << off << ": store before the segment";
            ASSERT_TRUE(std::all_of(end, dst.end(), sentinel))
                << "n=" << n << " off=" << off << ": store after the segment";
        }
    }
    const std::string name = kern::dispatch_name();
    EXPECT_TRUE(name == "avx2" || name == "memcpy") << name;
}

TEST(KernCopy, SegmentsIncludingZeroLength) {
    const auto             src = pattern_buffer(4096, 9);
    std::vector<std::byte> dst(4096, std::byte{0});
    std::vector<std::byte> ref(4096, std::byte{0});

    const std::vector<kern::Seg> segs{
        {0, 100, 7},    // odd length, unaligned source
        {7, 0, 0},      // zero-length: must be a no-op
        {10, 2000, 65}, // unaligned on both sides
        {100, 300, 1},  // single byte
        {200, 1024, 512},
    };
    kern::copy_segments(dst.data(), src.data(), segs.data(), segs.size());
    for (const auto& s : segs)
        std::memcpy(ref.data() + s.dst, src.data() + s.src, s.len);
    EXPECT_EQ(dst, ref);
}

// --- byte identity with the naive oracle -------------------------------------

namespace {

/// Run extract and scatter (gather_scatter with the destination, or the
/// source, laid out as the moved selection), extract_via_mapping, pack
/// and restore, and compare byte-for-byte against the naive oracle
/// outputs computed by the *_naive entry points.
void check_kernels_match_oracle(std::mt19937& rng, std::size_t elem) {
    const Extent dims{8 + rng() % 40, 4 + rng() % 32};
    diy::Bounds  domain(2);
    domain.max = {static_cast<std::int64_t>(dims[0]), static_cast<std::int64_t>(dims[1])};

    std::vector<diy::Bounds> pboxes;
    random_partition(rng, domain, 4, pboxes);
    std::shuffle(pboxes.begin(), pboxes.end(), rng);
    Dataspace piece(dims);
    piece.select_none();
    for (const auto& b : pboxes) piece.add_box(b);

    std::vector<diy::Bounds> wboxes;
    random_partition(rng, domain, 5, wboxes);
    Dataspace want(dims);
    want.select_none();
    for (const auto& b : wboxes)
        if (rng() % 2) want.add_box(b);

    const auto piece_packed = pattern_buffer(piece.npoints() * elem, 1);
    const auto full         = pattern_buffer(piece.extent_npoints() * elem, 2);

    std::vector<std::byte> ref_extract, ref_map;
    extract_from_packed_naive(piece, piece_packed.data(), want, elem, ref_extract);
    std::vector<std::byte> ref_scatter(piece_packed.size(), std::byte{0});
    scatter_into_packed_naive(piece, ref_scatter.data(), want, ref_extract.data(), elem);

    const std::uint64_t pad = 3;
    Dataspace           mem(Extent{piece.npoints() + 2 * pad});
    diy::Bounds         mb(1);
    mb.min[0] = static_cast<std::int64_t>(pad);
    mb.max[0] = static_cast<std::int64_t>(pad + piece.npoints());
    mem.select_box(mb);
    const auto membuf = pattern_buffer((piece.npoints() + 2 * pad) * elem, 3);
    extract_via_mapping_naive(piece, mem, membuf.data(), want, elem, ref_map);

    std::vector<std::byte> got(want.npoints() * elem);
    gather_scatter(piece.runs_by_file(), piece_packed.data(), want, want.runs_by_file(),
                   got.data(), elem);
    ASSERT_EQ(got, ref_extract) << "elem=" << elem;

    std::vector<std::byte> dst(piece_packed.size(), std::byte{0});
    gather_scatter(want.runs_by_file(), got.data(), want, piece.runs_by_file(), dst.data(), elem);
    ASSERT_EQ(dst, ref_scatter) << "elem=" << elem;

    std::vector<std::byte> map_got;
    extract_via_mapping(piece, mem, membuf.data(), want, elem, map_got);
    ASSERT_EQ(map_got, ref_map) << "elem=" << elem;

    // pack, then restore through the merge with mapped destination runs
    std::vector<std::byte> packed(piece.npoints() * elem);
    pack_selection(piece, full.data(), elem, packed.data());
    std::vector<std::byte> full2(full.size(), std::byte{0});
    gather_scatter(piece.runs_by_file(), packed.data(), piece, mapped_runs(piece, piece),
                   full2.data(), elem);
    std::vector<std::byte> repacked(packed.size(), std::byte{0xAB});
    pack_selection(piece, full2.data(), elem, repacked.data());
    ASSERT_EQ(repacked, packed) << "elem=" << elem;
}

} // namespace

// The suite names predate the removal of the selectable kernel modes;
// they are kept as stable test IDs. Each test now checks the one kernel
// implementation against the naive oracle.

class KernelModeProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(KernelModeProperty, AllModesByteIdenticalOddWidths) {
    // element widths 1..8 cover every 1–7 byte tail the width-specialized
    // kernels have to handle (and the word-multiple case)
    std::mt19937 rng(GetParam());
    for (std::size_t elem = 1; elem <= 8; ++elem) check_kernels_match_oracle(rng, elem);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelModeProperty, ::testing::Range(1u, 13u));

TEST(KernelModeEdge, EmptySelectionAllModes) {
    const Extent dims{16, 16};
    Dataspace    piece(dims); // everything selected
    Dataspace    want(dims);
    want.select_none();

    const auto             piece_packed = pattern_buffer(piece.npoints() * 4, 11);
    const auto             poison       = pattern_buffer(16, 12);
    std::vector<std::byte> out          = poison;
    gather_scatter(piece.runs_by_file(), piece_packed.data(), want, want.runs_by_file(),
                   out.data(), 4);
    EXPECT_EQ(out, poison); // untouched

    auto      dst = piece_packed;
    std::byte dummy{};
    gather_scatter(want.runs_by_file(), &dummy, want, piece.runs_by_file(), dst.data(), 4);
    EXPECT_EQ(dst, piece_packed); // untouched
}

TEST(KernelModeEdge, SingleElementRowsOddWidths) {
    // a checkerboard of 1×1 boxes: every coalesced run is one element, so
    // for elem 1..7 every copy is a sub-word tail
    const Extent dims{8, 8};
    Dataspace    piece(dims);
    piece.select_none();
    std::vector<diy::Bounds> cells;
    for (std::int64_t x = 0; x < 8; ++x)
        for (std::int64_t y = 0; y < 8; ++y) {
            diy::Bounds b(2);
            b.min = {x, y};
            b.max = {x + 1, y + 1};
            if ((x + y) % 2 == 0) piece.add_box(b);
            if ((x + y) % 4 == 0) cells.push_back(b);
        }
    Dataspace want(dims);
    want.select_none();
    for (const auto& b : cells) want.add_box(b);

    for (std::size_t elem = 1; elem <= 7; ++elem) {
        const auto packed = pattern_buffer(piece.npoints() * elem, static_cast<unsigned>(elem));
        std::vector<std::byte> ref;
        extract_from_packed_naive(piece, packed.data(), want, elem, ref);
        ASSERT_EQ(ref.size(), want.npoints() * elem);

        std::vector<std::byte> got(ref.size());
        gather_scatter(piece.runs_by_file(), packed.data(), want, want.runs_by_file(), got.data(),
                       elem);
        ASSERT_EQ(got, ref) << "elem=" << elem;

        std::vector<std::byte> dst_got(packed.size(), std::byte{0});
        std::vector<std::byte> dst_ref(packed.size(), std::byte{0});
        gather_scatter(want.runs_by_file(), got.data(), want, piece.runs_by_file(), dst_got.data(),
                       elem);
        scatter_into_packed_naive(piece, dst_ref.data(), want, ref.data(), elem);
        ASSERT_EQ(dst_got, dst_ref) << "elem=" << elem;
    }
}

// --- pool identity -----------------------------------------------------------

TEST(KernelPool, PoolOnOffByteIdentity) {
    if (par::workers() < 1) GTEST_SKIP() << "pool disabled (L5_DATA_THREADS=0 or 1 hw thread)";
    KernelEnvGuard guard;

    // 2 MiB across many runs: with a 1-byte threshold this fans out into
    // multiple chunks; the result must match the inline path
    const Extent dims{512, 1024}; // u32 elements -> 2 MiB full extent
    Dataspace    piece(dims);
    piece.select_none();
    for (std::int64_t x = 0; x < 512; x += 2) {
        diy::Bounds b(2);
        b.min = {x, 0};
        b.max = {x + 1, 1024};
        piece.add_box(b);
    }
    Dataspace want(dims);
    want.select_none();
    for (std::int64_t x = 0; x < 512; x += 4) {
        diy::Bounds b(2);
        b.min = {x, 128};
        b.max = {x + 1, 900};
        want.add_box(b);
    }
    const std::size_t elem   = 4;
    const auto        packed = pattern_buffer(piece.npoints() * elem, 21);

    // an extract and a scatter: gather_scatter with the destination, then
    // the source, laid out as want
    auto extract = [&](std::vector<std::byte>& out) {
        out.assign(want.npoints() * elem, std::byte{0});
        gather_scatter(piece.runs_by_file(), packed.data(), want, want.runs_by_file(), out.data(),
                       elem);
    };
    auto scatter = [&](const std::vector<std::byte>& sub_packed, std::vector<std::byte>& dst) {
        dst.assign(packed.size(), std::byte{0});
        gather_scatter(want.runs_by_file(), sub_packed.data(), want, piece.runs_by_file(),
                       dst.data(), elem);
    };

    par::set_parallel_threshold_bytes(SIZE_MAX); // every transfer inline
    std::vector<std::byte> ref, dst_ref;
    extract(ref);
    scatter(ref, dst_ref);

    par::set_parallel_threshold_bytes(1);
    std::vector<std::byte> got, dst_got;
    extract(got);
    ASSERT_EQ(got, ref);
    scatter(got, dst_got);
    ASSERT_EQ(dst_got, dst_ref);
}

TEST(KernelPool, ParallelForExceptionPropagates) {
    if (par::workers() < 1) GTEST_SKIP() << "pool disabled";
    EXPECT_THROW(
        par::parallel_for(8,
                          [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("chunk failed");
                          }),
        std::runtime_error);
    // the pool must still be usable after a failed job
    std::atomic<int> hits{0};
    par::parallel_for(8, [&](std::size_t) { hits.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(hits.load(), 8);
}

// --- deterministic replay with the pool enabled ------------------------------

namespace {

/// The canonical serve-plane workflow with every transfer forced through
/// the pool: the schedule hash must replay exactly (pool participants
/// spawn/join at deterministic points).
std::uint64_t pooled_replay_run(std::uint64_t seed) {
    workflow::Options opts;
    opts.mode = workflow::Mode::in_situ();
    simmpi::SchedConfig sc;
    sc.seed            = seed;
    sc.policy          = simmpi::SchedConfig::Policy::random;
    sc.depth           = 3;
    opts.runtime.sched = sc;

    const h5::Extent dims{24, 24};
    workflow::run(
        {
            {"producer", 2,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create("pool_replay.h5", ctx.vol);
                 auto d = f.create_dataset("g", h5::dt::uint64(), h5::Dataspace(dims));
                 diy::Bounds domain(2);
                 domain.max = {24, 24};
                 diy::RegularDecomposer dec(domain, ctx.size());
                 auto          mine = dec.block_bounds(ctx.rank());
                 h5::Dataspace sel(dims);
                 sel.select_box(mine);
                 std::vector<std::uint64_t> vals(sel.npoints());
                 std::size_t                k = 0;
                 for (auto x = mine.min[0]; x < mine.max[0]; ++x)
                     for (auto y = mine.min[1]; y < mine.max[1]; ++y)
                         vals[k++] = static_cast<std::uint64_t>(x * 24 + y);
                 d.write(vals.data(), sel);
                 f.close();
             }},
            {"consumer", 2,
             [&](workflow::Context& ctx) {
                 h5::File f    = h5::File::open("pool_replay.h5", ctx.vol);
                 auto     vals = f.open_dataset("g").read_vector<std::uint64_t>();
                 for (std::size_t i = 0; i < vals.size(); ++i)
                     ASSERT_EQ(vals[i], i) << "seed " << seed;
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}}, opts);
    return simmpi::last_schedule_hash();
}

} // namespace

TEST(KernelPool, ScheduleHashReplaysWithPoolEnabled) {
    if (par::workers() < 1) GTEST_SKIP() << "pool disabled";
    KernelEnvGuard guard;
    par::set_parallel_threshold_bytes(1); // every transfer fans out

    for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
        const auto a = pooled_replay_run(seed);
        const auto b = pooled_replay_run(seed);
        EXPECT_NE(a, 0u) << "seed " << seed << ": scheduler did not run";
        EXPECT_EQ(a, b) << "seed " << seed << ": schedule failed to replay with pool on";
    }
}
