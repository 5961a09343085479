/// Tests for the data-reply pieces of the serve data plane: a piece
/// travels inline in the reply (enc 0) or as an aliased packed buffer
/// (enc 2, zero-copy), for whole pieces and for the partial pieces of
/// crossing decompositions; malformed aliased headers and unknown
/// encodings are refused before any byte is copied.

#include <diy/serialization.hpp>
#include <lowfive/lowfive.hpp>
#include <simmpi/simmpi.hpp>
#include <workflow/workflow.hpp>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

// --- zero-copy serve path (enc == 2 aliased payloads) -------------------------

TEST(ZeroCopyServe, FullPieceReadAliasesBuffer) {
    // a whole-piece read of a Deep piece goes out as an aliased payload
    // message (no serve-side copy); the consumer must still see
    // byte-identical data
    const std::uint64_t total = 1u << 15; // 256 KiB of u64
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create("zc.h5", ctx.vol);
                 auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({total}));
                 std::vector<std::uint64_t> vals(total);
                 for (std::uint64_t i = 0; i < total; ++i) vals[i] = i * 3 + 1;
                 d.write(vals.data(), h5::Dataspace({total}));
                 f.close();
                 const auto st = ctx.vol->stats();
                 EXPECT_GT(st.n_zero_copy_pieces, 0u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f    = h5::File::open("zc.h5", ctx.vol);
                 auto     vals = f.open_dataset("v").read_vector<std::uint64_t>();
                 ASSERT_EQ(vals.size(), total);
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(vals[i], i * 3 + 1);
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

TEST(ZeroCopyServe, PartialCoverageHolesReadZero) {
    // the producer writes only the first half of the dataset; a read of
    // the whole extent receives the written half as an aliased payload
    // (sub equals the piece) and must still fill the unwritten half with
    // zeros — the read assembly's lazy fill
    const std::uint64_t total = 1u << 15;
    const std::uint64_t half  = total / 2;
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create("zc_holes.h5", ctx.vol);
                 auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({total}));
                 h5::Dataspace sel({total});
                 diy::Bounds   b(1);
                 b.min[0] = 0;
                 b.max[0] = static_cast<std::int64_t>(half);
                 sel.select_box(b);
                 std::vector<std::uint64_t> vals(half);
                 for (std::uint64_t i = 0; i < half; ++i) vals[i] = i + 7;
                 d.write(vals.data(), sel);
                 f.close();
                 EXPECT_GT(ctx.vol->stats().n_zero_copy_pieces, 0u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::open("zc_holes.h5", ctx.vol);
                 // poisoned destination: every byte must be overwritten
                 // (data or zero fill), nothing may leak through
                 std::vector<std::uint64_t> vals(total, ~0ull);
                 auto d = f.open_dataset("v");
                 d.read(vals.data(), h5::Dataspace({total}), h5::Dataspace({total}));
                 for (std::uint64_t i = 0; i < half; ++i) ASSERT_EQ(vals[i], i + 7);
                 for (std::uint64_t i = half; i < total; ++i) ASSERT_EQ(vals[i], 0u);
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

TEST(ZeroCopyServe, ShallowPiecesServeWithoutAliasing) {
    // set_zerocopy (user-buffer ownership) is the *write-side* zero-copy:
    // the piece references user memory with no packed vector to alias on
    // the wire, so the serve-side zero-copy must decline and extract
    const std::uint64_t total = 1u << 15;
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 ctx.vol->set_zerocopy("*", "*");
                 h5::File f = h5::File::create("zc_shallow.h5", ctx.vol);
                 auto d = f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({total}));
                 std::vector<std::uint64_t> vals(total);
                 for (std::uint64_t i = 0; i < total; ++i) vals[i] = i ^ 0x5a5a;
                 d.write(vals.data(), h5::Dataspace({total}));
                 f.close(); // vals must stay alive through the serve
                 EXPECT_EQ(ctx.vol->stats().n_zero_copy_pieces, 0u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f    = h5::File::open("zc_shallow.h5", ctx.vol);
                 auto     vals = f.open_dataset("v").read_vector<std::uint64_t>();
                 for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(vals[i], i ^ 0x5a5a);
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

// --- aliased partial pieces (crossing decompositions) ------------------------
//
// Producers write x-slabs of an n x n u64 grid, consumers read y-slabs:
// every piece a producer serves is partial, the paper's headline layout.

namespace {

constexpr std::uint64_t cross_n = 256; // 512 KiB grid; a slab crossing is 128 KiB

std::uint64_t cross_value(std::int64_t x, std::int64_t y) {
    return static_cast<std::uint64_t>(x) * 1000003u + static_cast<std::uint64_t>(y) * 7u + 11u;
}

/// Slab r of `parts` along `axis` (0: x-slab, 1: y-slab) of the grid.
diy::Bounds cross_slab(int axis, int r, int parts) {
    diy::Bounds b(2);
    b.min = {0, 0};
    b.max = {static_cast<std::int64_t>(cross_n), static_cast<std::int64_t>(cross_n)};
    const auto u = static_cast<std::size_t>(axis);
    b.min[u]     = static_cast<std::int64_t>(cross_n) * r / parts;
    b.max[u]     = static_cast<std::int64_t>(cross_n) * (r + 1) / parts;
    return b;
}

h5::Dataspace cross_selection(const diy::Bounds& b) {
    h5::Dataspace sel({cross_n, cross_n});
    sel.select_box(b);
    return sel;
}

/// Write this producer rank's x-slab of dataset "g" and close the file,
/// which serves every consumer query.
void write_x_slab(workflow::Context& ctx, const std::string& fname) {
    h5::File   f    = h5::File::create(fname, ctx.vol);
    auto       d    = f.create_dataset("g", h5::dt::uint64(), h5::Dataspace({cross_n, cross_n}));
    const auto mine = cross_slab(0, ctx.rank(), ctx.size());
    std::vector<std::uint64_t> vals;
    vals.reserve(mine.size());
    for (auto x = mine.min[0]; x < mine.max[0]; ++x)
        for (auto y = mine.min[1]; y < mine.max[1]; ++y) vals.push_back(cross_value(x, y));
    d.write(vals.data(), cross_selection(mine));
    f.close(); // vals outlive the serve, as Shallow pieces require
}

/// Read this consumer rank's y-slab of "g" and check every element.
void read_y_slab(workflow::Context& ctx, const std::string& fname) {
    h5::File   f    = h5::File::open(fname, ctx.vol);
    const auto mine = cross_slab(1, ctx.rank(), ctx.size());
    auto       vals = f.open_dataset("g").read_vector<std::uint64_t>(cross_selection(mine));
    std::size_t k   = 0;
    for (auto x = mine.min[0]; x < mine.max[0]; ++x)
        for (auto y = mine.min[1]; y < mine.max[1]; ++y, ++k)
            ASSERT_EQ(vals[k], cross_value(x, y)) << "at (" << x << ", " << y << ")";
    f.close();
}

} // namespace

TEST(ZeroCopyServe, CrossingSlabsAliasPartialPieces) {
    // each producer's x-slab is wanted half by each consumer: both halves
    // go out as aliases of the one packed buffer, and bytes_served counts
    // the wanted bytes, not the aliased buffer twice over
    workflow::run(
        {
            {"producer", 2,
             [&](workflow::Context& ctx) {
                 write_x_slab(ctx, "zc_cross.h5");
                 const auto          st   = ctx.vol->stats();
                 const std::uint64_t want = cross_n * cross_n / 4 * 8; // per consumer
                 EXPECT_EQ(st.n_zero_copy_pieces, 2u);
                 EXPECT_EQ(st.bytes_served, 2 * want);
             }},
            {"consumer", 2, [&](workflow::Context& ctx) { read_y_slab(ctx, "zc_cross.h5"); }},
        },
        {workflow::Link{0, 1, "*"}});
}

TEST(ZeroCopyServe, CrossingSlabsHolesReadZero) {
    // one producer writes the lower x half; a y-slab read takes the
    // crossing part of that piece as an alias and must zero the
    // unwritten half of a poisoned destination
    const std::int64_t n = static_cast<std::int64_t>(cross_n);
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 h5::File f = h5::File::create("zc_cross_holes.h5", ctx.vol);
                 auto d = f.create_dataset("g", h5::dt::uint64(), h5::Dataspace({cross_n, cross_n}));
                 const auto lower = cross_slab(0, 0, 2);
                 std::vector<std::uint64_t> vals;
                 for (auto x = lower.min[0]; x < lower.max[0]; ++x)
                     for (auto y = lower.min[1]; y < lower.max[1]; ++y) vals.push_back(cross_value(x, y));
                 d.write(vals.data(), cross_selection(lower));
                 f.close();
                 EXPECT_EQ(ctx.vol->stats().n_zero_copy_pieces, 1u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File   f    = h5::File::open("zc_cross_holes.h5", ctx.vol);
                 const auto want = cross_slab(1, 0, 2);
                 const auto sel  = cross_selection(want);
                 std::vector<std::uint64_t> vals(sel.npoints(), ~0ull);
                 f.open_dataset("g").read(vals.data(), sel);
                 std::size_t k = 0;
                 for (auto x = want.min[0]; x < want.max[0]; ++x)
                     for (auto y = want.min[1]; y < want.max[1]; ++y, ++k)
                         ASSERT_EQ(vals[k], x < n / 2 ? cross_value(x, y) : 0u)
                             << "at (" << x << ", " << y << ")";
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

TEST(ZeroCopyServe, StridedMemspaceStagesAliasedPieces) {
    // a memory selection that is not one contiguous run (padded rows):
    // aliased pieces merge straight into the caller's buffer along the
    // mapped runs, and the padding must stay untouched. With holes (one
    // producer writes only the lower x half) the unwritten half must read
    // 0 while the padding still keeps its poison. (The name predates the
    // one read path; it is kept as a stable test ID.)
    constexpr std::uint64_t pad = 5;
    const std::int64_t      n   = static_cast<std::int64_t>(cross_n);
    for (const bool holes : {false, true}) {
        const std::string fname = holes ? "zc_cross_strided_holes.h5" : "zc_cross_strided.h5";
        workflow::run(
            {
                {"producer", holes ? 1 : 2,
                 [&](workflow::Context& ctx) {
                     if (!holes) {
                         write_x_slab(ctx, fname);
                     } else {
                         h5::File f = h5::File::create(fname, ctx.vol);
                         auto     d = f.create_dataset("g", h5::dt::uint64(),
                                                       h5::Dataspace({cross_n, cross_n}));
                         const auto                 lower = cross_slab(0, 0, 2);
                         std::vector<std::uint64_t> vals;
                         for (auto x = lower.min[0]; x < lower.max[0]; ++x)
                             for (auto y = lower.min[1]; y < lower.max[1]; ++y)
                                 vals.push_back(cross_value(x, y));
                         d.write(vals.data(), cross_selection(lower));
                         f.close();
                     }
                     EXPECT_EQ(ctx.vol->stats().n_zero_copy_pieces, 1u);
                 }},
                {"consumer", 1,
                 [&](workflow::Context& ctx) {
                     h5::File      f    = h5::File::open(fname, ctx.vol);
                     const auto    want = cross_slab(1, 0, 2);
                     const auto    cols = static_cast<std::uint64_t>(want.max[1] - want.min[1]);
                     h5::Dataspace mem({cross_n, cols + pad});
                     diy::Bounds   rows(2);
                     rows.min = {0, 0};
                     rows.max = {n, static_cast<std::int64_t>(cols)};
                     mem.select_box(rows);
                     ASSERT_GT(mem.runs().size(), 1u) << "memspace must not be one run";
                     std::vector<std::uint64_t> buf(cross_n * (cols + pad), ~0ull);
                     f.open_dataset("g").read(buf.data(), mem, cross_selection(want));
                     for (std::uint64_t x = 0; x < cross_n; ++x)
                         for (std::uint64_t c = 0; c < cols + pad; ++c) {
                             const auto xi = static_cast<std::int64_t>(x);
                             const auto y  = want.min[1] + static_cast<std::int64_t>(c);
                             const auto expect = c >= cols                 ? ~0ull // padding
                                                 : holes && xi >= n / 2 ? 0u    // hole
                                                                        : cross_value(xi, y);
                             ASSERT_EQ(buf[x * (cols + pad) + c], expect)
                                 << "at row " << x << ", column " << c;
                         }
                     f.close();
                 }},
            },
            {workflow::Link{0, 1, "*"}});
    }
}

TEST(ZeroCopyServe, ShallowPartialPiecesExtract) {
    // Shallow (set_zerocopy) pieces have no packed buffer to alias: the
    // crossing parts are extracted from user memory as before
    workflow::run(
        {
            {"producer", 2,
             [&](workflow::Context& ctx) {
                 ctx.vol->set_zerocopy("*", "*");
                 write_x_slab(ctx, "zc_cross_shallow.h5");
                 EXPECT_EQ(ctx.vol->stats().n_zero_copy_pieces, 0u);
             }},
            {"consumer", 2, [&](workflow::Context& ctx) { read_y_slab(ctx, "zc_cross_shallow.h5"); }},
        },
        {workflow::Link{0, 1, "*"}});
}

namespace {

/// One producer writes the whole grid as a single piece; one consumer
/// reads it through a two-box selection (left columns, then right), so
/// the wanted elements equal the piece's but in another order.
void read_whole_piece_in_two_boxes(const std::string& fname) {
    workflow::run(
        {
            {"producer", 1,
             [&](workflow::Context& ctx) {
                 write_x_slab(ctx, fname);
                 EXPECT_EQ(ctx.vol->stats().n_zero_copy_pieces, 1u);
             }},
            {"consumer", 1,
             [&](workflow::Context& ctx) {
                 h5::File      f = h5::File::open(fname, ctx.vol);
                 h5::Dataspace sel({cross_n, cross_n});
                 sel.select_none();
                 sel.add_box(cross_slab(1, 0, 2));
                 sel.add_box(cross_slab(1, 1, 2));
                 auto        vals = f.open_dataset("g").read_vector<std::uint64_t>(sel);
                 std::size_t k    = 0;
                 for (const auto& b : sel.boxes())
                     for (auto x = b.min[0]; x < b.max[0]; ++x)
                         for (auto y = b.min[1]; y < b.max[1]; ++y, ++k)
                             ASSERT_EQ(vals[k], cross_value(x, y)) << "at (" << x << ", " << y << ")";
                 f.close();
             }},
        },
        {workflow::Link{0, 1, "*"}});
}

} // namespace

TEST(ZeroCopyServe, TwoBoxQueryOverWholePiece) {
    read_whole_piece_in_two_boxes("zc_two_box.h5");
}

TEST(ZeroCopyServe, AliasedPartialPiecesSurviveRewrites) {
    // background serving while producers rewrite the file: a consumer
    // copies out of an aliased piece buffer on its own thread, possibly
    // after its producer published the next version and dropped the one
    // being read; the payload's snapshot reference keeps those bytes
    // valid, and every read sees exactly one round
    constexpr std::uint64_t n = 16, stride = 1'000'003;
    constexpr int           rounds = 6;
    workflow::Options       opts;
    opts.mode             = workflow::Mode::in_situ();
    opts.background_serve = true;
    auto slab = [](int axis, int r) {
        diy::Bounds b(2);
        b.min                               = {0, 0};
        b.max                               = {n, n};
        b.min[static_cast<std::size_t>(axis)] = static_cast<std::int64_t>(n / 2) * r;
        b.max[static_cast<std::size_t>(axis)] = static_cast<std::int64_t>(n / 2) * (r + 1);
        return b;
    };
    auto value = [](std::uint64_t round, std::int64_t x, std::int64_t y) {
        return round * stride + static_cast<std::uint64_t>(x) * n + static_cast<std::uint64_t>(y);
    };
    workflow::run(
        {
            {"producer", 2,
             [&](workflow::Context& ctx) {
                 const auto mine = slab(0, ctx.rank());
                 h5::Dataspace sel({n, n});
                 sel.select_box(mine);
                 for (std::uint64_t r = 1; r <= rounds; ++r) {
                     h5::File f = h5::File::create("zc_rewrite.h5", ctx.vol);
                     auto d = f.create_dataset("g", h5::dt::uint64(), h5::Dataspace({n, n}));
                     std::vector<std::uint64_t> vals;
                     for (auto x = mine.min[0]; x < mine.max[0]; ++x)
                         for (auto y = mine.min[1]; y < mine.max[1]; ++y) vals.push_back(value(r, x, y));
                     d.write(vals.data(), sel);
                     f.close(); // publishes; the serve thread answers from here on
                 }
                 ctx.vol->finish_serving();
                 EXPECT_GT(ctx.vol->stats().n_zero_copy_pieces, 0u);
             }},
            {"consumer", 2,
             [&](workflow::Context& ctx) {
                 const auto    want = slab(1, ctx.rank());
                 h5::Dataspace sel({n, n});
                 sel.select_box(want);
                 std::uint64_t prev = 0;
                 for (int i = 0; i < rounds; ++i) {
                     h5::File f    = h5::File::open("zc_rewrite.h5", ctx.vol);
                     auto     vals = f.open_dataset("g").read_vector<std::uint64_t>(sel);
                     const std::uint64_t r = vals[0] / stride;
                     EXPECT_GE(r, prev) << "versions a rank sees are monotone";
                     prev          = r;
                     std::size_t k = 0;
                     for (auto x = want.min[0]; x < want.max[0]; ++x)
                         for (auto y = want.min[1]; y < want.max[1]; ++y, ++k)
                             ASSERT_EQ(vals[k], value(r, x, y)) << "torn read in round " << r;
                     f.close();
                 }
             }},
        },
        {workflow::Link{0, 1, "*"}}, opts);
}

TEST(ZeroCopyServe, MalformedAliasedReplyThrowsBeforeCopy) {
    // a Deep x-slab piece of a 16 x 16 u64 grid, and the part of it that
    // a consumer's y-slab wants: the header locates that part in the
    // piece's packed buffer; every malformed variant must be refused
    // before a byte reaches the (poisoned) destination
    const h5::Extent dims{16, 16};
    diy::Bounds      piece_box(2), want_box(2), slab(2);
    piece_box.min = {0, 0};
    piece_box.max = {8, 16};
    want_box.min  = {0, 0};
    want_box.max  = {8, 8};
    slab.min      = {0, 0};
    slab.max      = {16, 8};
    h5::Dataspace sub(dims), filespace(dims);
    sub.select_box(want_box);
    filespace.select_box(slab); // the consumer's y-slab

    std::vector<std::uint64_t> piece(piece_box.size());
    for (std::size_t i = 0; i < piece.size(); ++i) piece[i] = 1000 + i; // row-major in the box
    const std::uint64_t payload_bytes = piece.size() * 8;

    auto header = [](std::vector<h5::PackedBox> where) {
        diy::BinaryBuffer bb;
        lowfive::wire::save_aliased_header(bb, where);
        return bb;
    };
    std::vector<std::uint64_t> dst(filespace.npoints(), ~0ull);
    // what the consumer does with an aliased piece: decode, then merge
    auto receive = [&](diy::BinaryBuffer bb, std::uint64_t bytes, const h5::Dataspace& s) {
        const auto runs = lowfive::wire::load_aliased_header(bb, s, bytes, 8);
        h5::gather_scatter(runs, piece.data(), s, filespace.runs_by_file(), dst.data(), 8);
    };
    auto untouched = [&] {
        return std::all_of(dst.begin(), dst.end(), [](std::uint64_t v) { return v == ~0ull; });
    };

    // payload one element short of the enclosing box
    EXPECT_THROW(receive(header({{piece_box, 0}}), payload_bytes - 8, sub), h5::Error);
    // offset that pushes the enclosing box past the payload
    EXPECT_THROW(receive(header({{piece_box, 1}}), payload_bytes, sub), h5::Error);
    EXPECT_THROW(receive(header({{piece_box, ~0ull}}), payload_bytes, sub), h5::Error);
    // enclosing box that does not contain the wanted box
    diy::Bounds narrow = piece_box;
    narrow.max[1]      = 4;
    EXPECT_THROW(receive(header({{narrow, 0}}), payload_bytes, sub), h5::Error);
    // enclosing box outside the extent, or of another rank
    diy::Bounds outside = piece_box;
    outside.max[1]      = 17;
    EXPECT_THROW(receive(header({{outside, 0}}), payload_bytes, sub), h5::Error);
    diy::Bounds flat(1);
    flat.max[0] = 128;
    EXPECT_THROW(receive(header({{flat, 0}}), payload_bytes, sub), h5::Error);
    // box count that does not match the sub-selection
    EXPECT_THROW(receive(header({}), payload_bytes, sub), h5::Error);
    EXPECT_THROW(receive(header({{piece_box, 0}, {piece_box, 0}}), payload_bytes, sub), h5::Error);
    // a header cut short
    auto cut = header({{piece_box, 0}});
    cut.mutable_data().resize(cut.size() - 3);
    EXPECT_THROW(receive(cut, payload_bytes, sub), std::out_of_range);
    // a wanted element outside the consumer's selection: planned, refused
    h5::Dataspace beyond(dims);
    beyond.select_box(piece_box);
    EXPECT_THROW(receive(header({{piece_box, 0}}), payload_bytes, beyond), h5::Error);
    EXPECT_TRUE(untouched()) << "a refused reply wrote to the destination";

    // the well-formed reply copies exactly the wanted elements
    receive(header({{piece_box, 0}}), payload_bytes, sub);
    for (std::int64_t x = 0; x < 16; ++x)
        for (std::int64_t y = 0; y < 8; ++y) {
            const auto got = dst[static_cast<std::size_t>(x * 8 + y)];
            if (x < 8)
                ASSERT_EQ(got, 1000u + static_cast<std::uint64_t>(x * 16 + y));
            else
                ASSERT_EQ(got, ~0ull);
        }
}

TEST(ZeroCopyServe, UnknownPieceEncodingThrowsBeforeCopy) {
    // a data-reply piece is inline (enc 0) or aliased (enc 2); anything
    // else must be refused before a byte reaches the (poisoned)
    // destination. Rank 0 is a hand-written producer speaking the wire
    // protocol; rank 1 is a DistMetadataVol consumer.
    namespace wire = lowfive::wire;

    constexpr std::uint64_t n = 64;
    for (const std::uint8_t enc : {std::uint8_t{1}, std::uint8_t{7}}) {
        SCOPED_TRACE("encoding " + std::to_string(enc));
        simmpi::Runtime::run(2, [&](simmpi::Comm& world) {
            simmpi::Comm     local = world.split(world.rank());
            std::vector<int> prod{0}, cons{1};
            simmpi::Comm     ic = simmpi::Comm::create_intercomm(world, prod, cons);
            if (world.rank() == 0) {
                auto request = [&] {
                    auto bb  = wire::recv_buffer(ic, 0, wire::tag_request);
                    auto req = wire::decode_request(bb);
                    EXPECT_TRUE(req.has_value());
                    return req.value_or(wire::Request{});
                };
                // MetadataQuery: version 1 of a file holding one dataset
                EXPECT_TRUE(std::holds_alternative<wire::MetadataQuery>(request()));
                auto  root = std::make_shared<h5::Object>(h5::ObjectKind::File, "enc.h5");
                auto* v    = root->add_child(
                    std::make_unique<h5::Object>(h5::ObjectKind::Dataset, "v"));
                v->type  = h5::dt::uint64();
                v->space = h5::Dataspace({n});
                wire::send(ic, 0, wire::MetadataReply{1, root});
                // IntersectQuery: this rank holds the data
                const auto iq = std::get<wire::IntersectQuery>(request());
                wire::send(ic, 0, wire::IntersectReply{iq.req_id, {0}});
                // DataQuery: one whole-extent piece, its bytes inline
                // behind an encoding byte that is neither 0 nor 2
                const auto        dq = std::get<wire::DataQuery>(request());
                diy::BinaryBuffer data;
                wire::encode(data, wire::DataReplyHead{dq.req_id, 1});
                wire::encode(data, wire::PieceHead{h5::Dataspace({n}), n * 8, wire::PieceEncoding{enc}});
                for (std::uint64_t i = 0; i < n; ++i) data.save<std::uint64_t>(1000 + i);
                wire::send_data_reply(ic, 0, std::move(data), {});
                EXPECT_TRUE(std::holds_alternative<wire::Done>(request()));
            } else {
                auto vol = std::make_shared<lowfive::DistMetadataVol>(local);
                vol->consume_from(ic);
                h5::File                   f = h5::File::open("enc.h5", vol);
                std::vector<std::uint64_t> buf(n, ~0ull);
                EXPECT_THROW(f.open_dataset("v").read(buf.data(), h5::Dataspace({n}),
                                                      h5::Dataspace({n})),
                             h5::Error);
                EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                                        [](std::uint64_t x) { return x == ~0ull; }))
                    << "a refused piece wrote to the destination";
                f.close(); // Done
            }
        });
    }
}
