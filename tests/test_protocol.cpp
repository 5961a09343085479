/// Tests for the distributed VOL's wire protocol (lowfive::wire): every
/// message encodes to exactly the bytes of its layout (built here field by
/// field with BinaryBuffer), requests round-trip, an unknown op decodes to
/// no request, malformed lengths throw before allocating, and a live
/// serve loop drops and counts requests that do not decode or release no
/// held step, and keeps serving.

#include <diy/serialization.hpp>
#include <lowfive/lowfive.hpp>
#include <simmpi/simmpi.hpp>

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace wire = lowfive::wire;

namespace {

diy::Bounds box(std::int64_t x0, std::int64_t x1, std::int64_t y0, std::int64_t y1) {
    diy::Bounds b(2);
    b.min = {x0, y0};
    b.max = {x1, y1};
    return b;
}

h5::Dataspace two_boxes() {
    h5::Dataspace s({16, 8});
    s.select_none();
    s.add_box(box(0, 4, 0, 8));
    s.add_box(box(8, 12, 2, 6));
    return s;
}

/// The requests of every op, with non-default values in every field.
std::vector<wire::Request> sample_requests() {
    return {
        wire::MetadataQuery{"f.h5"},
        wire::IntersectQuery{7, "f.h5", "/g/d", 3, box(1, 5, 2, 6)},
        wire::DataQuery{8, "f.h5", "/g/d", 3, two_boxes()},
        wire::Done{"f.h5", 5},
        wire::StepNext{"s", 2},
        wire::StepPin{"s", 4},
        wire::StepRelease{"s", 4, true},
        wire::StreamDone{"s"},
    };
}

std::vector<std::byte> bytes(diy::BinaryBuffer&& bb) { return std::move(bb).take(); }

} // namespace

TEST(Protocol, RequestsEncodeToTheirFieldByFieldLayout) {
    // op byte, then the fields in the order the serve handlers read them
    const auto reqs = sample_requests();
    std::vector<diy::BinaryBuffer> want(reqs.size());

    want[0].save<std::uint8_t>(1);
    want[0].save(std::string("f.h5"));

    want[1].save<std::uint8_t>(2);
    want[1].save<std::uint64_t>(7);
    want[1].save(std::string("f.h5"));
    want[1].save(std::string("/g/d"));
    want[1].save<std::uint64_t>(3);
    box(1, 5, 2, 6).save(want[1]);

    want[2].save<std::uint8_t>(3);
    want[2].save<std::uint64_t>(8);
    want[2].save(std::string("f.h5"));
    want[2].save(std::string("/g/d"));
    want[2].save<std::uint64_t>(3);
    two_boxes().save(want[2]);

    want[3].save<std::uint8_t>(4);
    want[3].save(std::string("f.h5"));
    want[3].save<std::uint64_t>(5);

    want[4].save<std::uint8_t>(5);
    want[4].save(std::string("s"));
    want[4].save<std::uint64_t>(2);

    want[5].save<std::uint8_t>(6);
    want[5].save(std::string("s"));
    want[5].save<std::uint64_t>(4);

    want[6].save<std::uint8_t>(7);
    want[6].save(std::string("s"));
    want[6].save<std::uint64_t>(4);
    want[6].save<std::uint8_t>(1); // rollback

    want[7].save<std::uint8_t>(8);
    want[7].save(std::string("s"));

    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(wire::encode(reqs[i]), bytes(std::move(want[i]))) << "op " << i + 1;

    // a real release writes 0
    diy::BinaryBuffer rel;
    rel.save<std::uint8_t>(7);
    rel.save(std::string("s"));
    rel.save<std::uint64_t>(4);
    rel.save<std::uint8_t>(0);
    EXPECT_EQ(wire::encode(wire::StepRelease{"s", 4, false}), bytes(std::move(rel)));
}

TEST(Protocol, RepliesEncodeToTheirFieldByFieldLayout) {
    diy::BinaryBuffer ir;
    ir.save<std::uint64_t>(7);
    ir.save(std::vector<std::int32_t>{0, 2, 3});
    EXPECT_EQ(wire::encode(wire::IntersectReply{7, {0, 2, 3}}), bytes(std::move(ir)));

    diy::BinaryBuffer granted, eos;
    granted.save<std::uint8_t>(0);
    granted.save<std::uint64_t>(9);
    eos.save<std::uint8_t>(1);
    eos.save<std::uint64_t>(0);
    EXPECT_EQ(wire::encode(wire::StepGrant{false, 9}), bytes(std::move(granted)));
    EXPECT_EQ(wire::encode(wire::StepGrant{true, 0}), bytes(std::move(eos)));

    // "gone" is byte 2, not a bool's 1
    EXPECT_EQ(wire::encode(wire::PinReply{wire::PinStatus::pinned}),
              std::vector<std::byte>{std::byte{0}});
    EXPECT_EQ(wire::encode(wire::PinReply{wire::PinStatus::gone}),
              std::vector<std::byte>{std::byte{2}});

    diy::BinaryBuffer ready;
    ready.save(std::string("f.h5"));
    EXPECT_EQ(wire::encode(wire::Ready{"f.h5"}), bytes(std::move(ready)));

    // a data reply: head, then per piece the sub-selection, its byte
    // count and the encoding byte
    diy::BinaryBuffer data;
    data.save<std::uint64_t>(11);
    data.save<std::uint64_t>(1);
    two_boxes().save(data);
    data.save<std::uint64_t>(48 * 4);
    data.save<std::uint8_t>(2);
    diy::BinaryBuffer got;
    wire::encode(got, wire::DataReplyHead{11, 1});
    wire::encode(got, wire::PieceHead{two_boxes(), 48 * 4, wire::PieceEncoding::aliased});
    EXPECT_EQ(bytes(std::move(got)), bytes(std::move(data)));
}

TEST(Protocol, RequestsRoundTripAndUnknownOpsDecodeToNothing) {
    for (const auto& r : sample_requests()) {
        diy::BinaryBuffer bb(wire::encode(r));
        const auto        back = wire::decode_request(bb);
        ASSERT_TRUE(back.has_value()) << "op index " << r.index();
        EXPECT_EQ(*back, r) << "op index " << r.index();
        EXPECT_TRUE(bb.exhausted());
    }
    for (const std::uint8_t op : {std::uint8_t{0}, std::uint8_t{9}, std::uint8_t{255}}) {
        diy::BinaryBuffer bb(std::vector<std::byte>{std::byte{op}, std::byte{4}});
        EXPECT_FALSE(wire::decode_request(bb).has_value()) << "op " << unsigned(op);
    }
    // replies round-trip as well
    diy::BinaryBuffer ir(wire::encode(wire::IntersectReply{7, {1, 4}}));
    EXPECT_EQ(wire::decode<wire::IntersectReply>(ir), (wire::IntersectReply{7, {1, 4}}));
    diy::BinaryBuffer pr(wire::encode(wire::PinReply{wire::PinStatus::gone}));
    EXPECT_EQ(wire::decode<wire::PinReply>(pr).status, wire::PinStatus::gone);
}

TEST(Protocol, MalformedFieldsThrowBeforeAllocating) {
    // every prefix of a request is refused, never read past its end
    for (const auto& r : sample_requests()) {
        const auto full = wire::encode(r);
        for (std::size_t cut = 1; cut < full.size(); ++cut) {
            diy::BinaryBuffer bb(std::vector<std::byte>(full.begin(), full.begin() + cut));
            EXPECT_THROW(wire::decode_request(bb), std::out_of_range)
                << "op index " << r.index() << " cut at " << cut;
        }
    }
    // a string claiming a terabyte with 3 bytes left throws out_of_range
    // (a bad_alloc or length_error would mean it tried to allocate)
    diy::BinaryBuffer huge_name;
    huge_name.save<std::uint8_t>(1);
    huge_name.save<std::uint64_t>(std::uint64_t{1} << 40);
    huge_name.save_raw("abc", 3);
    EXPECT_THROW(wire::decode_request(huge_name), std::out_of_range);
    // the same for a rank list far past the reply's end
    diy::BinaryBuffer huge_ranks;
    huge_ranks.save<std::uint64_t>(7);
    huge_ranks.save<std::uint64_t>(std::uint64_t{1} << 60);
    EXPECT_THROW(wire::decode<wire::IntersectReply>(huge_ranks), std::out_of_range);
}

TEST(Protocol, ServeLoopDropsUnknownOpAndKeepsServing) {
    // a request that does not decode — an op no request has, an empty
    // message, a truncated query, a name length far past the message —
    // or a step release that names no stream must be dropped and counted
    // by the serve thread, not kill it: the metadata query behind them is
    // still answered
    constexpr std::uint64_t n = 32;
    simmpi::Runtime::run(2, [&](simmpi::Comm& world) {
        simmpi::Comm     local = world.split(world.rank());
        std::vector<int> prod{0}, cons{1};
        simmpi::Comm     ic = simmpi::Comm::create_intercomm(world, prod, cons);
        if (world.rank() == 0) {
            auto vol = std::make_shared<lowfive::DistMetadataVol>(local);
            vol->serve_to(ic);
            vol->set_serve_in_background(true);
            world.barrier(); // ic's control tags are claimed from here on
            std::vector<std::uint64_t> vals(n, 5);
            {
                h5::File f = h5::File::create("unk.h5", vol);
                f.create_dataset("v", h5::dt::uint64(), h5::Dataspace({n}))
                    .write(vals.data(), h5::Dataspace({n}));
                f.close(); // publishes
            }
            vol->finish_serving(); // returns once the consumer's Done arrived
            EXPECT_EQ(vol->stats().n_malformed_requests, 5u);
        } else {
            // the raw sends below use the vol's reserved request tag: under
            // L5_CHECK, one sent before the producer's serve_to claimed ic
            // is a tag collision
            world.barrier();
            const std::byte unknown{9};
            ic.send(0, wire::tag_request, &unknown, 1);
            ic.send(0, wire::tag_request, std::vector<std::byte>{});
            auto truncated =
                wire::encode(wire::IntersectQuery{7, "unk.h5", "/v", 1, box(0, 4, 0, 4)});
            truncated.resize(truncated.size() / 2);
            ic.send(0, wire::tag_request, std::move(truncated));
            diy::BinaryBuffer huge_name; // a MetadataQuery claiming a 2^60-byte name
            huge_name.save<std::uint8_t>(1);
            huge_name.save<std::uint64_t>(std::uint64_t{1} << 60);
            huge_name.save_raw("unk.h5", 6);
            ic.send(0, wire::tag_request, bytes(std::move(huge_name)));
            wire::send(ic, 0, wire::StepRelease{"no-such-stream", 0, false});
            wire::send(ic, 0, wire::MetadataQuery{"unk.h5"});
            const auto reply = wire::recv<wire::MetadataReply>(ic, 0);
            EXPECT_EQ(reply.version, 1u);
            ASSERT_TRUE(reply.root);
            h5::Object* v = reply.root->resolve("v");
            ASSERT_NE(v, nullptr);
            EXPECT_EQ(v->kind, h5::ObjectKind::Dataset);
            EXPECT_EQ(v->space.dims(), h5::Extent{n});
            wire::send(ic, 0, wire::Done{"unk.h5", reply.version});
        }
    });
}
