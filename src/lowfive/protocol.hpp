#pragma once

#include <diy/bounds.hpp>
#include <diy/serialization.hpp>
#include <h5/dataspace.hpp>
#include <h5/tree.hpp>
#include <simmpi/comm.hpp>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

/// The distributed VOL's wire protocol (the index–serve–query exchange of
/// Algorithms 2–3 plus the streaming step protocol): every message a
/// DistMetadataVol sends is one of the structs below, and this is the only
/// code that lays them out in bytes, sends or receives them. Each struct
/// lists its fields once, in wire order, in `fields()`; one generic codec
/// writes them (integers and enums as raw bytes, bool as u8 0/1, strings
/// and vectors behind a u64 length, Bounds, Dataspaces and tree skeletons
/// by their own save). Decoding is bounded: a truncated message, or a
/// length past the bytes left, throws std::out_of_range before anything
/// is allocated.
namespace lowfive::wire {

inline constexpr int tag_request = 901; ///< requests; also the serve thread's self-signals
inline constexpr int tag_reply   = 902; ///< metadata, intersect and step replies
inline constexpr int tag_ready   = 903; ///< file-mode ready notifications
/// Data replies and their aliased payloads: a tag of their own, so eagerly
/// issued data queries cannot match the intersect drain.
inline constexpr int tag_data_reply = 904;

// --- requests (tag_request): the op byte, then the fields ---------------------

struct MetadataQuery {
    static constexpr std::uint8_t op = 1;
    std::string                   name;
    static auto fields(auto& m) { return std::tie(m.name); }
};

/// Which producer ranks hold data of `dset` intersecting `bounds`, in the
/// publish `version` the consumer opened?
struct IntersectQuery {
    static constexpr std::uint8_t op     = 2;
    std::uint64_t                 req_id = 0;
    std::string                   name, dset;
    std::uint64_t                 version = 0;
    diy::Bounds                   bounds;
    static auto fields(auto& m) { return std::tie(m.req_id, m.name, m.dset, m.version, m.bounds); }
};

/// The elements of `dset` that `filespace` selects, from that version.
struct DataQuery {
    static constexpr std::uint8_t op     = 3;
    std::uint64_t                 req_id = 0;
    std::string                   name, dset;
    std::uint64_t                 version = 0;
    h5::Dataspace                 filespace;
    static auto fields(auto& m) {
        return std::tie(m.req_id, m.name, m.dset, m.version, m.filespace);
    }
};

/// The consumer rank closed the file it opened at `version`.
struct Done {
    static constexpr std::uint8_t op = 4;
    std::string                   name;
    std::uint64_t                 version = 0;
    static auto fields(auto& m) { return std::tie(m.name, m.version); }
};

// streaming (see DESIGN.md § Streaming transport): the consumer task's
// rank 0 asks producer rank 0 (the coordinator) for a step >= min (its
// window's policy picks the oldest or the newest), pins it on every other
// producer rank, and releases all pins once every consumer rank finished
// reading the step. A `rollback` release undoes the pins of a step some
// rank already evicted.

struct StepNext {
    static constexpr std::uint8_t op = 5;
    std::string                   base;
    std::uint64_t                 min = 0;
    static auto fields(auto& m) { return std::tie(m.base, m.min); }
};

struct StepPin {
    static constexpr std::uint8_t op = 6;
    std::string                   base;
    std::uint64_t                 step = 0;
    static auto fields(auto& m) { return std::tie(m.base, m.step); }
};

struct StepRelease {
    static constexpr std::uint8_t op = 7;
    std::string                   base;
    std::uint64_t                 step     = 0;
    bool                          rollback = false;
    static auto fields(auto& m) { return std::tie(m.base, m.step, m.rollback); }
};

/// The consumer task unsubscribed from the stream.
struct StreamDone {
    static constexpr std::uint8_t op = 8;
    std::string                   base;
    static auto fields(auto& m) { return std::tie(m.base); }
};

using Request = std::variant<MetadataQuery, IntersectQuery, DataQuery, Done, StepNext, StepPin,
                             StepRelease, StreamDone>;

// --- replies -------------------------------------------------------------------

/// The publish version a file is at and its tree skeleton (no data).
struct MetadataReply {
    static constexpr int        tag     = tag_reply;
    std::uint64_t               version = 0;
    std::shared_ptr<h5::Object> root;
    static auto fields(auto& m) { return std::tie(m.version, m.root); }
};

/// The producer ranks whose data intersects, sorted and unique.
struct IntersectReply {
    static constexpr int      tag    = tag_reply;
    std::uint64_t             req_id = 0;
    std::vector<std::int32_t> ranks;
    static auto fields(auto& m) { return std::tie(m.req_id, m.ranks); }
};

/// The granted step, or end of stream (`eos`, step 0).
struct StepGrant {
    static constexpr int tag  = tag_reply;
    bool                 eos  = false;
    std::uint64_t        step = 0;
    static auto fields(auto& m) { return std::tie(m.eos, m.step); }
};

/// `gone`: this rank's window already evicted the step, so the consumer
/// rolls its pins back and retries past it.
enum class PinStatus : std::uint8_t { pinned = 0, gone = 2 };
struct PinReply {
    static constexpr int tag    = tag_reply;
    PinStatus            status = PinStatus::pinned;
    static auto fields(auto& m) { return std::tie(m.status); }
};

/// File mode: the producer closed `name`, so its physical file is complete.
struct Ready {
    static constexpr int tag = tag_ready;
    std::string          name;
    static auto fields(auto& m) { return std::tie(m.name); }
};

/// A data reply starts with this head; `npieces` pieces follow, each a
/// PieceHead and then its bytes inline or, when
/// aliased, a header locating the wanted elements in a payload that
/// follows the reply as its own message.
struct DataReplyHead {
    static constexpr int tag     = tag_data_reply;
    std::uint64_t        req_id  = 0;
    std::uint64_t        npieces = 0;
    static auto fields(auto& m) { return std::tie(m.req_id, m.npieces); }
};

// --- the codec -------------------------------------------------------------------

template <class Msg>
concept Message = requires(const Msg& m) { Msg::fields(m); };

template <Message Msg>
bool operator==(const Msg& a, const Msg& b) {
    return Msg::fields(a) == Msg::fields(b);
}

/// Append `m`: a request's op byte first, then the fields in order.
template <Message Msg>
void encode(diy::BinaryBuffer& bb, const Msg& m) {
    if constexpr (requires { Msg::op; }) bb.save(Msg::op);
    auto put = [&]<class T>(const T& v) {
        if constexpr (std::is_same_v<T, bool>)
            bb.save<std::uint8_t>(v ? 1 : 0);
        else if constexpr (std::is_same_v<T, std::shared_ptr<h5::Object>>)
            v->save_skeleton(bb);
        else if constexpr (requires { v.save(bb); })
            v.save(bb);
        else
            bb.save(v);
    };
    std::apply([&](const auto&... f) { (put(f), ...); }, Msg::fields(m));
}
void encode(diy::BinaryBuffer& bb, const Request& r);

/// `m` (a message or a Request) as one message's bytes.
template <class Msg>
std::vector<std::byte> encode(const Msg& m) {
    diy::BinaryBuffer bb;
    encode(bb, m);
    return std::move(bb).take();
}

/// Read a message's fields (a request's op byte is read by decode_request).
template <Message Msg>
Msg decode(diy::BinaryBuffer& bb) {
    Msg  m{};
    auto get = [&]<class T>(T& v) {
        if constexpr (std::is_same_v<T, bool>)
            v = bb.load<std::uint8_t>() != 0;
        else if constexpr (std::is_same_v<T, std::shared_ptr<h5::Object>>)
            v = h5::Object::load_skeleton(bb);
        else if constexpr (requires { T::load(bb); })
            v = T::load(bb);
        else
            bb.load(v);
    };
    std::apply([&](auto&... f) { (get(f), ...); }, Msg::fields(m));
    return m;
}

/// Read a request. An op byte no request has yields nullopt (the serve
/// loop drops it); a truncated or oversized field throws.
std::optional<Request> decode_request(diy::BinaryBuffer& bb);

// --- transport -------------------------------------------------------------------

template <class Msg>
constexpr int tag_of() {
    if constexpr (requires { Msg::tag; })
        return Msg::tag;
    else
        return tag_request;
}

/// Send `m` to remote rank `dest` of `ic`, on its reply tag or, for a
/// request, on tag_request.
template <class Msg>
void send(const simmpi::Comm& ic, int dest, const Msg& m) {
    ic.send(dest, tag_of<Msg>(), encode(m));
}

/// Send `m` to every remote rank of `ic`, sharing one encoded payload.
template <class Msg>
void fan_out(const simmpi::Comm& ic, const Msg& m) {
    const auto payload = simmpi::make_shared_payload(encode(m));
    for (int p = 0; p < ic.peer_size(); ++p) ic.send_shared(p, tag_of<Msg>(), payload);
}

/// One raw message on `tag` from `src` (any_source allowed); `from`
/// reports the sender.
diy::BinaryBuffer recv_buffer(const simmpi::Comm& ic, int src, int tag, int* from = nullptr);

template <Message Msg>
Msg recv(const simmpi::Comm& ic, int src, int* from = nullptr) {
    auto bb = recv_buffer(ic, src, Msg::tag, from);
    return decode<Msg>(bb);
}

/// The serve thread's self-signals on the producer's local communicator
/// (tag_request): an empty message stops it; a one-byte one makes it
/// replay the requests parked until a publish.
enum class Signal { shutdown, replay };
void   signal_self(const simmpi::Comm& local, Signal s);
Signal recv_signal(const simmpi::Comm& local, int src);

// --- data-reply pieces --------------------------------------------------------------

/// How a piece's bytes travel: inline after its head, or aliased — the
/// piece's whole packed buffer follows the reply as its own message on the
/// same (source, tag) stream, in piece order.
enum class PieceEncoding : std::uint8_t { inline_bytes = 0, aliased = 2 };

/// A piece head: the sub-selection served, its byte count, and the
/// encoding.
struct PieceHead {
    h5::Dataspace sub;
    std::uint64_t nbytes = 0;
    PieceEncoding enc    = PieceEncoding::inline_bytes;
    static auto   fields(auto& m) { return std::tie(m.sub, m.nbytes, m.enc); }
};
/// Read a piece head of a reply to a query over `query`'s extent, of
/// `elem`-byte elements. Every offset the consumer computes derives from
/// sub and nbytes, so this throws h5::Error, before any byte is copied,
/// unless sub is a selection of the query's extent, nbytes exactly its
/// bytes, and the encoding one of the two above.
PieceHead load_piece_head(diy::BinaryBuffer& bb, const h5::Dataspace& query, std::size_t elem);

/// Append an aliased piece's header: `where[k]` locates box k of the
/// sub-selection in the piece's packed buffer, so the header grows with
/// the sub-selection, never with the piece's whole selection.
void save_aliased_header(diy::BinaryBuffer& bb, std::span<const h5::PackedBox> where);

/// Read an aliased header for `sub` and locate sub's elements in an aliased
/// payload of `payload_bytes` bytes holding `elem`-byte elements: the
/// source runs for h5::gather_scatter. Throws h5::Error when the header
/// does not describe `sub` or locates an element past the payload, so a
/// malformed reply is rejected before any byte is copied.
std::vector<h5::SelRun> load_aliased_header(diy::BinaryBuffer& bb, const h5::Dataspace& sub,
                                            std::uint64_t payload_bytes, std::size_t elem);

/// Send a data reply, then its aliased pieces' payloads in piece order.
void send_data_reply(const simmpi::Comm& ic, int dest, diy::BinaryBuffer&& reply,
                     std::vector<simmpi::SharedPayload>&& aliased);
/// The payload of the next aliased piece from `src`; throws when missing.
simmpi::SharedPayload recv_aliased_payload(const simmpi::Comm& ic, int src);

} // namespace lowfive::wire
