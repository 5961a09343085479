#include "protocol.hpp"

#include <utility>

namespace lowfive::wire {

void encode(diy::BinaryBuffer& bb, const Request& r) {
    std::visit([&](const auto& m) { encode(bb, m); }, r);
}

std::optional<Request> decode_request(diy::BinaryBuffer& bb) {
    const auto             op = bb.load<std::uint8_t>();
    std::optional<Request> out; // stays empty when no request has this op
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        using R = Request;
        (void)((op == std::variant_alternative_t<I, R>::op
                    ? (out = decode<std::variant_alternative_t<I, R>>(bb), true)
                    : false)
               || ...);
    }(std::make_index_sequence<std::variant_size_v<Request>>{});
    return out;
}

diy::BinaryBuffer recv_buffer(const simmpi::Comm& ic, int src, int tag, int* from) {
    std::vector<std::byte> raw;
    const auto             st = ic.recv(src, tag, raw);
    if (from) *from = st.source;
    return diy::BinaryBuffer(std::move(raw));
}

void signal_self(const simmpi::Comm& local, Signal s) {
    std::vector<std::byte> msg;
    if (s == Signal::replay) msg.push_back(std::byte{1});
    local.send(local.rank(), tag_request, std::move(msg));
}

Signal recv_signal(const simmpi::Comm& local, int src) {
    std::vector<std::byte> raw;
    local.recv(src, tag_request, raw);
    return raw.empty() ? Signal::shutdown : Signal::replay;
}

PieceHead load_piece_head(diy::BinaryBuffer& bb, const h5::Dataspace& query, std::size_t elem) {
    auto h = decode<PieceHead>(bb);
    if (h.sub.dims() != query.dims() || h.nbytes != h.sub.npoints() * elem)
        throw h5::Error("lowfive: data reply piece does not match the query's extent");
    if (h.enc != PieceEncoding::inline_bytes && h.enc != PieceEncoding::aliased)
        throw h5::Error("lowfive: data reply piece has unknown encoding "
                        + std::to_string(static_cast<unsigned>(h.enc)));
    return h;
}

void save_aliased_header(diy::BinaryBuffer& bb, std::span<const h5::PackedBox> where) {
    bb.save<std::uint64_t>(where.size());
    for (const auto& w : where) {
        w.outer.save(bb);
        bb.save(w.offset);
    }
}

std::vector<h5::SelRun> load_aliased_header(diy::BinaryBuffer& bb, const h5::Dataspace& sub,
                                            std::uint64_t payload_bytes, std::size_t elem) {
    const auto n = bb.load<std::uint64_t>();
    if (n != sub.boxes().size())
        throw h5::Error("lowfive: aliased reply locates " + std::to_string(n) + " boxes of a "
                        + std::to_string(sub.boxes().size()) + "-box piece");
    std::vector<h5::PackedBox> where(n);
    for (auto& w : where) {
        w.outer  = diy::Bounds::load(bb);
        w.offset = bb.load<std::uint64_t>();
    }
    return h5::located_runs(sub, where, payload_bytes / elem);
}

void send_data_reply(const simmpi::Comm& ic, int dest, diy::BinaryBuffer&& reply,
                     std::vector<simmpi::SharedPayload>&& aliased) {
    ic.send(dest, tag_data_reply, std::move(reply).take());
    for (auto& p : aliased) ic.send_shared(dest, tag_data_reply, std::move(p));
}

simmpi::SharedPayload recv_aliased_payload(const simmpi::Comm& ic, int src) {
    simmpi::SharedPayload payload;
    ic.recv_shared(src, tag_data_reply, payload);
    if (!payload) throw h5::Error("lowfive: zero-copy data payload missing");
    return payload;
}

} // namespace lowfive::wire
