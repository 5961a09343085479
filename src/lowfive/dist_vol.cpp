#include "dist_vol.hpp"

#include <check/check.hpp>
#include <diy/serialization.hpp>
#include <obs/trace.hpp>
#include <simmpi/sched.hpp>

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <set>
#include <thread>

namespace lowfive {

using h5::Dataspace;
using h5::Error;
using h5::Object;
using h5::ObjectKind;

/// Serve-state guard: a plain lock normally; under a deterministic
/// scheduler, contention becomes a scheduling point so a descheduled
/// holder (the serve thread at one of its send yield points) can be run
/// to release it. Every acquisition first feeds the serve-lock-after-pin
/// lint: under L5_CHECK, constructing a Guard inside a pinned snapshot
/// read section is a CheckError — the query hot path must never block on
/// publish/teardown control state.
class Guard : public simmpi::detail::CoopLock<std::mutex> {
public:
    Guard(simmpi::detail::Scheduler* s, std::mutex& m, const char* site)
        : CoopLock((mvcc::note_serve_lock(site), s), m, site) {}
};

namespace {

/// Collect (path, dataset node) pairs in deterministic DFS order.
void collect_datasets(Object* obj, std::vector<std::pair<std::string, Object*>>& out) {
    if (obj->kind == ObjectKind::Dataset) out.emplace_back(obj->path(), obj);
    for (auto& c : obj->children) collect_datasets(c.get(), out);
}

/// Monotonic timestamp for step publish→drain latency accounting.
std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

} // namespace

DistMetadataVol::DistMetadataVol(simmpi::Comm local, h5::VolPtr passthru_vol)
    : MetadataVol(std::move(passthru_vol)), local_(std::move(local)) {
    // claim the RPC control-tag range for the checker: user traffic on
    // these tags elsewhere is a collision, and the serve loop's any-source
    // request/reply drains are an order-insensitive protocol by design
    local_.check_reserve_tags(wire::tag_request, wire::tag_data_reply, "dist_vol");
    // arm the serve-lock-after-pin lint alongside the MPI-semantics
    // checker: checked runs also verify the query path stays lock-free
    if (l5check::CheckConfig::from_env()) mvcc::set_lock_lint(true);
    // the same invariant as an l5race lock-order graph rule: acquiring
    // the serve mutex while inside a pinned read section is forbidden
    // even before any cycle exists
    l5race::declare_lock(&mutex_, "dist_vol.mutex");
    l5race::forbid_edge("mvcc.read_section", "dist_vol.mutex",
                        "serve-lock-after-pin: the serve-side query path must stay "
                        "lock-free past the pin");
    // no file exists yet: swap in a pool that reports to this registry
    piece_pool_ = std::make_shared<PiecePool>(
        PiecePool::Metrics{&c_recycled_pieces_, &c_bytes_recycled_, &g_piece_pool_bytes_});
}

DistMetadataVol::Stats DistMetadataVol::stats() const {
    Stats s;
    s.bytes_served             = c_bytes_served_.value();
    s.bytes_fetched            = c_bytes_fetched_.value();
    s.n_data_queries           = c_data_queries_.value();
    s.n_intersect_queries      = c_intersect_queries_.value();
    s.n_intersect_cache_hits   = c_cache_hits_.value();
    s.n_intersect_cache_misses = c_cache_misses_.value();
    s.n_zero_copy_pieces       = c_zero_copy_pieces_.value();
    s.n_malformed_requests     = c_malformed_requests_.value();
    s.n_steps_published        = c_steps_published_.value();
    s.n_steps_dropped          = c_steps_dropped_.value();
    s.n_steps_drained          = c_steps_drained_.value();
    s.n_step_publish_waits     = c_step_publish_waits_.value();
    s.n_steps_acquired         = c_steps_acquired_.value();
    s.n_step_pin_rollbacks     = c_step_pin_rollbacks_.value();
    s.n_snapshots_live         = g_snapshots_live_.value();
    s.n_snapshot_pins          = c_snapshot_pins_.value();
    s.n_snapshot_gc            = c_snapshot_gc_.value();
    s.n_recycled_pieces        = c_recycled_pieces_.value();
    s.bytes_recycled           = c_bytes_recycled_.value();
    s.piece_pool_bytes         = g_piece_pool_bytes_.value();
    return s;
}

DistMetadataVol::~DistMetadataVol() {
    try {
        finish_serving();
    } catch (...) {
        // a destructor must not throw; an ill-formed workflow already
        // failed elsewhere
    }
}

void DistMetadataVol::set_serve_in_background(bool v) {
    Guard lock(local_.scheduler(), mutex_, "set_serve_in_background");
    L5_SHARED_WRITE(this, "background_", "set_serve_in_background");
    background_ = v;
}

void DistMetadataVol::notify_dones() {
    dones_cv_.notify_all();
    if (auto* s = local_.scheduler()) s->notify(&dones_cv_);
}

void DistMetadataVol::serve_loop() {
    // any exception — a world abort unblocking the probe, a request a
    // handler rejects — must not escape the thread (std::terminate) or
    // strand waiters on dones_cv_: record it and wake everyone instead
    try {
        // waiting for the next request is idling, not a stall: the probe
        // runs with no deadline, so a producer that computes past the
        // world deadline keeps its server. A consumer that stalls
        // mid-round is caught by the owed waits (wait_owed_locked).
        std::vector<simmpi::Comm> idle;
        idle.reserve(serve_conns_.size() + 1);
        for (const auto& c : serve_conns_) idle.push_back(c.ic.with_deadline(0));
        idle.push_back(local_.with_deadline(0)); // self-signals: shutdown and replay
        std::vector<const simmpi::Comm*> comms;
        comms.reserve(idle.size());
        for (const auto& c : idle) comms.push_back(&c);

        for (;;) {
            std::size_t which = 0;
            auto st = simmpi::Comm::probe_any(comms, simmpi::any_source, wire::tag_request, &which);
            if (which + 1 == comms.size()) {
                if (wire::recv_signal(local_, st.source) == wire::Signal::shutdown) return;
                // a producer-thread publish parked work for us; replay it
                // here so request handling (and its replies) stays
                // single-threaded
                std::vector<Deferred> pending;
                {
                    Guard lock(local_.scheduler(), mutex_, "serve/deferred");
                    L5_SHARED_WRITE(this, "deferred_", "serve/deferred");
                    pending = std::move(deferred_);
                    deferred_.clear();
                }
                for (auto& d : pending) {
                    obs::ScopedTimerNs timer(c_t_serve_ns_);
                    handle_request(serve_conns_[d.conn], d.src, std::move(d.request));
                }
                continue;
            }
            auto& conn = serve_conns_[which];
            auto  raw  = wire::recv_buffer(conn.ic, st.source, wire::tag_request);
            // decoding counts as serve time. A request that does not
            // decode (empty, truncated, a length past its end) or whose
            // op no request has is dropped and counted; errors from the
            // handlers still end the thread. No lock here: handle_request
            // pins a snapshot for the query ops and takes the Guard itself
            // only for control ops
            obs::ScopedTimerNs           timer(c_t_serve_ns_);
            std::optional<wire::Request> req;
            try {
                req = wire::decode_request(raw);
            } catch (const std::exception&) {
            }
            if (req)
                handle_request(conn, st.source, std::move(*req));
            else
                c_malformed_requests_.inc();
        }
    } catch (...) {
        {
            Guard lock(local_.scheduler(), mutex_, "serve/record_error");
            L5_SHARED_WRITE(this, "serve_error_", "serve/record_error");
            serve_error_ = std::current_exception();
        }
        notify_dones();
    }
}

void DistMetadataVol::check_pin_leaks() {
    // finalize lint: every snapshot pin taken during the run (round pins,
    // reader pins) must have been released by now — a leak keeps
    // superseded versions and their data alive forever
    if (const auto n = snapshots_.outstanding_pins(); n != 0)
        local_.check_leak("leaked-snapshot-pin",
                          std::to_string(n)
                              + " snapshot pin(s) still outstanding at finish_serving "
                                "(round pins never released)");
}

void DistMetadataVol::finish_serving() {
    auto*              sched = local_.scheduler();
    std::exception_ptr err;
    try {
        Guard lock(sched, mutex_, "finish_serving");
        wait_owed_locked(lock, "finish_serving/dones", /*streams=*/true);
    } catch (...) {
        // a dead serve thread, deadline, deadlock or abort surfaced at
        // the wait: the serve thread must still be stopped and joined
        // below, or the std::thread member is destroyed joinable
        // (std::terminate)
        err = std::current_exception();
    }
    if (serve_thread_.joinable()) {
        bool serve_died;
        {
            Guard lock(sched, mutex_, "finish_serving/check_error");
            L5_SHARED_READ(this, "serve_error_", "finish_serving/check_error");
            serve_died = serve_error_ != nullptr;
        }
        if (!serve_died) {
            try {
                wire::signal_self(local_, wire::Signal::shutdown);
            } catch (...) {
                // the send can only fail when the world was aborted under
                // us; the same poison has already woken the serve thread
                if (!err) err = std::current_exception();
            }
        }
        // under a deterministic scheduler the joiner steps away so the
        // serve thread can be scheduled to process the shutdown and exit
        simmpi::detail::coop_join(sched, serve_thread_);
    }
    if (err) {
        {
            Guard lock(sched, mutex_, "finish_serving/clear_error");
            L5_SHARED_WRITE(this, "serve_error_", "finish_serving/clear_error");
            serve_error_ = nullptr; // surfaced once
        }
        std::rethrow_exception(err);
    }
    {
        // every round completed (the dones wait above), or with no serve
        // thread none can: no in-flight reader is left, so the trailing
        // round pins can go
        Guard lock(sched, mutex_, "finish_serving/clear_pins");
        L5_SHARED_WRITE(this, "rounds_", "finish_serving/clear_pins");
        rounds_.clear();
        rounds_owed_ = 0;
    }
    check_pin_leaks();
}

void* DistMetadataVol::file_create(const std::string& name) {
    Guard lock(local_.scheduler(), mutex_, "file_create");
    return MetadataVol::file_create(name);
}

void DistMetadataVol::file_close(void* file) {
    Guard lock(local_.scheduler(), mutex_, "file_close");
    // closing a writable step snapshot publishes it: run the window
    // admission (and any block-policy backpressure wait) up front — the
    // wait releases the lock so the serve thread can process releases
    // that free a slot
    if (HandleBox* h = box(file); h->file && h->file->writable && !h->file->remote)
        if (auto split = stream::split_step_name(h->file->name)) stream_admit(lock, split->first);
    MetadataVol::file_close(file);
    // sync serving (the paper's synchronization through file close): a
    // close that published a round returns once every consumer rank is
    // done with it; the serve thread answers the round meanwhile
    L5_SHARED_READ(this, "background_", "file_close");
    if (!background_) wait_owed_locked(lock, "file_close/dones", /*streams=*/false);
}

void DistMetadataVol::drop_file(const std::string& name) {
    Guard lock(local_.scheduler(), mutex_, "drop_file");
    // never drop a file the serve thread may still be serving
    // (conservative: waits for every outstanding round)
    wait_owed_locked(lock, "drop_file/dones", /*streams=*/false);
    // every round is done (the wait above): this file's round pins can
    // go, and its snapshot line is retired — the current version is
    // superseded and GC'd as soon as the last pin drops
    L5_SHARED_WRITE(this, "rounds_", "drop_file");
    std::erase_if(rounds_, [&](const auto& kv) {
        if (std::get<2>(kv.first) != name) return false;
        // 0 unless no serve thread is left to answer
        if (kv.second.rounds > 0) rounds_owed_ -= static_cast<std::uint64_t>(kv.second.rounds);
        return true;
    });
    snapshots_.retire(name);
    // the consumer-side intersect cache survives: its entries are valid
    // for exactly one publish version, so a later rewrite can never
    // serve stale sets
    MetadataVol::drop_file(name);
}

void DistMetadataVol::serve_to(simmpi::Comm intercomm, std::string pattern) {
    intercomm.check_reserve_tags(wire::tag_request, wire::tag_data_reply, "dist_vol");
    serve_conns_.push_back({std::move(intercomm), std::move(pattern)});
}

void DistMetadataVol::consume_from(simmpi::Comm intercomm, std::string pattern) {
    intercomm.check_reserve_tags(wire::tag_request, wire::tag_data_reply, "dist_vol");
    consume_conns_.push_back({std::move(intercomm), std::move(pattern)});
}

int DistMetadataVol::route_consume(const std::string& name) const {
    // step snapshots route like their base name: connection patterns
    // name streams, not individual step files
    const std::string base = stream::base_name(name);
    for (std::size_t i = 0; i < consume_conns_.size(); ++i)
        if (glob_match(consume_conns_[i].pattern, base)) return static_cast<int>(i);
    return -1;
}

// --- producer: index (Algorithm 1) ------------------------------------------

void DistMetadataVol::index_file(FileEntry& entry) {
    obs::ScopedTimerNs timer(c_t_index_ns_);
    obs::Span          span("dist.index", "lowfive",
                            {{"file", 0, obs::intern_if_enabled(entry.name)}});

    std::vector<std::pair<std::string, Object*>> dsets;
    collect_datasets(entry.root.get(), dsets);

    mvcc::IndexMap index;
    for (auto& [path, node] : dsets) {
        diy::RegularDecomposer decomp(node->space.extent_bounds(), local_.size());

        // outgoing bounding boxes per target producer rank
        std::vector<diy::BinaryBuffer> out(static_cast<std::size_t>(local_.size()));
        for (const auto& piece : node->pieces) {
            diy::Bounds bb = piece.filespace.bounding_box();
            if (bb.empty()) continue;
            for (int t : decomp.intersecting_blocks(bb))
                bb.save(out[static_cast<std::size_t>(t)]);
        }

        std::vector<std::vector<std::byte>> payloads;
        payloads.reserve(out.size());
        for (auto& bb : out) payloads.push_back(std::move(bb).take());

        auto incoming = local_.alltoall(std::move(payloads));

        auto& entries = index[path];
        for (int src = 0; src < local_.size(); ++src) {
            diy::BinaryBuffer bb(std::move(incoming[static_cast<std::size_t>(src)]));
            while (!bb.exhausted()) entries.emplace_back(diy::Bounds::load(bb), src);
        }
    }

    // publish: install an immutable snapshot (frozen tree + index) as the
    // new current version with an atomic root swap. The superseded
    // version stays alive — and byte-identically readable — exactly as
    // long as some pin (a round pin, an in-flight query) still holds it.
    // A stream step is never superseded: the window's refs keep its
    // snapshot current until the step is evicted. Consumers key their
    // intersect cache by this version, learned from the metadata reply.
    auto pin      = snapshots_.publish(entry.name, entry.root, std::move(index), now_ns());
    entry.version = pin->version();
}

// --- producer: serve (Algorithm 2) --------------------------------------------

void DistMetadataVol::serve_all() {
    Guard lock(local_.scheduler(), mutex_, "serve_all");
    wait_owed_locked(lock, "serve_all/dones", /*streams=*/true);
}

void DistMetadataVol::wait_owed_locked(simmpi::detail::CoopLock<std::mutex>& lock,
                                       const char* site, bool streams) {
    const std::int64_t ms = local_.effective_deadline_ms();
    const bool         ok = simmpi::detail::coop_wait_deadline(
        local_.scheduler(), dones_cv_, lock, site, ms, [&] {
            L5_SHARED_READ(this, "serve_error_", site);
            L5_SHARED_READ(this, "rounds_", site);
            if (streams) L5_SHARED_READ(this, "streams_", site);
            // no serve thread (none spawned yet, or a dead one already
            // joined): nothing can arrive, so nothing is owed
            return serve_error_ || !serve_thread_.joinable()
                   || (rounds_owed_ == 0 && (!streams || streams_drained_locked()));
        });
    if (!ok && !serve_error_) {
        // a consumer stalled mid-round: serving has failed as surely as
        // if the serve thread had died, so record it that way and stop
        // the thread — teardown then fails at once instead of waiting
        // out the deadline a second time
        L5_SHARED_WRITE(this, "serve_error_", site);
        serve_error_ = std::make_exception_ptr(simmpi::TimeoutError(ms, site, -1, -1));
        if (serve_thread_.joinable())
            wire::signal_self(local_, wire::Signal::shutdown);
    }
    if (serve_error_) std::rethrow_exception(serve_error_);
}

void DistMetadataVol::handle_request(Conn& conn, int src, wire::Request&& req) {
    if (std::holds_alternative<wire::IntersectQuery>(req)
        || std::holds_alternative<wire::DataQuery>(req)) {
        // query hot path: answered from a pinned MVCC snapshot, no
        // serve-mutex acquisition (the serve-lock-after-pin lint enforces
        // this under L5_CHECK)
        handle_read_request(conn, src, std::move(req));
        return;
    }
    // control path: mutates publish/teardown state under mutex_, which
    // the owed waits watch
    handle_control_request(conn, src, std::move(req));
    notify_dones();
}

void DistMetadataVol::handle_read_request(Conn& conn, int src, wire::Request&& req) {
    const auto*         iq      = std::get_if<wire::IntersectQuery>(&req);
    const auto*         dq      = std::get_if<wire::DataQuery>(&req);
    const std::string&  name    = iq ? iq->name : dq->name;
    const std::uint64_t version = iq ? iq->version : dq->version;

    // pin the exact version the consumer opened: a rewrite racing this
    // query supersedes the current snapshot but cannot free the pinned
    // one. Fall back to the current version when the named one is
    // already gone (possible only if the consumer broke round-pin or
    // step-window discipline — the plain current read is still
    // self-consistent).
    auto snap = snapshots_.pin(name, version);
    if (!snap && version != 0) {
        // the named version may not exist HERE yet: the consumer's
        // metadata came from a peer rank that already published it while
        // this rank is one close behind. Serving current instead would
        // hand out a torn (mixed-version) read across producer ranks —
        // park the request and replay it after this rank's next publish.
        auto cur = snapshots_.pin(name);
        if (!cur || cur->version() < version) {
            cur.release();
            // park under the vol mutex and RE-CHECK there: a publish
            // installs the snapshot and fires the replay signal
            // while holding this mutex, so without the re-check the
            // publish could slip between our lock-free miss and the
            // park — a lost wakeup that leaves the request parked
            // forever (no later publish would replay it)
            Guard lock(local_.scheduler(), mutex_, "serve/defer-read");
            snap = snapshots_.pin(name, version);
            if (!snap) {
                cur = snapshots_.pin(name);
                if (!cur || cur->version() < version) {
                    cur.release();
                    const std::size_t conn_idx =
                        static_cast<std::size_t>(&conn - serve_conns_.data());
                    L5_SHARED_WRITE(this, "deferred_", "serve/defer-read");
                    deferred_.push_back({conn_idx, src, std::move(req)});
                    return;
                }
                snap = std::move(cur); // version GC'd past: current is consistent
            }
        } else {
            snap = std::move(cur); // version GC'd past: current is consistent
        }
    }
    if (!snap) snap = snapshots_.pin(name);

    if (iq) {
        obs::Span span("serve.intersect", "lowfive",
                       {{"src", static_cast<std::uint64_t>(src), nullptr}});
        wire::IntersectReply reply{iq->req_id, {}};
        auto&                ranks = reply.ranks;
        if (snap) {
            mvcc::ReadSection section;
            if (const auto* entries = snap->index_for(iq->dset))
                for (const auto& [ibb, rank] : *entries)
                    if (diy::intersects(ibb, iq->bounds)) ranks.push_back(rank);
        }
        std::sort(ranks.begin(), ranks.end());
        ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
        wire::send(conn.ic, src, reply);
        return;
    }

    {
        obs::Span span("serve.data", "lowfive",
                       {{"src", static_cast<std::uint64_t>(src), nullptr}});
        if (!snap) throw Error("lowfive: data query for unknown file '" + name + "'");
        mvcc::ReadSection section;
        Object*           node = snap->root()->resolve(dq->dset);
        if (!node || node->kind != ObjectKind::Dataset)
            throw Error("lowfive: data query for unknown dataset '" + dq->dset + "'");
        const std::size_t elem = node->type.size();

        // intersect each piece with the query exactly once, keeping the
        // per-piece sub-selection and where it sits in the piece's packed
        // buffer (DataPiece::packed_bytes) — what an aliased reply sends
        // instead of the bytes
        struct Hit {
            const h5::DataPiece*       piece;
            Dataspace                  sub;
            std::vector<h5::PackedBox> where; ///< one per box of sub
        };
        std::vector<Hit> hits;
        for (const auto& piece : node->pieces) {
            auto [sub, where] =
                h5::intersect_located(piece.filespace, dq->filespace, node->space.dims());
            if (!where.empty()) hits.push_back({&piece, std::move(sub), std::move(where)});
        }

        diy::BinaryBuffer reply;
        wire::encode(reply, wire::DataReplyHead{dq->req_id, hits.size()});
        std::uint64_t served = 0;
        // pieces served without any copy: the piece's packed buffer
        // follows the reply as its own aliased message on the same (src,
        // tag) stream — the mailbox's non-overtaking guarantee keeps
        // header and payloads paired
        std::vector<simmpi::SharedPayload> zc;
        for (auto& [piece, sub, where] : hits) {
            const std::uint64_t nbytes = sub.npoints() * elem;
            // a piece that owns a packed copy (Deep) is aliased, whole
            // piece or not; a Shallow piece's bytes live in user memory
            // laid out by its memspace, so they are extracted inline
            const std::vector<std::byte>* packed = piece->packed_bytes();
            const wire::PieceHead         head{
                std::move(sub), nbytes,
                packed ? wire::PieceEncoding::aliased : wire::PieceEncoding::inline_bytes};
            wire::encode(reply, head);
            if (packed) {
                wire::save_aliased_header(reply, where);
                // owning alias: the payload shares the snapshot's
                // lifetime, so the piece's bytes stay valid on the wire
                // even if the version is superseded and GC'd while the
                // message is still in flight (a plain recv on the other
                // side copies instead of moving them out from under us)
                zc.emplace_back(simmpi::SharedPayload(snap.shared(), packed));
                c_zero_copy_pieces_.inc();
            } else {
                // extract straight into the reply buffer: no intermediate copy
                h5::extract_via_mapping(piece->filespace, piece->memspace, piece->ref, head.sub,
                                        elem, reply.mutable_data());
            }
            served += nbytes;
        }
        c_bytes_served_.add(served);
        span.end_arg("bytes", served);
        wire::send_data_reply(conn.ic, src, std::move(reply), std::move(zc));
    }
}

void DistMetadataVol::handle_control_request(Conn& conn, int src, wire::Request&& req) {
    Guard             lock(local_.scheduler(), mutex_, "serve/control");
    const std::size_t conn_idx = static_cast<std::size_t>(&conn - serve_conns_.data());

    if (const auto* done = std::get_if<wire::Done>(&req)) {
        obs::instant("serve.done", "lowfive",
                     {{"src", static_cast<std::uint64_t>(src), nullptr}});
        // a Done can overtake this rank's own publish of the round it
        // closes: a file with no dataset publishes with no collective, so
        // a peer rank may have answered the open a round ahead of this
        // one. Park it until that publish, as a version-ahead read is
        if (done->version > snapshots_.last_version(done->name)) {
            L5_SHARED_WRITE(this, "deferred_", "serve/done");
            deferred_.push_back({conn_idx, src, std::move(req)});
            return;
        }
        L5_SHARED_WRITE(this, "rounds_", "serve/done");
        // this (connection, rank, file) finished a round: take it off,
        // and release the round pins of every version STRICTLY older than
        // the one it read. Dones arrive in round order and opened
        // versions are monotone, so this rank can never read those
        // versions again — but the named version itself may be reopened
        // by the very next round (a consumer outpacing the producer), so
        // its pin stays until a later Done names a newer version (or
        // teardown clears it). A sync key never goes below 0; a
        // background Done always counts, as the rank may have reopened
        // the current version, and a key below 0 is a credit that the
        // next publish uses up.
        L5_SHARED_READ(this, "background_", "serve/done");
        const auto rit  = rounds_.try_emplace({conn_idx, src, done->name}).first;
        auto&      owed = rit->second;
        if (owed.rounds > 0) --rounds_owed_;
        if (owed.rounds > 0 || background_) --owed.rounds;
        std::erase_if(owed.pins, [&](const mvcc::SnapshotPin& p) {
            return p && p->version() < done->version;
        });
        if (owed.rounds == 0 && owed.pins.empty()) rounds_.erase(rit);
    } else if (const auto* meta = std::get_if<wire::MetadataQuery>(&req)) {
        obs::Span span("serve.metadata", "lowfive",
                       {{"src", static_cast<std::uint64_t>(src), nullptr}});
        auto      it   = files_.find(meta->name);
        auto      snap = snapshots_.pin(meta->name);
        // sync serving answers an open only while the opening rank owes
        // a round, so the open pairs with the close waiting on it, and a
        // rank that already sent that round's Done waits for the next
        L5_SHARED_READ(this, "background_", "serve/metadata");
        L5_SHARED_READ(this, "rounds_", "serve/metadata");
        const auto owed    = rounds_.find({conn_idx, src, meta->name});
        const bool closing = background_ || (owed != rounds_.end() && owed->second.rounds > 0);
        if (it == files_.end() || !it->second.root || it->second.writable || !snap || !closing) {
            // consumer ran ahead of the producer: park the request and
            // retry after the next close
            L5_SHARED_WRITE(this, "deferred_", "serve/metadata");
            deferred_.push_back({conn_idx, src, std::move(req)});
            return;
        }
        // reply from the snapshot so version and skeleton are one
        // consistent publish even if a rewrite is racing us
        wire::send(conn.ic, src,
                   wire::MetadataReply{snap->version(), {snap.shared(), snap->root()}});
    } else if (const auto* next = std::get_if<wire::StepNext>(&req)) {
        L5_SHARED_READ(this, "streams_", "serve/step_next");
        auto                        sit = streams_.find(next->base);
        stream::StepWindow::Acquire r; // default: retry_later
        if (sit != streams_.end()) r = sit->second.acquire(stream::StepId(next->min));
        if (r.status == stream::StepWindow::Acquire::Status::retry_later) {
            // nothing published past `min` yet and the stream is still
            // open (or not registered yet): park the request; replayed
            // after the next publish / stream begin / stream end
            L5_SHARED_WRITE(this, "deferred_", "serve/step_next");
            deferred_.push_back({conn_idx, src, std::move(req)});
            return;
        }
        const std::uint64_t step = r.step.valid() ? r.step.value() : 0;
        obs::instant("serve.step_next", "lowfive",
                     {{"src", static_cast<std::uint64_t>(src), nullptr}, {"step", step, nullptr}});
        wire::send(conn.ic, src,
                   wire::StepGrant{r.status == stream::StepWindow::Acquire::Status::eos, step});
    } else if (const auto* spin = std::get_if<wire::StepPin>(&req)) {
        L5_SHARED_READ(this, "streams_", "serve/step_pin");
        auto       sit = streams_.find(spin->base);
        const bool ok  = sit != streams_.end() && sit->second.pin(stream::StepId(spin->step));
        // gone: this rank's window raced ahead and already evicted the
        // step — the consumer rolls its pins back and retries higher
        wire::send(conn.ic, src,
                   wire::PinReply{ok ? wire::PinStatus::pinned : wire::PinStatus::gone});
    } else if (const auto* srel = std::get_if<wire::StepRelease>(&req)) {
        L5_SHARED_READ(this, "streams_", "serve/step_release");
        // a release naming no stream or no pinned step owes no reply:
        // drop it and count it, as the serve loop does undecodable requests
        auto sit = streams_.find(srel->base);
        auto rel = sit != streams_.end() ? sit->second.release(stream::StepId(srel->step))
                                         : std::nullopt;
        if (!rel) {
            c_malformed_requests_.inc();
            return;
        }
        if (rel->first_drain && !srel->rollback) {
            c_steps_drained_.inc();
            h_step_latency_ns_.observe(now_ns() - rel->publish_ns);
            obs::instant("stream.drain", "lowfive",
                         {{"stream", 0, obs::intern_if_enabled(srel->base)},
                          {"step", srel->step, nullptr}});
        }
        stream_room_locked(srel->base, sit->second);
    } else if (const auto* sdone = std::get_if<wire::StreamDone>(&req)) {
        L5_SHARED_READ(this, "streams_", "serve/stream_done");
        auto sit = streams_.find(sdone->base);
        if (sit == streams_.end()) {
            // consumer subscribed and quit before the writer registered
            // the stream; credited at stream_begin
            ++pending_stream_dones_[sdone->base];
            return;
        }
        sit->second.consumer_done();
        stream_room_locked(sdone->base, sit->second);
    }
}

void DistMetadataVol::schedule_deferred_retry_locked() {
    L5_SHARED_READ(this, "deferred_", "schedule_deferred_retry");
    if (deferred_.empty()) return;
    L5_SHARED_READ(this, "serve_error_", "schedule_deferred_retry");
    if (!serve_thread_.joinable() || serve_error_) return; // no live server to replay them
    // the serve thread owns request handling: hand it the replay via a
    // self-signal. The per-(source, tag) FIFO guarantee means every
    // replay signal is consumed before a later shutdown signal.
    wire::signal_self(local_, wire::Signal::replay);
}

// --- step-versioned streaming --------------------------------------------------

void DistMetadataVol::set_stream(const std::string& pattern, stream::StreamConfig cfg) {
    stream_cfgs_.emplace_back(pattern, cfg);
}

stream::StreamConfig DistMetadataVol::stream_begin(const std::string& name) {
    if (name.find('\x1f') != std::string::npos)
        throw Error("lowfive: stream name '" + name + "' must not contain the step separator");
    if (!matches_file(memory_, name))
        throw Error("lowfive: stream '" + name
                    + "' requires in-memory mode (file-mode steps have no staging window)");
    const auto match = std::find_if(stream_cfgs_.begin(), stream_cfgs_.end(),
                                    [&](const auto& pc) { return glob_match(pc.first, name); });
    const auto conf =
        (match != stream_cfgs_.end() ? match->second : stream::StreamConfig{}).normalized();

    Guard lock(local_.scheduler(), mutex_, "stream_begin");
    L5_SHARED_WRITE(this, "streams_", "stream_begin");
    if (streams_.count(name))
        throw Error("lowfive: stream '" + name + "' is already open");
    auto [it, inserted] = streams_.emplace(name, stream::StepWindow(conf));
    auto& window        = it->second;
    window.set_expected_consumers(stream_expected_consumers(name));
    // credit StreamDones that raced ahead of us
    if (auto pd = pending_stream_dones_.find(name); pd != pending_stream_dones_.end()) {
        for (std::uint64_t i = 0; i < pd->second; ++i) window.consumer_done();
        pending_stream_dones_.erase(pd);
    }
    // streams always serve in the background: publishes return while
    // consumers drain, and the thread must exist even before the first
    // publish so an empty stream still answers acquires with eos
    L5_SHARED_WRITE(this, "background_", "stream_begin");
    background_ = true;
    ensure_serve_thread_locked();
    schedule_deferred_retry_locked(); // StepNext requests that raced ahead of the begin
    return conf;
}

void DistMetadataVol::stream_end(const std::string& name) {
    Guard lock(local_.scheduler(), mutex_, "stream_end");
    L5_SHARED_WRITE(this, "streams_", "stream_end");
    auto  it = streams_.find(name);
    if (it == streams_.end()) return; // already retired
    it->second.set_eos();
    schedule_deferred_retry_locked(); // parked acquires past the last step now see eos
    stream_room_locked(name, it->second);
    notify_dones();
}

void DistMetadataVol::stream_subscribe(const std::string& name) {
    if (name.find('\x1f') != std::string::npos)
        throw Error("lowfive: stream name '" + name + "' must not contain the step separator");
    if (route_consume(name) < 0)
        throw Error("lowfive: no producer connection for stream '" + name + "'");
    if (!matches_file(memory_, name))
        throw Error("lowfive: stream '" + name + "' requires in-memory mode");
}

std::optional<stream::StepId> DistMetadataVol::stream_acquire(const std::string& name,
                                                              stream::StepId min) {
    const int ci = route_consume(name);
    if (ci < 0) throw Error("lowfive: no producer connection for stream '" + name + "'");
    auto&     conn   = consume_conns_[static_cast<std::size_t>(ci)];
    const int npeers = conn.ic.peer_size();

    // rank 0 runs the grant/pin protocol on behalf of the whole task;
    // the result is broadcast so every rank steps through the same
    // versions (per-rank windows can diverge under drop/latest_only)
    std::uint64_t raw = 0; // StepId wire encoding: 0 = end of stream
    if (local_.rank() == 0) {
        for (;;) {
            wire::send(conn.ic, 0, wire::StepNext{name, min.valid() ? min.value() : 0});
            const auto grant = wire::recv<wire::StepGrant>(conn.ic, 0);
            if (grant.eos) break; // raw stays 0: eos

            // the coordinator's grant pinned rank 0; pin everywhere else
            const stream::StepId step(grant.step);
            int pinned_until = 1; // producer ranks [0, pinned_until) hold a pin
            for (int p = 1; p < npeers; ++p) {
                wire::send(conn.ic, p, wire::StepPin{name, step.value()});
                if (wire::recv<wire::PinReply>(conn.ic, p).status != wire::PinStatus::pinned)
                    break; // gone on rank p
                pinned_until = p + 1;
            }
            if (pinned_until == npeers) {
                raw = step.value() + 1;
                break;
            }
            // some rank already evicted the step: roll the pins back and
            // retry strictly past it (possible only under drop/latest)
            c_step_pin_rollbacks_.inc();
            for (int p = 0; p < pinned_until; ++p)
                wire::send(conn.ic, p, wire::StepRelease{name, step.value(), /*rollback=*/true});
            min = step.next();
        }
        if (raw != 0) {
            c_steps_acquired_.inc();
            obs::instant("stream.acquire", "lowfive",
                         {{"stream", 0, obs::intern_if_enabled(name)},
                          {"step", raw - 1, nullptr}});
            local_.check_step("acquire", name, raw - 1);
        }
    }
    if (local_.size() > 1) raw = local_.bcast_value(raw, 0);
    if (raw == 0) return std::nullopt;
    return stream::StepId(raw - 1);
}

void DistMetadataVol::stream_release(const std::string& name, stream::StepId step) {
    const int ci = route_consume(name);
    if (ci < 0) throw Error("lowfive: no producer connection for stream '" + name + "'");
    // every rank of the consumer task finished reading before rank 0
    // drops the pins that keep the step alive on the producers
    local_.barrier();
    if (local_.rank() == 0) {
        wire::fan_out(consume_conns_[static_cast<std::size_t>(ci)].ic,
                      wire::StepRelease{name, step.value(), /*rollback=*/false});
        local_.check_step("release", name, step.value());
    }
    // the step snapshot is gone for good: its cached producer sets die
    // with it (each step file is its own cache entry)
    producer_cache_.erase(stream::step_name(name, step));
}

void DistMetadataVol::stream_unsubscribe(const std::string& name) {
    const int ci = route_consume(name);
    if (ci < 0) throw Error("lowfive: no producer connection for stream '" + name + "'");
    local_.barrier(); // the whole task is done with the stream
    if (local_.rank() == 0)
        wire::fan_out(consume_conns_[static_cast<std::size_t>(ci)].ic, wire::StreamDone{name});
}

void DistMetadataVol::stream_admit(simmpi::detail::CoopLock<std::mutex>& lock,
                                   const std::string& base) {
    L5_SHARED_READ(this, "streams_", "stream_admit");
    auto it = streams_.find(base);
    if (it == streams_.end())
        throw Error("lowfive: step publish for unregistered stream '" + base
                    + "' (create a stream::Writer first)");
    auto& window = it->second;
    if (window.config().policy == stream::StepPolicy::Block && !window.can_admit()) {
        c_step_publish_waits_.inc();
        // block policy: wait until a consumer release frees a slot,
        // honoring the explicit timeout or the ambient deadline
        const std::int64_t ms = window.config().timeout_ms > 0 ? window.config().timeout_ms
                                                               : local_.effective_deadline_ms();
        auto*      sched = local_.scheduler();
        const bool ok    = simmpi::detail::coop_wait_deadline(
            sched, dones_cv_, lock, "stream/window", ms, [&] {
                L5_SHARED_READ(this, "serve_error_", "stream/window");
                L5_SHARED_READ(this, "streams_", "stream/window");
                return serve_error_ != nullptr || window.can_admit();
            });
        L5_SHARED_READ(this, "serve_error_", "stream_admit");
        if (serve_error_) std::rethrow_exception(serve_error_);
        if (!ok)
            throw simmpi::TimeoutError(
                ms, "stream/window (step publish backpressure on '" + base + "')", -1, -1);
    }
    L5_SHARED_WRITE(this, "streams_", "stream_admit/make_room");
    for (auto ev : window.make_room()) gc_step_locked(base, ev);
    g_window_occupancy_.set(static_cast<std::int64_t>(window.occupancy()));
}

void DistMetadataVol::publish_step(FileEntry& entry, const std::string& base,
                                   stream::StepId step) {
    L5_SHARED_READ(this, "streams_", "publish_step");
    auto it = streams_.find(base);
    if (it == streams_.end())
        throw Error("lowfive: step publish for unregistered stream '" + base + "'");
    auto& window = it->second;
    index_file(entry);
    L5_SHARED_WRITE(this, "streams_", "publish_step");
    window.publish(step, now_ns());
    c_steps_published_.inc();
    g_window_occupancy_.set(static_cast<std::int64_t>(window.occupancy()));
    obs::instant("stream.publish", "lowfive",
                 {{"stream", 0, obs::intern_if_enabled(base)},
                  {"step", step.value(), nullptr}});
    local_.check_step("publish", base, step.value());
    schedule_deferred_retry_locked(); // grant any parked StepNext that now has its step
    notify_dones();
}

void DistMetadataVol::stream_room_locked(const std::string& base, stream::StepWindow& window) {
    L5_SHARED_WRITE(this, "streams_", "stream_room");
    for (auto ev : window.reap()) gc_step_locked(base, ev);
    if (window.drained()) {
        // terminal GC: eos reached, every consumer finished, nothing
        // pinned — whatever remains was never going to be read
        for (auto ev : window.clear()) gc_step_locked(base, ev);
        streams_.erase(base);
        g_window_occupancy_.set(0);
        notify_dones(); // finish_serving may be waiting on this retirement
        return;
    }
    g_window_occupancy_.set(static_cast<std::int64_t>(window.occupancy()));
}

void DistMetadataVol::gc_step_locked(const std::string& base, stream::StepWindow::Evicted ev) {
    const std::string name = stream::step_name(base, ev.step);
    // retire the step's whole snapshot line — including its version
    // counter, or a long stream accumulates one entry per step forever.
    // The tree itself survives as long as an in-flight query pins it.
    snapshots_.retire(name, /*forget_versions=*/true);
    files_.erase(name);
    if (ev.dropped) {
        c_steps_dropped_.inc();
        obs::instant("stream.drop", "lowfive",
                     {{"stream", 0, obs::intern_if_enabled(base)},
                      {"step", ev.step.value(), nullptr}});
    }
}

bool DistMetadataVol::streams_drained_locked() const {
    // drained streams are retired eagerly (stream_room_locked), so any
    // remaining entry is still live
    return streams_.empty();
}

std::uint64_t DistMetadataVol::stream_expected_consumers(const std::string& base) const {
    std::uint64_t n = 0;
    for (const auto& c : serve_conns_)
        if (glob_match(c.pattern, base)) ++n; // one consumer task per connection
    return n;
}

void DistMetadataVol::ensure_serve_thread_locked() {
    if (serve_thread_.joinable() || serve_conns_.empty()) return;
    serve_thread_ =
        simmpi::detail::spawn_participant(local_.scheduler(), "serve", [this] { serve_loop(); });
}

// --- file lifecycle hooks ------------------------------------------------------

void DistMetadataVol::after_file_close(FileEntry& entry) {
    if (entry.remote) {
        if (stream::split_step_name(entry.name)) {
            // consumer closing a step snapshot: the pins are dropped by
            // Reader::next_step/close (collectively, via stream_release);
            // the per-step cache entries die with the step there too
            return;
        }
        // plain remote file: tell every producer rank we are done with
        // it; one shared payload fans out to all of them. The intersect
        // cache survives the close — entries are valid for exactly one
        // publish version, so a rewrite can never serve stale sets. The
        // Done names the version this round opened: the producers keep
        // that snapshot (and any later one) pinned, releasing only the
        // strictly older versions this rank can never read again.
        wire::fan_out(consume_conns_[static_cast<std::size_t>(entry.conn)].ic,
                      wire::Done{entry.name, entry.version});
        return;
    }

    if (!entry.writable) return; // closing a reopened local file: nothing to do
    entry.writable = false;

    if (auto split = stream::split_step_name(entry.name)) {
        // producer closing a writable step snapshot: publish it into the
        // stream's staging window (admission already ran in file_close)
        publish_step(entry, split->first, split->second);
        return;
    }

    std::vector<Conn*> matching;
    for (auto& c : serve_conns_)
        if (glob_match(c.pattern, entry.name)) matching.push_back(&c);
    if (matching.empty()) return;

    if (entry.memory && entry.root) {
        index_file(entry);
        // one owed round and one round pin per (connection, rank) — the
        // version this publish installed stays live until every consumer
        // rank finished its round, no matter how many rewrites follow.
        // Created here (not by a wire op) so a pin can never race GC.
        L5_SHARED_WRITE(this, "rounds_", "after_file_close");
        for (auto* c : matching) {
            const std::size_t ci = static_cast<std::size_t>(c - serve_conns_.data());
            for (int p = 0; p < c->ic.peer_size(); ++p) {
                auto& owed = rounds_[{ci, p, entry.name}];
                if (++owed.rounds > 0) ++rounds_owed_; // else a background credit paid it
                owed.pins.push_back(snapshots_.pin(entry.name));
            }
        }
        // the serve thread answers the round (a sync close waits for it
        // in file_close). Under a deterministic scheduler the server
        // becomes an auxiliary task attached at this exact point.
        ensure_serve_thread_locked();
        schedule_deferred_retry_locked(); // opens that ran ahead of this publish
    } else if (local_.rank() == 0) {
        // passthru-only file: physical file is complete (collective close
        // barriered); notify consumers it is ready to be opened
        for (auto* c : matching) wire::fan_out(c->ic, wire::Ready{entry.name});
    }
}

void* DistMetadataVol::file_open(const std::string& name) {
    {
        // local (possibly retained) files win over remote connections
        Guard lock(local_.scheduler(), mutex_, "file_open");
        auto  it = files_.find(name);
        if (it != files_.end() && it->second.root && !it->second.remote)
            return MetadataVol::file_open(name);
    }

    int ci = route_consume(name);
    if (ci < 0) {
        Guard lock(local_.scheduler(), mutex_, "file_open");
        return MetadataVol::file_open(name);
    }
    auto& conn = consume_conns_[static_cast<std::size_t>(ci)];

    if (!matches_file(memory_, stream::base_name(name))) {
        // file mode: wait for the producer's ready notification, then do a
        // physical open
        const auto ready = wire::recv<wire::Ready>(conn.ic, 0);
        if (ready.name != name)
            throw Error("lowfive: out-of-order file-ready: expected '" + name + "', got '"
                        + ready.name + "'");
        Guard lock(local_.scheduler(), mutex_, "file_open");
        return MetadataVol::file_open(name);
    }

    // in-situ: fetch the metadata skeleton from a producer rank
    const int target = local_.rank() % conn.ic.peer_size();
    wire::send(conn.ic, target, wire::MetadataQuery{name});
    auto reply = wire::recv<wire::MetadataReply>(conn.ic, target);

    FileEntry entry;
    entry.name    = name;
    entry.remote  = true;
    entry.conn    = ci;
    entry.version = reply.version;
    entry.root    = std::move(reply.root);
    // eager cache GC: opening a newer publish version supersedes every
    // cached producer set of the old one — evict them now so a long
    // rewrite sequence cannot accumulate dead entries
    auto& fc = producer_cache_[name];
    if (fc.version != entry.version) {
        fc.sets.clear();
        fc.version = entry.version;
    }
    Guard lock(local_.scheduler(), mutex_, "file_open");
    auto [it2, _] = files_.insert_or_assign(name, std::move(entry));
    return make_handle(it2->second, it2->second.root.get(), nullptr);
}

// --- consumer: query (Algorithm 3) ----------------------------------------------

void DistMetadataVol::remote_dataset_read(FileEntry& f, Object* node, const Dataspace& memspace,
                                          const Dataspace& filespace, void* buf) {
    if (!node || node->kind != ObjectKind::Dataset)
        throw Error("lowfive: remote read on a non-dataset handle");
    if (memspace.npoints() != filespace.npoints())
        throw Error("lowfive: remote read selection size mismatch");
    if (filespace.npoints() == 0) return;

    auto&             conn = consume_conns_[static_cast<std::size_t>(f.conn)];
    const std::string dset = node->path();
    const std::size_t elem = node->type.size();
    const int         n    = conn.ic.peer_size();

    obs::ScopedTimerNs q_timer(c_t_query_ns_, &h_query_ns_);
    obs::Span          q_span("query.read", "lowfive",
                              {{"dset", 0, obs::intern_if_enabled(dset)},
                               {"points", filespace.npoints(), nullptr}});

    // Step 1: common decomposition; the index-owning blocks to ask
    diy::RegularDecomposer decomp(node->space.extent_bounds(), n);
    diy::Bounds            bb = filespace.bounding_box();

    // did an earlier read of this (file, dataset, bounds) already learn
    // which producers answer it? The file's cache is valid for exactly
    // one publish version: a rewrite bumps it, which both prevents stale
    // hits and evicts the dead generation eagerly.
    diy::BinaryBuffer kb;
    bb.save(kb);
    std::string key = dset;
    key.push_back('\0');
    key.append(reinterpret_cast<const char*>(kb.data().data()), kb.size());
    FileCache& fc = producer_cache_[f.name];
    if (fc.version != f.version) {
        fc.sets.clear();
        fc.version = f.version;
    }

    // the version this consumer opened: the producer pins exactly that
    // snapshot, so the reply is byte-identical to the opened file even
    // while a rewrite is being published
    wire::DataQuery              data_query{0, f.name, dset, f.version, filespace};
    std::map<std::uint64_t, int> pending_data; // req id -> producer rank
    auto send_data_query = [&](int p) {
        data_query.req_id = next_req_id_++;
        wire::send(conn.ic, p, data_query);
        pending_data.emplace(data_query.req_id, p);
        c_data_queries_.inc();
    };

    if (auto it = fc.sets.find(key); it != fc.sets.end()) {
        // cache hit: skip the intersect round entirely
        c_cache_hits_.inc();
        obs::instant("cache.hit", "lowfive", {{"producers", it->second.size(), nullptr}});
        for (int p : it->second) send_data_query(p);
    } else {
        c_cache_misses_.inc();
        obs::instant("cache.miss", "lowfive");
        obs::ScopedTimerNs i_timer(c_t_intersect_ns_);
        obs::Span          i_span("query.intersect", "lowfive");
        // issue every intersect query up front...
        wire::IntersectQuery         query{0, f.name, dset, f.version, bb};
        std::map<std::uint64_t, int> pending; // req id -> index block rank
        for (int p : decomp.intersecting_blocks(bb)) {
            query.req_id = next_req_id_++;
            wire::send(conn.ic, p, query);
            pending.emplace(query.req_id, p);
            c_intersect_queries_.inc();
        }
        // ...and drain replies in arrival order (they may complete out of
        // rank order); a data query goes out the moment a reply first
        // names a producer, overlapping with the remaining intersect round
        std::set<std::int32_t> seen;
        while (!pending.empty()) {
            int        from  = -1;
            const auto reply = wire::recv<wire::IntersectReply>(conn.ic, simmpi::any_source, &from);
            auto       pit   = pending.find(reply.req_id);
            if (pit == pending.end() || pit->second != from)
                throw Error("lowfive: intersect reply with unexpected id or source");
            pending.erase(pit);
            for (auto r : reply.ranks)
                if (seen.insert(r).second) send_data_query(static_cast<int>(r));
        }
        fc.sets[key].assign(seen.begin(), seen.end());
    }

    // Step 2: merge each reply piece into the caller's buffer as it
    // arrives; every reply buffer and aliased payload stays alive until
    // finish(), which replays the pieces only when they left holes
    obs::ScopedTimerNs d_timer(c_t_data_ns_);
    obs::Span          d_span("query.data", "lowfive",
                              {{"producers", pending_data.size(), nullptr}});
    std::uint64_t                      fetched = 0;
    h5::ReadAssembly                   out(filespace, memspace, buf, elem);
    std::deque<diy::BinaryBuffer>      replies;
    std::vector<simmpi::SharedPayload> payloads;
    while (!pending_data.empty()) {
        int   from  = -1;
        auto& reply = replies.emplace_back(
            wire::recv_buffer(conn.ic, simmpi::any_source, wire::tag_data_reply, &from));
        const auto head = wire::decode<wire::DataReplyHead>(reply);
        auto       pit  = pending_data.find(head.req_id);
        if (pit == pending_data.end() || pit->second != from)
            throw Error("lowfive: data reply with unexpected id or source");
        pending_data.erase(pit);
        for (std::uint64_t k = 0; k < head.npieces; ++k) {
            auto                    piece = wire::load_piece_head(reply, filespace, elem);
            std::vector<h5::SelRun> located; // empty: inline, packed in sub's order
            const std::byte*        src = nullptr;
            if (piece.enc == wire::PieceEncoding::aliased) {
                // zero-copy piece: the producer's whole packed buffer
                // follows as its own message on the same (src, tag)
                // stream; the header says where sub sits in it, checked
                // against the payload's size before any byte is copied
                const auto& payload =
                    payloads.emplace_back(wire::recv_aliased_payload(conn.ic, from));
                located = wire::load_aliased_header(reply, piece.sub, payload->size(), elem);
                src     = payload->data();
            } else {
                src = reply.skip(piece.nbytes); // inline: merged in place
            }
            fetched += piece.nbytes;
            obs::ScopedTimerNs copy_timer(c_t_copy_ns_);
            out.add(std::move(piece.sub), std::move(located), src);
        }
    }
    c_bytes_fetched_.add(fetched);
    d_span.end_arg("bytes", fetched);
    obs::ScopedTimerNs copy_timer(c_t_copy_ns_);
    out.finish();
}

} // namespace lowfive
