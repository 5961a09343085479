#pragma once

#include "error.hpp"
#include "message.hpp"
#include "world.hpp"

#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace simmpi {

class Request;

/// A communicator handle, modelled on MPI. Intracommunicators connect a
/// group of ranks to itself; intercommunicators connect a local group to
/// a disjoint remote (peer) group — sends and receives then address peer
/// ranks, exactly as in MPI intercommunicators.
///
/// Handles are cheap to copy; copies refer to the same communicator.
/// Collectives must be called by every member of the (local) group in the
/// same order, as in MPI.
class Comm {
public:
    Comm() = default;

    int  rank() const { return rank_; }
    int  size() const { return static_cast<int>(group_.size()); }

    // --- deadlines --------------------------------------------------------

    /// Copy of this handle whose blocking waits (recv/probe/collectives)
    /// time out after `ms` milliseconds with TimeoutError. `ms == 0`
    /// disables any deadline (overriding the world default); `ms < 0`
    /// restores inheritance of the world default.
    Comm with_deadline(std::int64_t ms) const {
        Comm c       = *this;
        c.timeout_ms_ = ms;
        return c;
    }

    /// World-default deadline applied to every blocking wait of every
    /// communicator of this world that has no per-handle override;
    /// `ms <= 0` disables. Seeded from `L5_TIMEOUT_MS` by Runtime::run.
    void set_default_deadline(std::int64_t ms) const;

    /// The deadline this handle's blocking waits run under (-1 = none).
    std::int64_t effective_deadline_ms() const;

    /// The deterministic cooperative scheduler of this world, or nullptr
    /// in normal (free-running) mode. Code that spawns helper threads or
    /// shares locks across rank-threads uses this to participate in the
    /// schedule (spawn_participant / CoopLock / coop_wait).
    detail::Scheduler* scheduler() const { return world_ ? world_->sched() : nullptr; }

    // --- correctness-checker annotations ---------------------------------

    /// Declare [lo, hi] a control-tag range owned by `owner` and claim
    /// this communicator for it: traffic using these tags on *unclaimed*
    /// communicators is diagnosed as a tag collision, and any-source
    /// receives of these tags here are treated as an order-insensitive
    /// service drain (exempt from the wildcard-race check). No-op when
    /// the checker is off.
    void check_reserve_tags(int lo, int hi, const char* owner) const {
        if (!world_) throw Error("simmpi: operation on an invalid communicator");
        if (auto* ck = world_->checker()) ck->reserve_tags(context_, lo, hi, owner);
    }

    /// Declare any-source receives of `tag` (any_tag = every tag) on this
    /// communicator intentionally order-insensitive — the program's result
    /// does not depend on the match order. `why` documents the audit
    /// decision. No-op when the checker is off.
    void check_commutative(int tag, const char* why) const {
        if (!world_) throw Error("simmpi: operation on an invalid communicator");
        if (auto* ck = world_->checker()) ck->allow_wildcard(context_, tag, why);
    }

    /// Report a component-owned resource leak found at a finalize-like
    /// point (l5check::Checker::on_leak); `kind` is the diagnostic kind
    /// (e.g. "leaked-snapshot-pin"). No-op when the checker is off.
    void check_leak(const char* kind, const std::string& message) const {
        if (!world_) throw Error("simmpi: operation on an invalid communicator");
        if (auto* ck = world_->checker()) ck->on_leak(world_rank(), kind, message);
    }

    /// Feed a stream step lifecycle event ("publish", "acquire",
    /// "release") to the checker's step-order lint (step versions must
    /// move strictly forward per rank and stream; see
    /// l5check::Checker::on_step). No-op when the checker is off.
    void check_step(const char* event, const std::string& stream, std::uint64_t step) const {
        if (!world_) throw Error("simmpi: operation on an invalid communicator");
        if (auto* ck = world_->checker()) ck->on_step(world_rank(), event, stream, step);
    }

    /// Number of ranks messages can be addressed to (remote group size for
    /// intercommunicators, local size otherwise).
    int  peer_size() const { return static_cast<int>(peer_group_.size()); }
    bool is_inter() const { return inter_; }
    bool valid() const { return world_ != nullptr; }

    // --- point-to-point -------------------------------------------------

    /// Buffered send: returns as soon as the payload is enqueued at `dest`.
    void send(int dest, int tag, const void* data, std::size_t bytes) const;
    void send(int dest, int tag, std::vector<std::byte>&& payload) const;

    /// Zero-copy fan-out send: enqueue a refcounted payload without
    /// copying. Sending the same SharedPayload to N destinations shares
    /// one buffer instead of making N copies (used by serve notifications
    /// and collective roots).
    void send_shared(int dest, int tag, SharedPayload payload) const;

    /// Receive into a freshly sized vector. `src` may be any_source, `tag`
    /// may be any_tag.
    Status recv(int src, int tag, std::vector<std::byte>& out) const;

    /// Receive into caller storage; throws if the message exceeds `capacity`.
    Status recv_into(int src, int tag, void* buf, std::size_t capacity) const;

    /// Receive a message as its refcounted payload, without copying even
    /// when the sender retains the buffer (unlike recv, which copies
    /// whenever it is not the sole owner). The bytes stay valid and
    /// immutable for the payload's lifetime; used by the zero-copy data
    /// plane to scatter straight out of a producer's dataset buffer.
    Status recv_shared(int src, int tag, SharedPayload& out) const;

    /// Blocking probe: waits for a matching message without consuming it.
    Status probe(int src, int tag) const;
    /// Nonblocking probe.
    std::optional<Status> iprobe(int src, int tag) const;

    /// Blocking probe across several communicators that share this rank's
    /// mailbox (e.g., the intercommunicators a server rank serves).
    /// Returns when a matching message is queued on any of them; `which`
    /// receives the index into `comms`. Blocks without spinning.
    static Status probe_any(std::span<const Comm* const> comms, int src, int tag,
                            std::size_t* which);

    Request isend(int dest, int tag, const void* data, std::size_t bytes) const;
    Request irecv(int src, int tag, std::vector<std::byte>& out) const;

    // --- typed convenience ----------------------------------------------

    template <typename T>
    void send_value(int dest, int tag, const T& value) const {
        static_assert(std::is_trivially_copyable_v<T>);
        send(dest, tag, &value, sizeof(T));
    }

    template <typename T>
    T recv_value(int src, int tag, Status* status = nullptr) const {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        Status st = recv_into(src, tag, &value, sizeof(T));
        if (st.count != sizeof(T)) {
            check_count(src, tag, "recv_value", sizeof(T), st.count);
            throw Error("simmpi: recv_value size mismatch");
        }
        if (status) *status = st;
        return value;
    }

    template <typename T>
    void send_span(int dest, int tag, std::span<const T> data) const {
        static_assert(std::is_trivially_copyable_v<T>);
        send(dest, tag, data.data(), data.size_bytes());
    }

    template <typename T>
    std::vector<T> recv_vector(int src, int tag, Status* status = nullptr) const {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<std::byte> raw;
        Status st = recv(src, tag, raw);
        if (st.count % sizeof(T) != 0) {
            check_count(src, tag, "recv_vector", sizeof(T), st.count);
            throw Error("simmpi: recv_vector size not a multiple of element size");
        }
        std::vector<T> out(st.count / sizeof(T));
        std::memcpy(out.data(), raw.data(), st.count);
        if (status) *status = st;
        return out;
    }

    // --- collectives (intracommunicators only) ---------------------------

    void barrier() const;

    /// Broadcast `data` from `root` to every rank; non-roots receive into
    /// `data` (resized as needed).
    void bcast(std::vector<std::byte>& data, int root) const;

    template <typename T>
    T bcast_value(T value, int root) const {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<std::byte> buf(sizeof(T));
        if (rank_ == root) std::memcpy(buf.data(), &value, sizeof(T));
        bcast_n(buf, root, sizeof(T));
        std::memcpy(&value, buf.data(), sizeof(T));
        return value;
    }

    /// Gather every rank's payload at `root`; result indexed by rank
    /// (empty elsewhere).
    std::vector<std::vector<std::byte>> gather(std::span<const std::byte> mine, int root) const;

    /// Allgather: every rank receives every rank's payload, indexed by rank.
    std::vector<std::vector<std::byte>> allgather(std::span<const std::byte> mine) const;

    template <typename T>
    std::vector<T> allgather_value(const T& value) const {
        static_assert(std::is_trivially_copyable_v<T>);
        auto raw = allgather_n(std::span<const std::byte>(
                                   reinterpret_cast<const std::byte*>(&value), sizeof(T)),
                               sizeof(T));
        std::vector<T> out(raw.size());
        for (std::size_t i = 0; i < raw.size(); ++i)
            std::memcpy(&out[i], raw[i].data(), sizeof(T));
        return out;
    }

    /// Elementwise reduction with a binary op; every rank gets the result.
    template <typename T, typename Op = std::plus<T>>
    T allreduce(T value, Op op = Op{}) const {
        auto all = allgather_value(value);
        T acc = all[0];
        for (std::size_t i = 1; i < all.size(); ++i)
            acc = op(acc, all[i]);
        return acc;
    }

    /// Personalized all-to-all: `outgoing[r]` goes to rank r; returns the
    /// payloads received, indexed by source rank.
    std::vector<std::vector<std::byte>> alltoall(std::vector<std::vector<std::byte>>&& outgoing) const;

    /// Scatter: root's `parts[r]` goes to rank r; every rank returns its
    /// part (`parts` ignored on non-roots).
    std::vector<std::byte> scatter(std::vector<std::vector<std::byte>>&& parts, int root) const;

    template <typename T>
    T scatter_value(const std::vector<T>& values, int root) const {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<std::vector<std::byte>> parts;
        if (rank() == root) {
            if (static_cast<int>(values.size()) != size())
                throw Error("simmpi: scatter_value needs one value per rank");
            parts.resize(values.size());
            for (std::size_t r = 0; r < values.size(); ++r) {
                parts[r].resize(sizeof(T));
                std::memcpy(parts[r].data(), &values[r], sizeof(T));
            }
        }
        auto mine = scatter_n(std::move(parts), root, sizeof(T));
        T    out{};
        std::memcpy(&out, mine.data(), sizeof(T));
        return out;
    }

    /// Rooted reduction: result valid on `root` only.
    template <typename T, typename Op = std::plus<T>>
    T reduce(T value, int root, Op op = Op{}) const {
        auto parts = gather_n(std::span<const std::byte>(
                                  reinterpret_cast<const std::byte*>(&value), sizeof(T)),
                              root, sizeof(T));
        if (rank() != root) return T{};
        T acc{};
        bool first = true;
        for (const auto& p : parts) {
            T v{};
            std::memcpy(&v, p.data(), sizeof(T));
            acc   = first ? v : op(acc, v);
            first = false;
        }
        return acc;
    }

    /// Typed gather of one value per rank; result valid on root only.
    template <typename T>
    std::vector<T> gather_values(const T& value, int root) const {
        static_assert(std::is_trivially_copyable_v<T>);
        auto parts = gather_n(std::span<const std::byte>(
                                  reinterpret_cast<const std::byte*>(&value), sizeof(T)),
                              root, sizeof(T));
        std::vector<T> out;
        if (rank() == root) {
            out.resize(parts.size());
            for (std::size_t r = 0; r < parts.size(); ++r) std::memcpy(&out[r], parts[r].data(), sizeof(T));
        }
        return out;
    }

    /// Combined send+receive (deadlock-free: the send is buffered).
    Status sendrecv(int dest, int sendtag, const void* sendbuf, std::size_t sendbytes, int src,
                    int recvtag, std::vector<std::byte>& out) const {
        send(dest, sendtag, sendbuf, sendbytes);
        return recv(src, recvtag, out);
    }

    /// Exclusive prefix sum over one value per rank (rank 0 gets T{}).
    template <typename T>
    T exscan(const T& value) const {
        auto all = allgather_value(value);
        T    acc{};
        for (int r = 0; r < rank(); ++r) acc = acc + all[static_cast<std::size_t>(r)];
        return acc;
    }

    // --- communicator management -----------------------------------------

    /// Split into disjoint subcommunicators by color; ranks ordered by
    /// (key, parent rank). Collective over this communicator.
    Comm split(int color, int key = 0) const;

    Comm dup() const;

    /// Build an intercommunicator between two disjoint rank subsets of
    /// `parent`. Collective over the whole parent communicator; ranks not
    /// in either group receive an invalid Comm. Rank lists are parent ranks.
    static Comm create_intercomm(const Comm&             parent,
                                 std::span<const int>    group_a,
                                 std::span<const int>    group_b);

private:
    friend class Runtime;
    friend class Request;

    Comm(std::shared_ptr<detail::World> world, std::uint64_t context,
         std::vector<int> group, std::vector<int> peer_group, int rank, bool inter)
        : world_(std::move(world)), context_(context), group_(std::move(group)),
          peer_group_(std::move(peer_group)), rank_(rank), inter_(inter),
          coll_seq_(std::make_shared<std::uint32_t>(0)) {}

    detail::Mailbox& my_mailbox() const {
        return world_->mailbox(group_[static_cast<std::size_t>(rank_)]);
    }
    detail::Mailbox& peer_mailbox(int dest) const;

    int world_rank() const { return group_[static_cast<std::size_t>(rank_)]; }

    /// Resolve this handle's timeout (per-handle override or world
    /// default) into an absolute deadline for one blocking wait.
    detail::Deadline deadline() const;

    /// Fault-injection hook: one pointer check when no plan is installed.
    void fault_op(int tag, bool is_send) const {
        if (auto* f = world_->faults()) f->on_op(world_rank(), tag, is_send);
    }

    /// Deterministic-scheduler hook at the entry of every communication
    /// op: one pointer check when no scheduler is installed.
    void sched_point(const char* site) const {
        if (auto* s = world_->sched()) s->yield(site);
    }

    std::uint64_t coll_context() const { return context_ + 1; }

    void check_intra(const char* what) const {
        if (inter_) throw Error(std::string("simmpi: ") + what + " requires an intracommunicator");
    }

    /// Correctness-checker hooks: one pointer check when no checker is
    /// installed. `check_count` feeds a typed receive's failed buffer
    /// contract to the checker (which throws first in raise mode).
    l5check::Checker* checker() const { return world_->checker(); }
    void check_count(int src, int tag, const char* what, std::size_t expected,
                     std::size_t got) const;
    void coll_check(const char* kind, int root, std::size_t elem) const;

    /// World rank of peer `dest`, or the wildcard unchanged.
    int peer_world_rank(int dest) const {
        return dest < 0 ? dest : peer_group_[static_cast<std::size_t>(dest)];
    }

    // Collective bodies with the caller's element size threaded through
    // (sizeof(T) from the typed wrappers, 0 = unknown from the raw byte
    // entry points) so the checker can flag ranks entering the same
    // collective with different element types.
    void bcast_n(std::vector<std::byte>& data, int root, std::size_t elem) const;
    std::vector<std::vector<std::byte>> gather_n(std::span<const std::byte> mine, int root,
                                                 std::size_t elem) const;
    std::vector<std::vector<std::byte>> allgather_n(std::span<const std::byte> mine,
                                                    std::size_t elem) const;
    std::vector<std::byte> scatter_n(std::vector<std::vector<std::byte>>&& parts, int root,
                                     std::size_t elem) const;

    // Internal collective helpers using the collective context. The move
    // and shared overloads avoid per-destination copies when the caller
    // already owns the bytes (alltoall/scatter) or fans one buffer out to
    // the whole group (bcast).
    void coll_send(int dest, int tag, std::span<const std::byte> data) const;
    void coll_send(int dest, int tag, std::vector<std::byte>&& data) const;
    void coll_send_shared(int dest, int tag, SharedPayload data) const;
    std::vector<std::byte> coll_recv(int src, int tag) const;

    std::shared_ptr<detail::World> world_;
    std::uint64_t                  context_ = 0; ///< pt2pt context; +1 = collective context
    std::vector<int>               group_;       ///< my group, comm rank -> world rank
    std::vector<int>               peer_group_;  ///< destination group (== group_ unless inter)
    int                            rank_  = -1;
    bool                           inter_ = false;
    std::int64_t                   timeout_ms_ = -1; ///< per-handle deadline (-1 = world default)
    std::shared_ptr<std::uint32_t> coll_seq_;    ///< ordered-collective sequence number
};

/// Handle for a nonblocking operation. Buffered sends complete immediately;
/// pending receives complete in wait()/test().
class Request {
public:
    Request() = default;

    /// Block until the operation completes. Honors the communicator's
    /// deadline and the world abort: a dead peer yields AbortedError /
    /// TimeoutError here instead of an indefinite block.
    Status wait();
    /// Nonblocking completion check; fills `status` when done.
    bool test(Status* status = nullptr);
    bool done() const { return done_; }

private:
    friend class Comm;

    static Request completed_send(std::size_t bytes) {
        Request r;
        r.done_         = true;
        r.status_.count = bytes;
        return r;
    }
    static Request pending_recv(const Comm& comm, int src, int tag, std::vector<std::byte>* out) {
        Request r;
        r.comm_ = comm;
        r.src_  = src;
        r.tag_  = tag;
        r.out_  = out;
        return r;
    }

    Comm                    comm_;
    int                     src_ = -1;
    int                     tag_ = -1;
    std::vector<std::byte>* out_ = nullptr;
    bool                    done_ = false;
    Status                  status_;
    std::uint64_t           check_id_ = 0; ///< checker request id (0 = untracked)
};

/// Wait on a batch of requests.
void wait_all(std::span<Request> requests);

} // namespace simmpi
