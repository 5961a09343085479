#pragma once

/// MVCC snapshot index for DistMetadataVol (ROADMAP item 2).
///
/// Every publish of a file — a plain file close or a streaming `end_step`
/// — freezes the file's state into an immutable `Snapshot`: the metadata
/// tree (shared with the producer's FileEntry, never mutated after close)
/// plus the Algorithm-1 index (dataset path → (bounding box, producer
/// rank) entries this rank owns). Snapshots are installed with an atomic
/// root swap and read lock-free:
///
///  - **publish** (producer thread, serialized per vol) builds the new
///    Snapshot, supersedes the previous current version of the same name,
///    and swaps a copy-on-write name→snapshot root pointer;
///  - **pin** (any thread) loads the root pointer, bumps the snapshot's
///    refcount, and hands out an RAII `SnapshotPin`; reading through a
///    pin touches no lock — the tree and index are frozen. Pinning an
///    exact superseded-but-live version falls back to a small leaf mutex
///    (the control path), still never the vol's serve mutex;
///  - **GC**: a superseded version is dropped from the live set as soon
///    as no pin holds it — either at the publish that superseded it or
///    when the last reader unpins. In-flight zero-copy serve payloads
///    alias the snapshot through its shared_ptr, so the bytes stay valid
///    on the wire even after the version left the live set.
///
/// The store also backs the no-lock-after-pin lint: when armed (L5_CHECK),
/// acquiring the vol's serve mutex inside a `ReadSection` (entered after a
/// query handler pins its snapshot) raises a "serve-lock-after-pin"
/// CheckError — the acceptance contract that the serve-side query path
/// stays lock-free past the pin.

#include <diy/bounds.hpp>
#include <h5/tree.hpp>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace obs {
class Counter;
class Gauge;
} // namespace obs

namespace lowfive::mvcc {

/// Per-dataset index entries: (bounding box, producer rank) pairs for the
/// common-decomposition blocks this rank owns (Algorithm 1's output).
using IndexEntries = std::vector<std::pair<diy::Bounds, int>>;
using IndexMap     = std::map<std::string, IndexEntries>;

class SnapshotStore;

/// One immutable published version of one file: the frozen metadata tree
/// and the per-dataset index. Reached only through a SnapshotPin (or a
/// shared_ptr alias kept by an in-flight zero-copy payload).
class Snapshot {
public:
    const std::string& name() const { return name_; }
    std::uint64_t      version() const { return version_; }
    std::uint64_t      publish_ns() const { return publish_ns_; }

    /// The frozen metadata tree. Non-const Object because resolve() and
    /// the piece extractors are non-const; the tree is immutable by
    /// contract once published (file close froze it).
    h5::Object* root() const { return root_.get(); }

    /// Index entries for one dataset path; nullptr when the dataset has
    /// no indexed writes on this rank.
    const IndexEntries* index_for(const std::string& dset) const {
        auto it = index_.find(dset);
        return it == index_.end() ? nullptr : &it->second;
    }

    Snapshot(const Snapshot&)            = delete;
    Snapshot& operator=(const Snapshot&) = delete;

private:
    friend class SnapshotStore;
    friend class SnapshotPin;
    Snapshot() = default;

    std::string                 name_;
    std::uint64_t               version_    = 0;
    std::uint64_t               publish_ns_ = 0;
    std::shared_ptr<h5::Object> root_;
    IndexMap                    index_;

    // GC state: pin count and the superseded flag use seq_cst so the
    // last-unpin / supersede race cannot lose the GC on both sides.
    // Both mutable: the live set hands out shared_ptr<const Snapshot>,
    // and pin/supersede are bookkeeping, not logical mutation.
    mutable std::atomic<std::uint64_t> pins_{0};
    mutable std::atomic<bool>          superseded_{false};
    std::weak_ptr<struct StoreState>   state_; ///< GC + accounting back-ref
};

/// RAII pin: keeps one snapshot version alive and readable. Move-only;
/// destroying (or release()-ing) the last pin of a superseded version
/// garbage-collects it from the store's live set.
class SnapshotPin {
public:
    SnapshotPin() = default;
    SnapshotPin(SnapshotPin&& o) noexcept : snap_(std::move(o.snap_)) {}
    SnapshotPin& operator=(SnapshotPin&& o) noexcept {
        if (this != &o) {
            release();
            snap_ = std::move(o.snap_);
        }
        return *this;
    }
    SnapshotPin(const SnapshotPin&)            = delete;
    SnapshotPin& operator=(const SnapshotPin&) = delete;
    ~SnapshotPin() { release(); }

    /// Drop the pin now (idempotent); runs the last-unpin GC.
    void release();

    explicit operator bool() const { return snap_ != nullptr; }
    const Snapshot* operator->() const { return snap_.get(); }
    const Snapshot& operator*() const { return *snap_; }
    const Snapshot* get() const { return snap_.get(); }

    /// The snapshot as a shared_ptr, for aliasing its buffers into
    /// zero-copy wire payloads that may outlive the pin.
    std::shared_ptr<const Snapshot> shared() const { return snap_; }

private:
    friend class SnapshotStore;
    explicit SnapshotPin(std::shared_ptr<const Snapshot> s);
    std::shared_ptr<const Snapshot> snap_;
};

/// The versioned snapshot store: one per DistMetadataVol (per rank).
/// publish/retire run on the producer thread (serialized by the vol's
/// control lock); pin/unpin run on any thread, lock-free on the current
/// version.
class SnapshotStore {
public:
    /// Optional externally owned instruments (a vol's metrics registry);
    /// any may be null. The store publishes:
    ///   n_snapshots_live (gauge)  — versions in the live set (current +
    ///                               superseded-but-pinned)
    ///   n_snapshot_pins (counter) — pins ever taken
    ///   n_snapshot_gc  (counter)  — versions dropped from the live set
    struct Metrics {
        obs::Gauge*   live = nullptr;
        obs::Counter* pins = nullptr;
        obs::Counter* gc   = nullptr;
    };

    // (explicit init list: a nested class's default member initializers
    // are not usable in a default argument of its enclosing class)
    explicit SnapshotStore(Metrics m = Metrics{nullptr, nullptr, nullptr});
    ~SnapshotStore();

    SnapshotStore(const SnapshotStore&)            = delete;
    SnapshotStore& operator=(const SnapshotStore&) = delete;

    /// Install a new current version of `name` (monotonic per-name
    /// version numbers), superseding — and GC'ing, when unpinned — the
    /// previous current one. Returns a pin of the new version.
    SnapshotPin publish(const std::string& name, std::shared_ptr<h5::Object> root,
                        IndexMap index, std::uint64_t publish_ns);

    /// Drop `name`'s current version (file dropped / step evicted).
    /// Superseded-but-pinned versions stay live until their last unpin.
    /// `forget_versions` additionally erases the per-name version counter
    /// — for step names, which are never republished, so a long stream
    /// does not accumulate counters.
    void retire(const std::string& name, bool forget_versions = false);

    /// Pin the current version of `name`; empty pin when none. Lock-free:
    /// an atomic root load plus one refcount increment.
    SnapshotPin pin(const std::string& name) const;

    /// Pin exactly version `version` of `name`: lock-free when it is
    /// current, a leaf-mutex lookup of the superseded-but-live set
    /// otherwise; empty pin when that version is gone.
    SnapshotPin pin(const std::string& name, std::uint64_t version) const;

    /// The version the last publish of `name` got; 0 before the first
    /// (and after a retire that forgot the name's versions).
    std::uint64_t last_version(const std::string& name) const;

    /// Live versions across all names (the n_snapshots_live gauge).
    std::size_t live_snapshots() const;
    /// SnapshotPin handles currently alive (the leaked-pin lint input).
    std::uint64_t outstanding_pins() const;

private:
    std::shared_ptr<StoreState> state_;
};

/// --- no-lock-after-pin lint ------------------------------------------------

/// Arm/disarm the serve-lock-after-pin lint (process-wide; armed by
/// DistMetadataVol when L5_CHECK is set, or directly by tests).
void set_lock_lint(bool armed);
bool lock_lint_armed();

/// A pinned read section: the serve-side query path enters one right
/// after pinning its snapshot. Thread-local depth; always cheap. Also a
/// pseudo-lock of l5race class "mvcc.read_section", so entering one may
/// throw RaceError in raise mode on a lock-order violation.
class ReadSection {
public:
    ReadSection();
    ~ReadSection();
    ReadSection(const ReadSection&)            = delete;
    ReadSection& operator=(const ReadSection&) = delete;
};
bool in_read_section() noexcept;

/// Called by the vol's serve-state lock wrappers before acquiring. When
/// the lint is armed and the calling thread is inside a ReadSection,
/// raises l5check::CheckError("serve-lock-after-pin") naming `site`.
void note_serve_lock(const char* site);

} // namespace lowfive::mvcc
