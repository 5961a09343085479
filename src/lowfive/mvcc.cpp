#include "mvcc.hpp"

#include <check/check.hpp>
#include <check/race.hpp>
#include <obs/metrics.hpp>
#include <obs/trace.hpp>

namespace lowfive::mvcc {

namespace {
/// Identity of the ReadSection pseudo-lock in the lockdep graph (one
/// class process-wide; per-thread nesting is tracked in the lockset).
const char g_read_section_tag = 0;
} // namespace

/// Copy-on-write name → current-snapshot map, swapped atomically at every
/// publish/retire so readers pin without a lock.
struct Root {
    std::map<std::string, std::shared_ptr<const Snapshot>> current;
};

struct StoreState {
    /// Leaf mutex for writer paths and superseded-version lookups only:
    /// nothing under it communicates, allocates unboundedly, or takes
    /// another lock.
    mutable std::mutex mutex;
    /// name → version → snapshot: the current version of every name plus
    /// superseded versions still pinned somewhere.
    std::map<std::string, std::map<std::uint64_t, std::shared_ptr<const Snapshot>>> live;
    /// Monotonic per-name publish versions (erased for retired steps).
    std::map<std::string, std::uint64_t> next_version;
    /// The lock-free read root. Guarded by `mutex` for writers; readers
    /// do a plain atomic load.
    std::atomic<std::shared_ptr<const Root>> root;

    std::atomic<std::uint64_t> outstanding_pins{0};
    SnapshotStore::Metrics     metrics;

    /// Remove (name, version) from the live set if present; metrics and
    /// the mvcc.gc trace event fire exactly once per version. Requires
    /// `mutex` held.
    bool gc_locked(const std::string& name, std::uint64_t version) {
        L5_SHARED_WRITE(this, "live", "mvcc/gc");
        auto nit = live.find(name);
        if (nit == live.end()) return false;
        auto vit = nit->second.find(version);
        if (vit == nit->second.end()) return false;
        nit->second.erase(vit);
        if (nit->second.empty()) live.erase(nit);
        if (metrics.live) metrics.live->add(-1);
        if (metrics.gc) metrics.gc->inc();
        obs::instant("mvcc.gc", "lowfive",
                     {{"file", 0, obs::intern_if_enabled(name)}, {"version", version, nullptr}});
        return true;
    }
};

// --- SnapshotPin -----------------------------------------------------------------

SnapshotPin::SnapshotPin(std::shared_ptr<const Snapshot> s) : snap_(std::move(s)) {
    if (!snap_) return;
    l5race::atomic_rmw(&snap_->pins_);
    snap_->pins_.fetch_add(1, std::memory_order_seq_cst);
    if (auto st = snap_->state_.lock()) {
        st->outstanding_pins.fetch_add(1, std::memory_order_relaxed);
        if (st->metrics.pins) st->metrics.pins->inc();
    }
}

void SnapshotPin::release() {
    if (!snap_) return;
    auto snap = std::move(snap_);
    snap_     = nullptr;
    auto st   = snap->state_.lock();
    if (st) st->outstanding_pins.fetch_sub(1, std::memory_order_relaxed);
    l5race::atomic_rmw(&snap->pins_);
    const auto prev = snap->pins_.fetch_sub(1, std::memory_order_seq_cst);
    // last pin of a superseded version: GC it now instead of waiting for
    // the next publish (the GC-while-last-reader-unpins edge; the seq_cst
    // pair with the supersede path means exactly one side sees both
    // "pins == 0" and "superseded")
    l5race::atomic_consume(&snap->superseded_);
    if (prev == 1 && snap->superseded_.load(std::memory_order_seq_cst) && st) {
        std::lock_guard<std::mutex> lk(st->mutex);
        l5race::LockHold rh(&st->mutex, "mvcc/unpin-gc", "mvcc.leaf");
        if (snap->pins_.load(std::memory_order_seq_cst) == 0)
            st->gc_locked(snap->name_, snap->version_);
    }
}

// --- SnapshotStore ---------------------------------------------------------------

SnapshotStore::SnapshotStore(Metrics m) : state_(std::make_shared<StoreState>()) {
    state_->metrics = m;
    state_->root.store(std::make_shared<const Root>(), std::memory_order_release);
}

SnapshotStore::~SnapshotStore() = default;

SnapshotPin SnapshotStore::publish(const std::string& name, std::shared_ptr<h5::Object> root,
                                   IndexMap index, std::uint64_t publish_ns) {
    std::lock_guard<std::mutex> lk(state_->mutex);
    l5race::LockHold rh(&state_->mutex, "mvcc/publish", "mvcc.leaf");

    auto snap         = std::shared_ptr<Snapshot>(new Snapshot());
    snap->name_       = name;
    L5_SHARED_WRITE(state_.get(), "next_version", "mvcc/publish");
    snap->version_    = ++state_->next_version[name];
    snap->publish_ns_ = publish_ns;
    snap->root_       = std::move(root);
    snap->index_      = std::move(index);
    snap->state_      = state_;

    l5race::atomic_consume(&state_->root);
    auto old_root = state_->root.load(std::memory_order_acquire);
    auto new_root = std::make_shared<Root>(*old_root);
    std::shared_ptr<const Snapshot> old;
    if (auto it = new_root->current.find(name); it != new_root->current.end()) old = it->second;
    new_root->current[name] = snap;

    L5_SHARED_WRITE(state_.get(), "live", "mvcc/publish");
    state_->live[name][snap->version_] = snap;
    if (state_->metrics.live) state_->metrics.live->add(1);
    obs::instant("mvcc.publish", "lowfive",
                 {{"file", 0, obs::intern_if_enabled(name)},
                  {"version", snap->version_, nullptr}});

    // install before superseding: a reader racing the swap pins either
    // the old version (still live until unpinned) or the new one
    l5race::atomic_publish(&state_->root);
    state_->root.store(std::move(new_root), std::memory_order_release);
    if (old) {
        l5race::atomic_publish(&old->superseded_);
        old->superseded_.store(true, std::memory_order_seq_cst);
        l5race::atomic_consume(&old->pins_);
        if (old->pins_.load(std::memory_order_seq_cst) == 0)
            state_->gc_locked(old->name_, old->version_);
    }
    return SnapshotPin(std::move(snap));
}

void SnapshotStore::retire(const std::string& name, bool forget_versions) {
    std::lock_guard<std::mutex> lk(state_->mutex);
    l5race::LockHold rh(&state_->mutex, "mvcc/retire", "mvcc.leaf");
    l5race::atomic_consume(&state_->root);
    auto old_root = state_->root.load(std::memory_order_acquire);
    if (auto it = old_root->current.find(name); it != old_root->current.end()) {
        auto new_root = std::make_shared<Root>(*old_root);
        auto current  = it->second;
        new_root->current.erase(name);
        l5race::atomic_publish(&state_->root);
        state_->root.store(std::move(new_root), std::memory_order_release);
        l5race::atomic_publish(&current->superseded_);
        current->superseded_.store(true, std::memory_order_seq_cst);
        l5race::atomic_consume(&current->pins_);
        if (current->pins_.load(std::memory_order_seq_cst) == 0)
            state_->gc_locked(current->name_, current->version_);
    }
    L5_SHARED_WRITE(state_.get(), "next_version", "mvcc/retire");
    if (forget_versions) state_->next_version.erase(name);
}

SnapshotPin SnapshotStore::pin(const std::string& name) const {
    l5race::atomic_consume(&state_->root);
    auto root = state_->root.load(std::memory_order_acquire);
    auto it   = root->current.find(name);
    if (it == root->current.end()) return {};
    return SnapshotPin(it->second);
}

SnapshotPin SnapshotStore::pin(const std::string& name, std::uint64_t version) const {
    l5race::atomic_consume(&state_->root);
    auto root = state_->root.load(std::memory_order_acquire);
    if (auto it = root->current.find(name);
        it != root->current.end() && it->second->version_ == version)
        return SnapshotPin(it->second);
    // superseded-but-live lookup: leaf mutex, still never the vol's
    // serve mutex (this is part of pinning, before any ReadSection)
    std::lock_guard<std::mutex> lk(state_->mutex);
    l5race::LockHold rh(&state_->mutex, "mvcc/pin-version", "mvcc.leaf");
    L5_SHARED_READ(state_.get(), "live", "mvcc/pin-version");
    auto nit = state_->live.find(name);
    if (nit == state_->live.end()) return {};
    auto vit = nit->second.find(version);
    if (vit == nit->second.end()) return {};
    return SnapshotPin(vit->second);
}

std::uint64_t SnapshotStore::last_version(const std::string& name) const {
    std::lock_guard<std::mutex> lk(state_->mutex);
    l5race::LockHold rh(&state_->mutex, "mvcc/last_version", "mvcc.leaf");
    L5_SHARED_READ(state_.get(), "next_version", "mvcc/last_version");
    const auto it = state_->next_version.find(name);
    return it == state_->next_version.end() ? 0 : it->second;
}

std::size_t SnapshotStore::live_snapshots() const {
    std::lock_guard<std::mutex> lk(state_->mutex);
    l5race::LockHold rh(&state_->mutex, "mvcc/live_snapshots", "mvcc.leaf");
    L5_SHARED_READ(state_.get(), "live", "mvcc/live_snapshots");
    std::size_t                 n = 0;
    for (const auto& [name, versions] : state_->live) n += versions.size();
    return n;
}

std::uint64_t SnapshotStore::outstanding_pins() const {
    return state_->outstanding_pins.load(std::memory_order_relaxed);
}

// --- no-lock-after-pin lint ------------------------------------------------------

namespace {
std::atomic<bool>        g_lock_lint{false};
thread_local std::size_t t_read_depth = 0;
} // namespace

void set_lock_lint(bool armed) { g_lock_lint.store(armed, std::memory_order_relaxed); }
bool lock_lint_armed() { return g_lock_lint.load(std::memory_order_relaxed); }

ReadSection::ReadSection() {
    // pseudo-lock: joins the lockdep graph (the serve-lock-after-pin
    // forbidden edge hangs off this class) but never excuses races.
    // Before the depth bump: a raise-mode throw must leave depth balanced
    // (the dtor will not run)
    l5race::pseudo_lock_acquired(&g_read_section_tag, "mvcc::ReadSection", "mvcc.read_section");
    ++t_read_depth;
}
ReadSection::~ReadSection() {
    l5race::pseudo_lock_released(&g_read_section_tag);
    --t_read_depth;
}

bool in_read_section() noexcept { return t_read_depth > 0; }

void note_serve_lock(const char* site) {
    if (!lock_lint_armed() || !in_read_section()) return;
    throw l5check::CheckError("serve-lock-after-pin",
                              std::string("serve mutex acquired at '") + site
                                  + "' inside a pinned snapshot read section — the "
                                    "serve-side query path must stay lock-free past "
                                    "the pin");
}

} // namespace lowfive::mvcc
