#include "metadata_vol.hpp"

#include "stream/step.hpp"

#include <check/race.hpp>
#include <obs/metrics.hpp>

#include <algorithm>
#include <cstring>
#include <new>

namespace lowfive {

using h5::Dataspace;
using h5::Datatype;
using h5::Error;
using h5::Object;
using h5::ObjectKind;

// --- piece pool ----------------------------------------------------------------

namespace {

/// Move the Deep piece buffers of `obj`'s subtree into `out`.
void take_deep_buffers(Object& obj, std::vector<std::vector<std::byte>>& out) {
    for (auto& piece : obj.pieces)
        if (piece.ownership == h5::Ownership::Deep && piece.owned.capacity() > 0)
            out.push_back(std::move(piece.owned));
    for (auto& c : obj.children) take_deep_buffers(*c, out);
}

/// Deleter of the trees file_create makes: their Deep buffers go to the
/// vol's pool while the vol lives, then the tree is freed.
struct RecycleTree {
    std::weak_ptr<PiecePool> pool;
    void operator()(Object* tree) const {
        const std::unique_ptr<Object> dying(tree);
        if (auto p = pool.lock()) {
            try {
                p->harvest(*tree);
            } catch (const std::bad_alloc&) {
                // recycling is best effort: the buffers are freed instead
            }
        }
    }
};

} // namespace

std::vector<std::byte> PiecePool::take(std::size_t n) {
    if (n == 0) return {};
    // extracted under the lock, destroyed after it: no free while held
    decltype(spares_)::node_type node;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        l5race::LockHold rh(&mutex_, "piece_pool/take", "lowfive.piece_pool");
        L5_SHARED_READ(this, "spares", "piece_pool/take");
        auto it = spares_.lower_bound(n);
        if (it == spares_.end() || it->first - n > n) return {}; // capacity > 2n
        L5_SHARED_WRITE(this, "spares", "piece_pool/take");
        node = spares_.extract(it);
        held_ -= node.key();
        if (metrics_.held) metrics_.held->set(static_cast<std::int64_t>(held_));
    }
    if (metrics_.recycled) metrics_.recycled->inc();
    if (metrics_.bytes) metrics_.bytes->add(n);
    return std::move(node.mapped());
}

void PiecePool::harvest(Object& tree) {
    std::vector<std::vector<std::byte>> bufs;
    take_deep_buffers(tree, bufs);
    if (bufs.empty()) return;
    std::size_t total = 0;
    for (const auto& b : bufs) total += b.capacity();
    {
        std::lock_guard<std::mutex> lk(mutex_);
        l5race::LockHold rh(&mutex_, "piece_pool/harvest", "lowfive.piece_pool");
        L5_SHARED_WRITE(this, "spares", "piece_pool/harvest");
        bound_ = std::max(bound_, total);
        for (auto& b : bufs)
            if (const std::size_t cap = b.capacity(); held_ + cap <= bound_) {
                spares_.emplace(cap, std::move(b));
                held_ += cap;
            }
        if (metrics_.held) metrics_.held->set(static_cast<std::int64_t>(held_));
    }
    // spares past the bound, left in bufs, are freed here, unlocked
}

// --- vol -------------------------------------------------------------------------

MetadataVol::MetadataVol(h5::VolPtr passthru_vol) : passthru_vol_(std::move(passthru_vol)) {}

h5::Vol& MetadataVol::native() {
    if (!passthru_vol_) passthru_vol_ = std::make_shared<h5::NativeVol>();
    return *passthru_vol_;
}

void MetadataVol::set_memory(const std::string& fp, const std::string& dp) {
    memory_.push_back({fp, dp});
}
void MetadataVol::set_passthru(const std::string& fp, const std::string& dp) {
    passthru_.push_back({fp, dp});
}
void MetadataVol::set_zerocopy(const std::string& fp, const std::string& dp) {
    zerocopy_.push_back({fp, dp});
}

bool MetadataVol::zerocopy_for(const FileEntry& f, const std::string& dset_path) const {
    // step snapshots match like their base name: patterns name streams
    return matches(zerocopy_, stream::base_name(f.name), dset_path);
}

h5::Object* MetadataVol::find_file(const std::string& name) {
    auto it = files_.find(name);
    return it == files_.end() ? nullptr : it->second.root.get();
}

void MetadataVol::drop_file(const std::string& name) { files_.erase(name); }

std::vector<std::string> MetadataVol::retained_files() const {
    std::vector<std::string> names;
    for (const auto& [name, entry] : files_)
        if (entry.root) names.push_back(name);
    return names;
}

MetadataVol::HandleBox* MetadataVol::make_handle(FileEntry& f, Object* node, void* nat) {
    f.handles.push_back(std::make_unique<HandleBox>());
    auto* h   = f.handles.back().get();
    h->node   = node;
    h->native = nat;
    h->file   = &f;
    return h;
}

// --- files -------------------------------------------------------------------

void* MetadataVol::file_create(const std::string& name) {
    FileEntry entry;
    entry.name     = name;
    // a step snapshot inherits its stream's (base-name) placement
    entry.memory   = matches_file(memory_, stream::base_name(name));
    entry.passthru = matches_file(passthru_, stream::base_name(name));
    entry.writable = true;
    entry.root     = std::shared_ptr<Object>(new Object(ObjectKind::File, name),
                                             RecycleTree{piece_pool_});
    if (entry.passthru) entry.native = native().file_create(name);

    auto [it, _] = files_.insert_or_assign(name, std::move(entry));
    FileEntry& f = it->second;
    return make_handle(f, f.root.get(), f.native);
}

void* MetadataVol::file_open(const std::string& name) {
    auto it = files_.find(name);
    if (it != files_.end() && it->second.root && !it->second.remote) {
        // reopen a retained in-memory file
        FileEntry& f = it->second;
        f.writable   = false;
        return make_handle(f, f.root.get(), f.native);
    }

    // not in memory: physical open through the terminal VOL
    FileEntry entry;
    entry.name     = name;
    entry.passthru = true;
    entry.native   = native().file_open(name);
    auto [it2, _]  = files_.insert_or_assign(name, std::move(entry));
    return make_handle(it2->second, nullptr, it2->second.native);
}

void MetadataVol::file_close(void* file) {
    HandleBox* h = box(file);
    FileEntry& f = *h->file;

    if (f.native) {
        native().file_close(f.native);
        f.native = nullptr;
    }

    after_file_close(f); // DistMetadataVol: signal readiness / serve consumers

    const bool retain = f.memory && f.root != nullptr;
    f.handles.clear(); // invalidates h
    if (!retain) files_.erase(f.name);
}

void MetadataVol::after_file_close(FileEntry&) {}

void MetadataVol::file_flush(void* file) {
    HandleBox* h = box(file);
    if (h->file->native) native().file_flush(h->file->native);
    // in-memory contents need no flushing; the serve trigger stays close
}

// --- groups ------------------------------------------------------------------

void* MetadataVol::group_create(void* parent, const std::string& name) {
    HandleBox* p    = box(parent);
    Object*    node = nullptr;
    if (p->node) {
        if (p->node->find_child(name))
            throw Error("lowfive: '" + name + "' already exists in " + p->node->path());
        node = p->node->add_child(std::make_unique<Object>(ObjectKind::Group, name));
    }
    void* nat = p->native ? native().group_create(p->native, name) : nullptr;
    return make_handle(*p->file, node, nat);
}

void* MetadataVol::group_open(void* parent, const std::string& path) {
    HandleBox* p    = box(parent);
    Object*    node = nullptr;
    if (p->node) {
        node = p->node->resolve(path);
        if (!node || node->kind == ObjectKind::Dataset)
            throw Error("lowfive: group '" + path + "' not found under " + p->node->path());
    }
    void* nat = (!node && p->native) ? native().group_open(p->native, path) : nullptr;
    if (!node && !nat) throw Error("lowfive: group '" + path + "' not found");
    return make_handle(*p->file, node, nat);
}

// --- datasets ----------------------------------------------------------------

void* MetadataVol::dataset_create(void* parent, const std::string& name, const Datatype& type,
                                  const Dataspace& space) {
    HandleBox* p    = box(parent);
    Object*    node = nullptr;
    if (p->node) {
        if (p->node->find_child(name))
            throw Error("lowfive: '" + name + "' already exists in " + p->node->path());
        node        = p->node->add_child(std::make_unique<Object>(ObjectKind::Dataset, name));
        node->type  = type;
        node->space = Dataspace(space.dims());
    }
    void* nat = p->native ? native().dataset_create(p->native, name, type, space) : nullptr;
    return make_handle(*p->file, node, nat);
}

void* MetadataVol::dataset_open(void* parent, const std::string& path) {
    HandleBox* p    = box(parent);
    Object*    node = nullptr;
    if (p->node) {
        node = p->node->resolve(path);
        if (!node || node->kind != ObjectKind::Dataset)
            throw Error("lowfive: dataset '" + path + "' not found under " + p->node->path());
    }
    void* nat = (!node && p->native) ? native().dataset_open(p->native, path) : nullptr;
    if (!node && !nat) throw Error("lowfive: dataset '" + path + "' not found");
    return make_handle(*p->file, node, nat);
}

Datatype MetadataVol::dataset_type(void* dset) {
    HandleBox* h = box(dset);
    return h->node ? h->node->type : native().dataset_type(h->native);
}

Dataspace MetadataVol::dataset_space(void* dset) {
    HandleBox* h = box(dset);
    return h->node ? h->node->space : native().dataset_space(h->native);
}

void MetadataVol::dataset_write(void* dset, const Dataspace& memspace, const Dataspace& filespace,
                                const void* buf) {
    HandleBox* h = box(dset);
    FileEntry& f = *h->file;

    if (h->node && f.memory) {
        if (memspace.npoints() != filespace.npoints())
            throw Error("lowfive: dataset_write selection size mismatch");
        h5::DataPiece piece;
        piece.filespace = filespace;
        if (zerocopy_for(f, h->node->path())) {
            piece.ownership = h5::Ownership::Shallow;
            piece.memspace  = memspace;
            piece.ref       = buf;
        } else {
            const std::size_t n = filespace.npoints() * h->node->type.size();
            piece.ownership     = h5::Ownership::Deep;
            // a dead tree's buffer when one fits, else a fresh one: either
            // way pack_selection overwrites all n bytes
            piece.owned = piece_pool_->take(n);
            piece.owned.resize(n);
            pack_selection(memspace, buf, h->node->type.size(), piece.owned.data());
        }
        h->node->pieces.push_back(std::move(piece));
    }
    if (h->native) native().dataset_write(h->native, memspace, filespace, buf);
    if (!h->native && !(h->node && f.memory))
        throw Error("lowfive: dataset_write has neither memory nor passthru target for file '"
                    + f.name + "'");
}

void MetadataVol::dataset_read(void* dset, const Dataspace& memspace, const Dataspace& filespace,
                               void* buf) {
    HandleBox* h = box(dset);
    FileEntry& f = *h->file;

    if (f.remote) {
        remote_dataset_read(f, h->node, memspace, filespace, buf);
        return;
    }
    if (h->native && (!h->node || h->node->pieces.empty())) {
        native().dataset_read(h->native, memspace, filespace, buf);
        return;
    }
    if (memspace.npoints() != filespace.npoints())
        throw Error("lowfive: dataset_read selection size mismatch");
    // an in-memory dataset never written reads the fill value (zeros)
    h5::read_pieces(*h->node, filespace, memspace, buf);
}

void MetadataVol::remote_dataset_read(FileEntry&, Object*, const Dataspace&, const Dataspace&,
                                      void*) {
    throw Error("lowfive: remote read requires DistMetadataVol");
}

void MetadataVol::dataset_set_extent(void* dset, const h5::Extent& new_dims) {
    HandleBox* h = box(dset);
    if (h->node) {
        if (!h->file->writable) throw Error("lowfive: dataset_set_extent on a read-only file");
        h->node->space.grow_extent(new_dims);
        for (auto& piece : h->node->pieces)
            piece.filespace = piece.filespace.with_dims(new_dims);
    }
    if (h->native) native().dataset_set_extent(h->native, new_dims);
}

std::vector<std::string> MetadataVol::list_attributes(void* obj) {
    HandleBox* h = box(obj);
    if (h->node) {
        std::vector<std::string> names;
        for (const auto& a : h->node->attributes) names.push_back(a.name);
        return names;
    }
    return native().list_attributes(h->native);
}

void MetadataVol::unlink(void* parent, const std::string& path) {
    HandleBox* p = box(parent);
    if (p->node) {
        Object* target = p->node->resolve(path);
        if (!target || !target->parent) throw Error("lowfive: cannot unlink '" + path + "'");
        Object* holder = target->parent;
        for (auto it = holder->children.begin(); it != holder->children.end(); ++it)
            if (it->get() == target) {
                holder->children.erase(it);
                break;
            }
    }
    if (p->native) native().unlink(p->native, path);
}

// --- attributes ----------------------------------------------------------------

void MetadataVol::attribute_write(void* obj, const std::string& name, const Datatype& type,
                                  const Dataspace& space, const void* buf) {
    HandleBox* h = box(obj);
    if (h->node) {
        auto* a = h->node->find_attribute(name);
        if (!a) {
            h->node->attributes.push_back({});
            a = &h->node->attributes.back();
        }
        a->name  = name;
        a->type  = type;
        a->space = space;
        a->data.resize(space.npoints() * type.size());
        std::memcpy(a->data.data(), buf, a->data.size());
    }
    if (h->native) native().attribute_write(h->native, name, type, space, buf);
}

std::optional<h5::Vol::AttrInfo> MetadataVol::attribute_info(void* obj, const std::string& name) {
    HandleBox* h = box(obj);
    if (h->node) {
        if (auto* a = h->node->find_attribute(name)) return AttrInfo{a->type, a->space};
        if (!h->native) return std::nullopt;
    }
    if (h->native) return native().attribute_info(h->native, name);
    return std::nullopt;
}

void MetadataVol::attribute_read(void* obj, const std::string& name, void* buf) {
    HandleBox* h = box(obj);
    if (h->node) {
        if (auto* a = h->node->find_attribute(name)) {
            std::memcpy(buf, a->data.data(), a->data.size());
            return;
        }
    }
    if (h->native) {
        native().attribute_read(h->native, name, buf);
        return;
    }
    throw Error("lowfive: attribute '" + name + "' not found");
}

// --- introspection ---------------------------------------------------------------

std::vector<std::string> MetadataVol::list_children(void* obj) {
    HandleBox* h = box(obj);
    if (h->node) {
        std::vector<std::string> names;
        for (const auto& c : h->node->children) names.push_back(c->name);
        return names;
    }
    return native().list_children(h->native);
}

bool MetadataVol::exists(void* obj, const std::string& path) {
    HandleBox* h = box(obj);
    if (h->node) return h->node->resolve(path) != nullptr;
    return native().exists(h->native, path);
}

} // namespace lowfive
