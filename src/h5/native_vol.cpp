#include "native_vol.hpp"

#include <cstring>

namespace h5 {

namespace {

constexpr char          magic[8]      = {'M', 'I', 'N', 'I', 'H', '5', 'F', '\0'};
constexpr std::uint32_t format_version = 1;
constexpr std::uint64_t header_size    = 28;

void check_spaces(const Dataspace& memspace, const Dataspace& filespace, const Object& dset,
                  const char* what) {
    if (memspace.npoints() != filespace.npoints())
        throw Error(std::string("h5: ") + what + ": memory selection (" + std::to_string(memspace.npoints())
                    + " elems) does not match file selection (" + std::to_string(filespace.npoints()) + ")");
    if (filespace.dims() != dset.space.dims())
        throw Error(std::string("h5: ") + what + ": file space extent does not match dataset "
                    + dset.path());
}

} // namespace

NativeVol::OpenFile& NativeVol::owner_of(Object* obj) {
    Object* root = obj;
    while (root->parent) root = root->parent;
    auto it = files_.find(root);
    if (it == files_.end()) throw Error("h5: object does not belong to an open file");
    return *it->second;
}

void* NativeVol::file_create(const std::string& name) {
    auto f      = std::make_unique<OpenFile>();
    f->root     = std::make_unique<Object>(ObjectKind::File, name);
    f->path     = name;
    f->writable = true;
    Object* h   = f->root.get();
    files_.emplace(h, std::move(f));
    return h;
}

void* NativeVol::file_open(const std::string& name) {
    auto f  = std::make_unique<OpenFile>();
    f->io   = FileIO::open_ro(name);
    f->path = name;

    std::byte header[header_size];
    f->io.pread(header, header_size, 0);
    if (std::memcmp(header, magic, sizeof(magic)) != 0)
        throw Error("h5: '" + name + "' is not a MiniH5 file");
    std::uint32_t ver = 0;
    std::memcpy(&ver, header + 8, 4);
    if (ver != format_version)
        throw Error("h5: '" + name + "' has unsupported format version " + std::to_string(ver));
    std::uint64_t meta_off = 0, meta_size = 0;
    std::memcpy(&meta_off, header + 12, 8);
    std::memcpy(&meta_size, header + 20, 8);

    std::vector<std::byte> blob(meta_size);
    f->io.pread(blob.data(), meta_size, meta_off);
    diy::BinaryBuffer bb(std::move(blob));
    f->root = Object::load_skeleton(bb);

    Object* h = f->root.get();
    files_.emplace(h, std::move(f));
    return h;
}

std::uint64_t NativeVol::assign_layout(Object& root) {
    std::uint64_t cursor = header_size;
    auto          visit  = [&](auto&& self, Object& obj) -> void {
        if (obj.kind == ObjectKind::Dataset) {
            obj.file_data_offset = cursor;
            cursor += obj.space.extent_npoints() * obj.type.size();
        }
        for (auto& c : obj.children) self(self, *c);
    };
    visit(visit, root);
    return cursor;
}

void NativeVol::write_created_file(OpenFile& f) {
    const std::uint64_t meta_off = assign_layout(*f.root);

    diy::BinaryBuffer meta;
    f.root->save_skeleton(meta);

    FileIO io;
    if (!collective()) {
        io = FileIO::create(f.path);
    } else {
        if (comm_.rank() == 0) io = FileIO::create(f.path);
        comm_.barrier();
        if (comm_.rank() != 0) io = FileIO::open_rw(f.path);
        io.set_shared_writers(comm_.size()); // MPI-IO-style shared-file writes
    }

    if (!collective() || comm_.rank() == 0) {
        io.pwrite(meta.data().data(), meta.size(), meta_off);
        std::byte header[header_size];
        std::memcpy(header, magic, sizeof(magic));
        std::memcpy(header + 8, &format_version, 4);
        std::memcpy(header + 12, &meta_off, 8);
        const std::uint64_t meta_size = meta.size();
        std::memcpy(header + 20, &meta_size, 8);
        io.pwrite(header, header_size, 0);
    }

    // every rank writes its own pieces into the shared layout
    auto visit = [&](auto&& self, Object& obj) -> void {
        if (obj.kind == ObjectKind::Dataset) {
            const std::size_t elem = obj.type.size();
            for (const auto& piece : obj.pieces) {
                for (const auto& run : piece.filespace.runs())
                    io.pwrite(piece.owned.data() + run.packed_off * elem, run.len * elem,
                              obj.file_data_offset + run.file_off * elem);
            }
        }
        for (auto& c : obj.children) self(self, *c);
    };
    visit(visit, *f.root);

    io.close();
    if (collective()) comm_.barrier(); // file complete only when all ranks wrote
}

void NativeVol::file_flush(void* file) {
    auto it = files_.find(node(file));
    if (it == files_.end()) throw Error("h5: file_flush on unknown handle");
    // created files: persist the current state, keep staging writable;
    // opened (read) files have nothing to flush
    if (it->second->writable) write_created_file(*it->second);
}

void NativeVol::file_close(void* file) {
    auto it = files_.find(node(file));
    if (it == files_.end()) throw Error("h5: file_close on unknown handle");
    if (it->second->writable) write_created_file(*it->second);
    files_.erase(it);
}

void* NativeVol::group_create(void* parent, const std::string& name) {
    Object* p = node(parent);
    if (p->find_child(name)) throw Error("h5: '" + name + "' already exists in " + p->path());
    return p->add_child(std::make_unique<Object>(ObjectKind::Group, name));
}

void* NativeVol::group_open(void* parent, const std::string& path) {
    Object* obj = node(parent)->resolve(path);
    if (!obj || obj->kind == ObjectKind::Dataset)
        throw Error("h5: group '" + path + "' not found under " + node(parent)->path());
    return obj;
}

void* NativeVol::dataset_create(void* parent, const std::string& name, const Datatype& type,
                                const Dataspace& space) {
    Object* p = node(parent);
    if (p->find_child(name)) throw Error("h5: '" + name + "' already exists in " + p->path());
    auto* d  = p->add_child(std::make_unique<Object>(ObjectKind::Dataset, name));
    d->type  = type;
    d->space = Dataspace(space.dims()); // extent only; selection stays "all"
    return d;
}

void* NativeVol::dataset_open(void* parent, const std::string& path) {
    Object* obj = node(parent)->resolve(path);
    if (!obj || obj->kind != ObjectKind::Dataset)
        throw Error("h5: dataset '" + path + "' not found under " + node(parent)->path());
    return obj;
}

Datatype NativeVol::dataset_type(void* dset) { return node(dset)->type; }

Dataspace NativeVol::dataset_space(void* dset) { return node(dset)->space; }

void NativeVol::dataset_write(void* dset, const Dataspace& memspace, const Dataspace& filespace,
                              const void* buf) {
    Object*   d = node(dset);
    OpenFile& f = owner_of(d);
    if (!f.writable) throw Error("h5: dataset_write on a read-only file");
    check_spaces(memspace, filespace, *d, "dataset_write");

    DataPiece piece;
    piece.filespace = filespace;
    piece.ownership = Ownership::Deep;
    piece.owned.resize(filespace.npoints() * d->type.size());
    pack_selection(memspace, buf, d->type.size(), piece.owned.data());
    d->pieces.push_back(std::move(piece));
}

void NativeVol::dataset_read(void* dset, const Dataspace& memspace, const Dataspace& filespace,
                             void* buf) {
    Object*   d = node(dset);
    OpenFile& f = owner_of(d);
    check_spaces(memspace, filespace, *d, "dataset_read");

    if (f.writable) {
        read_pieces(*d, filespace, memspace, buf);
        return;
    }
    // the file holds the whole extent: each mapped run is one pread
    // straight into the caller's buffer
    const std::size_t elem = d->type.size();
    for (const auto& run : mapped_runs(filespace, memspace))
        f.io.pread(static_cast<std::byte*>(buf) + run.packed_off * elem, run.len * elem,
                   d->file_data_offset + run.file_off * elem);
}

void NativeVol::dataset_set_extent(void* dset, const Extent& new_dims) {
    Object*   d = node(dset);
    OpenFile& f = owner_of(d);
    if (!f.writable) throw Error("h5: dataset_set_extent on a read-only file");
    d->space.grow_extent(new_dims);
    // rebase recorded pieces onto the new extent so their linearization
    // stays consistent with the grown dataset
    for (auto& piece : d->pieces) piece.filespace = piece.filespace.with_dims(new_dims);
}

std::vector<std::string> NativeVol::list_attributes(void* obj) {
    std::vector<std::string> names;
    for (const auto& a : node(obj)->attributes) names.push_back(a.name);
    return names;
}

void NativeVol::unlink(void* parent, const std::string& path) {
    Object* p = node(parent);
    if (!owner_of(p).writable) throw Error("h5: unlink on a read-only file");
    Object* target = p->resolve(path);
    if (!target || !target->parent)
        throw Error("h5: cannot unlink '" + path + "'");
    Object* holder = target->parent;
    for (auto it = holder->children.begin(); it != holder->children.end(); ++it)
        if (it->get() == target) {
            holder->children.erase(it);
            return;
        }
}

void NativeVol::attribute_write(void* obj, const std::string& name, const Datatype& type,
                                const Dataspace& space, const void* buf) {
    Object* o = node(obj);
    auto*   a = o->find_attribute(name);
    if (!a) {
        o->attributes.push_back({});
        a = &o->attributes.back();
    }
    a->name  = name;
    a->type  = type;
    a->space = space;
    a->data.resize(space.npoints() * type.size());
    std::memcpy(a->data.data(), buf, a->data.size());
}

std::optional<Vol::AttrInfo> NativeVol::attribute_info(void* obj, const std::string& name) {
    if (auto* a = node(obj)->find_attribute(name)) return AttrInfo{a->type, a->space};
    return std::nullopt;
}

void NativeVol::attribute_read(void* obj, const std::string& name, void* buf) {
    auto* a = node(obj)->find_attribute(name);
    if (!a) throw Error("h5: attribute '" + name + "' not found on " + node(obj)->path());
    std::memcpy(buf, a->data.data(), a->data.size());
}

std::vector<std::string> NativeVol::list_children(void* obj) {
    std::vector<std::string> names;
    for (const auto& c : node(obj)->children) names.push_back(c->name);
    return names;
}

bool NativeVol::exists(void* obj, const std::string& path) {
    return node(obj)->resolve(path) != nullptr;
}

} // namespace h5
