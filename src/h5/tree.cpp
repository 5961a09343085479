#include "tree.hpp"

namespace h5 {

Object* Object::resolve(const std::string& rel_path) {
    Object*     cur = this;
    std::size_t pos = 0;
    while (pos < rel_path.size() && cur) {
        while (pos < rel_path.size() && rel_path[pos] == '/') ++pos;
        if (pos >= rel_path.size()) break;
        std::size_t end  = rel_path.find('/', pos);
        std::string comp = rel_path.substr(pos, end == std::string::npos ? std::string::npos : end - pos);
        cur              = cur->find_child(comp);
        pos              = end == std::string::npos ? rel_path.size() : end;
    }
    return cur;
}

void Object::save_skeleton(diy::BinaryBuffer& bb) const {
    bb.save(static_cast<std::uint8_t>(kind));
    bb.save(name);

    bb.save<std::uint64_t>(attributes.size());
    for (const auto& a : attributes) {
        bb.save(a.name);
        a.type.save(bb);
        a.space.save(bb);
        bb.save(a.data);
    }

    if (kind == ObjectKind::Dataset) {
        type.save(bb);
        space.save(bb);
        bb.save<std::uint64_t>(file_data_offset);
    }

    bb.save<std::uint64_t>(children.size());
    for (const auto& c : children) c->save_skeleton(bb);
}

std::unique_ptr<Object> Object::load_skeleton(diy::BinaryBuffer& bb) {
    auto        kind = static_cast<ObjectKind>(bb.load<std::uint8_t>());
    std::string name;
    bb.load(name);
    auto obj = std::make_unique<Object>(kind, name);

    auto nattrs = bb.load<std::uint64_t>();
    for (std::uint64_t i = 0; i < nattrs; ++i) {
        Object::Attribute a;
        bb.load(a.name);
        a.type  = Datatype::load(bb);
        a.space = Dataspace::load(bb);
        bb.load(a.data);
        obj->attributes.push_back(std::move(a));
    }

    if (kind == ObjectKind::Dataset) {
        obj->type             = Datatype::load(bb);
        obj->space            = Dataspace::load(bb);
        obj->file_data_offset = bb.load<std::uint64_t>();
    }

    auto nchildren = bb.load<std::uint64_t>();
    for (std::uint64_t i = 0; i < nchildren; ++i)
        obj->add_child(load_skeleton(bb));
    return obj;
}

void read_pieces(const Object& dset, const Dataspace& filespace, const Dataspace& memspace,
                 void* buf) {
    ReadAssembly out(filespace, memspace, buf, dset.type.size());
    for (const auto& piece : dset.pieces) {
        auto common = intersect_selections(piece.filespace, filespace);
        if (common.empty()) continue;

        Dataspace sub(dset.space.dims());
        sub.select_none();
        for (const auto& b : common) sub.add_box(b);

        if (piece.ownership == Ownership::Deep)
            out.add(std::move(sub), piece.filespace.runs_by_file(), piece.owned.data());
        else
            out.add(std::move(sub), mapped_runs(piece.filespace, piece.memspace), piece.ref);
    }
    out.finish();
}

} // namespace h5
