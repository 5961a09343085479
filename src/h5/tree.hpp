#pragma once

#include "dataspace.hpp"
#include "types.hpp"

#include <memory>
#include <string>
#include <vector>

namespace h5 {

/// Kinds of nodes in the object tree — the paper's Figure 1 hierarchy.
enum class ObjectKind : std::uint8_t { File, Group, Dataset };

/// Who owns the bytes a dataset piece refers to — the paper's
/// deep-copy ("lowfive") vs shallow-reference ("user") ownership choice,
/// configurable per dataset.
enum class Ownership : std::uint8_t {
    Deep,    ///< the tree owns a packed copy; user may modify their buffer
    Shallow, ///< zero-copy reference into the user's buffer
};

/// One write operation recorded against a dataset: which file-space
/// elements it covers, how the source buffer was laid out, and the data
/// (owned packed copy, or a reference into user memory).
struct DataPiece {
    Dataspace filespace; ///< selection in dataset coordinates
    Dataspace memspace;  ///< layout of the source buffer (used for Shallow)
    Ownership ownership = Ownership::Deep;

    /// Packed in filespace iteration order (Deep). May be a recycled
    /// buffer of a dead tree (lowfive::PiecePool), with capacity up to
    /// twice its size; pack_selection overwrites every byte before the
    /// piece exists, so no byte of the old tree survives.
    std::vector<std::byte> owned;
    const void*            ref = nullptr; ///< user buffer (Shallow)

    /// The piece's full payload as a stable packed buffer, when one
    /// exists: Deep pieces own such a copy, valid as long as the piece
    /// itself (a recycled `owned` is fully rewritten before the piece is
    /// recorded, and goes back to the pool only when the tree dies).
    /// Shallow pieces reference user memory with no vector to
    /// share — returns nullptr. Layout: filespace iteration order, i.e.
    /// filespace's boxes in stored order, each row-major, box k starting
    /// at the total size of boxes 0..k-1. That is all a reader needs to
    /// find any sub-selection in it (h5::PackedBox, h5::located_runs), so
    /// the zero-copy serve path aliases this buffer on the wire for any
    /// wanted sub-selection instead of extracting one.
    const std::vector<std::byte>* packed_bytes() const {
        return ownership == Ownership::Deep ? &owned : nullptr;
    }
};

/// A node of the in-memory metadata hierarchy (file, group, or dataset),
/// with HDF5-style attributes on any node. This tree is what the paper's
/// metadata VOL builds to replicate the user's HDF5 data model; our native
/// VOL reuses the same structure as its staging area.
struct Object {
    ObjectKind  kind = ObjectKind::Group;
    std::string name;
    Object*     parent = nullptr;

    std::vector<std::unique_ptr<Object>> children;

    struct Attribute {
        std::string            name;
        Datatype               type;
        Dataspace              space;
        std::vector<std::byte> data;
    };
    std::vector<Attribute> attributes;

    // dataset-only state
    Datatype               type;
    Dataspace              space;
    std::vector<DataPiece> pieces;
    std::uint64_t          file_data_offset = 0; ///< used by the native file format

    Object(ObjectKind k, std::string n) : kind(k), name(std::move(n)) {}

    Object* find_child(const std::string& child_name) {
        for (auto& c : children)
            if (c->name == child_name) return c.get();
        return nullptr;
    }
    const Object* find_child(const std::string& child_name) const {
        for (const auto& c : children)
            if (c->name == child_name) return c.get();
        return nullptr;
    }

    Object* add_child(std::unique_ptr<Object> child) {
        child->parent = this;
        children.push_back(std::move(child));
        return children.back().get();
    }

    Attribute* find_attribute(const std::string& attr_name) {
        for (auto& a : attributes)
            if (a.name == attr_name) return &a;
        return nullptr;
    }

    /// Slash-separated path from the file root ("/" for the file itself).
    std::string path() const {
        if (!parent) return "/";
        std::string p = parent->path();
        if (p.back() != '/') p += '/';
        return p + name;
    }

    /// Resolve a possibly multi-component path relative to this node;
    /// nullptr when any component is missing.
    Object* resolve(const std::string& rel_path);

    /// Serialize the subtree's *metadata* (names, kinds, types, spaces,
    /// attributes — not dataset payloads, but including each dataset's
    /// file_data_offset). Used both by the native file format and by the
    /// distributed VOL's metadata exchange.
    void           save_skeleton(diy::BinaryBuffer& bb) const;
    static std::unique_ptr<Object> load_skeleton(diy::BinaryBuffer& bb);
};

/// Read the elements `filespace` selects from a dataset node's recorded
/// pieces straight into `buf`, laid out by `memspace` (one ReadAssembly:
/// later pieces win where they overlap, elements no piece covers read
/// HDF5's default fill value 0, and nothing outside the memory selection
/// is written).
void read_pieces(const Object& dset, const Dataspace& filespace, const Dataspace& memspace,
                 void* buf);

} // namespace h5
