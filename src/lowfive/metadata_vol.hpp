#pragma once

#include "config.hpp"

#include <h5/native_vol.hpp>
#include <h5/tree.hpp>
#include <h5/vol.hpp>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

namespace obs {
class Counter;
class Gauge;
} // namespace obs

namespace lowfive {

/// Spare Deep piece buffers, recycled from dead file trees into the next
/// deep-copy write (DESIGN.md "Piece-buffer lifecycle"). A fresh
/// multi-MiB piece is a new zero-filled mapping that one thread
/// first-touches page by page; a spare is already mapped. Every tree
/// MetadataVol::file_create makes hands its Deep buffers here when its
/// last owner lets go of it — the FileEntry, an MVCC snapshot or pin, or
/// an in-flight aliased payload — on whichever thread that happens.
///
/// Bounded with no knob: the list never holds more bytes (buffer
/// capacity) than the largest Deep total of any one tree it harvested; a
/// spare past that is freed instead. Shallow pieces own nothing and are
/// never recycled. The lock is a leaf (l5race class "lowfive.piece_pool"):
/// nothing under it takes another lock or frees a buffer.
class PiecePool {
public:
    /// Optional externally owned instruments (a vol's metrics registry);
    /// any may be null:
    ///   n_recycled_pieces (counter) — Deep writes that reused a spare
    ///   bytes_recycled    (counter) — the bytes those writes packed
    ///   piece_pool_bytes  (gauge)   — spare capacity held right now
    struct Metrics {
        obs::Counter* recycled = nullptr;
        obs::Counter* bytes    = nullptr;
        obs::Gauge*   held     = nullptr;
    };

    PiecePool() = default;
    explicit PiecePool(Metrics m) : metrics_(m) {}

    /// The smallest spare whose capacity is in [n, 2n]; empty when none
    /// fits. Its size and bytes are stale: the caller resizes it to n and
    /// overwrites every byte.
    std::vector<std::byte> take(std::size_t n);

    /// Move every Deep piece buffer of a dying `tree` into the list, up to
    /// the bound; the caller held its last reference and frees the rest.
    void harvest(h5::Object& tree);

private:
    std::mutex mutex_;
    /// capacity → spare; each keeps its old size, so resizing it to at
    /// most that size zero-fills nothing
    std::multimap<std::size_t, std::vector<std::byte>> spares_;
    std::size_t held_  = 0; ///< total capacity in spares_
    std::size_t bound_ = 0; ///< largest Deep capacity total of one harvested tree
    Metrics     metrics_;
};

/// LowFive's metadata VOL (paper §III-A, levels (a) base and (b) metadata):
/// intercepts every data-model call, replicates the user's HDF5 hierarchy
/// in an in-memory metadata tree, and — per user-configurable patterns —
/// keeps dataset data in memory (deep copies or zero-copy shallow
/// references) and/or passes calls through to the terminal (native) VOL
/// for physical file I/O.
///
/// Defaults: everything in memory ("*"/"*"), no passthru, deep copies.
/// In-memory files are retained after close so that they can be reopened
/// by a consumer or served remotely (see DistMetadataVol).
class MetadataVol : public h5::Vol {
public:
    /// `passthru_vol` is the terminal VOL used for physical storage; when
    /// null, a serial NativeVol is created on demand.
    explicit MetadataVol(h5::VolPtr passthru_vol = nullptr);

    // --- configuration, mirroring LowFive's set_memory/set_passthru/set_zerocopy
    void set_memory(const std::string& file_pattern, const std::string& dset_pattern);
    void set_passthru(const std::string& file_pattern, const std::string& dset_pattern);
    void set_zerocopy(const std::string& file_pattern, const std::string& dset_pattern);
    void clear_memory() { memory_.clear(); }
    void clear_passthru() { passthru_.clear(); }

    /// Retained in-memory tree of a closed (or open) file; nullptr if none.
    h5::Object* find_file(const std::string& name);
    /// Release a retained in-memory file.
    virtual void drop_file(const std::string& name);
    std::vector<std::string> retained_files() const;

    // --- Vol interface -----------------------------------------------------
    void* file_create(const std::string& name) override;
    void* file_open(const std::string& name) override;
    void  file_close(void* file) override;
    void  file_flush(void* file) override;

    void* group_create(void* parent, const std::string& name) override;
    void* group_open(void* parent, const std::string& path) override;

    void* dataset_create(void* parent, const std::string& name, const h5::Datatype& type,
                         const h5::Dataspace& space) override;
    void*         dataset_open(void* parent, const std::string& path) override;
    h5::Datatype  dataset_type(void* dset) override;
    h5::Dataspace dataset_space(void* dset) override;
    void dataset_write(void* dset, const h5::Dataspace& memspace, const h5::Dataspace& filespace,
                       const void* buf) override;
    void dataset_read(void* dset, const h5::Dataspace& memspace, const h5::Dataspace& filespace,
                      void* buf) override;
    void dataset_set_extent(void* dset, const h5::Extent& new_dims) override;

    void attribute_write(void* obj, const std::string& name, const h5::Datatype& type,
                         const h5::Dataspace& space, const void* buf) override;
    std::optional<AttrInfo> attribute_info(void* obj, const std::string& name) override;
    void attribute_read(void* obj, const std::string& name, void* buf) override;

    std::vector<std::string> list_attributes(void* obj) override;
    void                     unlink(void* parent, const std::string& path) override;

    std::vector<std::string> list_children(void* obj) override;
    bool                     exists(void* obj, const std::string& path) override;

protected:
    struct HandleBox;

    struct FileEntry {
        std::string                 name;
        /// In-memory replica (null for pure passthru). Shared: each MVCC
        /// snapshot of the file (DistMetadataVol) holds the tree of the
        /// version it published, so a rewrite or a streaming-window GC
        /// replacing/erasing the entry never frees a tree still being
        /// served. Frozen — never mutated — once the file is closed.
        /// Trees made by file_create give their Deep buffers to
        /// piece_pool_ when the last owner drops them.
        std::shared_ptr<h5::Object> root;
        bool                        memory   = false;
        bool                        passthru = false;
        bool                        writable = false;
        void*                       native   = nullptr; ///< open native file handle
        bool                        remote   = false;   ///< consumer side of DistMetadataVol
        int                         conn     = -1;      ///< connection index when remote
        std::uint64_t               version  = 0;       ///< producer publish version (remote)

        std::vector<std::unique_ptr<HandleBox>> handles; ///< live object handles
    };

    /// An issued object handle, pairing the in-memory node with the
    /// corresponding native handle (either may be null).
    struct HandleBox {
        h5::Object* node   = nullptr;
        void*       native = nullptr;
        FileEntry*  file   = nullptr;
    };

    h5::Vol&   native();
    HandleBox* box(void* h) { return static_cast<HandleBox*>(h); }
    HandleBox* make_handle(FileEntry& f, h5::Object* node, void* nat);
    bool       zerocopy_for(const FileEntry& f, const std::string& dset_path) const;

    /// Hooks for DistMetadataVol.
    virtual void after_file_close(FileEntry& entry);
    virtual void remote_dataset_read(FileEntry& f, h5::Object* node, const h5::Dataspace& memspace,
                                     const h5::Dataspace& filespace, void* buf);

    h5::VolPtr               passthru_vol_;
    std::vector<PatternPair> memory_{{"*", "*"}};
    std::vector<PatternPair> passthru_;
    std::vector<PatternPair> zerocopy_;

    std::map<std::string, FileEntry> files_;

    /// Spare Deep buffers of this vol's dead trees; each tree's deleter
    /// holds it weakly. Declared after files_ so it dies first: trees that
    /// die with the vol are freed, not recycled.
    std::shared_ptr<PiecePool> piece_pool_ = std::make_shared<PiecePool>();
};

} // namespace lowfive
