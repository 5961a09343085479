#pragma once

#include <diy/bounds.hpp>
#include <diy/serialization.hpp>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace h5 {

/// Exception type for data-model errors.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

using Extent = std::vector<std::uint64_t>;

/// A contiguous run of a selection: position in the row-major
/// linearization of the full extent, length in elements, and position in
/// the packed (iteration-order) enumeration of the selection.
struct SelRun {
    std::uint64_t file_off;
    std::uint64_t len;
    std::uint64_t packed_off;
};

/// An N-dimensional dataspace with a selection, mirroring HDF5: the
/// extent describes the full array shape; the selection names the subset
/// of elements addressed by a read/write. Selections are unions of
/// disjoint axis-aligned boxes — HDF5's regular hyperslabs
/// (start/stride/count/block) expand into such unions.
///
/// Iteration order of a selection (used to pair memory-space elements
/// with file-space elements, and to define the layout of packed buffers)
/// is: boxes in stored order, row-major (C order) within each box.
class Dataspace {
public:
    Dataspace() = default;

    /// Scalar-free construction: an N-d extent with everything selected.
    explicit Dataspace(Extent dims);

    /// Convenience: 1-d dataspace of n elements, all selected.
    static Dataspace linear(std::uint64_t n) { return Dataspace(Extent{n}); }

    int           dim() const { return static_cast<int>(dims_.size()); }
    const Extent& dims() const { return dims_; }
    std::uint64_t extent_npoints() const;

    /// Bounds covering the full extent.
    diy::Bounds extent_bounds() const;

    // --- selection manipulation (return *this for chaining) ---------------

    Dataspace& select_all();
    Dataspace& select_none();
    /// Select one box: start/count per dimension.
    Dataspace& select_box(std::span<const std::uint64_t> start, std::span<const std::uint64_t> count);
    Dataspace& select_box(const diy::Bounds& b);
    /// General regular hyperslab; expands to count[0]*...*count[d-1] boxes
    /// (one per block). stride==0 is treated as stride==block.
    Dataspace& select_hyperslab(std::span<const std::uint64_t> start,
                                std::span<const std::uint64_t> stride,
                                std::span<const std::uint64_t> count,
                                std::span<const std::uint64_t> block);
    /// Add another box to the selection (boxes must stay disjoint; throws
    /// otherwise so packed-buffer semantics stay well defined).
    Dataspace& add_box(const diy::Bounds& b);

    /// Element (point) selection, the analogue of H5Sselect_elements:
    /// each point is one coordinate tuple; points must be distinct
    /// (checked in O(n log n)). Iteration order is the given order.
    Dataspace& select_elements(std::span<const std::array<std::int64_t, diy::max_dim>> points);

    /// Grow the extent (H5Dset_extent direction: never shrinks). The
    /// selection is reset to "all".
    Dataspace& grow_extent(const Extent& new_dims);

    /// A copy of this dataspace with a different extent but the same
    /// selection (boxes must fit in the new extent). Selection iteration
    /// order is extent-independent, so packed buffers stay valid; only
    /// the row-major linearization offsets change.
    Dataspace with_dims(const Extent& new_dims) const;

    // --- selection queries -------------------------------------------------

    bool                             all_selected() const { return all_; }
    bool                             none_selected() const { return !all_ && boxes_.empty(); }
    std::uint64_t                    npoints() const;
    /// Selection as a list of disjoint boxes ("all" resolves to one box).
    const std::vector<diy::Bounds>&  boxes() const;
    /// Smallest box covering the selection (the `bb` of Algorithms 1–3).
    diy::Bounds                      bounding_box() const;

    /// Visit the selection as contiguous runs of the row-major
    /// linearization of the extent. fn(file_offset_elems, nelems,
    /// packed_offset_elems): file_offset indexes the full extent,
    /// packed_offset indexes the packed (iteration-order) buffer.
    void for_each_run(const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>& fn) const;

    /// The selection's runs in iteration order, with runs that are
    /// adjacent in both the file linearization and the packed buffer
    /// merged (a full-row slab becomes one run). Memoized per selection:
    /// the first call materializes, later calls (and copies of this
    /// dataspace) reuse the cached vector until the selection mutates.
    const std::vector<SelRun>& runs() const;
    /// The same coalesced runs sorted by file offset — the lookup side of
    /// the scatter/extract kernels. Memoized alongside runs().
    const std::vector<SelRun>& runs_by_file() const;

    bool operator==(const Dataspace& o) const {
        return dims_ == o.dims_ && all_ == o.all_ && boxes_ == o.boxes_;
    }

    void             save(diy::BinaryBuffer& bb) const;
    static Dataspace load(diy::BinaryBuffer& bb);

    std::string str() const;

private:
    void resolve() const; ///< materialize boxes for "all"

    /// add_box without the pairwise-disjointness scan, for callers that
    /// construct provably disjoint boxes (hyperslab expansion, copies of
    /// already-validated selections). Bounds checks still apply.
    Dataspace& add_box_unchecked(const diy::Bounds& b);

    struct RunsCache {
        std::vector<SelRun> iter;    ///< coalesced, iteration order
        std::vector<SelRun> by_file; ///< same runs sorted by file_off
    };
    const RunsCache& run_cache() const;

    Extent                           dims_;
    bool                             all_ = true;
    mutable std::vector<diy::Bounds> boxes_; // disjoint; cached resolution for "all"
    mutable std::shared_ptr<const RunsCache> runs_; // memoized runs; reset on mutation
};

// --- selection algebra -------------------------------------------------------

/// Intersection of two selections over the same extent: the disjoint
/// boxes common to both. Used by serve (Algorithm 2) and query (Algorithm 3).
std::vector<diy::Bounds> intersect_selections(const Dataspace& a, const Dataspace& b);

/// Pack the selected elements of a full-extent buffer into a dense buffer
/// in iteration order. `elem` is the element size in bytes.
void pack_selection(const Dataspace& space, const void* full, std::size_t elem,
                    void* packed);

/// Where each element of `filespace`'s selection sits in a buffer laid
/// out by `memspace`: the k-th element of filespace's enumeration pairs
/// with the k-th of memspace's (HDF5 read/write semantics). Runs are
/// sorted by file offset, and `packed_off` is the element's offset in the
/// memory buffer, so the result is the destination side of a
/// gather_scatter into that buffer (or the source side out of it). Throws
/// h5::Error when the two selections differ in size.
std::vector<SelRun> mapped_runs(const Dataspace& filespace, const Dataspace& memspace);

/// The fused gather-scatter merge behind every packed-to-packed copy: each
/// element of `sub` moves from where `src_runs` places it in `src` to
/// where `dst_runs` places it in `dst`, in one pass. Both run lists are
/// sorted by file offset with `packed_off` the element's position in that
/// buffer — a selection's `runs_by_file()` for a buffer packed in its
/// iteration order, or `located_runs()` for one it is only part of — and
/// both must cover `sub`; otherwise h5::Error is thrown before any byte
/// is copied. Segments run through kern::copy_segments and the h5::par
/// fan-out. An extract is this merge with the destination laid
/// out as `sub`; a scatter is this merge with the source laid out as `sub`.
void gather_scatter(std::span<const SelRun> src_runs, const void* src, const Dataspace& sub,
                    std::span<const SelRun> dst_runs, void* dst, std::size_t elem);

/// Assembles one dataset read in the caller's buffer: `buf` is laid out by
/// `memspace`, and the read's file selection `filespace` pairs with it in
/// enumeration order (mapped_runs). Each source piece is merged straight
/// into `buf` with one gather_scatter, in the order added, so where pieces
/// overlap the later one wins. Elements no piece covers read 0, and
/// nothing outside the memory selection is written.
class ReadAssembly {
public:
    ReadAssembly(const Dataspace& filespace, const Dataspace& memspace, void* buf,
                 std::size_t elem);

    /// Merge `sub` (file coordinates, inside filespace's selection) into
    /// the buffer now. `src_runs` locates sub's elements in `src`, sorted
    /// by file offset (see gather_scatter); empty means `src` is packed in
    /// sub's iteration order. `src` must stay valid until finish(), which
    /// may replay the piece.
    void add(Dataspace sub, std::vector<SelRun> src_runs, const void* src);

    /// Fill the holes: when the pieces' union is short of the selection,
    /// zero the memory selection and replay every piece in order. A read
    /// the pieces cover touches no byte twice.
    void finish();

private:
    struct Piece {
        Dataspace           sub;
        std::vector<SelRun> src_runs;
        const void*         src;
    };
    void merge_piece(const Piece& p);

    std::vector<SelRun> runs_; ///< mapped_runs(filespace, memspace)
    std::byte*          buf_;
    std::size_t         elem_;
    std::uint64_t       npoints_;
    std::vector<Piece>  pieces_;
};

/// Where one box of a selection sits in a packed buffer holding more than
/// the selection: `outer` encloses the box, and outer's elements occupy
/// [offset, offset + outer.size()) of the buffer in row-major order. For a
/// Deep piece (see DataPiece::packed_bytes) that is one box of its
/// filespace and the number of piece elements stored before that box.
struct PackedBox {
    diy::Bounds   outer;
    std::uint64_t offset = 0;
};

/// The part of a packed piece that a query selects: `sub` is the
/// intersection of the piece's selection with the query's, over `dims`
/// (boxes in the piece's box order), and where[k] locates sub's box k in
/// a buffer packed in the piece's iteration order.
struct LocatedIntersection {
    Dataspace              sub;
    std::vector<PackedBox> where;
};
LocatedIntersection intersect_located(const Dataspace& piece, const Dataspace& query,
                                      const Extent& dims);

/// The runs, sorted by file offset, locating every element of `sub` in a
/// packed buffer of `buf_elems` elements, where sub's k-th box lies inside
/// where[k] — the source side of gather_scatter for such a buffer. The
/// work is proportional to sub's rows, not to the enclosing boxes. Throws
/// h5::Error when the counts differ, an enclosing box has another rank,
/// leaves the extent, misses its box, or reaches past `buf_elems`: no run
/// it returns addresses an element outside the buffer.
std::vector<SelRun> located_runs(const Dataspace& sub, std::span<const PackedBox> where,
                                 std::uint64_t buf_elems);

/// Extract `want` (a sub-selection of `filespace`'s selection, in file
/// coordinates) directly from a user memory buffer described by
/// `memspace`, where the k-th element of filespace's enumeration lives at
/// the k-th element of memspace's enumeration (HDF5 write semantics).
/// Appends to `out` in `want`'s iteration order. This is the zero-copy
/// path: no intermediate packing of the producer's buffer is made. The
/// fused merge with the source located by mapped_runs.
void extract_via_mapping(const Dataspace& filespace, const Dataspace& memspace,
                         const void* membuf, const Dataspace& want, std::size_t elem,
                         std::vector<std::byte>& out);

// --- reference (uncoalesced) kernels ----------------------------------------
//
// The original per-run binary-search implementations, kept as the
// correctness oracle for the property tests. Behaviour is byte-identical
// to the fused merge behind the kernels above.

/// Append the elements of `want` (covered by piece_space's selection) to
/// `out` in want's iteration order, reading them from `piece_packed`,
/// which is laid out in piece_space's iteration order: gather_scatter
/// with the destination laid out as `want`.
void extract_from_packed_naive(const Dataspace& piece_space, const void* piece_packed,
                               const Dataspace& want, std::size_t elem,
                               std::vector<std::byte>& out);

/// Write `sub_packed` (sub's elements in its iteration order) into
/// `dest_packed`, which is laid out in dest_space's iteration order:
/// gather_scatter with the source laid out as `sub`.
void scatter_into_packed_naive(const Dataspace& dest_space, void* dest_packed,
                               const Dataspace& sub, const void* sub_packed,
                               std::size_t elem);

void extract_via_mapping_naive(const Dataspace& filespace, const Dataspace& memspace,
                               const void* membuf, const Dataspace& want, std::size_t elem,
                               std::vector<std::byte>& out);

} // namespace h5
