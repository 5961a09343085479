#include "dataspace.hpp"

#include "copy.hpp"
#include "par.hpp"

#include <obs/metrics.hpp>
#include <obs/trace.hpp>

#include <algorithm>
#include <cstring>
#include <numeric>

namespace h5 {

namespace {

using Run = SelRun;

/// Raw (uncoalesced) runs straight from for_each_run: one per selected
/// row. The naive reference kernels build these on every call, exactly as
/// the kernels did before run coalescing/memoization.
std::vector<Run> collect_runs_uncoalesced(const Dataspace& space) {
    std::vector<Run> runs;
    space.for_each_run([&](std::uint64_t fo, std::uint64_t n, std::uint64_t po) {
        runs.push_back({fo, n, po});
    });
    return runs;
}

} // namespace

Dataspace::Dataspace(Extent dims) : dims_(std::move(dims)) {
    if (dims_.empty() || dims_.size() > static_cast<std::size_t>(diy::max_dim))
        throw Error("h5: dataspace rank must be in [1, " + std::to_string(diy::max_dim) + "]");
}

std::uint64_t Dataspace::extent_npoints() const {
    std::uint64_t n = 1;
    for (auto d : dims_) n *= d;
    return n;
}

diy::Bounds Dataspace::extent_bounds() const {
    diy::Bounds b(dim());
    for (int i = 0; i < dim(); ++i) {
        b.min[static_cast<std::size_t>(i)] = 0;
        b.max[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(dims_[static_cast<std::size_t>(i)]);
    }
    return b;
}

Dataspace& Dataspace::select_all() {
    all_ = true;
    boxes_.clear();
    runs_.reset();
    return *this;
}

Dataspace& Dataspace::select_none() {
    all_ = false;
    boxes_.clear();
    runs_.reset();
    return *this;
}

Dataspace& Dataspace::select_box(std::span<const std::uint64_t> start,
                                 std::span<const std::uint64_t> count) {
    if (static_cast<int>(start.size()) != dim() || static_cast<int>(count.size()) != dim())
        throw Error("h5: select_box rank mismatch");
    diy::Bounds b(dim());
    for (int i = 0; i < dim(); ++i) {
        auto u   = static_cast<std::size_t>(i);
        b.min[u] = static_cast<std::int64_t>(start[u]);
        b.max[u] = static_cast<std::int64_t>(start[u] + count[u]);
    }
    return select_box(b);
}

Dataspace& Dataspace::select_box(const diy::Bounds& b) {
    select_none();
    return add_box(b);
}

Dataspace& Dataspace::add_box_unchecked(const diy::Bounds& b) {
    if (b.dim != dim()) throw Error("h5: add_box rank mismatch");
    for (int i = 0; i < dim(); ++i) {
        auto u = static_cast<std::size_t>(i);
        if (b.min[u] < 0 || b.max[u] > static_cast<std::int64_t>(dims_[u]))
            throw Error("h5: selection box " + b.str() + " outside extent");
    }
    if (all_) throw Error("h5: add_box on an all-selection; call select_none first");
    if (!b.empty()) boxes_.push_back(b);
    runs_.reset();
    return *this;
}

Dataspace& Dataspace::add_box(const diy::Bounds& b) {
    for (const auto& existing : boxes_)
        if (diy::intersects(existing, b))
            throw Error("h5: selection boxes must be disjoint (" + existing.str() + " vs " + b.str() + ")");
    return add_box_unchecked(b);
}

Dataspace& Dataspace::select_hyperslab(std::span<const std::uint64_t> start,
                                       std::span<const std::uint64_t> stride,
                                       std::span<const std::uint64_t> count,
                                       std::span<const std::uint64_t> block) {
    const auto d = static_cast<std::size_t>(dim());
    if (start.size() != d || stride.size() != d || count.size() != d || block.size() != d)
        throw Error("h5: select_hyperslab rank mismatch");

    std::uint64_t nblocks = 1;
    for (std::size_t i = 0; i < d; ++i) nblocks *= count[i];
    if (nblocks > 1'000'000)
        throw Error("h5: hyperslab expands to too many blocks (" + std::to_string(nblocks) + ")");

    for (std::size_t i = 0; i < d; ++i) {
        std::uint64_t st = stride[i] ? stride[i] : block[i];
        if (count[i] > 1 && st < block[i])
            throw Error("h5: hyperslab stride smaller than block (overlapping blocks)");
    }

    select_none();
    if (nblocks == 0) return *this;
    boxes_.reserve(static_cast<std::size_t>(nblocks));
    std::vector<std::uint64_t> idx(d, 0);
    for (;;) {
        diy::Bounds b(dim());
        for (std::size_t i = 0; i < d; ++i) {
            std::uint64_t st = stride[i] ? stride[i] : block[i];
            std::uint64_t lo = start[i] + idx[i] * st;
            b.min[i]         = static_cast<std::int64_t>(lo);
            b.max[i]         = static_cast<std::int64_t>(lo + block[i]);
        }
        // blocks of a regular hyperslab are disjoint by construction
        // (stride >= block, checked above), so skip the pairwise scan
        add_box_unchecked(b);

        std::size_t i = d;
        while (i > 0) {
            --i;
            if (++idx[i] < count[i]) break;
            idx[i] = 0;
            if (i == 0) return *this;
        }
    }
}

Dataspace& Dataspace::select_elements(
    std::span<const std::array<std::int64_t, diy::max_dim>> points) {
    // duplicate detection in O(n log n) via linearized indices, then the
    // boxes are inserted without the pairwise disjointness scan
    std::vector<std::uint64_t> linear;
    linear.reserve(points.size());
    for (const auto& pt : points) {
        std::uint64_t off = 0;
        for (int i = 0; i < dim(); ++i) {
            auto u = static_cast<std::size_t>(i);
            if (pt[u] < 0 || pt[u] >= static_cast<std::int64_t>(dims_[u]))
                throw Error("h5: select_elements point outside extent");
            off = off * dims_[u] + static_cast<std::uint64_t>(pt[u]);
        }
        linear.push_back(off);
    }
    auto sorted = linear;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        throw Error("h5: select_elements points must be distinct");

    select_none();
    all_ = false;
    boxes_.reserve(points.size());
    for (const auto& pt : points) {
        diy::Bounds b(dim());
        for (int i = 0; i < dim(); ++i) {
            auto u   = static_cast<std::size_t>(i);
            b.min[u] = pt[u];
            b.max[u] = pt[u] + 1;
        }
        boxes_.push_back(b); // disjoint by the uniqueness check above
    }
    runs_.reset();
    return *this;
}

Dataspace& Dataspace::grow_extent(const Extent& new_dims) {
    if (new_dims.size() != dims_.size())
        throw Error("h5: grow_extent cannot change the rank");
    for (std::size_t i = 0; i < dims_.size(); ++i)
        if (new_dims[i] < dims_[i])
            throw Error("h5: grow_extent cannot shrink dimension " + std::to_string(i));
    dims_ = new_dims;
    return select_all();
}

Dataspace Dataspace::with_dims(const Extent& new_dims) const {
    Dataspace out(new_dims);
    if (out.dim() != dim()) throw Error("h5: with_dims cannot change the rank");
    if (all_) {
        // "all" of the old extent becomes an explicit box selection
        out.select_none();
        resolve();
    } else {
        out.select_none();
    }
    // boxes of a valid selection are already disjoint
    for (const auto& b : boxes_) out.add_box_unchecked(b);
    return out;
}

void Dataspace::resolve() const {
    if (all_ && boxes_.empty() && extent_npoints() > 0) {
        diy::Bounds b(dim());
        for (int i = 0; i < dim(); ++i) {
            auto u   = static_cast<std::size_t>(i);
            b.min[u] = 0;
            b.max[u] = static_cast<std::int64_t>(dims_[u]);
        }
        boxes_.push_back(b);
    }
}

const std::vector<diy::Bounds>& Dataspace::boxes() const {
    resolve();
    return boxes_;
}

std::uint64_t Dataspace::npoints() const {
    if (all_) return extent_npoints();
    std::uint64_t n = 0;
    for (const auto& b : boxes_) n += b.size();
    return n;
}

diy::Bounds Dataspace::bounding_box() const {
    resolve();
    if (boxes_.empty()) return diy::Bounds(dim());
    diy::Bounds bb = boxes_.front();
    for (const auto& b : boxes_) {
        for (int i = 0; i < dim(); ++i) {
            auto u    = static_cast<std::size_t>(i);
            bb.min[u] = std::min(bb.min[u], b.min[u]);
            bb.max[u] = std::max(bb.max[u], b.max[u]);
        }
    }
    return bb;
}

void Dataspace::for_each_run(
    const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>& fn) const {
    resolve();
    const int d = dim();

    // row-major strides of the full extent
    std::array<std::uint64_t, diy::max_dim> stride{};
    stride[static_cast<std::size_t>(d - 1)] = 1;
    for (int i = d - 2; i >= 0; --i)
        stride[static_cast<std::size_t>(i)] =
            stride[static_cast<std::size_t>(i + 1)] * dims_[static_cast<std::size_t>(i + 1)];

    std::uint64_t packed = 0;
    for (const auto& b : boxes_) {
        if (b.empty()) continue;
        const auto last    = static_cast<std::size_t>(d - 1);
        const auto row_len = static_cast<std::uint64_t>(b.max[last] - b.min[last]);

        // iterate over all rows (multi-index over dims 0..d-2)
        std::array<std::int64_t, diy::max_dim> coord{};
        for (int i = 0; i < d; ++i) coord[static_cast<std::size_t>(i)] = b.min[static_cast<std::size_t>(i)];
        for (;;) {
            std::uint64_t off = 0;
            for (int i = 0; i < d; ++i)
                off += static_cast<std::uint64_t>(coord[static_cast<std::size_t>(i)]) * stride[static_cast<std::size_t>(i)];
            fn(off, row_len, packed);
            packed += row_len;

            int i = d - 2;
            for (; i >= 0; --i) {
                auto u = static_cast<std::size_t>(i);
                if (++coord[u] < b.max[u]) break;
                coord[u] = b.min[u];
            }
            if (i < 0) break;
        }
    }
}

const Dataspace::RunsCache& Dataspace::run_cache() const {
    if (!runs_) {
        auto cache = std::make_shared<RunsCache>();
        auto& iter = cache->iter;
        // coalesce emissions that are contiguous in both the file
        // linearization and the packed buffer (e.g. full rows of a slab
        // merge into one run spanning the slab)
        for_each_run([&](std::uint64_t fo, std::uint64_t n, std::uint64_t po) {
            if (!iter.empty() && iter.back().file_off + iter.back().len == fo &&
                iter.back().packed_off + iter.back().len == po)
                iter.back().len += n;
            else
                iter.push_back({fo, n, po});
        });
        cache->by_file = iter;
        std::sort(cache->by_file.begin(), cache->by_file.end(),
                  [](const Run& a, const Run& b) { return a.file_off < b.file_off; });
        runs_ = std::move(cache);
    }
    return *runs_;
}

const std::vector<SelRun>& Dataspace::runs() const { return run_cache().iter; }

const std::vector<SelRun>& Dataspace::runs_by_file() const { return run_cache().by_file; }

void Dataspace::save(diy::BinaryBuffer& bb) const {
    bb.save(dims_);
    bb.save<std::uint8_t>(all_ ? 1 : 0);
    if (!all_) {
        bb.save<std::uint64_t>(boxes_.size());
        for (const auto& b : boxes_) b.save(bb);
    }
}

Dataspace Dataspace::load(diy::BinaryBuffer& bb) {
    Extent dims;
    bb.load(dims);
    Dataspace sp(std::move(dims));
    if (bb.load<std::uint8_t>() == 0) {
        sp.select_none();
        auto n = bb.load<std::uint64_t>();
        for (std::uint64_t k = 0; k < n; ++k) {
            // Bounds::load rejects a rank outside [0, max_dim] before
            // writing coordinates; add_box_unchecked rejects one that
            // differs from the extent's, and boxes outside the extent.
            // Saved selections were validated disjoint when constructed.
            sp.add_box_unchecked(diy::Bounds::load(bb));
        }
    }
    return sp;
}

std::string Dataspace::str() const {
    std::string s = "extent(";
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        s += std::to_string(dims_[i]);
        if (i + 1 < dims_.size()) s += "x";
    }
    s += ")";
    if (all_) return s + " all";
    s += " sel{";
    for (const auto& b : boxes_) s += b.str();
    return s + "}";
}

// --- selection algebra -------------------------------------------------------

std::vector<diy::Bounds> intersect_selections(const Dataspace& a, const Dataspace& b) {
    if (a.dim() != b.dim()) throw Error("h5: intersecting selections of different rank");
    std::vector<diy::Bounds> out;
    for (const auto& ba : a.boxes())
        for (const auto& bb : b.boxes())
            if (auto r = diy::intersect(ba, bb)) out.push_back(*r);
    return out;
}

namespace {
// defined with the vectorized kernels below
void run_segments(std::byte* dst, const std::byte* src, const std::vector<kern::Seg>& segs,
                  std::uint64_t bytes);
} // namespace

// pack has no lookup side (one selection, both layouts known), so there
// is nothing to merge: emit one segment per coalesced run and let the
// segment runner decide the fan-out.

void pack_selection(const Dataspace& space, const void* full, std::size_t elem, void* packed) {
    const auto* src = static_cast<const std::byte*>(full);
    auto*       dst = static_cast<std::byte*>(packed);

    std::vector<kern::Seg> segs;
    const auto&            runs = space.runs();
    segs.reserve(runs.size());
    for (const auto& r : runs)
        segs.push_back({r.packed_off * elem, r.file_off * elem, r.len * elem});
    run_segments(dst, src, segs, space.npoints() * elem);
}

std::vector<SelRun> mapped_runs(const Dataspace& filespace, const Dataspace& memspace) {
    if (filespace.npoints() != memspace.npoints())
        throw Error("h5: mapped_runs: selection sizes differ ("
                    + std::to_string(filespace.npoints()) + " vs "
                    + std::to_string(memspace.npoints()) + ")");
    // one walk over both enumerations; a run ends where either side's does
    const auto&         fruns = filespace.runs();
    const auto&         mruns = memspace.runs();
    std::vector<SelRun> out;
    out.reserve(std::max(fruns.size(), mruns.size()));
    std::size_t   fi = 0, mi = 0;
    std::uint64_t fdone = 0, mdone = 0; // consumed within the current runs
    while (fi < fruns.size() && mi < mruns.size()) {
        const std::uint64_t n = std::min(fruns[fi].len - fdone, mruns[mi].len - mdone);
        out.push_back({fruns[fi].file_off + fdone, n, mruns[mi].file_off + mdone});
        if ((fdone += n) == fruns[fi].len) { ++fi; fdone = 0; }
        if ((mdone += n) == mruns[mi].len) { ++mi; mdone = 0; }
    }
    std::sort(out.begin(), out.end(),
              [](const Run& a, const Run& b) { return a.file_off < b.file_off; });
    return out;
}

// --- vectorized segment runner -----------------------------------------------
//
// The merges materialize a flat segment list {dst, src, len} for
// kern::copy_segments. Above the h5::par threshold the
// list is split into ~equal-byte chunks (cutting large segments, so a
// single slab-on-slab run still fans out) and executed across the pool —
// destinations are disjoint by construction, so chunks are independent.

namespace {

struct KernelMetrics {
    obs::Counter& bytes;    ///< kernel.bytes moved through run_segments
    obs::Counter& segments; ///< kernel.segments materialized

    static KernelMetrics& get() {
        static KernelMetrics m{
            obs::Registry::global().counter("kernel.bytes"),
            obs::Registry::global().counter("kernel.segments"),
        };
        return m;
    }
};

/// Split `segs` (totalling `bytes`) into up to `nchunks` lists of
/// ~equal byte weight, cutting segments that straddle a boundary.
std::vector<std::vector<kern::Seg>> split_segments(const std::vector<kern::Seg>& segs,
                                                   std::uint64_t bytes, std::size_t nchunks) {
    const std::uint64_t target = (bytes + nchunks - 1) / nchunks;
    std::vector<std::vector<kern::Seg>> out;
    out.emplace_back();
    std::uint64_t acc = 0;
    for (const auto& seg : segs) {
        std::uint64_t done = 0;
        while (done < seg.len) {
            if (acc >= target && out.size() < nchunks) {
                out.emplace_back();
                acc = 0;
            }
            std::uint64_t take = seg.len - done;
            if (out.size() < nchunks && acc + take > target) take = target - acc;
            out.back().push_back({seg.dst + done, seg.src + done, take});
            acc += take;
            done += take;
        }
    }
    return out;
}

void run_segments(std::byte* dst, const std::byte* src, const std::vector<kern::Seg>& segs,
                  std::uint64_t bytes) {
    KernelMetrics& m = KernelMetrics::get();
    m.bytes.add(bytes);
    m.segments.add(segs.size());
    if (!par::should_parallelize(bytes)) {
        kern::copy_segments(dst, src, segs.data(), segs.size());
        return;
    }
    const auto chunks = split_segments(segs, bytes, par::chunk_count(bytes));
    par::parallel_for(chunks.size(), [&](std::size_t i) {
        kern::copy_segments(dst, src, chunks[i].data(), chunks[i].size());
    });
}

/// Plan the fused gather-scatter merge: walk `sub`'s runs in file order
/// with one forward cursor through the source runs and one through the
/// destination runs (all three sorted by file offset; runs of one
/// selection are disjoint, so neither cursor ever moves back). Each
/// segment is the longest stretch contiguous on all three. Throws, before
/// anything is copied, when an element of `sub` is missing on either side.
std::vector<kern::Seg> plan_merge(std::span<const Run> src_runs, const Dataspace& sub,
                                  std::span<const Run> dst_runs, std::size_t elem) {
    // advance `i` to the run holding file offset `target`; returns the
    // offset within that run
    auto seek = [](std::span<const Run> runs, std::size_t& i, std::uint64_t target,
                   const char* side) {
        while (i < runs.size() && runs[i].file_off + runs[i].len <= target) ++i;
        if (i == runs.size() || runs[i].file_off > target)
            throw Error(std::string("h5: gather_scatter: element not covered by the ") + side);
        return target - runs[i].file_off;
    };

    const auto&            wruns = sub.runs_by_file();
    std::vector<kern::Seg> segs;
    segs.reserve(wruns.size());
    std::size_t si = 0, di = 0;
    for (const auto& w : wruns) {
        for (std::uint64_t done = 0; done < w.len;) {
            const std::uint64_t target = w.file_off + done;
            const std::uint64_t s_in   = seek(src_runs, si, target, "source");
            const std::uint64_t d_in   = seek(dst_runs, di, target, "destination");
            const std::uint64_t take =
                std::min({src_runs[si].len - s_in, dst_runs[di].len - d_in, w.len - done});
            segs.push_back({(dst_runs[di].packed_off + d_in) * elem,
                            (src_runs[si].packed_off + s_in) * elem, take * elem});
            done += take;
        }
    }
    return segs;
}

/// Plan, then copy through kern::copy_segments and the pool fan-out.
void merge(std::span<const Run> src_runs, const void* src, const Dataspace& sub,
           std::span<const Run> dst_runs, void* dst, std::size_t elem) {
    run_segments(static_cast<std::byte*>(dst), static_cast<const std::byte*>(src),
                 plan_merge(src_runs, sub, dst_runs, elem), sub.npoints() * elem);
}

} // namespace

// --- fused gather-scatter merge ----------------------------------------------
//
// Every packed-to-packed copy is one forward merge over runs sorted by
// file offset: the selection being moved, where the source holds it, and
// where the destination wants it. A slab-on-slab transfer degenerates to
// one segment. Extract and scatter are the two special cases where one
// side is laid out as the moved selection itself.

void gather_scatter(std::span<const SelRun> src_runs, const void* src, const Dataspace& sub,
                    std::span<const SelRun> dst_runs, void* dst, std::size_t elem) {
    obs::Span span("gather_scatter", "h5.kernel", {{"bytes", sub.npoints() * elem, nullptr}});
    merge(src_runs, src, sub, dst_runs, dst, elem);
}

void extract_via_mapping(const Dataspace& filespace, const Dataspace& memspace,
                         const void* membuf, const Dataspace& want, std::size_t elem,
                         std::vector<std::byte>& out) {
    obs::Span span("extract_via_mapping", "h5.kernel",
                   {{"bytes", want.npoints() * elem, nullptr}});
    const auto src_runs = mapped_runs(filespace, memspace);
    const auto base     = out.size();
    out.resize(base + want.npoints() * elem);
    merge(src_runs, membuf, want, want.runs_by_file(), out.data() + base, elem);
}

// --- read assembly -----------------------------------------------------------

ReadAssembly::ReadAssembly(const Dataspace& filespace, const Dataspace& memspace, void* buf,
                           std::size_t elem)
    : runs_(mapped_runs(filespace, memspace)), buf_(static_cast<std::byte*>(buf)), elem_(elem),
      npoints_(filespace.npoints()) {}

void ReadAssembly::merge_piece(const Piece& p) {
    gather_scatter(p.src_runs.empty() ? p.sub.runs_by_file() : p.src_runs, p.src, p.sub, runs_,
                   buf_, elem_);
}

void ReadAssembly::add(Dataspace sub, std::vector<SelRun> src_runs, const void* src) {
    merge_piece(pieces_.emplace_back(Piece{std::move(sub), std::move(src_runs), src}));
}

void ReadAssembly::finish() {
    // distinct elements the pieces covered: an overlap-safe union of
    // their runs
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const auto& p : pieces_)
        for (const auto& r : p.sub.runs()) iv.emplace_back(r.file_off, r.file_off + r.len);
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, hi = 0;
    for (const auto& [a, b] : iv) {
        const std::uint64_t lo = std::max(a, hi);
        if (b > lo) {
            covered += b - lo;
            hi = b;
        }
    }
    if (covered == npoints_) return;
    for (const auto& r : runs_) std::memset(buf_ + r.packed_off * elem_, 0, r.len * elem_);
    for (const auto& p : pieces_) merge_piece(p);
}

LocatedIntersection intersect_located(const Dataspace& piece, const Dataspace& query,
                                      const Extent& dims) {
    if (piece.dim() != query.dim())
        throw Error("h5: intersecting selections of different rank");
    LocatedIntersection out{Dataspace(dims), {}};
    out.sub.select_none();
    std::uint64_t off = 0; // piece elements packed before box pb
    for (const auto& pb : piece.boxes()) {
        for (const auto& qb : query.boxes())
            if (auto common = diy::intersect(pb, qb)) {
                out.sub.add_box(*common);
                out.where.push_back({pb, off});
            }
        off += pb.size();
    }
    return out;
}

std::vector<SelRun> located_runs(const Dataspace& sub, std::span<const PackedBox> where,
                                 std::uint64_t buf_elems) {
    const auto& boxes = sub.boxes();
    if (where.size() != boxes.size())
        throw Error("h5: located_runs: " + std::to_string(where.size())
                    + " enclosing boxes for " + std::to_string(boxes.size()) + " selection boxes");
    const int   d    = sub.dim();
    const auto  last = static_cast<std::size_t>(d - 1);
    const auto& dims = sub.dims();

    std::array<std::uint64_t, diy::max_dim> stride{}; // row-major strides of the extent
    stride[last] = 1;
    for (int i = d - 2; i >= 0; --i)
        stride[static_cast<std::size_t>(i)] =
            stride[static_cast<std::size_t>(i + 1)] * dims[static_cast<std::size_t>(i + 1)];

    std::vector<SelRun> runs;
    for (std::size_t k = 0; k < boxes.size(); ++k) {
        const auto& b     = boxes[k];
        const auto& outer = where[k].outer;
        if (outer.dim != d)
            throw Error("h5: located_runs: enclosing box rank " + std::to_string(outer.dim)
                        + " differs from the selection's " + std::to_string(d));
        // validate everything that feeds an offset before emitting a run:
        // outer inside the extent, b inside outer, outer inside the buffer
        std::array<std::uint64_t, diy::max_dim> ostride{}; // row-major strides of outer
        std::uint64_t                           osize = 1;
        for (int i = d - 1; i >= 0; --i) {
            const auto u = static_cast<std::size_t>(i);
            if (outer.min[u] < 0 || outer.max[u] > static_cast<std::int64_t>(dims[u])
                || b.min[u] < outer.min[u] || b.max[u] > outer.max[u])
                throw Error("h5: located_runs: box " + b.str() + " is not inside enclosing box "
                            + outer.str() + " within the extent");
            ostride[u] = osize;
            if (__builtin_mul_overflow(osize, static_cast<std::uint64_t>(outer.max[u] - outer.min[u]),
                                       &osize))
                throw Error("h5: located_runs: enclosing box " + outer.str() + " overflows");
        }
        const std::uint64_t offset = where[k].offset;
        if (osize > buf_elems || offset > buf_elems - osize)
            throw Error("h5: located_runs: enclosing box " + outer.str() + " at element "
                        + std::to_string(offset) + " reaches past the "
                        + std::to_string(buf_elems) + "-element buffer");

        // one run per row of b, merged when contiguous in both the file
        // linearization and the buffer
        const auto row_len = static_cast<std::uint64_t>(b.max[last] - b.min[last]);
        std::array<std::int64_t, diy::max_dim> c = b.min;
        for (;;) {
            std::uint64_t fo = 0, bo = offset;
            for (std::size_t u = 0; u <= last; ++u) {
                fo += static_cast<std::uint64_t>(c[u]) * stride[u];
                bo += static_cast<std::uint64_t>(c[u] - outer.min[u]) * ostride[u];
            }
            if (!runs.empty() && runs.back().file_off + runs.back().len == fo
                && runs.back().packed_off + runs.back().len == bo)
                runs.back().len += row_len;
            else
                runs.push_back({fo, row_len, bo});

            int i = d - 2;
            for (; i >= 0; --i) {
                const auto u = static_cast<std::size_t>(i);
                if (++c[u] < b.max[u]) break;
                c[u] = b.min[u];
            }
            if (i < 0) break;
        }
    }
    // boxes of a selection need not be stored in file order
    std::sort(runs.begin(), runs.end(),
              [](const Run& a, const Run& x) { return a.file_off < x.file_off; });
    return runs;
}

// --- naive reference kernels -------------------------------------------------
//
// The pre-coalescing implementations: rebuild the (uncoalesced) run list
// on every call and binary-search it per walked row. Kept byte-compatible
// as the property-test oracle.

void extract_from_packed_naive(const Dataspace& piece_space, const void* piece_packed,
                               const Dataspace& want, std::size_t elem,
                               std::vector<std::byte>& out) {
    auto pruns = collect_runs_uncoalesced(piece_space);
    std::sort(pruns.begin(), pruns.end(), [](const Run& a, const Run& b) { return a.file_off < b.file_off; });

    const auto* src  = static_cast<const std::byte*>(piece_packed);
    const auto  base = out.size();
    out.resize(base + want.npoints() * elem);
    auto* dst = out.data() + base;

    want.for_each_run([&](std::uint64_t fo, std::uint64_t n, std::uint64_t po) {
        std::uint64_t copied = 0;
        while (copied < n) {
            std::uint64_t target = fo + copied;
            // last piece run with file_off <= target
            auto it = std::upper_bound(pruns.begin(), pruns.end(), target,
                                       [](std::uint64_t v, const Run& r) { return v < r.file_off; });
            if (it == pruns.begin())
                throw Error("h5: extract_from_packed_naive: requested element not covered by piece");
            --it;
            if (target >= it->file_off + it->len)
                throw Error("h5: extract_from_packed_naive: requested element not covered by piece");
            std::uint64_t within = target - it->file_off;
            std::uint64_t avail  = it->len - within;
            std::uint64_t take   = std::min(avail, n - copied);
            std::memcpy(dst + (po + copied) * elem, src + (it->packed_off + within) * elem, take * elem);
            copied += take;
        }
    });
}

void scatter_into_packed_naive(const Dataspace& dest_space, void* dest_packed,
                               const Dataspace& sub, const void* sub_packed, std::size_t elem) {
    auto druns = collect_runs_uncoalesced(dest_space);
    std::sort(druns.begin(), druns.end(),
              [](const Run& a, const Run& b) { return a.file_off < b.file_off; });

    auto*       dst = static_cast<std::byte*>(dest_packed);
    const auto* src = static_cast<const std::byte*>(sub_packed);

    sub.for_each_run([&](std::uint64_t fo, std::uint64_t n, std::uint64_t po) {
        std::uint64_t copied = 0;
        while (copied < n) {
            std::uint64_t target = fo + copied;
            auto it = std::upper_bound(druns.begin(), druns.end(), target,
                                       [](std::uint64_t v, const Run& r) { return v < r.file_off; });
            if (it == druns.begin())
                throw Error("h5: scatter_into_packed_naive: element not covered by destination");
            --it;
            if (target >= it->file_off + it->len)
                throw Error("h5: scatter_into_packed_naive: element not covered by destination");
            std::uint64_t within = target - it->file_off;
            std::uint64_t avail  = it->len - within;
            std::uint64_t take   = std::min(avail, n - copied);
            std::memcpy(dst + (it->packed_off + within) * elem, src + (po + copied) * elem, take * elem);
            copied += take;
        }
    });
}

void extract_via_mapping_naive(const Dataspace& filespace, const Dataspace& memspace,
                               const void* membuf, const Dataspace& want, std::size_t elem,
                               std::vector<std::byte>& out) {
    if (filespace.npoints() != memspace.npoints())
        throw Error("h5: extract_via_mapping: filespace/memspace sizes differ");

    auto fruns = collect_runs_uncoalesced(filespace);
    std::sort(fruns.begin(), fruns.end(),
              [](const Run& a, const Run& b) { return a.file_off < b.file_off; });
    auto mruns = collect_runs_uncoalesced(memspace); // increasing packed_off by construction

    const auto* src  = static_cast<const std::byte*>(membuf);
    const auto  base = out.size();
    out.resize(base + want.npoints() * elem);
    auto* dst = out.data() + base;

    // enumeration position -> memory buffer offset
    auto mem_locate = [&](std::uint64_t pos, std::uint64_t& buf_off, std::uint64_t& avail) {
        auto it = std::upper_bound(mruns.begin(), mruns.end(), pos,
                                   [](std::uint64_t v, const Run& r) { return v < r.packed_off; });
        if (it == mruns.begin()) throw Error("h5: extract_via_mapping: bad enumeration position");
        --it;
        std::uint64_t within = pos - it->packed_off;
        if (within >= it->len) throw Error("h5: extract_via_mapping: bad enumeration position");
        buf_off = it->file_off + within;
        avail   = it->len - within;
    };

    want.for_each_run([&](std::uint64_t fo, std::uint64_t n, std::uint64_t po) {
        std::uint64_t copied = 0;
        while (copied < n) {
            std::uint64_t target = fo + copied;
            auto it = std::upper_bound(fruns.begin(), fruns.end(), target,
                                       [](std::uint64_t v, const Run& r) { return v < r.file_off; });
            if (it == fruns.begin())
                throw Error("h5: extract_via_mapping: requested element not covered");
            --it;
            if (target >= it->file_off + it->len)
                throw Error("h5: extract_via_mapping: requested element not covered");
            std::uint64_t within  = target - it->file_off;
            std::uint64_t avail_f = it->len - within;
            std::uint64_t pos     = it->packed_off + within;

            std::uint64_t buf_off = 0, avail_m = 0;
            mem_locate(pos, buf_off, avail_m);

            std::uint64_t take = std::min({avail_f, avail_m, n - copied});
            std::memcpy(dst + (po + copied) * elem, src + buf_off * elem, take * elem);
            copied += take;
        }
    });
}

} // namespace h5
