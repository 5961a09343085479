#pragma once

#include "api.hpp"

#include <cstddef>
#include <cstdint>

namespace h5 {

/// Deep-copy an object (group subtree or dataset) from one location to
/// another, possibly across files and across VOLs — the H5Ocopy
/// analogue, and the engine of the mh5copy tool. Attributes and dataset
/// contents are copied; `dst_name` must not already exist under `dst`.
///
/// Because it is written purely against the public API, it also moves
/// data between *transports*: copying from a LowFive in-memory file into
/// a native file checkpoints it, and vice versa.
void copy_object(const NodeRef& src, const std::string& src_path, const NodeRef& dst,
                 const std::string& dst_name);

/// The byte-moving core of the selection data plane.
///
/// Selection transfers decompose into segments whose lengths range from a
/// single odd-width element up to a full contiguous slab. A segment
/// shorter than 4 MiB is one `std::memcpy`. A segment of 4 MiB or more
/// goes through a non-temporal AVX2 loop when the CPU has AVX2, so a
/// large pack does not evict the working set; glibc's own `memcpy`
/// switches to non-temporal stores only far above that size.
namespace kern {

/// One byte-moving segment of a selection transfer: `len` bytes from
/// `src_base + src` to `dst_base + dst`. The selection kernels
/// materialize a flat list of these from the two-pointer run merge, then
/// hand the list to `copy_segments` (or split it across the h5::par pool).
struct Seg {
    std::uint64_t dst = 0;
    std::uint64_t src = 0;
    std::uint64_t len = 0;
};

/// Name of the copy used for segments of 4 MiB or more: "avx2" when the
/// CPU has AVX2, "memcpy" otherwise; decided once per process.
const char* dispatch_name();

/// Apply a batch of segments against a (dst, src) buffer pair. Segments
/// must reference disjoint destination ranges (selection runs are
/// disjoint by construction), so batches may be applied concurrently.
void copy_segments(std::byte* dst_base, const std::byte* src_base, const Seg* segs,
                   std::size_t n);

} // namespace kern
} // namespace h5
