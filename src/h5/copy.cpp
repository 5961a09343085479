#include "copy.hpp"

#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define L5_KERN_X86 1
#endif

namespace h5 {
namespace kern {
namespace {

#if L5_KERN_X86

/// From this size on a segment is DRAM-bound and its destination will not
/// be re-read soon (the producer's pack chunks), so non-temporal stores
/// keep it from evicting the working set. glibc's memcpy streams only far
/// above this, and below it memcpy is the faster copy.
constexpr std::size_t stream_threshold = 4u << 20;

bool have_avx2() {
    static const bool yes = __builtin_cpu_supports("avx2");
    return yes;
}

/// Align the destination, then non-temporal stores that bypass the
/// cache; the sfence orders them before any later release operation
/// (the pool's completion publish). Called only for n >= stream_threshold.
__attribute__((target("avx2"))) void stream_avx2(std::byte* dst, const std::byte* src,
                                                 std::size_t n) {
    const std::size_t head = (32 - (reinterpret_cast<std::uintptr_t>(dst) & 31u)) & 31u;
    std::memcpy(dst, src, head);
    std::size_t i = head;
    for (; i + 128 <= n; i += 128) {
        const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        const __m256i v1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
        const __m256i v2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 64));
        const __m256i v3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 96));
        _mm256_stream_si256(reinterpret_cast<__m256i*>(dst + i), v0);
        _mm256_stream_si256(reinterpret_cast<__m256i*>(dst + i + 32), v1);
        _mm256_stream_si256(reinterpret_cast<__m256i*>(dst + i + 64), v2);
        _mm256_stream_si256(reinterpret_cast<__m256i*>(dst + i + 96), v3);
    }
    _mm_sfence();
    std::memcpy(dst + i, src + i, n - i);
}

#endif // L5_KERN_X86

void copy(std::byte* dst, const std::byte* src, std::size_t n) {
#if L5_KERN_X86
    if (n >= stream_threshold && have_avx2()) {
        stream_avx2(dst, src, n);
        return;
    }
#endif
    std::memcpy(dst, src, n);
}

} // namespace

const char* dispatch_name() {
#if L5_KERN_X86
    if (have_avx2()) return "avx2";
#endif
    return "memcpy";
}

void copy_segments(std::byte* dst_base, const std::byte* src_base, const Seg* segs,
                   std::size_t n) {
    // memcpy needs valid pointers even for 0 bytes, and an empty buffer's
    // data() may be null
    for (std::size_t i = 0; i < n; ++i)
        if (segs[i].len) copy(dst_base + segs[i].dst, src_base + segs[i].src, segs[i].len);
}

} // namespace kern

namespace {

void copy_attributes(const NodeRef& from, const NodeRef& to) {
    for (const auto& name : from.attributes()) {
        auto info = from.vol().attribute_info(from.handle(), name);
        if (!info) continue;
        std::vector<std::byte> buf(info->space.npoints() * info->type.size());
        from.vol().attribute_read(from.handle(), name, buf.data());
        to.write_attribute(name, info->type, info->space, buf.data());
    }
}

void copy_dataset(const Dataset& src, const NodeRef& dst, const std::string& name) {
    auto type  = src.type();
    auto space = src.space();
    auto out   = dst.create_dataset(name, type, Dataspace(space.dims()));

    std::vector<std::byte> data(space.extent_npoints() * type.size());
    if (!data.empty()) {
        src.read(data.data());
        out.write(data.data());
    }
    copy_attributes(src, out);
}

void copy_group_tree(const Group& src, const NodeRef& dst, const std::string& name) {
    auto out = dst.create_group(name);
    copy_attributes(src, out);
    for (const auto& child : src.children()) {
        // dataset-or-group dispatch through the public API
        bool copied = false;
        try {
            auto d = src.open_dataset(child);
            copy_dataset(d, out, child);
            copied = true;
        } catch (const Error&) {
        }
        if (!copied) copy_group_tree(src.open_group(child), out, child);
    }
}

} // namespace

void copy_object(const NodeRef& src, const std::string& src_path, const NodeRef& dst,
                 const std::string& dst_name) {
    if (dst.exists(dst_name))
        throw Error("h5: copy destination '" + dst_name + "' already exists");

    // create intermediate groups for a multi-component destination
    NodeRef     parent = dst;
    std::string leaf   = dst_name;
    std::size_t pos;
    while ((pos = leaf.find('/')) != std::string::npos) {
        std::string head = leaf.substr(0, pos);
        leaf             = leaf.substr(pos + 1);
        parent = parent.exists(head) ? NodeRef(parent.open_group(head))
                                     : NodeRef(parent.create_group(head));
    }

    try {
        auto d = src.open_dataset(src_path);
        copy_dataset(d, parent, leaf);
        return;
    } catch (const Error&) {
    }
    copy_group_tree(src.open_group(src_path), parent, leaf);
}

} // namespace h5
