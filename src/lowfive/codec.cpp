#include "codec.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define L5_CODEC_SSE2 1
#endif

namespace lowfive {
namespace codec {

namespace {

constexpr int         hash_log     = 13;
constexpr std::size_t hash_size    = std::size_t(1) << hash_log;
constexpr std::size_t min_match    = 4;
/// The last bytes of a block are emitted as literals so match extension
/// never reads past the input and the decoder's wild copies stay inside
/// the exact output size.
constexpr std::size_t tail_literals = 12;
constexpr std::size_t max_offset    = 65535;

inline std::uint32_t read32(const std::byte* p) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

inline std::uint64_t read64(const std::byte* p) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

/// Index of the first differing byte between two little-endian words.
inline std::size_t first_diff_byte(std::uint64_t a, std::uint64_t b) {
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<std::size_t>(__builtin_ctzll(a ^ b)) >> 3;
#else
    std::uint64_t x = a ^ b;
    std::size_t   i = 0;
    while ((x & 0xff) == 0) { x >>= 8; ++i; }
    return i;
#endif
}

/// Length of the common prefix of src[a..] and src[b..], capped at `max`.
/// Word-at-a-time: compares 8 bytes per iteration, then pinpoints the
/// mismatch with a count-trailing-zeros on the xor.
inline std::size_t match_length(const std::byte* src, std::size_t a, std::size_t b,
                                std::size_t max) {
    std::size_t len = 0;
    while (len + 8 <= max) {
        const std::uint64_t wa = read64(src + a + len);
        const std::uint64_t wb = read64(src + b + len);
        if (wa != wb) return len + first_diff_byte(wa, wb);
        len += 8;
    }
    while (len < max && src[a + len] == src[b + len]) ++len;
    return len;
}

inline std::uint32_t hash4(std::uint32_t v) {
    return (v * 2654435761u) >> (32 - hash_log);
}

inline void write16le(std::byte* p, std::uint16_t v) {
    p[0] = static_cast<std::byte>(v & 0xff);
    p[1] = static_cast<std::byte>(v >> 8);
}

inline std::uint16_t read16le(const std::byte* p) {
    return static_cast<std::uint16_t>(static_cast<unsigned>(p[0])
                                      | (static_cast<unsigned>(p[1]) << 8));
}

/// Emit one sequence: `lit` literals from `src + anchor`, then (unless
/// this is the final literal-only sequence) a match of `mlen` at
/// `offset`. Returns false when `dst` capacity would be exceeded.
bool emit_sequence(const std::byte* src, std::size_t anchor, std::size_t lit, std::size_t offset,
                   std::size_t mlen, std::byte* dst, std::size_t cap, std::size_t& op,
                   bool final_literals) {
    // worst case: token + lit/255 + 1 ext bytes + literals + offset + mlen ext
    const std::size_t worst = 1 + lit / 255 + 1 + lit + 2 + (mlen ? mlen / 255 + 1 : 0);
    if (op + worst > cap) return false;

    const std::size_t token_pos = op++;
    std::uint8_t      token     = 0;

    if (lit >= 15) {
        token = 15u << 4;
        std::size_t rest = lit - 15;
        while (rest >= 255) {
            dst[op++] = static_cast<std::byte>(255);
            rest -= 255;
        }
        dst[op++] = static_cast<std::byte>(rest);
    } else {
        token = static_cast<std::uint8_t>(lit << 4);
    }
    std::memcpy(dst + op, src + anchor, lit);
    op += lit;

    if (!final_literals) {
        write16le(dst + op, static_cast<std::uint16_t>(offset));
        op += 2;
        const std::size_t ml = mlen - min_match;
        if (ml >= 15) {
            token |= 15;
            std::size_t rest = ml - 15;
            while (rest >= 255) {
                dst[op++] = static_cast<std::byte>(255);
                rest -= 255;
            }
            dst[op++] = static_cast<std::byte>(rest);
        } else {
            token |= static_cast<std::uint8_t>(ml);
        }
    }
    dst[token_pos] = static_cast<std::byte>(token);
    return true;
}

} // namespace

std::size_t compress_bound(std::size_t n) { return n + n / 255 + 16; }

std::size_t lz4_compress(const std::byte* src, std::size_t n, std::byte* dst, std::size_t cap) {
    std::size_t op = 0;

    if (n <= tail_literals) {
        if (!emit_sequence(src, 0, n, 0, 0, dst, cap, op, /*final=*/true)) return 0;
        return op;
    }

    std::uint32_t table[hash_size] = {0}; // position + 1; 0 = empty

    const std::size_t mflimit = n - tail_literals; // last position a match may start
    std::size_t       ip = 0, anchor = 0;
    std::size_t       skip = 1u << 6; // acceleration: step = skip >> 6

    while (ip < mflimit) {
        const std::uint32_t seq  = read32(src + ip);
        const std::uint32_t h    = hash4(seq);
        const std::size_t   cand = table[h];
        table[h]                 = static_cast<std::uint32_t>(ip + 1);

        if (cand != 0 && ip + 1 - cand <= max_offset && read32(src + (cand - 1)) == seq) {
            const std::size_t match = cand - 1;
            const std::size_t mmax  = n - tail_literals + min_match - ip; // keep tail literal-only
            const std::size_t mlen =
                min_match + match_length(src, match + min_match, ip + min_match, mmax - min_match);

            if (!emit_sequence(src, anchor, ip - anchor, ip - match, mlen, dst, cap, op,
                               /*final=*/false))
                return 0;
            ip += mlen;
            anchor = ip;
            skip   = 1u << 6;
        } else {
            ip += skip++ >> 6;
        }
    }

    if (!emit_sequence(src, anchor, n - anchor, 0, 0, dst, cap, op, /*final=*/true)) return 0;
    return op;
}

void lz4_decompress(const std::byte* src, std::size_t n, std::byte* dst, std::size_t raw_n) {
    std::size_t ip = 0, op = 0;

    auto read_len = [&](std::size_t base) -> std::size_t {
        std::size_t len = base;
        if (base == 15) {
            std::uint8_t b;
            do {
                if (ip >= n) throw CodecError("lz4: truncated length");
                b = static_cast<std::uint8_t>(src[ip++]);
                len += b;
            } while (b == 255);
        }
        return len;
    };

    while (ip < n) {
        const std::uint8_t token = static_cast<std::uint8_t>(src[ip++]);

        const std::size_t lit = read_len(token >> 4);
        if (ip + lit > n) throw CodecError("lz4: literal run past input");
        if (op + lit > raw_n) throw CodecError("lz4: literal run past output");
        std::memcpy(dst + op, src + ip, lit);
        ip += lit;
        op += lit;

        if (ip == n) break; // final literal-only sequence

        if (ip + 2 > n) throw CodecError("lz4: truncated offset");
        const std::size_t offset = read16le(src + ip);
        ip += 2;
        if (offset == 0 || offset > op) throw CodecError("lz4: bad match offset");

        const std::size_t mlen = read_len(token & 0x0f) + min_match;
        if (op + mlen > raw_n) throw CodecError("lz4: match run past output");
        const std::byte* m = dst + op - offset;
        if (offset >= mlen) {
            // disjoint: one plain copy
            std::memcpy(dst + op, m, mlen);
        } else if (offset == 1) {
            // run-length: replicate a single byte
            std::memset(dst + op, static_cast<int>(m[0]), mlen);
        } else {
            // overlapping match replicates a period of `offset` bytes; seed
            // one period, then double the replicated span with disjoint
            // copies (filled stays a multiple of offset so the source
            // region never overlaps the destination of any memcpy)
            std::memcpy(dst + op, m, offset);
            std::size_t filled = offset;
            while (filled < mlen) {
                const std::size_t take = std::min(filled, mlen - filled);
                std::memcpy(dst + op + filled, dst + op, take);
                filled += take;
            }
        }
        op += mlen;
    }

    if (op != raw_n) throw CodecError("lz4: decoded size mismatch");
}

namespace {

/// Elements per transpose tile: the tile's row-major side (tile * elem
/// bytes, at most 64 KiB for elem = 16) stays cache-resident across all
/// `elem` byte-plane passes instead of streaming the whole buffer once
/// per plane.
constexpr std::size_t shuffle_tile = 4096;

#if L5_CODEC_SSE2

/// 16x8 byte transpose of 16 consecutive 8-byte elements, as an SSE2
/// unpack network (SSE2 is x86-64 baseline — no runtime dispatch
/// needed). Elements enter the network in bit-reversed order; the
/// 4-stage riffle then emits plane k's 16 bytes in natural element
/// order, matching the scalar layout byte-for-byte.
void shuffle8_sse2(const std::byte* src, std::size_t count, std::byte* dst) {
    const std::size_t vec = count & ~std::size_t(15);
    for (std::size_t i = 0; i < vec; i += 16) {
        const std::byte* s   = src + i * 8;
        const auto       ld2 = [&](int a, int b) {
            const __m128i lo = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(s + a * 8));
            const __m128i hi = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(s + b * 8));
            return _mm_unpacklo_epi64(lo, hi);
        };
        const __m128i r0 = ld2(0, 8), r1 = ld2(4, 12), r2 = ld2(2, 10), r3 = ld2(6, 14);
        const __m128i r4 = ld2(1, 9), r5 = ld2(5, 13), r6 = ld2(3, 11), r7 = ld2(7, 15);
        const __m128i o0 = _mm_unpacklo_epi8(r0, r4), o1 = _mm_unpackhi_epi8(r0, r4);
        const __m128i o2 = _mm_unpacklo_epi8(r1, r5), o3 = _mm_unpackhi_epi8(r1, r5);
        const __m128i o4 = _mm_unpacklo_epi8(r2, r6), o5 = _mm_unpackhi_epi8(r2, r6);
        const __m128i o6 = _mm_unpacklo_epi8(r3, r7), o7 = _mm_unpackhi_epi8(r3, r7);
        const __m128i p0 = _mm_unpacklo_epi16(o0, o4), p1 = _mm_unpackhi_epi16(o0, o4);
        const __m128i p2 = _mm_unpacklo_epi16(o1, o5), p3 = _mm_unpackhi_epi16(o1, o5);
        const __m128i p4 = _mm_unpacklo_epi16(o2, o6), p5 = _mm_unpackhi_epi16(o2, o6);
        const __m128i p6 = _mm_unpacklo_epi16(o3, o7), p7 = _mm_unpackhi_epi16(o3, o7);
        const __m128i q0 = _mm_unpacklo_epi32(p0, p4), q1 = _mm_unpackhi_epi32(p0, p4);
        const __m128i q2 = _mm_unpacklo_epi32(p1, p5), q3 = _mm_unpackhi_epi32(p1, p5);
        const __m128i q4 = _mm_unpacklo_epi32(p2, p6), q5 = _mm_unpackhi_epi32(p2, p6);
        const __m128i q6 = _mm_unpacklo_epi32(p3, p7), q7 = _mm_unpackhi_epi32(p3, p7);
        const __m128i planes[8] = {
            _mm_unpacklo_epi64(q0, q4), _mm_unpackhi_epi64(q0, q4),
            _mm_unpacklo_epi64(q1, q5), _mm_unpackhi_epi64(q1, q5),
            _mm_unpacklo_epi64(q2, q6), _mm_unpackhi_epi64(q2, q6),
            _mm_unpacklo_epi64(q3, q7), _mm_unpackhi_epi64(q3, q7),
        };
        for (int k = 0; k < 8; ++k)
            _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + static_cast<std::size_t>(k) * count + i),
                             planes[k]);
    }
    for (std::size_t k = 0; k < 8; ++k) {
        std::byte* d = dst + k * count;
        for (std::size_t i = vec; i < count; ++i) d[i] = src[i * 8 + k];
    }
}

/// Inverse of shuffle8_sse2: an 8x16 transpose. Planes enter in
/// bit-reversed order; three riffle stages emit element pairs in
/// natural order with natural byte order.
void unshuffle8_sse2(const std::byte* src, std::size_t count, std::byte* dst) {
    const std::size_t vec = count & ~std::size_t(15);
    for (std::size_t i = 0; i < vec; i += 16) {
        const auto ld = [&](int plane) {
            return _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(src + static_cast<std::size_t>(plane) * count + i));
        };
        const __m128i s0 = ld(0), s1 = ld(4), s2 = ld(2), s3 = ld(6);
        const __m128i s4 = ld(1), s5 = ld(5), s6 = ld(3), s7 = ld(7);
        const __m128i o0 = _mm_unpacklo_epi8(s0, s4), o1 = _mm_unpackhi_epi8(s0, s4);
        const __m128i o2 = _mm_unpacklo_epi8(s1, s5), o3 = _mm_unpackhi_epi8(s1, s5);
        const __m128i o4 = _mm_unpacklo_epi8(s2, s6), o5 = _mm_unpackhi_epi8(s2, s6);
        const __m128i o6 = _mm_unpacklo_epi8(s3, s7), o7 = _mm_unpackhi_epi8(s3, s7);
        const __m128i p0 = _mm_unpacklo_epi16(o0, o4), p1 = _mm_unpackhi_epi16(o0, o4);
        const __m128i p2 = _mm_unpacklo_epi16(o1, o5), p3 = _mm_unpackhi_epi16(o1, o5);
        const __m128i p4 = _mm_unpacklo_epi16(o2, o6), p5 = _mm_unpackhi_epi16(o2, o6);
        const __m128i p6 = _mm_unpacklo_epi16(o3, o7), p7 = _mm_unpackhi_epi16(o3, o7);
        const __m128i q[8] = {
            _mm_unpacklo_epi32(p0, p4), _mm_unpackhi_epi32(p0, p4),
            _mm_unpacklo_epi32(p1, p5), _mm_unpackhi_epi32(p1, p5),
            _mm_unpacklo_epi32(p2, p6), _mm_unpackhi_epi32(p2, p6),
            _mm_unpacklo_epi32(p3, p7), _mm_unpackhi_epi32(p3, p7),
        };
        std::byte* d = dst + i * 8;
        for (int k = 0; k < 8; ++k)
            _mm_storeu_si128(reinterpret_cast<__m128i*>(d + static_cast<std::size_t>(k) * 16), q[k]);
    }
    for (std::size_t k = 0; k < 8; ++k) {
        const std::byte* s = src + k * count;
        for (std::size_t i = vec; i < count; ++i) dst[i * 8 + k] = s[i];
    }
}

#endif // L5_CODEC_SSE2

} // namespace

void shuffle(const std::byte* src, std::size_t n, std::size_t elem, std::byte* dst) {
    const std::size_t count = n / elem;
#if L5_CODEC_SSE2
    if (elem == 8 && count >= 16) {
        shuffle8_sse2(src, count, dst);
        return;
    }
#endif
    for (std::size_t i0 = 0; i0 < count; i0 += shuffle_tile) {
        const std::size_t i1 = std::min(count, i0 + shuffle_tile);
        for (std::size_t k = 0; k < elem; ++k) {
            std::byte* d = dst + k * count;
            for (std::size_t i = i0; i < i1; ++i) d[i] = src[i * elem + k];
        }
    }
}

void unshuffle(const std::byte* src, std::size_t n, std::size_t elem, std::byte* dst) {
    const std::size_t count = n / elem;
#if L5_CODEC_SSE2
    if (elem == 8 && count >= 16) {
        unshuffle8_sse2(src, count, dst);
        return;
    }
#endif
    for (std::size_t i0 = 0; i0 < count; i0 += shuffle_tile) {
        const std::size_t i1 = std::min(count, i0 + shuffle_tile);
        for (std::size_t k = 0; k < elem; ++k) {
            const std::byte* s = src + k * count;
            for (std::size_t i = i0; i < i1; ++i) dst[i * elem + k] = s[i];
        }
    }
}

namespace {

void write_header(std::byte* p, Method method, std::size_t elem, std::uint64_t raw_size,
                  std::uint64_t payload_size) {
    std::uint32_t magic = frame_magic;
    std::memcpy(p, &magic, 4);
    p[4] = static_cast<std::byte>(frame_version);
    p[5] = static_cast<std::byte>(method);
    const std::uint16_t e = static_cast<std::uint16_t>(elem);
    std::memcpy(p + 6, &e, 2);
    std::memcpy(p + 8, &raw_size, 8);
    std::memcpy(p + 16, &payload_size, 8);
}

struct Header {
    Method        method;
    std::size_t   elem;
    std::uint64_t raw_size;
    std::uint64_t payload_size;
};

/// Reusable per-thread scratch for the codec's intermediate buffers.
/// The serve and query loops run the codec once per piece; allocating a
/// fresh multi-MiB buffer each time costs more in zero-fill and
/// first-touch page faults than the LZ4 pass itself, so the scratch is
/// kept (uninitialized, grown monotonically) for the thread's lifetime.
struct Scratch {
    std::unique_ptr<std::byte[]> buf;
    std::size_t                  cap = 0;

    std::byte* ensure(std::size_t n) {
        if (cap < n) {
            buf = std::make_unique_for_overwrite<std::byte[]>(n);
            cap = n;
        }
        return buf.get();
    }
};

thread_local Scratch t_shuffle_scratch;  // shuffled input / decoded intermediate
thread_local Scratch t_payload_scratch;  // lz4 output before it is appended

Header parse_header(const std::byte* frame, std::size_t frame_size) {
    if (frame_size < frame_header_bytes) throw CodecError("codec: frame shorter than header");
    std::uint32_t magic;
    std::memcpy(&magic, frame, 4);
    if (magic != frame_magic) throw CodecError("codec: bad frame magic");
    if (static_cast<std::uint8_t>(frame[4]) != frame_version)
        throw CodecError("codec: unsupported frame version");
    const std::uint8_t m = static_cast<std::uint8_t>(frame[5]);
    if (m > static_cast<std::uint8_t>(Method::shuffle_lz4))
        throw CodecError("codec: unknown method");
    Header h;
    h.method = static_cast<Method>(m);
    std::uint16_t e;
    std::memcpy(&e, frame + 6, 2);
    h.elem = e;
    std::memcpy(&h.raw_size, frame + 8, 8);
    std::memcpy(&h.payload_size, frame + 16, 8);
    if (h.payload_size != frame_size - frame_header_bytes)
        throw CodecError("codec: frame size does not match header");
    if (h.method == Method::raw && h.payload_size != h.raw_size)
        throw CodecError("codec: raw frame size mismatch");
    if (h.method == Method::shuffle_lz4 && (h.elem == 0 || h.raw_size % h.elem != 0))
        throw CodecError("codec: bad element width for shuffled frame");
    return h;
}

} // namespace

std::size_t compress_frame(const std::byte* src, std::size_t n, std::size_t elem,
                           std::vector<std::byte>& out, Method* chosen) {
    const bool        shuffled = elem >= 2 && elem <= 16 && n >= 64 && n % elem == 0;
    Method            method   = shuffled ? Method::shuffle_lz4 : Method::lz4;
    const std::size_t cap      = n > 0 ? n - 1 : 0; // must beat raw to be kept

    // Compress into per-thread scratch and append only the winning
    // payload: growing `out` by compress_bound(n) up front would
    // zero-fill n extra bytes per frame, which on multi-MiB pieces costs
    // more than the LZ4 pass itself.
    std::byte*  lz = t_payload_scratch.ensure(cap);
    std::size_t csize;
    if (shuffled) {
        std::byte* tmp = t_shuffle_scratch.ensure(n); // shuffle overwrites every byte
        shuffle(src, n, elem, tmp);
        csize = lz4_compress(tmp, n, lz, cap);
    } else {
        csize = lz4_compress(src, n, lz, cap);
    }

    const std::byte* payload = lz;
    if (csize == 0 || csize >= n) { // did not pay: store verbatim
        method  = Method::raw;
        payload = src;
        csize   = n;
    }

    std::byte header[frame_header_bytes];
    write_header(header, method, elem, n, csize);
    out.insert(out.end(), header, header + frame_header_bytes);
    if (csize > 0) out.insert(out.end(), payload, payload + csize);
    if (chosen) *chosen = method;
    return frame_header_bytes + csize;
}

std::size_t frame_raw_size(const std::byte* frame, std::size_t frame_size) {
    return parse_header(frame, frame_size).raw_size;
}

void decompress_frame(const std::byte* frame, std::size_t frame_size, std::byte* dst) {
    const Header     h       = parse_header(frame, frame_size);
    const std::byte* payload = frame + frame_header_bytes;
    // nothing to write, and an empty destination's data() may be null
    if (h.raw_size == 0) return;

    switch (h.method) {
        case Method::raw:
            std::memcpy(dst, payload, h.raw_size);
            return;
        case Method::lz4:
            lz4_decompress(payload, h.payload_size, dst, h.raw_size);
            return;
        case Method::shuffle_lz4: {
            // per-thread scratch: lz4_decompress fills exactly raw_size
            std::byte* tmp = t_shuffle_scratch.ensure(h.raw_size);
            lz4_decompress(payload, h.payload_size, tmp, h.raw_size);
            unshuffle(tmp, h.raw_size, h.elem, dst);
            return;
        }
    }
    throw CodecError("codec: unknown method"); // unreachable; parse_header validated
}

// --- WireModel ---------------------------------------------------------------

WireModel& WireModel::instance() {
    static WireModel model;
    return model;
}

void WireModel::configure(double bw_MBps) {
    std::lock_guard<std::mutex> lock(mutex_);
    bw_MBps_      = bw_MBps;
    available_at_ = {};
}

void WireModel::configure_from_env() {
    double bw = bandwidth_MBps();
    if (const char* s = std::getenv("L5_WIRE_MBPS")) bw = std::atof(s);
    configure(bw);
}

double WireModel::bandwidth_MBps() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bw_MBps_;
}

void WireModel::charge(std::uint64_t bytes) {
    std::chrono::steady_clock::time_point finish;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bytes_charged_ += bytes;
        if (bw_MBps_ <= 0) return;
        const double seconds = static_cast<double>(bytes) / (bw_MBps_ * 1e6);
        const auto   now     = std::chrono::steady_clock::now();
        const auto   start   = std::max(now, available_at_);
        const auto   dur     = std::chrono::duration<double>(seconds);
        finish = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(dur);
        available_at_ = finish;
    }
    // lint: allow-raw-sleep(modelled wire bandwidth; charges simulated transfer time)
    std::this_thread::sleep_until(finish);
}

std::uint64_t WireModel::bytes_charged() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_charged_;
}

void WireModel::reset_stats() {
    std::lock_guard<std::mutex> lock(mutex_);
    bytes_charged_ = 0;
    available_at_  = {};
}

} // namespace codec
} // namespace lowfive
