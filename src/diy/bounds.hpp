#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>

namespace diy {

/// Maximum dimensionality supported throughout the reproduction (HDF5's
/// limit is 32; the paper's workloads use 1–3 dimensions).
inline constexpr int max_dim = 8;

/// An axis-aligned integer box, half-open: [min, max) per dimension.
/// These are the bounding boxes of the paper's index–serve–query protocol
/// and the blocks of the common decomposition.
struct Bounds {
    int                         dim = 0;
    std::array<std::int64_t, max_dim> min{};
    std::array<std::int64_t, max_dim> max{};

    Bounds() = default;
    explicit Bounds(int d) : dim(d) {}

    /// Number of grid points contained; 0 when any extent is empty.
    std::uint64_t size() const {
        std::uint64_t n = 1;
        for (int i = 0; i < dim; ++i) {
            if (max[static_cast<std::size_t>(i)] <= min[static_cast<std::size_t>(i)]) return 0;
            n *= static_cast<std::uint64_t>(max[static_cast<std::size_t>(i)] - min[static_cast<std::size_t>(i)]);
        }
        return n;
    }

    bool empty() const { return size() == 0; }

    bool contains(const std::array<std::int64_t, max_dim>& pt) const {
        for (int i = 0; i < dim; ++i) {
            auto u = static_cast<std::size_t>(i);
            if (pt[u] < min[u] || pt[u] >= max[u]) return false;
        }
        return true;
    }

    bool operator==(const Bounds& o) const {
        if (dim != o.dim) return false;
        for (int i = 0; i < dim; ++i) {
            auto u = static_cast<std::size_t>(i);
            if (min[u] != o.min[u] || max[u] != o.max[u]) return false;
        }
        return true;
    }

    template <typename Buffer>
    void save(Buffer& bb) const {
        bb.template save<std::int32_t>(dim);
        for (int i = 0; i < dim; ++i) {
            bb.save(min[static_cast<std::size_t>(i)]);
            bb.save(max[static_cast<std::size_t>(i)]);
        }
    }

    /// Throws std::out_of_range for a wire dimension outside [0, max_dim]
    /// instead of writing past the coordinate arrays.
    template <typename Buffer>
    static Bounds load(Buffer& bb) {
        const auto d = bb.template load<std::int32_t>();
        if (d < 0 || d > max_dim)
            throw std::out_of_range("diy::Bounds: dimension " + std::to_string(d)
                                    + " outside [0, " + std::to_string(max_dim) + "]");
        Bounds b(d);
        for (int i = 0; i < b.dim; ++i) {
            bb.load(b.min[static_cast<std::size_t>(i)]);
            bb.load(b.max[static_cast<std::size_t>(i)]);
        }
        return b;
    }

    std::string str() const {
        std::string s = "[";
        for (int i = 0; i < dim; ++i) {
            auto u = static_cast<std::size_t>(i);
            s += std::to_string(min[u]) + ":" + std::to_string(max[u]);
            if (i + 1 < dim) s += ", ";
        }
        return s + ")";
    }
};

inline std::ostream& operator<<(std::ostream& os, const Bounds& b) { return os << b.str(); }

/// Intersection of two boxes of equal dimension; nullopt when disjoint.
inline std::optional<Bounds> intersect(const Bounds& a, const Bounds& b) {
    Bounds r(a.dim);
    for (int i = 0; i < a.dim; ++i) {
        auto u = static_cast<std::size_t>(i);
        r.min[u] = std::max(a.min[u], b.min[u]);
        r.max[u] = std::min(a.max[u], b.max[u]);
        if (r.min[u] >= r.max[u]) return std::nullopt;
    }
    return r;
}

inline bool intersects(const Bounds& a, const Bounds& b) {
    for (int i = 0; i < a.dim; ++i) {
        auto u = static_cast<std::size_t>(i);
        if (std::max(a.min[u], b.min[u]) >= std::min(a.max[u], b.max[u])) return false;
    }
    return a.dim > 0;
}

} // namespace diy
