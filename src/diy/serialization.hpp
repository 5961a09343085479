#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace diy {

/// Append-only/consume-only binary buffer used to serialize metadata,
/// bounding boxes, and dataset payloads into message-passing payloads,
/// mirroring DIY's BinaryBuffer.
class BinaryBuffer {
public:
    BinaryBuffer() = default;
    explicit BinaryBuffer(std::vector<std::byte> bytes) : data_(std::move(bytes)) {}

    const std::vector<std::byte>& data() const { return data_; }
    /// Mutable access to the backing storage, for producers that append
    /// payload bytes in place (avoids an intermediate copy). Appending is
    /// safe; never shrink below the current read position.
    std::vector<std::byte>& mutable_data() { return data_; }
    std::vector<std::byte>  take() && { return std::move(data_); }
    std::size_t                   size() const { return data_.size(); }
    std::size_t                   position() const { return pos_; }
    bool                          exhausted() const { return pos_ >= data_.size(); }
    void                          rewind() { pos_ = 0; }

    void save_raw(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::byte*>(p);
        data_.insert(data_.end(), b, b + n);
    }

    /// Bytes left to read. Checks compare lengths against this rather
    /// than computing `pos_ + n`, which wraps for wire-supplied n.
    std::size_t remaining() const { return pos_ < data_.size() ? data_.size() - pos_ : 0; }

    /// Advance the read cursor past `n` bytes and return a pointer to the
    /// skipped region (valid while the buffer lives) — zero-copy reads.
    /// Throws, cursor unchanged, when fewer than n bytes remain.
    const std::byte* skip(std::size_t n) {
        if (n > remaining())
            throw std::out_of_range("diy::BinaryBuffer: skip of " + std::to_string(n)
                                    + " bytes past end (" + std::to_string(remaining())
                                    + " left)");
        const std::byte* p = data_.data() + pos_;
        pos_ += n;
        return p;
    }

    void load_raw(void* p, std::size_t n) {
        if (n > remaining())
            throw std::out_of_range("diy::BinaryBuffer: read of " + std::to_string(n)
                                    + " bytes past end (" + std::to_string(remaining())
                                    + " left)");
        std::memcpy(p, data_.data() + pos_, n);
        pos_ += n;
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void save(const T& value) {
        save_raw(&value, sizeof(T));
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void load(T& value) {
        load_raw(&value, sizeof(T));
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    T load() {
        T value{};
        load_raw(&value, sizeof(T));
        return value;
    }

    void save(const std::string& s) {
        save<std::uint64_t>(s.size());
        save_raw(s.data(), s.size());
    }

    /// Throws before allocating when the claimed length exceeds the bytes left.
    void load(std::string& s) {
        const auto n = load<std::uint64_t>();
        if (n > remaining())
            throw std::out_of_range("diy::BinaryBuffer: string of " + std::to_string(n)
                                    + " bytes claimed, " + std::to_string(remaining()) + " left");
        s.resize(n);
        load_raw(s.data(), n);
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void save(const std::vector<T>& v) {
        save<std::uint64_t>(v.size());
        save_raw(v.data(), v.size() * sizeof(T));
    }

    /// Throws before allocating when the claimed element count exceeds
    /// the bytes left (divided, so `n * sizeof(T)` cannot overflow).
    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void load(std::vector<T>& v) {
        const auto n = load<std::uint64_t>();
        if (n > remaining() / sizeof(T))
            throw std::out_of_range("diy::BinaryBuffer: " + std::to_string(n) + " elements of "
                                    + std::to_string(sizeof(T)) + " bytes claimed, "
                                    + std::to_string(remaining()) + " bytes left");
        v.resize(n);
        load_raw(v.data(), n * sizeof(T));
    }

    template <typename T>
        requires std::is_trivially_copyable_v<T>
    void save_span(std::span<const T> v) {
        save<std::uint64_t>(v.size());
        save_raw(v.data(), v.size_bytes());
    }

private:
    std::vector<std::byte> data_;
    std::size_t            pos_ = 0;
};

} // namespace diy
