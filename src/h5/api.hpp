#pragma once

#include "convert.hpp"
#include "vol.hpp"

#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace h5 {

class Group;
class Dataset;

/// Map arithmetic C++ types to predefined datatypes.
template <typename T>
Datatype native_type() {
    static_assert(std::is_arithmetic_v<T>, "native_type requires an arithmetic type");
    if constexpr (std::is_floating_point_v<T>)
        return Datatype::atomic(TypeClass::Float, sizeof(T));
    else if constexpr (std::is_signed_v<T>)
        return Datatype::atomic(TypeClass::Int, sizeof(T));
    else
        return Datatype::atomic(TypeClass::UInt, sizeof(T));
}

/// Non-owning handle to an object that can hold children and attributes
/// (a file or a group). All operations dispatch through the VOL — this is
/// the API surface at which LowFive intercepts, so user code written
/// against it is oblivious to whether data goes to disk or in situ.
class NodeRef {
public:
    Group   create_group(const std::string& name) const;
    Group   open_group(const std::string& path) const;
    Dataset create_dataset(const std::string& name, const Datatype& type,
                           const Dataspace& space) const;
    Dataset open_dataset(const std::string& path) const;

    bool                     exists(const std::string& path) const { return vol_->exists(h_, path); }
    std::vector<std::string> children() const { return vol_->list_children(h_); }
    std::vector<std::string> attributes() const { return vol_->list_attributes(h_); }

    /// Remove a child group or dataset (H5Ldelete). Handles to the
    /// removed object become invalid.
    void unlink(const std::string& path) const { vol_->unlink(h_, path); }

    void write_attribute(const std::string& name, const Datatype& type, const Dataspace& space,
                         const void* buf) const {
        vol_->attribute_write(h_, name, type, space, buf);
    }
    template <typename T>
    void write_attribute(const std::string& name, const T& value) const {
        write_attribute(name, native_type<T>(), Dataspace::linear(1), &value);
    }
    bool has_attribute(const std::string& name) const {
        return vol_->attribute_info(h_, name).has_value();
    }
    template <typename T>
    T read_attribute(const std::string& name) const {
        T value{};
        vol_->attribute_read(h_, name, &value);
        return value;
    }

    Vol&  vol() const { return *vol_; }
    void* handle() const { return h_; }
    bool  valid() const { return h_ != nullptr; }

protected:
    NodeRef() = default;
    NodeRef(VolPtr vol, void* h) : vol_(std::move(vol)), h_(h) {}

    VolPtr vol_;
    void*  h_ = nullptr;
};

class Group : public NodeRef {
public:
    Group() = default;

private:
    friend class NodeRef;
    friend class File;
    Group(VolPtr vol, void* h) : NodeRef(std::move(vol), h) {}
};

/// Non-owning dataset handle. Write/read variants:
///  - whole extent (contiguous row-major buffer),
///  - packed buffer + file selection (buffer laid out in the selection's
///    iteration order),
///  - general memory space + file space (HDF5 semantics).
class Dataset : public NodeRef {
public:
    Dataset() = default;

    Datatype  type() const { return vol_->dataset_type(h_); }
    Dataspace space() const { return vol_->dataset_space(h_); }

    /// Grow the dataset extent (H5Dset_extent; growth only).
    void set_extent(const Extent& new_dims) const { vol_->dataset_set_extent(h_, new_dims); }

    void write(const void* buf) const {
        Dataspace all = space();
        vol_->dataset_write(h_, all, all, buf);
    }
    void write(const void* buf, const Dataspace& filespace) const {
        vol_->dataset_write(h_, Dataspace::linear(filespace.npoints()), filespace, buf);
    }
    void write(const void* buf, const Dataspace& memspace, const Dataspace& filespace) const {
        vol_->dataset_write(h_, memspace, filespace, buf);
    }

    void read(void* buf) const {
        Dataspace all = space();
        vol_->dataset_read(h_, all, all, buf);
    }
    void read(void* buf, const Dataspace& filespace) const {
        vol_->dataset_read(h_, Dataspace::linear(filespace.npoints()), filespace, buf);
    }
    void read(void* buf, const Dataspace& memspace, const Dataspace& filespace) const {
        vol_->dataset_read(h_, memspace, filespace, buf);
    }

    /// Read with HDF5-style automatic type conversion: the stored values
    /// are converted to T regardless of the dataset's on-file type.
    template <typename T>
    std::vector<T> read_as(const Dataspace& filespace) const {
        Datatype               stored = type();
        std::vector<std::byte> raw(filespace.npoints() * stored.size());
        read(raw.data(), filespace);
        std::vector<T> out(filespace.npoints());
        convert_values(stored, raw.data(), native_type<T>(), out.data(), out.size());
        return out;
    }
    template <typename T>
    std::vector<T> read_as() const {
        Dataspace all = space();
        return read_as<T>(all);
    }

    template <typename T>
    std::vector<T> read_vector(const Dataspace& filespace) const {
        std::vector<T> out(filespace.npoints());
        read(out.data(), filespace);
        return out;
    }
    template <typename T>
    std::vector<T> read_vector() const {
        std::vector<T> out(space().extent_npoints());
        read(out.data());
        return out;
    }

private:
    friend class NodeRef;
    Dataset(VolPtr vol, void* h) : NodeRef(std::move(vol), h) {}
};

/// Owning file handle: closes through the VOL on destruction (or via
/// close()). Move-only. Child handles are invalidated by close.
class File : public NodeRef {
public:
    File() = default;
    File(File&& o) noexcept : NodeRef(std::move(o)) { o.h_ = nullptr; }
    File& operator=(File&& o) noexcept {
        if (this != &o) {
            close_quiet();
            vol_ = std::move(o.vol_);
            h_   = o.h_;
            o.h_ = nullptr;
        }
        return *this;
    }
    File(const File&)            = delete;
    File& operator=(const File&) = delete;
    /// Implicit close must not throw: closing can involve communication
    /// (serving, done messages) that fails when a peer aborted the world,
    /// and this destructor typically runs during that very unwinding.
    /// Call close() explicitly to observe close-time errors.
    ~File() { close_quiet(); }

    static File create(const std::string& path, VolPtr vol) {
        void* h = vol->file_create(path);
        return File(std::move(vol), h);
    }
    static File open(const std::string& path, VolPtr vol) {
        void* h = vol->file_open(path);
        return File(std::move(vol), h);
    }

    /// A close that throws has still consumed the handle: it is never
    /// handed to the VOL again, not even by the destructor.
    void close() {
        if (h_) vol_->file_close(std::exchange(h_, nullptr));
    }

    /// Persist current contents without closing (H5Fflush).
    void flush() const {
        if (h_) vol_->file_flush(h_);
    }

    void close_quiet() noexcept {
        try {
            close();
        } catch (...) {
        }
    }

private:
    File(VolPtr vol, void* h) : NodeRef(std::move(vol), h) {}
};

inline Group NodeRef::create_group(const std::string& name) const {
    return Group(vol_, vol_->group_create(h_, name));
}
inline Group NodeRef::open_group(const std::string& path) const {
    return Group(vol_, vol_->group_open(h_, path));
}
inline Dataset NodeRef::create_dataset(const std::string& name, const Datatype& type,
                                       const Dataspace& space) const {
    return Dataset(vol_, vol_->dataset_create(h_, name, type, space));
}
inline Dataset NodeRef::open_dataset(const std::string& path) const {
    return Dataset(vol_, vol_->dataset_open(h_, path));
}

} // namespace h5
