#pragma once
/// \file Buffer.h
/// Byte-oriented serialization buffers used by the virtual message-passing
/// layer (ghost-layer exchange, setup scatter/gather) and by the compact
/// block-structure file format. All multi-byte values are written in
/// little-endian byte order explicitly, making the format
/// endian-independent as required by Section 2.2 of the paper.

#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/Debug.h"
#include "core/Types.h"

namespace walb {

/// Typed failure of a RecvBuffer read: the message ended before the
/// requested bytes (truncated transmission) or a length field decoded to
/// more data than the message carries (corruption). Unlike WALB_ASSERT this
/// is an *unconditional runtime error in every build type* — a corrupted or
/// truncated message must fail loudly in Release, not stream garbage. The
/// communication layer (BufferSystem / PdfCommScheme) converts BufferError
/// into a structured vmpi::CommError naming the peer and tag.
class BufferError : public std::runtime_error {
public:
    BufferError(std::size_t requestedBytes, std::size_t availableBytes)
        : std::runtime_error("buffer underflow: " + std::to_string(requestedBytes) +
                             " bytes requested, " + std::to_string(availableBytes) +
                             " available (truncated or corrupted message)"),
          requested(requestedBytes),
          available(availableBytes) {}

    std::size_t requested; ///< bytes the read needed
    std::size_t available; ///< bytes left in the buffer
};

namespace detail {

template <typename T>
concept TriviallySerializable = std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>;

/// The integer type used to serialize T: the underlying type for enums, T
/// itself otherwise (lazy so that underlying_type is never instantiated for
/// non-enums).
template <typename T>
struct SerializedInt {
    using type = T;
};
template <typename T>
    requires std::is_enum_v<T>
struct SerializedInt<T> {
    using type = std::underlying_type_t<T>;
};

/// Encodes an unsigned integer into `n` little-endian bytes at dst.
inline void putLE(std::uint8_t* dst, std::uint64_t v, unsigned n) {
    for (unsigned i = 0; i < n; ++i) dst[i] = std::uint8_t(v >> (8 * i));
}

inline std::uint64_t getLE(const std::uint8_t* src, unsigned n) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i) v |= std::uint64_t(src[i]) << (8 * i);
    return v;
}

} // namespace detail

/// Growable write-only byte buffer.
class SendBuffer {
public:
    void clear() { data_.clear(); }
    bool empty() const { return data_.empty(); }
    std::size_t size() const { return data_.size(); }
    std::size_t capacity() const { return data_.capacity(); }
    const std::uint8_t* data() const { return data_.data(); }
    std::vector<std::uint8_t> release() { return std::move(data_); }
    void reserve(std::size_t n) { data_.reserve(n); }

    /// Re-arms the buffer with recycled storage: the vector's contents are
    /// discarded but its capacity is kept, so a steady-state exchange that
    /// cycles buffers through send/receive/reclaim performs no allocations.
    void adopt(std::vector<std::uint8_t> storage) {
        data_ = std::move(storage);
        data_.clear();
    }

    /// Raw byte append.
    void putBytes(const void* src, std::size_t n) {
        const auto* p = static_cast<const std::uint8_t*>(src);
        data_.insert(data_.end(), p, p + n);
    }

    /// Appends n uninitialized bytes and returns a pointer to fill them —
    /// bulk serialization without per-element append overhead. The pointer
    /// is invalidated by any subsequent append.
    std::uint8_t* grow(std::size_t n) {
        const std::size_t off = data_.size();
        data_.resize(off + n);
        return data_.data() + off;
    }

    /// Appends an unsigned value using exactly nBytes little-endian bytes.
    /// This implements the paper's "only the lower-order bytes that actually
    /// carry information are stored" compaction (e.g. 2-byte process ranks).
    void putCompact(std::uint64_t v, unsigned nBytes) {
        WALB_DASSERT(nBytes <= 8);
        WALB_DASSERT(nBytes == 8 || v < (1ull << (8 * nBytes)), "value " << v << " needs more than "
                                                                         << nBytes << " bytes");
        const std::size_t off = data_.size();
        data_.resize(off + nBytes);
        detail::putLE(data_.data() + off, v, nBytes);
    }

    template <detail::TriviallySerializable T>
    SendBuffer& operator<<(const T& v) {
        if constexpr (std::is_same_v<T, bool>) {
            putCompact(v ? 1 : 0, 1);
        } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
            // Integers endian-normalized.
            using U = std::make_unsigned_t<typename detail::SerializedInt<T>::type>;
            putCompact(std::uint64_t(static_cast<U>(v)), unsigned(sizeof(T)));
        } else {
            // float/double/PODs: bit pattern as-is (IEEE-754 LE on all
            // supported targets; asserted in BinaryIO tests).
            putBytes(&v, sizeof(T));
        }
        return *this;
    }

    SendBuffer& operator<<(const std::string& s) {
        *this << std::uint32_t(s.size());
        putBytes(s.data(), s.size());
        return *this;
    }

    template <typename T>
    SendBuffer& operator<<(const std::vector<T>& v) {
        *this << std::uint64_t(v.size());
        if constexpr (detail::TriviallySerializable<T> && !std::is_integral_v<T>) {
            putBytes(v.data(), v.size() * sizeof(T));
        } else {
            for (const auto& e : v) *this << e;
        }
        return *this;
    }

private:
    std::vector<std::uint8_t> data_;
};

/// Read-only cursor over a byte sequence: either owned (a received message,
/// moved in) or borrowed (a span inside a larger buffer the caller keeps
/// alive, e.g. one rank's contribution inside a loaded checkpoint file).
/// Move-only: a copy would have to re-point the view at the copied storage.
class RecvBuffer {
public:
    RecvBuffer() = default;
    explicit RecvBuffer(std::vector<std::uint8_t> data) : data_(std::move(data)), view_(data_) {}
    /// Borrows `bytes` without copying them. The caller keeps the bytes
    /// alive and unchanged while this buffer reads them.
    explicit RecvBuffer(std::span<const std::uint8_t> bytes) : view_(bytes) {}

    // Moving a vector keeps its heap storage, so the view stays valid; the
    // source is left empty.
    RecvBuffer(RecvBuffer&& o) noexcept
        : data_(std::move(o.data_)), view_(std::exchange(o.view_, {})),
          pos_(std::exchange(o.pos_, 0)) {}
    RecvBuffer& operator=(RecvBuffer&& o) noexcept {
        data_ = std::move(o.data_);
        view_ = std::exchange(o.view_, {});
        pos_ = std::exchange(o.pos_, 0);
        return *this;
    }
    RecvBuffer(const RecvBuffer&) = delete;
    RecvBuffer& operator=(const RecvBuffer&) = delete;

    void assign(std::vector<std::uint8_t> data) {
        data_ = std::move(data);
        view_ = data_;
        pos_ = 0;
    }

    /// Surrenders the underlying storage (typically after the payload has
    /// been fully deserialized) so the exchange layer can recycle it as a
    /// send buffer. The buffer is left empty; a borrowing buffer returns an
    /// empty vector.
    std::vector<std::uint8_t> release() {
        pos_ = 0;
        view_ = {};
        return std::move(data_);
    }

    std::size_t remaining() const { return view_.size() - pos_; }
    bool atEnd() const { return pos_ == view_.size(); }
    std::size_t size() const { return view_.size(); }

    void getBytes(void* dst, std::size_t n) {
        if (n > view_.size() - pos_) throw BufferError(n, remaining());
        // n == 0 must not reach memcpy: an empty caller buffer hands over
        // dst == nullptr, which is UB even for zero-length copies.
        if (n == 0) return;
        std::memcpy(dst, view_.data() + pos_, n);
        pos_ += n;
    }

    /// Advances past `n` bytes without copying them (e.g. another rank's
    /// payload inside a shared file). Same bounds contract as getBytes.
    void skip(std::size_t n) {
        if (n > view_.size() - pos_) throw BufferError(n, remaining());
        pos_ += n;
    }

    /// Pointer to the next unread byte (valid for remaining() bytes).
    const std::uint8_t* cursor() const { return view_.data() + pos_; }

    std::uint64_t getCompact(unsigned nBytes) {
        if (nBytes > view_.size() - pos_) throw BufferError(nBytes, remaining());
        const std::uint64_t v = detail::getLE(view_.data() + pos_, nBytes);
        pos_ += nBytes;
        return v;
    }

    template <detail::TriviallySerializable T>
    RecvBuffer& operator>>(T& v) {
        if constexpr (std::is_same_v<T, bool>) {
            v = getCompact(1) != 0;
        } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
            using U = std::make_unsigned_t<typename detail::SerializedInt<T>::type>;
            v = static_cast<T>(static_cast<U>(getCompact(unsigned(sizeof(T)))));
        } else {
            getBytes(&v, sizeof(T));
        }
        return *this;
    }

    RecvBuffer& operator>>(std::string& s) {
        std::uint32_t n = 0;
        *this >> n;
        // Validate the decoded length against the bytes actually present
        // *before* allocating: a corrupted length field must raise a
        // BufferError, not an allocation of attacker-controlled size.
        if (n > remaining()) throw BufferError(n, remaining());
        s.resize(n);
        getBytes(s.data(), n);
        return *this;
    }

    template <typename T>
    RecvBuffer& operator>>(std::vector<T>& v) {
        std::uint64_t n = 0;
        *this >> n;
        // Every element consumes at least one byte in serialized form, so a
        // count beyond remaining() is provably corrupt — reject it before
        // the resize() allocates.
        if (n > remaining()) throw BufferError(std::size_t(n), remaining());
        if constexpr (detail::TriviallySerializable<T> && !std::is_integral_v<T>) {
            if (n > remaining() / sizeof(T)) throw BufferError(std::size_t(n) * sizeof(T), remaining());
            v.resize(n);
            getBytes(v.data(), n * sizeof(T));
        } else {
            v.resize(n);
            for (auto& e : v) *this >> e;
        }
        return *this;
    }

private:
    std::vector<std::uint8_t> data_;        ///< owned storage (empty when borrowing)
    std::span<const std::uint8_t> view_;    ///< the bytes being read
    std::size_t pos_ = 0;
};

/// Number of bytes needed to represent values up to and including maxValue.
/// E.g. ranks of a 65,536-process simulation fit in 2 bytes (paper §2.2).
constexpr unsigned bytesNeeded(std::uint64_t maxValue) {
    unsigned n = 1;
    while (n < 8 && maxValue >= (1ull << (8 * n))) ++n;
    return n;
}

} // namespace walb
