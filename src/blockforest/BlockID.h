#pragma once
/// \file BlockID.h
/// Identifier of a block in the forest of octrees (paper §2.2): each
/// initial block is the root of one octree, identified by its root index;
/// descendants append one octant digit (0..7) per refinement level. The
/// serialization stores only the bytes that carry information, following
/// the compact file-format philosophy of the paper.

#include <compare>
#include <functional>
#include <ostream>

#include "core/Buffer.h"
#include "core/Debug.h"
#include "core/Types.h"

namespace walb::bf {

class BlockID {
public:
    BlockID() = default;

    /// Root block of octree `rootIndex`.
    static BlockID root(std::uint32_t rootIndex) { return BlockID(rootIndex, 0, 0); }

    /// The c-th child (octant digit 0..7) of this block.
    BlockID child(unsigned c) const {
        WALB_DASSERT(c < 8 && level_ < 20);
        return BlockID(rootIndex_, std::uint8_t(level_ + 1), (path_ << 3) | c);
    }

    BlockID parent() const {
        WALB_ASSERT(level_ > 0, "root block has no parent");
        return BlockID(rootIndex_, std::uint8_t(level_ - 1), path_ >> 3);
    }

    /// Octant digit of this block within its parent.
    unsigned octant() const {
        WALB_ASSERT(level_ > 0);
        return unsigned(path_ & 7u);
    }

    std::uint32_t rootIndex() const { return rootIndex_; }
    unsigned level() const { return level_; }
    std::uint64_t path() const { return path_; }

    bool operator==(const BlockID&) const = default;
    auto operator<=>(const BlockID&) const = default;

    /// Compact serialization: root index uses bytesNeeded(maxRootIndex)
    /// bytes, the path 3 bits per level rounded up to bytes.
    void serialize(SendBuffer& buf, std::uint32_t maxRootIndex) const {
        buf.putCompact(rootIndex_, bytesNeeded(maxRootIndex));
        buf.putCompact(level_, 1);
        if (level_ > 0) buf.putCompact(path_, pathBytes(level_));
    }

    static BlockID deserialize(RecvBuffer& buf, std::uint32_t maxRootIndex) {
        BlockID id;
        id.rootIndex_ = std::uint32_t(buf.getCompact(bytesNeeded(maxRootIndex)));
        id.level_ = std::uint8_t(buf.getCompact(1));
        if (id.level_ > 0) id.path_ = buf.getCompact(pathBytes(id.level_));
        return id;
    }

    static unsigned pathBytes(unsigned level) { return (3 * level + 7) / 8; }

    /// Fixed-width wire form (u32 root index, u8 level, u64 path) shared by
    /// the ghost exchange, block migration and checkpoint records.
    static constexpr std::size_t kWireBytes =
        sizeof(std::uint32_t) + sizeof(std::uint8_t) + sizeof(std::uint64_t);

    void toWire(SendBuffer& buf) const { buf << rootIndex_ << level_ << path_; }

    static BlockID fromWire(RecvBuffer& buf) {
        BlockID id;
        buf >> id.rootIndex_ >> id.level_ >> id.path_;
        return id;
    }

private:
    BlockID(std::uint32_t rootIndex, std::uint8_t level, std::uint64_t path)
        : rootIndex_(rootIndex), level_(level), path_(path) {}

    std::uint32_t rootIndex_ = 0;
    std::uint8_t level_ = 0;
    std::uint64_t path_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, const BlockID& id) {
    os << "B[" << id.rootIndex();
    if (id.level() > 0) {
        os << ':';
        for (unsigned l = id.level(); l > 0; --l) os << ((id.path() >> (3 * (l - 1))) & 7);
    }
    return os << ']';
}

struct BlockIDHash {
    std::size_t operator()(const BlockID& id) const {
        std::uint64_t h = id.path() * 0x9e3779b97f4a7c15ull;
        h ^= (std::uint64_t(id.rootIndex()) << 8) | id.level();
        return std::hash<std::uint64_t>()(h);
    }
};

} // namespace walb::bf
