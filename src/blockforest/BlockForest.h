#pragma once
/// \file BlockForest.h
/// The *distributed* block structure (paper §2.2): each process keeps only
/// its own blocks plus ID/owner information about blocks in its immediate
/// neighborhood. Memory usage therefore depends only on the number of
/// local blocks, never on the total simulation size. Built from the global
/// SetupBlockForest (which exists only during initialization or is loaded
/// from its compact file).

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "blockforest/SetupBlockForest.h"
#include "lbm/Communication.h"

namespace walb::bf {

class BlockForest {
public:
    /// One link per direction that has a block. On a periodic axis the
    /// links wrap: `dir` stays the unwrapped offset, so one neighbor can
    /// be linked twice (+d and -d on a two-block axis), and a block alone
    /// on its axis is its own neighbor, through its own localIndex.
    struct NeighborInfo {
        BlockID id;
        std::uint32_t process;
        std::array<int, 3> dir;    ///< direction from this block to the neighbor
        std::int32_t localIndex;   ///< index into blocks() if local, else -1
    };

    struct Block {
        BlockID id;
        Cell gridPos;
        AABB aabb;
        std::uint64_t workload = 0;
        std::vector<NeighborInfo> neighbors;
    };

    using BlockDataID = std::size_t;

    /// Extracts the rank-local view from the global setup structure.
    BlockForest(const SetupBlockForest& setup, std::uint32_t rank)
        : rank_(rank), cellsPerBlock_{cell_idx_c(setup.config().cellsPerBlockX),
                                      cell_idx_c(setup.config().cellsPerBlockY),
                                      cell_idx_c(setup.config().cellsPerBlockZ)},
          dx_(setup.config().dx()) {
        const auto& all = setup.blocks();
        std::vector<std::int32_t> globalToLocal(all.size(), -1);
        for (std::uint32_t i = 0; i < all.size(); ++i)
            if (all[i].process == rank)
                globalToLocal[i] = std::int32_t(blocks_.size()),
                blocks_.push_back({all[i].id, all[i].gridPos, all[i].aabb, all[i].workload, {}});

        for (Block& block : blocks_) {
            for (const auto& d : lbm::neighborhood26) {
                const auto n = setup.blockAt(block.gridPos.x + d[0], block.gridPos.y + d[1],
                                             block.gridPos.z + d[2]);
                if (!n) continue;
                const SetupBlock& nb = all[*n];
                block.neighbors.push_back(
                    {nb.id, nb.process, d, globalToLocal[*n]});
                if (nb.process != rank) neighborProcesses_.insert(int(nb.process));
            }
        }
        data_.resize(blocks_.size());
    }

    std::uint32_t rank() const { return rank_; }
    const std::vector<Block>& blocks() const { return blocks_; }
    std::size_t numLocalBlocks() const { return blocks_.size(); }
    cell_idx_t cellsX() const { return cellsPerBlock_[0]; }
    cell_idx_t cellsY() const { return cellsPerBlock_[1]; }
    cell_idx_t cellsZ() const { return cellsPerBlock_[2]; }
    real_t dx() const { return dx_; }

    /// Ranks owning at least one neighbor block — the receiver set of every
    /// ghost-layer exchange.
    const std::set<int>& neighborProcesses() const { return neighborProcesses_; }

    /// Number of *remote* blocks this process knows about: the distributed-
    /// memory invariant is that this is bounded by the local neighborhood,
    /// independent of the total number of blocks.
    std::size_t numKnownRemoteBlocks() const {
        std::set<BlockID> remote;
        for (const Block& b : blocks_)
            for (const NeighborInfo& n : b.neighbors)
                if (n.localIndex < 0) remote.insert(n.id);
        return remote.size();
    }

    /// Registers a per-block datum constructed by `factory` for every local
    /// block. Returns the handle used with getData().
    template <typename T>
    BlockDataID addBlockData(const std::function<std::unique_ptr<T>(const Block&)>& factory) {
        const BlockDataID id = numData_++;
        for (std::size_t b = 0; b < blocks_.size(); ++b) {
            std::unique_ptr<T> p = factory(blocks_[b]);
            data_[b].push_back(std::shared_ptr<void>(p.release(), [](void* q) {
                delete static_cast<T*>(q);
            }));
        }
        return id;
    }

    template <typename T>
    T& getData(std::size_t blockIndex, BlockDataID id) {
        WALB_DASSERT(blockIndex < blocks_.size() && id < numData_);
        return *static_cast<T*>(data_[blockIndex][id].get());
    }

    /// Global cell coordinate of a block's local cell (0,0,0).
    Cell globalCellOffset(const Block& b) const {
        return {b.gridPos.x * cellsPerBlock_[0], b.gridPos.y * cellsPerBlock_[1],
                b.gridPos.z * cellsPerBlock_[2]};
    }

    /// Local block index containing the given global cell, or -1.
    std::int32_t findBlockForGlobalCell(const Cell& global) const {
        for (std::size_t i = 0; i < blocks_.size(); ++i) {
            const Cell off = globalCellOffset(blocks_[i]);
            if (global.x >= off.x && global.x < off.x + cellsPerBlock_[0] &&
                global.y >= off.y && global.y < off.y + cellsPerBlock_[1] &&
                global.z >= off.z && global.z < off.z + cellsPerBlock_[2])
                return std::int32_t(i);
        }
        return -1;
    }

private:
    std::uint32_t rank_;
    std::array<cell_idx_t, 3> cellsPerBlock_;
    real_t dx_;
    std::vector<Block> blocks_;
    std::set<int> neighborProcesses_;
    std::vector<std::vector<std::shared_ptr<void>>> data_;
    std::size_t numData_ = 0;
};

} // namespace walb::bf
