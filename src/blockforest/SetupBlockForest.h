#pragma once
/// \file SetupBlockForest.h
/// Global block-structure construction (paper §2.2/2.3): the simulation
/// domain's bounding box is divided into a regular grid of root blocks
/// (each the root of one octree); an optional uniform refinement level
/// subdivides every root block; blocks not intersecting the flow domain
/// are discarded; remaining blocks get fluid-cell workloads and are
/// assigned to processes by a static load balancer (Morton space-filling
/// curve or the graph partitioner).
///
/// The setup structure is *global* — its memory scales with the total
/// number of blocks. The paper runs this phase separately (possibly on a
/// different machine) and ships the result as a compact binary file; the
/// distributed BlockForest built from it holds per-process data only.

#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "blockforest/BlockID.h"
#include "core/AABB.h"
#include "geometry/SignedDistance.h"
#include "geometry/Voxelizer.h"
#include "vmpi/Comm.h"

namespace walb::bf {

/// 3D Morton (Z-order) code of a grid position: the lower 21 bits of each
/// coordinate interleaved. The curve ordering behind balanceMorton() and
/// the rebalance subsystem's SFC re-split policy.
std::uint64_t mortonCode3D(const Cell& c);

/// A block-structure stream that no save() writes (see load()).
struct ForestFileError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

struct SetupBlock {
    BlockID id;
    Cell gridPos;              ///< position in the (refined) block grid
    AABB aabb;                 ///< physical bounds
    std::uint64_t workload = 1;///< fluid cells (set by assignWorkload)
    std::uint32_t process = 0; ///< target process (set by balancing)
    bool fullyInside = false;  ///< block certainly contains only fluid cells
    std::uint64_t fluidRuns = 0;  ///< fluid x-runs (set by assignFluidCellWorkload)
    std::uint64_t fluidLinks = 0; ///< D3Q19 links to non-fluid cells inside the block (ditto)

    /// Modeled step cost in fluid-cell units: a run and a link cost what
    /// kRunCost and kLinkCost cells do (fitted per block by
    /// bench/sweep_cost_split). A block without counts costs its workload.
    static constexpr double kRunCost = 20, kLinkCost = 0.4;
    double cost() const {
        return double(workload) + kRunCost * double(fluidRuns) + kLinkCost * double(fluidLinks);
    }
};

struct SetupConfig {
    AABB domain{0, 0, 0, 1, 1, 1};
    std::uint32_t rootBlocksX = 1, rootBlocksY = 1, rootBlocksZ = 1;
    unsigned refinementLevel = 0; ///< uniform octree refinement of every root
    std::uint32_t cellsPerBlockX = 16, cellsPerBlockY = 16, cellsPerBlockZ = 16;
    /// Periodic axes: the block grid wraps, so the first and last block of
    /// the axis are neighbors (a single block is its own neighbor).
    bool periodicX = false, periodicY = false, periodicZ = false;

    std::uint32_t blocksX() const { return rootBlocksX << refinementLevel; }
    std::uint32_t blocksY() const { return rootBlocksY << refinementLevel; }
    std::uint32_t blocksZ() const { return rootBlocksZ << refinementLevel; }
    /// Isotropic lattice spacing implied by the x extent (domains are
    /// constructed so cells are cubic in all our setups).
    real_t dx() const {
        return domain.xSize() / (real_c(blocksX()) * real_c(cellsPerBlockX));
    }
    std::uint64_t cellsPerBlock() const {
        return std::uint64_t(cellsPerBlockX) * cellsPerBlockY * cellsPerBlockZ;
    }
};

class SetupBlockForest {
public:
    /// Creates the forest, keeping only blocks that intersect the flow
    /// domain. `phi == nullptr` keeps every block (dense domains). The
    /// circumsphere/insphere early-outs classify most blocks without
    /// evaluating cells (paper §2.3).
    static SetupBlockForest create(const SetupConfig& config,
                                   const geometry::DistanceFunction* phi = nullptr);

    /// Hybrid-parallel variant (paper §2.3): "first all blocks are randomly
    /// scattered among the processes to avoid load imbalances, then
    /// evaluation takes place, finally the result is gathered on all
    /// processes." Produces a forest identical to the serial create().
    static SetupBlockForest createDistributed(vmpi::Comm& comm, const SetupConfig& config,
                                              const geometry::DistanceFunction* phi);

    const SetupConfig& config() const { return config_; }
    const std::vector<SetupBlock>& blocks() const { return blocks_; }
    std::vector<SetupBlock>& blocks() { return blocks_; }
    std::size_t numBlocks() const { return blocks_.size(); }

    /// Index of the block at grid position, or nullopt if discarded or
    /// outside the grid. A coordinate on a periodic axis wraps first.
    std::optional<std::uint32_t> blockAt(cell_idx_t x, cell_idx_t y, cell_idx_t z) const;

    /// Indices of existing blocks adjacent to block i, one per direction of
    /// the 26-neighborhood that has a block. Across a periodic wrap a block
    /// can appear twice (two blocks on the axis) or be block i itself (one).
    std::vector<std::uint32_t> neighborsOf(std::uint32_t i) const;

    /// Sets every block's workload to its exact fluid-cell count (dense
    /// blocks: all cells) and counts its fluid runs and links in the same
    /// pass (geometry::countFluid). Exploits `fullyInside` to skip counting.
    void assignFluidCellWorkload(const geometry::DistanceFunction& phi);

    /// Static load balancing over a weighted Morton space-filling curve:
    /// blocks sorted along the curve, split into contiguous chunks of
    /// near-equal workload.
    void balanceMorton(std::uint32_t numProcesses);

    /// Static load balancing via the multilevel graph partitioner with
    /// modeled-cost vertex weights (SetupBlock::cost, the fluid cells when a
    /// block has no run and link counts) and communication-volume edge
    /// weights (face 5 PDFs/cell, edge 1 PDF/cell, as in the D3Q19 exchange).
    /// Periodic wrap links are edges too; a self-link is none, and a pair
    /// linked in several directions gets one edge of its largest weight.
    void balanceGraph(std::uint32_t numProcesses, std::uint64_t seed = 12345);

    std::uint32_t numProcesses() const { return numProcesses_; }

    /// Per-process workload statistics after balancing.
    struct BalanceStats {
        std::uint64_t minWorkload = 0, maxWorkload = 0, totalWorkload = 0;
        std::uint32_t maxBlocksPerProcess = 0, emptyProcesses = 0;
        double imbalance = 1.0;     ///< fluid cells: max / ideal
        double costImbalance = 1.0; ///< SetupBlock::cost: max / ideal
    };
    BalanceStats balanceStats() const;

    std::uint64_t totalWorkload() const;

    /// Test seam: deterministically permutes the block storage order (the
    /// logical forest — ids, positions, workloads, assignment — is
    /// unchanged; the grid map is rebuilt). Balancers must produce the
    /// identical block -> process assignment regardless of storage order.
    void shuffleBlocks(std::uint64_t seed);

    /// Compact, endian-independent binary serialization (paper §2.2: only
    /// the low-order bytes that carry information are stored; e.g. 2-byte
    /// process ranks below 65,536 processes). load() throws BufferError on
    /// a truncated stream and ForestFileError on any other malformed one;
    /// loadFromFile() returns nullopt for both.
    void save(SendBuffer& buf) const;
    static SetupBlockForest load(RecvBuffer& buf);
    bool saveToFile(const std::string& path) const;
    static std::optional<SetupBlockForest> loadFromFile(const std::string& path);

private:
    std::uint64_t gridIndex(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
        return (uint_c(z) * config_.blocksY() + uint_c(y)) * config_.blocksX() + uint_c(x);
    }
    AABB blockBox(cell_idx_t x, cell_idx_t y, cell_idx_t z) const;
    static BlockID idForGridPos(const SetupConfig& config, cell_idx_t x, cell_idx_t y,
                                cell_idx_t z);
    /// Rebuilds gridToBlock_ from blocks_; false if two blocks share a
    /// grid position.
    bool indexBlocks();

    SetupConfig config_;
    std::vector<SetupBlock> blocks_;
    /// (grid index, block index) of every block, sorted by grid index: one
    /// entry per block, so a sparse forest's map does not grow with its
    /// bounding grid (nor does a corrupt file's claimed grid allocate).
    std::vector<std::pair<std::uint64_t, std::uint32_t>> gridToBlock_;
    std::uint32_t numProcesses_ = 1;
};

} // namespace walb::bf
