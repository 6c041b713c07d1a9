#pragma once
/// \file BoxDomain.h
/// A box of lattice cells as a block forest plus a flag initializer, for
/// tests that state their geometry as a function of the global cell:
///
///   const BoxDomain box{{6, 14, 4}, {1, 1, 1}, {true, false, true}};
///   sim::DistributedSimulation s(comm, box.setup(1), box.flags(cellFlags));
///
/// The periodic wrap is done here, in one place: a ghost cell across a
/// periodic axis gets the flags of its image inside the box, as the
/// FlagInitializer contract asks. A ghost cell outside a non-periodic face
/// gets no flags. setFluidEquilibrium writes a flow field as the initial
/// state of any driver tier.

#include <array>
#include <cstdint>
#include <functional>

#include "blockforest/SetupBlockForest.h"
#include "sim/DistributedSimulation.h"

namespace walb::test {

/// Flags of the in-box global cell `g`. May register custom flags on
/// `flags` (registerFlag returns the existing mask on a repeat call).
using GlobalCellFlags = std::function<field::flag_t(const Cell& g, field::FlagField& flags,
                                                    const lbm::BoundaryFlags& masks)>;

struct BoxDomain {
    std::array<cell_idx_t, 3> cells;        ///< global cells per axis
    std::array<std::uint32_t, 3> blocks{1, 1, 1}; ///< blocks per axis (divide `cells`)
    std::array<bool, 3> periodic{false, false, false};

    /// The box as a forest of unit cells, Morton-balanced over `ranks`.
    bf::SetupBlockForest setup(std::uint32_t ranks) const {
        bf::SetupConfig cfg;
        cfg.domain = AABB(0, 0, 0, real_c(cells[0]), real_c(cells[1]), real_c(cells[2]));
        cfg.rootBlocksX = blocks[0];
        cfg.rootBlocksY = blocks[1];
        cfg.rootBlocksZ = blocks[2];
        cfg.cellsPerBlockX = std::uint32_t(cells[0]) / blocks[0];
        cfg.cellsPerBlockY = std::uint32_t(cells[1]) / blocks[1];
        cfg.cellsPerBlockZ = std::uint32_t(cells[2]) / blocks[2];
        cfg.periodicX = periodic[0];
        cfg.periodicY = periodic[1];
        cfg.periodicZ = periodic[2];
        auto forest = bf::SetupBlockForest::create(cfg);
        forest.balanceMorton(ranks);
        return forest;
    }

    /// Flags every cell of a block, ghosts included, through `f`.
    sim::DistributedSimulation::FlagInitializer flags(GlobalCellFlags f) const {
        return [box = *this, f = std::move(f)](field::FlagField& ff,
                                               const lbm::BoundaryFlags& masks,
                                               const bf::BlockForest::Block& block,
                                               const geometry::CellMapping&) {
            const std::array<cell_idx_t, 3> pos{block.gridPos.x, block.gridPos.y,
                                                block.gridPos.z};
            ff.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                std::array<cell_idx_t, 3> g{x, y, z};
                for (std::size_t a = 0; a < 3; ++a) {
                    const cell_idx_t n = box.cells[a];
                    g[a] += pos[a] * (n / cell_idx_c(box.blocks[a]));
                    if (box.periodic[a]) g[a] = (g[a] % n + n) % n;
                    else if (g[a] < 0 || g[a] >= n) return;
                }
                if (const field::flag_t mask = f(Cell{g[0], g[1], g[2]}, ff, masks))
                    ff.addFlag(x, y, z, mask);
            });
        };
    }
};

/// Writes the equilibrium at density 1 and velocity u(g) as the canonical
/// PDFs (lbm::canonicalSlot) of every fluid cell g: the same physical
/// initial state on every driver tier.
inline void setFluidEquilibrium(sim::DistributedSimulation& s,
                                const std::function<Vec3(const Cell& g)>& u) {
    using M = lbm::D3Q19;
    const auto& forest = s.forest();
    for (std::size_t b = 0; b < forest.blocks().size(); ++b) {
        const Cell offset = forest.globalCellOffset(forest.blocks()[b]);
        const auto& flags = s.flagField(b);
        auto& pdfs = s.pdfField(b);
        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!(flags.get(x, y, z) & s.masks().fluid)) return;
            const Vec3 v = u(offset + Cell{x, y, z});
            for (uint_t a = 0; a < M::Q; ++a)
                *lbm::canonicalSlot(pdfs, s.stepPattern(), x, y, z, a) =
                    lbm::equilibrium<M>(a, 1.0, v);
        });
    }
}

} // namespace walb::test
