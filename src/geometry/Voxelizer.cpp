#include "geometry/Voxelizer.h"

#include <cmath>

namespace walb::geometry {

namespace {

/// Cell regions of at most this many cells evaluate every cell center.
constexpr uint_t kLeafCells = 32;

/// Sphere test over a block's cells; `fluidCell(x, y, z)` for each fluid
/// cell tested on its own, `fluidRegion(ci)` for each uniformly fluid region.
template <typename FluidCell, typename FluidRegion>
VoxelizeStats sphereTestCells(const DistanceFunction& phi, const CellMapping& m,
                              const CellInterval& ci, const FluidCell& fluidCell,
                              const FluidRegion& fluidRegion) {
    VoxelizeStats stats;
    sphereTestRegions(
        phi, [&](cell_idx_t x, cell_idx_t y, cell_idx_t z) { return m.cellCenter(x, y, z); },
        ci, real_c(0), kLeafCells, stats,
        [&](cell_idx_t x, cell_idx_t y, cell_idx_t z, real_t d) {
            if (d < 0) fluidCell(x, y, z);
        },
        [&](const CellInterval& region, bool inside) {
            if (inside) fluidRegion(region);
        });
    return stats;
}

} // namespace

VoxelizeStats voxelize(const DistanceFunction& phi, field::FlagField& flags,
                       const CellMapping& mapping, field::flag_t fluidFlag) {
    uint_t fluidCells = 0;
    VoxelizeStats stats = sphereTestCells(
        phi, mapping, flags.allocRegion(),
        [&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            flags.addFlag(x, y, z, fluidFlag);
            ++fluidCells;
        },
        [&](const CellInterval& ci) {
            ci.forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                flags.addFlag(x, y, z, fluidFlag);
            });
            fluidCells += ci.numCells();
        });
    stats.fluidCells = fluidCells;
    return stats;
}

namespace {
bool anyFluidRecurse(const DistanceFunction& phi, const CellMapping& m,
                     const CellInterval& ci) {
    if (ci.empty()) return false;
    const Vec3 lo = m.cellCenter(ci.min().x, ci.min().y, ci.min().z);
    const Vec3 hi = m.cellCenter(ci.max().x, ci.max().y, ci.max().z);
    const real_t radius = (hi - lo).length() * real_c(0.5);
    const real_t d = phi.signedDistance((lo + hi) * real_c(0.5));
    if (d < -radius) return true;  // uniformly fluid
    if (d > radius) return false;  // uniformly outside
    if (ci.numCells() <= kLeafCells) {
        bool found = false;
        ci.forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!found && phi.signedDistance(m.cellCenter(x, y, z)) < 0) found = true;
        });
        return found;
    }
    const auto [a, b] = splitLongestAxis(ci);
    return anyFluidRecurse(phi, m, a) || anyFluidRecurse(phi, m, b);
}
} // namespace

bool anyFluidCell(const DistanceFunction& phi, const CellMapping& mapping, cell_idx_t cellsX,
                  cell_idx_t cellsY, cell_idx_t cellsZ) {
    return anyFluidRecurse(phi, mapping,
                           CellInterval(0, 0, 0, cellsX - 1, cellsY - 1, cellsZ - 1));
}

uint_t countFluidCells(const DistanceFunction& phi, const CellMapping& mapping,
                       cell_idx_t cellsX, cell_idx_t cellsY, cell_idx_t cellsZ) {
    uint_t fluidCells = 0;
    sphereTestCells(
        phi, mapping, CellInterval(0, 0, 0, cellsX - 1, cellsY - 1, cellsZ - 1),
        [&](cell_idx_t, cell_idx_t, cell_idx_t) { ++fluidCells; },
        [&](const CellInterval& ci) { fluidCells += ci.numCells(); });
    return fluidCells;
}

} // namespace walb::geometry
