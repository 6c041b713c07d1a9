#include "geometry/Voxelizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

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

FluidCounts countFluid(const DistanceFunction& phi, const CellMapping& mapping,
                       cell_idx_t cellsX, cell_idx_t cellsY, cell_idx_t cellsZ,
                       std::span<const std::array<int, 3>> stencil) {
    // Bit x of row (y, z) is cell (x, y, z); the bits past cellsX in a row's
    // last word are set, so a shifted row reads cells beyond x as fluid.
    const auto words = std::size_t(cellsX + 63) / 64;
    const std::uint64_t lastValid = ~std::uint64_t(0) >> ((64 - cellsX % 64) % 64);
    const auto rowAt = [&](cell_idx_t y, cell_idx_t z) {
        return (std::size_t(z) * std::size_t(cellsY) + std::size_t(y)) * words;
    };
    std::vector<std::uint64_t> bits(rowAt(0, cellsZ), 0);
    for (std::size_t r = words - 1; r < bits.size(); r += words) bits[r] = ~lastValid;
    const auto setRange = [&](std::size_t row, cell_idx_t x0, cell_idx_t x1) {
        for (cell_idx_t x = x0; x <= x1;) {
            const cell_idx_t end = std::min<cell_idx_t>(x1, x | 63);
            const std::uint64_t ones = ~std::uint64_t(0) >> (63 - (end - x));
            bits[row + std::size_t(x) / 64] |= ones << (x % 64);
            x = end + 1;
        }
    };
    sphereTestCells(
        phi, mapping, CellInterval(0, 0, 0, cellsX - 1, cellsY - 1, cellsZ - 1),
        [&](cell_idx_t x, cell_idx_t y, cell_idx_t z) { setRange(rowAt(y, z), x, x); },
        [&](const CellInterval& ci) {
            for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
                for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y)
                    setRange(rowAt(y, z), ci.min().x, ci.max().x);
        });

    FluidCounts counts;
    for (cell_idx_t z = 0; z < cellsZ; ++z)
        for (cell_idx_t y = 0; y < cellsY; ++y) {
            const std::uint64_t* row = bits.data() + rowAt(y, z);
            const auto fluid = [&](std::size_t i) {
                return row[i] & (i + 1 == words ? lastValid : ~std::uint64_t(0));
            };
            bool anyFluid = false;
            for (std::size_t i = 0; i < words; ++i) {
                if (!fluid(i)) continue;
                anyFluid = true;
                const std::uint64_t before = (row[i] << 1) | (i > 0 ? row[i - 1] >> 63 : 0);
                counts.cells += uint_c(std::popcount(fluid(i)));
                counts.runs += uint_c(std::popcount(fluid(i) & ~before));
            }
            if (!anyFluid) continue; // most rows of a sparse block
            for (const auto& e : stencil) {
                const cell_idx_t ny = y + e[1], nz = z + e[2];
                if (ny < 0 || ny >= cellsY || nz < 0 || nz >= cellsZ) continue;
                const std::uint64_t* nb = bits.data() + rowAt(ny, nz);
                const auto word = [&](std::ptrdiff_t i) {
                    return i < 0 || std::size_t(i) >= words ? ~std::uint64_t(0) : nb[i];
                };
                for (std::size_t i = 0; i < words; ++i) {
                    const auto j = std::ptrdiff_t(i);
                    // Bit x of `at` is cell (x + e[0], ny, nz).
                    const std::uint64_t at =
                        e[0] == 0  ? nb[i]
                        : e[0] > 0 ? (nb[i] >> 1) | (word(j + 1) << 63)
                                   : (nb[i] << 1) | (word(j - 1) >> 63);
                    counts.links += uint_c(std::popcount(fluid(i) & ~at));
                }
            }
        }
    return counts;
}

} // namespace walb::geometry
