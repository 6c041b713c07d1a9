#pragma once
/// \file Voxelizer.h
/// Marks fluid cells of a block's flag field from a signed distance
/// function (paper §2.3): a lattice cell belongs to the domain if its
/// center lies inside (phi < 0). Uses the paper's hierarchical pruning: a
/// cell region whose bounding sphere is entirely on one side of the surface
/// (|phi(center)| > sphere radius) is filled/skipped wholesale, so only
/// cells near the boundary evaluate the distance function individually.
/// Block/domain intersection pre-tests use the block barycenter with
/// circumsphere and insphere radii, exactly as described in the paper.

#include <cmath>
#include <utility>

#include "core/AABB.h"
#include "field/FlagField.h"
#include "geometry/SignedDistance.h"

namespace walb::geometry {

/// Conservative classification of a block against the domain.
enum class BlockCoverage {
    Outside, ///< certainly no fluid cell center inside the block
    Inside,  ///< certainly every cell center of the block is fluid
    Mixed,   ///< block may straddle the boundary — needs voxelization
};

/// Paper §2.3 early-outs: if d(center)^2 > R(b)^2 the block cannot
/// intersect the domain boundary — it is uniformly inside or outside
/// depending on the sign; if |phi| < r(b) it must intersect the boundary.
inline BlockCoverage classifyBlock(const DistanceFunction& phi, const AABB& box) {
    const real_t d = phi.signedDistance(box.center());
    const real_t R = box.circumsphereRadius();
    if (d > R) return BlockCoverage::Outside;
    if (d < -R) return BlockCoverage::Inside;
    return BlockCoverage::Mixed;
}

/// Mapping from a block's cell coordinates to physical space: cell (i,j,k)
/// has its center at blockBox.min + dx * (i + 1/2, j + 1/2, k + 1/2).
struct CellMapping {
    AABB blockBox;
    real_t dx;

    Vec3 cellCenter(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
        return blockBox.min() + Vec3((real_c(x) + real_c(0.5)) * dx,
                                     (real_c(y) + real_c(0.5)) * dx,
                                     (real_c(z) + real_c(0.5)) * dx);
    }
};

struct VoxelizeStats {
    uint_t fluidCells = 0;
    uint_t regionsPruned = 0;  ///< uniform regions decided without per-cell tests
    uint_t cellsEvaluated = 0; ///< individual distance evaluations
};

/// Splits a region in two halves along its longest axis.
inline std::pair<CellInterval, CellInterval> splitLongestAxis(const CellInterval& ci) {
    CellInterval a = ci, b = ci;
    if (ci.xSize() >= ci.ySize() && ci.xSize() >= ci.zSize()) {
        const cell_idx_t mid = (ci.min().x + ci.max().x) / 2;
        a.max().x = mid;
        b.min().x = mid + 1;
    } else if (ci.ySize() >= ci.zSize()) {
        const cell_idx_t mid = (ci.min().y + ci.max().y) / 2;
        a.max().y = mid;
        b.min().y = mid + 1;
    } else {
        const cell_idx_t mid = (ci.min().z + ci.max().z) / 2;
        a.max().z = mid;
        b.min().z = mid + 1;
    }
    return {a, b};
}

/// The paper's hierarchical pruning over an index region, shared by
/// voxelization (cell centers) and isosurface extraction (grid points).
/// `pointOf(x, y, z)` maps an index to its point and must be monotone in
/// each index, so a region's points lie in the box spanned by its two
/// corner points. If |phi(center)| > radius + margin for that box's
/// circumsphere, the region has one sign throughout (1-Lipschitz contract,
/// SignedDistance.h): `uniform(region, phi(center) < 0)`. A region of at
/// most `leafPoints` points that fails the test evaluates phi at each
/// point: `exact(x, y, z, phi(pointOf(x, y, z)))`, in memory order.
template <typename PointOf, typename Exact, typename Uniform>
void sphereTestRegions(const DistanceFunction& phi, const PointOf& pointOf,
                       const CellInterval& ci, real_t margin, uint_t leafPoints,
                       VoxelizeStats& stats, const Exact& exact, const Uniform& uniform) {
    if (ci.empty()) return;
    const Vec3 lo = pointOf(ci.min().x, ci.min().y, ci.min().z);
    const Vec3 hi = pointOf(ci.max().x, ci.max().y, ci.max().z);
    const real_t radius = (hi - lo).length() * real_c(0.5);
    const real_t d = phi.signedDistance((lo + hi) * real_c(0.5));
    if (std::abs(d) > radius + margin) {
        ++stats.regionsPruned;
        uniform(ci, d < 0);
        return;
    }
    if (ci.numCells() <= leafPoints) {
        ci.forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            ++stats.cellsEvaluated;
            exact(x, y, z, phi.signedDistance(pointOf(x, y, z)));
        });
        return;
    }
    const auto [a, b] = splitLongestAxis(ci);
    sphereTestRegions(phi, pointOf, a, margin, leafPoints, stats, exact, uniform);
    sphereTestRegions(phi, pointOf, b, margin, leafPoints, stats, exact, uniform);
}

/// Sets `fluidFlag` on every cell (interior plus ghost layers) whose center
/// is inside the domain. Returns pruning statistics. The hierarchical
/// subdivision makes the cost proportional to the boundary area rather than
/// the block volume.
VoxelizeStats voxelize(const DistanceFunction& phi, field::FlagField& flags,
                       const CellMapping& mapping, field::flag_t fluidFlag);

/// True if any cell center of the given interior size is inside the domain
/// — the paper's "block b intersects Lambda if the center of any lattice
/// cell in b is within Lambda". Early-exits on the first fluid cell or
/// fluid region.
bool anyFluidCell(const DistanceFunction& phi, const CellMapping& mapping, cell_idx_t cellsX,
                  cell_idx_t cellsY, cell_idx_t cellsZ);

/// Counts the fluid cells of a hypothetical block without writing flags —
/// used for workload estimation during setup/load balancing where only the
/// count matters. cells* give the interior size (no ghost layers).
uint_t countFluidCells(const DistanceFunction& phi, const CellMapping& mapping,
                       cell_idx_t cellsX, cell_idx_t cellsY, cell_idx_t cellsZ);

} // namespace walb::geometry
