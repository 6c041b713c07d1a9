#include "geometry/BoundarySetup.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace walb::geometry {

namespace {

enum class Kind { Wall, Inflow, Outflow };

Kind kindOf(const TriangleMesh& m, std::size_t t) {
    const auto& tri = m.triangle(t);
    unsigned inflow = 0, outflow = 0;
    for (unsigned v = 0; v < 3; ++v) {
        if (m.color(tri[v]) == kColorInflow) ++inflow;
        if (m.color(tri[v]) == kColorOutflow) ++outflow;
    }
    return inflow >= 2 ? Kind::Inflow : outflow >= 2 ? Kind::Outflow : Kind::Wall;
}

/// Colored triangles farther than this many cells from the block's cell
/// centers are not listed; a cell is certified only below that distance.
constexpr real_t kReachCells = 8;
/// Certification margin relative to the coordinates, as the voxelizer's
/// sphere test: far above the rounding of any distance compared here.
constexpr real_t kSafetyMargin = 1e-9;
/// Cells per tile edge; each tile lists the colored boxes within reach.
constexpr cell_idx_t kTile = 8;

/// The colored triangles within reach of a block, per tile of its cells:
/// (lower bound of the squared distance from any cell center of the tile,
/// box), nearest first.
class ColoredNearby {
public:
    ColoredNearby(const MeshDistance& mesh, const CellMapping& mapping, const CellInterval& all,
                  real_t reach)
        : all_(all),
          tilesX_((all.xSize() + kTile - 1) / kTile),
          tilesY_((all.ySize() + kTile - 1) / kTile) {
        const TriangleMesh& m = mesh.mesh();
        const AABB centers(mapping.cellCenter(all.min().x, all.min().y, all.min().z),
                           mapping.cellCenter(all.max().x, all.max().y, all.max().z));
        std::vector<std::size_t> colored;
        mesh.octree().forEachTriangleNear(centers, reach, [&](std::size_t t) {
            if (kindOf(m, t) != Kind::Wall) colored.push_back(t);
        });
        std::sort(colored.begin(), colored.end());
        colored.erase(std::unique(colored.begin(), colored.end()), colored.end());
        for (const std::size_t t : colored) boxes_.push_back(m.triangleBox(t));

        const cell_idx_t tilesZ = (all.zSize() + kTile - 1) / kTile;
        tiles_.resize(std::size_t(tilesX_ * tilesY_ * tilesZ));
        for (cell_idx_t tz = 0; tz < tilesZ; ++tz)
            for (cell_idx_t ty = 0; ty < tilesY_; ++ty)
                for (cell_idx_t tx = 0; tx < tilesX_; ++tx) {
                    const Cell lo(all.min().x + tx * kTile, all.min().y + ty * kTile,
                                  all.min().z + tz * kTile);
                    const Cell hi(std::min(lo.x + kTile - 1, all.max().x),
                                  std::min(lo.y + kTile - 1, all.max().y),
                                  std::min(lo.z + kTile - 1, all.max().z));
                    const AABB tile(mapping.cellCenter(lo.x, lo.y, lo.z),
                                    mapping.cellCenter(hi.x, hi.y, hi.z));
                    auto& list = tiles_[std::size_t((tz * tilesY_ + ty) * tilesX_ + tx)];
                    for (std::uint32_t b = 0; b < boxes_.size(); ++b) {
                        const real_t d = tile.sqrDistance(boxes_[b]);
                        if (d < reach * reach) list.push_back({d, b});
                    }
                    std::sort(list.begin(), list.end(), [](const Near& a, const Near& b) {
                        return a.sqrDistance < b.sqrDistance;
                    });
                }
    }

    /// True if some colored box comes within sqrt(sqrBound) of p, the
    /// center of cell (x, y, z).
    bool anyWithin(cell_idx_t x, cell_idx_t y, cell_idx_t z, const Vec3& p,
                   real_t sqrBound) const {
        const cell_idx_t tx = (x - all_.min().x) / kTile, ty = (y - all_.min().y) / kTile,
                         tz = (z - all_.min().z) / kTile;
        for (const Near& n : tiles_[std::size_t((tz * tilesY_ + ty) * tilesX_ + tx)]) {
            if (n.sqrDistance > sqrBound) return false;
            if (boxes_[n.box].sqrDistance(p) <= sqrBound) return true;
        }
        return false;
    }

private:
    struct Near {
        real_t sqrDistance;
        std::uint32_t box;
    };
    CellInterval all_;
    cell_idx_t tilesX_, tilesY_;
    std::vector<AABB> boxes_;
    std::vector<std::vector<Near>> tiles_;
};

} // namespace

BoundaryAssignmentStats assignBoundaryConditionsFromColors(field::FlagField& flags,
                                                           const lbm::BoundaryFlags& masks,
                                                           field::flag_t hullMask,
                                                           const MeshDistance& mesh,
                                                           const CellMapping& mapping) {
    const TriangleMesh& m = mesh.mesh();
    const CellInterval all = flags.allocRegion();
    const real_t reach = kReachCells * mapping.dx;
    const ColoredNearby colored(mesh, mapping, all, reach);
    const Vec3 lo = mapping.cellCenter(all.min().x, all.min().y, all.min().z);
    const Vec3 hi = mapping.cellCenter(all.max().x, all.max().y, all.max().z);
    const real_t margin = kSafetyMargin * (lo.length() + hi.length() + reach);

    // Per cell of the allocation: the triangle that decided it, its closest
    // one or the one that certified it.
    constexpr std::uint32_t kNone = ~std::uint32_t(0);
    std::vector<std::uint32_t> witness(flags.allocCells(), kNone);
    std::uint32_t last = kNone; // closest triangle of the last search
    BoundaryAssignmentStats stats;
    flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (!(flags.get(x, y, z) & hullMask)) return;
        const Vec3 p = mapping.cellCenter(x, y, z);
        // The nearest of the candidate triangles bounds the closest distance.
        std::uint32_t best = kNone;
        real_t bestSq = 0;
        const auto consider = [&](std::uint32_t t) {
            if (t == kNone || t == best) return;
            const real_t sq = closestPointOnTriangle(p, m.triangleVertex(t, 0),
                                                     m.triangleVertex(t, 1),
                                                     m.triangleVertex(t, 2))
                                  .sqrDistance;
            if (best == kNone || sq < bestSq) {
                best = t;
                bestSq = sq;
            }
        };
        consider(last);
        for (const Cell& n : {Cell(x - 1, y, z), Cell(x, y - 1, z), Cell(x, y, z - 1)})
            if (flags.coordinatesValid(n.x, n.y, n.z))
                consider(witness[flags.index(n.x, n.y, n.z)]);
        bool certified = false;
        if (best != kNone) {
            const real_t bound = std::sqrt(bestSq) + margin;
            certified = bound < reach && !colored.anyWithin(x, y, z, p, bound * bound);
        }
        Kind kind = Kind::Wall;
        if (!certified) {
            best = last = std::uint32_t(mesh.closestTriangle(p).triangle);
            kind = kindOf(m, best);
        }
        witness[flags.index(x, y, z)] = best;
        flags.removeFlag(x, y, z, hullMask);
        if (kind == Kind::Inflow) {
            flags.addFlag(x, y, z, masks.ubb);
            ++stats.inflowCells;
        } else if (kind == Kind::Outflow) {
            flags.addFlag(x, y, z, masks.pressure);
            ++stats.outflowCells;
        } else {
            flags.addFlag(x, y, z, masks.noSlip);
            ++stats.noSlipCells;
        }
    });
    return stats;
}

} // namespace walb::geometry
