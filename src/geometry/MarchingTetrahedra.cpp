#include "geometry/MarchingTetrahedra.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/Debug.h"
#include "geometry/Voxelizer.h"

namespace walb::geometry {

namespace {

/// The Kuhn subdivision: six tetrahedra around the main diagonal v0-v7.
/// Corner numbering: bit 0 = +x, bit 1 = +y, bit 2 = +z.
constexpr unsigned kTets[6][4] = {
    {0, 1, 3, 7}, {0, 3, 2, 7}, {0, 2, 6, 7},
    {0, 6, 4, 7}, {0, 4, 5, 7}, {0, 5, 1, 7},
};

/// Grid-point regions of at most this many points evaluate every point.
constexpr uint_t kLeafPoints = 8;

/// The sphere test decides a region's sign only if |phi| clears the radius
/// by this fraction of the box's coordinate magnitude, far above the
/// rounding of the points and of phi.
constexpr real_t kSafetyMargin = 1e-9;

/// Recursion levels of the grid-point sphere test run before the regions
/// are shared over the team: up to 64 regions.
constexpr unsigned kSerialSplits = 6;

struct EdgeKeyHash {
    std::size_t operator()(const std::uint64_t& k) const {
        return std::hash<std::uint64_t>()(k);
    }
};

} // namespace

TriangleMesh extractIsosurface(const DistanceFunction& phi, const AABB& box, unsigned nx,
                               unsigned ny, unsigned nz) {
    WALB_ASSERT(nx >= 1 && ny >= 1 && nz >= 1);
    const std::size_t px = nx + 1, py = ny + 1, pz = nz + 1;
    const Vec3 step(box.xSize() / real_c(nx), box.ySize() / real_c(ny),
                    box.zSize() / real_c(nz));

    auto gridPoint = [&](std::size_t i, std::size_t j, std::size_t k) {
        return box.min() + Vec3(real_c(i) * step[0], real_c(j) * step[1], real_c(k) * step[2]);
    };
    auto gridIndex = [&](std::size_t i, std::size_t j, std::size_t k) -> std::uint32_t {
        return std::uint32_t((k * py + j) * px + i);
    };

    // Grid-point signs from the voxelizer's sphere test: a value is exact,
    // or +-infinity where a whole region's sign was decided at once. Exact
    // values are filled in on demand, only at the corners of sign-crossing
    // edges, by the same call at the same point as full sampling would make.
    // The top kSerialSplits levels of the recursion run here; the regions
    // below them are sampled on the caller's team, each writing only its
    // own grid points.
    constexpr real_t kUnknown = std::numeric_limits<real_t>::infinity();
    std::vector<real_t> values(px * py * pz);
    const auto pointOf = [&](cell_idx_t i, cell_idx_t j, cell_idx_t k) {
        return gridPoint(std::size_t(i), std::size_t(j), std::size_t(k));
    };
    const real_t margin = kSafetyMargin * (box.min().length() + box.max().length());
    const auto sampled = [&](cell_idx_t i, cell_idx_t j, cell_idx_t k, real_t d) {
        values[gridIndex(std::size_t(i), std::size_t(j), std::size_t(k))] = d;
    };
    const auto uniform = [&](const CellInterval& region, bool inside) {
        region.forEach([&](cell_idx_t i, cell_idx_t j, cell_idx_t k) {
            values[gridIndex(std::size_t(i), std::size_t(j), std::size_t(k))] =
                inside ? -kUnknown : kUnknown;
        });
    };
    std::vector<CellInterval> deferred;
    VoxelizeStats stats;
    sphereTestRegionsTo(phi, pointOf,
                        CellInterval(0, 0, 0, cell_idx_c(nx), cell_idx_c(ny), cell_idx_c(nz)),
                        margin, kLeafPoints, stats, sampled, uniform, kSerialSplits,
                        [&](const CellInterval& region) { deferred.push_back(region); });
    const auto numDeferred = std::ptrdiff_t(deferred.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
    for (std::ptrdiff_t r = 0; r < numDeferred; ++r) {
        VoxelizeStats regionStats;
        sphereTestRegions(phi, pointOf, deferred[std::size_t(r)], margin, kLeafPoints,
                          regionStats, sampled, uniform);
    }

    TriangleMesh mesh;
    // One interpolated vertex per sign-crossing grid edge, shared between
    // all tetrahedra touching that edge -> watertight output.
    std::unordered_map<std::uint64_t, std::uint32_t, EdgeKeyHash> edgeVertex;

    auto pointOfIndex = [&](std::uint32_t g) {
        const std::size_t i = g % px, j = (g / px) % py, k = g / (px * py);
        return gridPoint(i, j, k);
    };

    auto valueAt = [&](std::uint32_t g) {
        real_t& v = values[g];
        if (std::isinf(v)) {
            const real_t exact = phi.signedDistance(pointOfIndex(g));
            WALB_DASSERT((exact < 0) == (v < 0), "sphere test broke the 1-Lipschitz contract");
            v = exact;
        }
        return v;
    };

    auto edgePoint = [&](std::uint32_t a, std::uint32_t b) -> std::uint32_t {
        if (a > b) std::swap(a, b);
        const std::uint64_t key = (std::uint64_t(a) << 32) | b;
        auto it = edgeVertex.find(key);
        if (it != edgeVertex.end()) return it->second;
        const real_t va = valueAt(a), vb = valueAt(b);
        // Callers guarantee strictly opposite signs (va < 0 <= vb or
        // vice versa), so the denominator cannot vanish.
        const real_t t = va / (va - vb);
        const Vec3 p = pointOfIndex(a) + (pointOfIndex(b) - pointOfIndex(a)) * t;
        const std::uint32_t v = mesh.addVertex(p);
        edgeVertex.emplace(key, v);
        return v;
    };

    auto emit = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c, const Vec3& outward) {
        if (a == b || b == c || a == c) return; // degenerate (vertex on grid point)
        const Vec3 n = (mesh.vertex(b) - mesh.vertex(a)).cross(mesh.vertex(c) - mesh.vertex(a));
        if (n.dot(outward) >= 0) mesh.addTriangle(a, b, c);
        else mesh.addTriangle(a, c, b);
    };

    for (std::size_t k = 0; k < nz; ++k)
        for (std::size_t j = 0; j < ny; ++j)
            for (std::size_t i = 0; i < nx; ++i) {
                std::uint32_t corner[8];
                for (unsigned c = 0; c < 8; ++c)
                    corner[c] = gridIndex(i + (c & 1u), j + ((c >> 1) & 1u),
                                          k + ((c >> 2) & 1u));
                // A cube without a sign change has no crossing tetrahedron.
                bool anyNeg = false, anyPos = false;
                for (const std::uint32_t g : corner) (values[g] < 0 ? anyNeg : anyPos) = true;
                if (!anyNeg || !anyPos) continue;

                for (const auto& tet : kTets) {
                    std::uint32_t g[4];
                    bool neg[4];
                    int numNeg = 0;
                    for (unsigned v = 0; v < 4; ++v) {
                        g[v] = corner[tet[v]];
                        neg[v] = values[g[v]] < 0;
                        numNeg += neg[v];
                    }
                    if (numNeg == 0 || numNeg == 4) continue;

                    // Outward reference: from the negative (inside) corners
                    // toward the positive ones.
                    Vec3 negC(0, 0, 0), posC(0, 0, 0);
                    for (unsigned v = 0; v < 4; ++v)
                        (neg[v] ? negC : posC) += pointOfIndex(g[v]);
                    const Vec3 outward =
                        posC / real_c(4 - numNeg) - negC / real_c(numNeg);

                    if (numNeg == 1 || numNeg == 3) {
                        // One isolated corner: a single triangle on the three
                        // edges incident to it.
                        const bool isolateNeg = (numNeg == 1);
                        unsigned apex = 0;
                        for (unsigned v = 0; v < 4; ++v)
                            if (neg[v] == isolateNeg) apex = v;
                        std::uint32_t tri[3];
                        unsigned t = 0;
                        for (unsigned v = 0; v < 4; ++v)
                            if (v != apex) tri[t++] = edgePoint(g[apex], g[v]);
                        emit(tri[0], tri[1], tri[2], outward);
                    } else {
                        // 2-2 split: quad on the four crossing edges.
                        unsigned negV[2], posV[2];
                        unsigned a = 0, b = 0;
                        for (unsigned v = 0; v < 4; ++v)
                            if (neg[v]) negV[a++] = v;
                            else posV[b++] = v;
                        const std::uint32_t q00 = edgePoint(g[negV[0]], g[posV[0]]);
                        const std::uint32_t q01 = edgePoint(g[negV[0]], g[posV[1]]);
                        const std::uint32_t q10 = edgePoint(g[negV[1]], g[posV[0]]);
                        const std::uint32_t q11 = edgePoint(g[negV[1]], g[posV[1]]);
                        emit(q00, q01, q11, outward);
                        emit(q00, q11, q10, outward);
                    }
                }
            }
    return mesh;
}

} // namespace walb::geometry
