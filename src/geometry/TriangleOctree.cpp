#include "geometry/TriangleOctree.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/Debug.h"

namespace walb::geometry {

namespace {

/// Levels whose children are built as separate OpenMP tasks: up to 64
/// subtrees, enough to balance a sparse mesh over a team.
constexpr unsigned kTaskDepth = 2;

} // namespace

TriangleOctree::TriangleOctree(const TriangleMesh& mesh, std::size_t maxTrianglesPerLeaf,
                               unsigned maxDepth)
    : mesh_(mesh) {
    WALB_ASSERT(mesh.numTriangles() > 0, "octree over empty mesh");
    BuildInput in{std::vector<AABB>(mesh.numTriangles()), maxTrianglesPerLeaf, maxDepth};
    TriangleIds all(mesh.numTriangles());
    const auto numTriangles = std::ptrdiff_t(all.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (std::ptrdiff_t t = 0; t < numTriangles; ++t) {
        all[std::size_t(t)] = std::uint32_t(t);
        in.triangleBoxes[std::size_t(t)] = mesh.triangleBox(std::size_t(t));
    }

    // Slightly expanded root box so triangles on the boundary bin cleanly.
    const AABB rootBox = mesh.boundingBox().expanded(
        real_c(1e-9) + real_c(1e-6) * mesh.boundingBox().sizes().length());
    Subtree tree;
#ifdef _OPENMP
#pragma omp parallel
#pragma omp single
#endif
    tree = grow(in, rootBox, std::move(all), 0);
    nodes_ = std::move(tree.nodes);
    triangleIds_ = std::move(tree.triangleIds);
}

void TriangleOctree::makeLeaf(Subtree& out, std::int32_t nodeIdx,
                              const TriangleIds& tris) {
    Node& node = out.nodes[std::size_t(nodeIdx)];
    node.firstChild = -1;
    node.trianglesBegin = std::uint32_t(out.triangleIds.size());
    out.triangleIds.insert(out.triangleIds.end(), tris.begin(), tris.end());
    node.trianglesEnd = std::uint32_t(out.triangleIds.size());
}

bool TriangleOctree::subdivide(const BuildInput& in, const AABB& box, const TriangleIds& tris,
                               unsigned depth, std::array<TriangleIds, 8>& childTris) {
    if (tris.size() <= in.maxLeaf || depth >= in.maxDepth) return false;
    // Bin each triangle into every octant its bounding box overlaps. If the
    // subdivision does not separate the set at all (all triangles span the
    // center), the node stays a leaf to avoid infinite refinement.
    // Octant c spans the lower or upper half on each axis (bit a of c), so
    // its overlap test is the AND of one half test per axis. One pass sets
    // each triangle's octant mask, the second fills exactly sized lists.
    const AABB lower = box.octant(0).expanded(real_c(1e-12));
    const AABB upper = box.octant(7).expanded(real_c(1e-12));
    std::vector<std::uint8_t> masks(tris.size());
    std::array<std::size_t, 8> counts{};
    for (std::size_t i = 0; i < tris.size(); ++i) {
        const AABB& tb = in.triangleBoxes[tris[i]];
        std::array<std::array<bool, 2>, 3> half;
        for (std::size_t a = 0; a < 3; ++a) {
            half[a][0] = lower.min()[a] < tb.max()[a] && lower.max()[a] > tb.min()[a];
            half[a][1] = upper.min()[a] < tb.max()[a] && upper.max()[a] > tb.min()[a];
        }
        unsigned mask = 0;
        for (unsigned c = 0; c < 8; ++c)
            if (half[0][c & 1u] && half[1][(c >> 1) & 1u] && half[2][(c >> 2) & 1u]) {
                mask |= 1u << c;
                ++counts[c];
            }
        masks[i] = std::uint8_t(mask);
    }
    for (unsigned c = 0; c < 8; ++c) childTris[c].reserve(counts[c]);
    for (std::size_t i = 0; i < tris.size(); ++i)
        for (unsigned c = 0; c < 8; ++c)
            if (masks[i] >> c & 1u) childTris[c].push_back(tris[i]);
    for (unsigned c = 0; c < 8; ++c)
        if (childTris[c].size() < tris.size()) return true;
    return false;
}

void TriangleOctree::growInPlace(const BuildInput& in, Subtree& out, std::int32_t nodeIdx,
                                 TriangleIds tris, unsigned depth) {
    std::array<TriangleIds, 8> childTris;
    const AABB box = out.nodes[std::size_t(nodeIdx)].box;
    if (!subdivide(in, box, tris, depth, childTris)) {
        makeLeaf(out, nodeIdx, tris);
        return;
    }
    const auto firstChild = std::int32_t(out.nodes.size());
    out.nodes[std::size_t(nodeIdx)].firstChild = firstChild;
    for (unsigned c = 0; c < 8; ++c) out.nodes.push_back(Node{box.octant(c)});
    tris.clear();
    tris.shrink_to_fit();
    for (unsigned c = 0; c < 8; ++c)
        growInPlace(in, out, firstChild + std::int32_t(c), std::move(childTris[c]), depth + 1);
}

TriangleOctree::Subtree TriangleOctree::grow(const BuildInput& in, const AABB& box,
                                             TriangleIds tris, unsigned depth) {
    Subtree out;
    out.nodes.push_back(Node{box});
    if (depth >= kTaskDepth) {
        growInPlace(in, out, 0, std::move(tris), depth);
        return out;
    }
    std::array<TriangleIds, 8> childTris;
    if (!subdivide(in, box, tris, depth, childTris)) {
        makeLeaf(out, 0, tris);
        return out;
    }
    tris.clear();
    tris.shrink_to_fit();
    std::array<Subtree, 8> sub;
    for (unsigned c = 0; c < 8; ++c) {
#ifdef _OPENMP
#pragma omp task shared(in, box, childTris, sub) firstprivate(c, depth)
#endif
        sub[c] = grow(in, box.octant(c), std::move(childTris[c]), depth + 1);
    }
#ifdef _OPENMP
#pragma omp taskwait
#endif
    // Splice: the 8 children, then each child's subtree in turn. A child's
    // local node i >= 1 lands at base + i - 1, its leaf ranges shift by the
    // triangle ids already spliced. Each subtree is freed once copied.
    std::size_t numNodes = 1, numIds = 0;
    for (const Subtree& t : sub) {
        numNodes += t.nodes.size();
        numIds += t.triangleIds.size();
    }
    out.nodes.reserve(numNodes);
    out.triangleIds.reserve(numIds);
    out.nodes[0].firstChild = 1;
    out.nodes.resize(9);
    for (unsigned c = 0; c < 8; ++c) {
        const auto base = std::int32_t(out.nodes.size());
        const auto idBase = std::uint32_t(out.triangleIds.size());
        const auto relocate = [&](Node n) {
            if (n.firstChild >= 0) n.firstChild += base - 1;
            else {
                n.trianglesBegin += idBase;
                n.trianglesEnd += idBase;
            }
            return n;
        };
        out.nodes[1 + c] = relocate(sub[c].nodes[0]);
        for (std::size_t i = 1; i < sub[c].nodes.size(); ++i)
            out.nodes.push_back(relocate(sub[c].nodes[i]));
        out.triangleIds.insert(out.triangleIds.end(), sub[c].triangleIds.begin(),
                               sub[c].triangleIds.end());
        sub[c] = Subtree{};
    }
    return out;
}

void TriangleOctree::search(std::int32_t nodeIdx, const Vec3& p,
                            ClosestTriangleResult& best) const {
    const Node& node = nodes_[std::size_t(nodeIdx)];
    if (node.box.sqrDistance(p) >= best.sqrDistance && best.valid()) return;

    if (node.firstChild < 0) {
        for (std::uint32_t i = node.trianglesBegin; i < node.trianglesEnd; ++i) {
            const std::size_t t = triangleIds_[i];
            ++best.evaluations;
            const ClosestPointResult r = closestPointOnTriangle(
                p, mesh_.triangleVertex(t, 0), mesh_.triangleVertex(t, 1),
                mesh_.triangleVertex(t, 2));
            if (!best.valid() || r.sqrDistance < best.sqrDistance)
                best = {t, r.point, r.sqrDistance, r.feature, best.evaluations};
        }
        return;
    }

    // Visit children nearest-first for effective pruning.
    std::array<std::pair<real_t, std::int32_t>, 8> order;
    for (unsigned c = 0; c < 8; ++c) {
        const std::int32_t child = node.firstChild + std::int32_t(c);
        order[c] = {nodes_[std::size_t(child)].box.sqrDistance(p), child};
    }
    std::sort(order.begin(), order.end());
    for (const auto& [dist, child] : order) {
        if (best.valid() && dist >= best.sqrDistance) break;
        search(child, p, best);
    }
}

ClosestTriangleResult TriangleOctree::closestTriangle(const Vec3& p) const {
    ClosestTriangleResult best;
    best.sqrDistance = real_c(1e300);
    search(0, p, best);
    WALB_ASSERT(best.valid());
    return best;
}

real_t TriangleOctree::distance(const Vec3& p) const {
    return std::sqrt(closestTriangle(p).sqrDistance);
}

} // namespace walb::geometry
