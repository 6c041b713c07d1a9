#include "geometry/TriangleOctree.h"

#include <algorithm>
#include <cmath>

#include "core/Debug.h"

namespace walb::geometry {

TriangleOctree::TriangleOctree(const TriangleMesh& mesh, std::size_t maxTrianglesPerLeaf,
                               unsigned maxDepth)
    : mesh_(mesh) {
    WALB_ASSERT(mesh.numTriangles() > 0, "octree over empty mesh");
    std::vector<std::size_t> all(mesh.numTriangles());
    for (std::size_t t = 0; t < all.size(); ++t) all[t] = t;

    // Slightly expanded root box so triangles on the boundary bin cleanly.
    Node root;
    root.box = mesh.boundingBox().expanded(real_c(1e-9) +
                                           real_c(1e-6) * mesh.boundingBox().sizes().length());
    nodes_.push_back(root);
    build(0, std::move(all), 0, maxTrianglesPerLeaf, maxDepth);
}

void TriangleOctree::build(std::int32_t nodeIdx, std::vector<std::size_t> tris, unsigned depth,
                           std::size_t maxLeaf, unsigned maxDepth) {
    if (tris.size() <= maxLeaf || depth >= maxDepth) {
        nodes_[std::size_t(nodeIdx)].trianglesBegin = std::uint32_t(triangleIds_.size());
        triangleIds_.insert(triangleIds_.end(), tris.begin(), tris.end());
        nodes_[std::size_t(nodeIdx)].trianglesEnd = std::uint32_t(triangleIds_.size());
        return;
    }

    const AABB box = nodes_[std::size_t(nodeIdx)].box;
    const auto firstChild = std::int32_t(nodes_.size());
    nodes_[std::size_t(nodeIdx)].firstChild = firstChild;
    for (unsigned c = 0; c < 8; ++c) {
        Node child;
        child.box = box.octant(c);
        nodes_.push_back(child);
    }

    // Bin each triangle into every octant its bounding box overlaps. If the
    // subdivision does not separate the set at all (all triangles span the
    // center), fall back to a leaf to avoid infinite refinement.
    std::array<std::vector<std::size_t>, 8> childTris;
    for (std::size_t t : tris) {
        const AABB tb = mesh_.triangleBox(t);
        for (unsigned c = 0; c < 8; ++c)
            if (box.octant(c).expanded(real_c(1e-12)).intersects(tb))
                childTris[c].push_back(t);
    }
    bool separated = false;
    for (unsigned c = 0; c < 8; ++c)
        if (childTris[c].size() < tris.size()) separated = true;
    if (!separated) {
        nodes_[std::size_t(nodeIdx)].firstChild = -1;
        nodes_.resize(std::size_t(firstChild)); // drop the unused children
        nodes_[std::size_t(nodeIdx)].trianglesBegin = std::uint32_t(triangleIds_.size());
        triangleIds_.insert(triangleIds_.end(), tris.begin(), tris.end());
        nodes_[std::size_t(nodeIdx)].trianglesEnd = std::uint32_t(triangleIds_.size());
        return;
    }
    tris.clear();
    tris.shrink_to_fit();
    for (unsigned c = 0; c < 8; ++c)
        build(firstChild + std::int32_t(c), std::move(childTris[c]), depth + 1, maxLeaf,
              maxDepth);
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
