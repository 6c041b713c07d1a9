#pragma once
/// \file TriangleOctree.h
/// Hierarchical subdivision of a triangle set into an octree (Payne & Toga
/// 1992, as used by the paper §2.3) so that closest-triangle queries
/// evaluate only a small fraction of point-triangle distances. Queries use
/// best-first traversal with box-distance pruning.

#include <cstdint>
#include <vector>

#include "core/AABB.h"
#include "geometry/PointTriangleDistance.h"
#include "geometry/TriangleMesh.h"

namespace walb::geometry {

struct ClosestTriangleResult {
    std::size_t triangle = ~std::size_t(0);
    Vec3 point;                    ///< closest point on that triangle
    real_t sqrDistance = real_c(0);
    TriFeature feature = TriFeature::Face;
    /// Point-triangle distance evaluations this query performed — exposed
    /// for the octree efficiency tests and the geometry micro-benchmark.
    std::size_t evaluations = 0;
    bool valid() const { return triangle != ~std::size_t(0); }
};

class TriangleOctree {
public:
    /// Builds an octree over all triangles of the mesh. maxTrianglesPerLeaf
    /// and maxDepth bound the subdivision.
    explicit TriangleOctree(const TriangleMesh& mesh, std::size_t maxTrianglesPerLeaf = 16,
                            unsigned maxDepth = 12);

    /// Closest triangle to p over the whole mesh.
    ClosestTriangleResult closestTriangle(const Vec3& p) const;

    /// Unsigned distance d(p, S) = min over triangles (paper Eq. 10).
    real_t distance(const Vec3& p) const;

    std::size_t numNodes() const { return nodes_.size(); }
    const AABB& rootBox() const { return nodes_[0].box; }

private:
    struct Node {
        AABB box;
        std::int32_t firstChild = -1; ///< index of 8 consecutive children, -1 for leaf
        std::uint32_t trianglesBegin = 0, trianglesEnd = 0; ///< into triangleIds_ (leaves)
    };

    void build(std::int32_t nodeIdx, std::vector<std::size_t> tris, unsigned depth,
               std::size_t maxLeaf, unsigned maxDepth);
    void search(std::int32_t nodeIdx, const Vec3& p, ClosestTriangleResult& best) const;

    const TriangleMesh& mesh_;
    std::vector<Node> nodes_;
    std::vector<std::size_t> triangleIds_;
};

} // namespace walb::geometry
