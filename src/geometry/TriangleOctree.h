#pragma once
/// \file TriangleOctree.h
/// Hierarchical subdivision of a triangle set into an octree (Payne & Toga
/// 1992, as used by the paper §2.3) so that closest-triangle queries
/// evaluate only a small fraction of point-triangle distances. Queries use
/// best-first traversal with box-distance pruning.
///
/// The build runs on the caller's OpenMP team: the subtrees below the top
/// two levels are built independently and spliced in depth-first order, so
/// the node array and the leaf triangle order are the same at any team
/// size (and with them every query result, ties included).

#include <array>
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
    /// and maxDepth bound the subdivision. Call it outside a parallel
    /// region; it opens one on the caller's team.
    explicit TriangleOctree(const TriangleMesh& mesh, std::size_t maxTrianglesPerLeaf = 16,
                            unsigned maxDepth = 12);

    /// Closest triangle to p over the whole mesh.
    ClosestTriangleResult closestTriangle(const Vec3& p) const;

    /// Unsigned distance d(p, S) = min over triangles (paper Eq. 10).
    real_t distance(const Vec3& p) const;

    /// Calls f(t) for every triangle whose bounding box comes within
    /// `radius` of `box` (maximum norm), and for some farther ones: the
    /// triangles of the leaves the grown box overlaps, a triangle once per
    /// leaf. A triangle never passed is at Euclidean distance >= radius from
    /// every point of box: it sits in a leaf containing any point of its own
    /// box, since a triangle is binned into every child whose (slightly
    /// grown) octant its box overlaps.
    template <typename F>
    void forEachTriangleNear(const AABB& box, real_t radius, const F& f) const {
        const AABB grown = box.expanded(radius);
        const auto overlaps = [&](const AABB& b) {
            for (std::size_t i = 0; i < 3; ++i)
                if (b.min()[i] > grown.max()[i] || b.max()[i] < grown.min()[i]) return false;
            return true;
        };
        std::vector<std::int32_t> stack{0};
        while (!stack.empty()) {
            const Node& node = nodes_[std::size_t(stack.back())];
            stack.pop_back();
            if (!overlaps(node.box)) continue;
            if (node.firstChild >= 0) {
                for (std::int32_t c = 0; c < 8; ++c) stack.push_back(node.firstChild + c);
                continue;
            }
            for (std::uint32_t i = node.trianglesBegin; i < node.trianglesEnd; ++i)
                f(triangleIds_[i]);
        }
    }

    std::size_t numNodes() const { return nodes_.size(); }
    const AABB& rootBox() const { return nodes_[0].box; }

private:
    struct Node {
        AABB box;
        std::int32_t firstChild = -1; ///< index of 8 consecutive children, -1 for leaf
        std::uint32_t trianglesBegin = 0, trianglesEnd = 0; ///< into triangleIds_ (leaves)
    };

    using TriangleIds = std::vector<std::uint32_t>;
    /// A subtree: its top node at index 0, then the nodes below it in
    /// depth-first order (a node's 8 children are consecutive and precede
    /// their own subtrees); leaf ranges index `triangleIds`.
    struct Subtree {
        std::vector<Node> nodes;
        TriangleIds triangleIds;
    };
    struct BuildInput {
        std::vector<AABB> triangleBoxes;
        std::size_t maxLeaf;
        unsigned maxDepth;
    };

    /// The subtree of a node with box `box` over `tris` at `depth`; spawns
    /// one task per child above kTaskDepth.
    static Subtree grow(const BuildInput& in, const AABB& box, TriangleIds tris,
                        unsigned depth);
    /// Subdivides node `nodeIdx` of `out` in place, recursively.
    static void growInPlace(const BuildInput& in, Subtree& out, std::int32_t nodeIdx,
                            TriangleIds tris, unsigned depth);
    /// Bins `tris` into the octants of `box`; false if the node at `depth`
    /// stays a leaf: few triangles, the depth limit, or no octant that
    /// separates the set.
    static bool subdivide(const BuildInput& in, const AABB& box, const TriangleIds& tris,
                          unsigned depth, std::array<TriangleIds, 8>& childTris);
    static void makeLeaf(Subtree& out, std::int32_t nodeIdx, const TriangleIds& tris);
    void search(std::int32_t nodeIdx, const Vec3& p, ClosestTriangleResult& best) const;

    const TriangleMesh& mesh_;
    std::vector<Node> nodes_;
    TriangleIds triangleIds_;
};

} // namespace walb::geometry
