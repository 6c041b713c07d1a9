#pragma once
/// \file SignedDistance.h
/// Signed distance functions phi(p, Gamma) = z * d(p, Gamma) (paper Eq. 9;
/// convention: phi < 0 inside the flow domain). Two families:
///
///  * MeshDistance — the paper's pipeline: closest triangle via octree,
///    distance via Jones' point-triangle method, sign via the
///    angle-weighted pseudonormal of the closest feature.
///  * Implicit primitives (sphere, box, capsule) and their union — exact
///    analytic SDFs used as ground truth in tests and as the robust
///    voxelization source for the synthetic coronary tree.

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <vector>

#include "core/AABB.h"
#include "core/Debug.h"
#include "geometry/TriangleOctree.h"

namespace walb::geometry {

/// Interface of all signed distance functions. Negative inside the fluid
/// domain, positive outside.
///
/// Contract: phi is 1-Lipschitz, |phi(p) - phi(q)| <= |p - q| up to
/// rounding. An exact SDF has it, and so do the union's min (a lower bound
/// inside overlaps), the complement, and MeshDistance on a closed,
/// consistently oriented mesh. Everything that decides a whole region from
/// one evaluation relies on it: if |phi(c)| > R, every point within R of c
/// has the sign of phi(c). The voxelizer's sphere test and classifyBlock
/// (Voxelizer.h) and isosurface extraction (MarchingTetrahedra.h) do so.
///
/// Set-up before launch (block classification, workload counts, isosurface
/// sampling) calls signedDistance from every thread of the caller's OpenMP
/// team, so it must be safe to call concurrently.
class DistanceFunction {
public:
    virtual ~DistanceFunction() = default;
    virtual real_t signedDistance(const Vec3& p) const = 0;
    bool inside(const Vec3& p) const { return signedDistance(p) < real_c(0); }
};

/// Signed distance to a triangle surface mesh (the flow domain is the
/// mesh interior).
class MeshDistance final : public DistanceFunction {
public:
    /// The mesh must outlive this object. Its normals are computed on
    /// demand, by the first signedDistance() call if the mesh has none: a
    /// user of closestTriangle() alone (color assignment) never needs them.
    explicit MeshDistance(TriangleMesh& mesh, std::size_t maxTrianglesPerLeaf = 16)
        : mesh_(mesh), octree_(std::make_unique<TriangleOctree>(mesh, maxTrianglesPerLeaf)) {}

    real_t signedDistance(const Vec3& p) const override {
        std::call_once(normals_, [this] {
            if (!mesh_.normalsComputed()) mesh_.computeNormals();
        });
        const ClosestTriangleResult r = octree_->closestTriangle(p);
        return std::copysign(std::sqrt(r.sqrDistance), pseudonormal(r).dot(p - r.point));
    }

    const TriangleOctree& octree() const { return *octree_; }
    const TriangleMesh& mesh() const { return mesh_; }

    /// Closest triangle (for color -> boundary condition assignment).
    ClosestTriangleResult closestTriangle(const Vec3& p) const {
        return octree_->closestTriangle(p);
    }

private:
    Vec3 pseudonormal(const ClosestTriangleResult& r) const {
        const auto& tri = mesh_.triangle(r.triangle);
        switch (r.feature) {
            case TriFeature::Face: return mesh_.faceNormal(r.triangle);
            case TriFeature::Edge01: return mesh_.edgeNormal(r.triangle, 0);
            case TriFeature::Edge12: return mesh_.edgeNormal(r.triangle, 1);
            case TriFeature::Edge20: return mesh_.edgeNormal(r.triangle, 2);
            case TriFeature::Vert0: return mesh_.vertexNormal(tri[0]);
            case TriFeature::Vert1: return mesh_.vertexNormal(tri[1]);
            case TriFeature::Vert2: return mesh_.vertexNormal(tri[2]);
        }
        return mesh_.faceNormal(r.triangle);
    }

    TriangleMesh& mesh_;
    std::unique_ptr<TriangleOctree> octree_;
    mutable std::once_flag normals_;
};

/// Sphere of radius r around c; inside is fluid.
class SphereDistance final : public DistanceFunction {
public:
    SphereDistance(const Vec3& center, real_t radius) : center_(center), radius_(radius) {}
    real_t signedDistance(const Vec3& p) const override {
        return (p - center_).length() - radius_;
    }

private:
    Vec3 center_;
    real_t radius_;
};

/// Axis-aligned box interior as fluid domain (exact SDF).
class BoxDistance final : public DistanceFunction {
public:
    explicit BoxDistance(const AABB& box) : box_(box) {}
    real_t signedDistance(const Vec3& p) const override {
        const Vec3 c = box_.center();
        const Vec3 h = box_.sizes() * real_c(0.5);
        const Vec3 q(std::abs(p[0] - c[0]) - h[0], std::abs(p[1] - c[1]) - h[1],
                     std::abs(p[2] - c[2]) - h[2]);
        const Vec3 qPos(std::max(q[0], real_c(0)), std::max(q[1], real_c(0)),
                        std::max(q[2], real_c(0)));
        const real_t outside = qPos.length();
        const real_t insideDist = std::min(std::max({q[0], q[1], q[2]}), real_c(0));
        return outside + insideDist;
    }

private:
    AABB box_;
};

/// Capsule (cylinder with spherical caps) around segment [a, b]; exact SDF.
class CapsuleDistance final : public DistanceFunction {
public:
    CapsuleDistance(const Vec3& a, const Vec3& b, real_t radius)
        : a_(a), b_(b), radius_(radius) {}
    real_t signedDistance(const Vec3& p) const override {
        return std::sqrt(sqrDistancePointSegment(p, a_, b_)) - radius_;
    }
    const Vec3& a() const { return a_; }
    const Vec3& b() const { return b_; }
    real_t radius() const { return radius_; }

private:
    Vec3 a_, b_;
    real_t radius_;
};

/// Finite capped cylinder around segment [a, b] (flat ends); exact SDF.
class CylinderDistance final : public DistanceFunction {
public:
    CylinderDistance(const Vec3& a, const Vec3& b, real_t radius)
        : a_(a), axis_((b - a).normalized()), h_((b - a).length()), radius_(radius) {}

    real_t signedDistance(const Vec3& p) const override {
        const Vec3 pa = p - a_;
        const real_t x = pa.dot(axis_);                  // axial coordinate
        const real_t y = (pa - axis_ * x).length();      // radial distance
        const real_t dRad = y - radius_;                 // >0 outside the side
        const real_t dAx = std::max(-x, x - h_);         // >0 beyond the caps
        if (dRad <= 0 && dAx <= 0) return std::max(dRad, dAx); // inside
        const real_t rx = std::max(dRad, real_c(0));
        const real_t ax = std::max(dAx, real_c(0));
        return std::sqrt(rx * rx + ax * ax);
    }

private:
    Vec3 a_, axis_;
    real_t h_, radius_;
};

/// Union of fluid domains: phi = min over components. Exact outside the
/// union and sign-exact everywhere (value inside overlaps is a lower bound).
///
/// Components added with `bounds` (a box containing the component's entire
/// surface) go into a bounding-volume hierarchy, so a query evaluates only
/// the components near the point: O(log parts) instead of O(parts) for the
/// coronary tree, inside the vessels as well as outside. The hierarchy is
/// built once, on the first query, under std::call_once, so several threads
/// may query a fresh union concurrently; adding a part after the first
/// query is a contract violation.
class UnionDistance final : public DistanceFunction {
public:
    void add(std::unique_ptr<DistanceFunction> f) { addPart(std::move(f), AABB(), false); }
    void add(std::unique_ptr<DistanceFunction> f, const AABB& bounds) {
        addPart(std::move(f), bounds, true);
    }
    std::size_t size() const { return parts_.size(); }

    real_t signedDistance(const Vec3& p) const override {
        std::call_once(built_, [this] { build(); });
        real_t d = real_c(1e300);
        for (const std::uint32_t i : unbounded_) d = std::min(d, parts_[i]->signedDistance(p));
        if (!bvh_.empty()) queryBvh(0, bvh_.front().box.sqrDistance(p), p, d);
        return d;
    }

private:
    struct BvhNode {
        AABB box;
        std::int32_t left = -1, right = -1; ///< children, or -1 for a leaf
        std::uint32_t part = 0;             ///< part index (leaves)
    };

    void addPart(std::unique_ptr<DistanceFunction> f, const AABB& bounds, bool hasBounds) {
        WALB_ASSERT(!frozen_, "UnionDistance::add after the first query");
        parts_.push_back(std::move(f));
        bounds_.push_back(bounds);
        hasBounds_.push_back(hasBounds);
    }

    void build() const {
        frozen_ = true;
        std::vector<std::uint32_t> ids;
        for (std::uint32_t i = 0; i < parts_.size(); ++i)
            (hasBounds_[i] ? ids : unbounded_).push_back(i);
        if (ids.empty()) return;
        bvh_.reserve(2 * ids.size());
        buildNode(ids, 0, ids.size());
    }

    /// Builds the subtree over ids[lo, hi); returns its node index.
    std::int32_t buildNode(std::vector<std::uint32_t>& ids, std::size_t lo,
                           std::size_t hi) const {
        const auto nodeIdx = std::int32_t(bvh_.size());
        bvh_.emplace_back();
        AABB box = bounds_[ids[lo]];
        for (std::size_t i = lo + 1; i < hi; ++i) box = box.merged(bounds_[ids[i]]);
        bvh_[std::size_t(nodeIdx)].box = box;
        if (hi - lo == 1) {
            bvh_[std::size_t(nodeIdx)].part = ids[lo];
            return nodeIdx;
        }
        // Median split along the widest axis of the centroid spread.
        const Vec3 sz = box.sizes();
        const std::size_t axis =
            (sz[0] >= sz[1] && sz[0] >= sz[2]) ? 0 : (sz[1] >= sz[2] ? 1 : 2);
        const std::size_t mid = lo + (hi - lo) / 2;
        std::nth_element(ids.begin() + std::ptrdiff_t(lo), ids.begin() + std::ptrdiff_t(mid),
                         ids.begin() + std::ptrdiff_t(hi),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return bounds_[a].center()[axis] < bounds_[b].center()[axis];
                         });
        const std::int32_t left = buildNode(ids, lo, mid);
        const std::int32_t right = buildNode(ids, mid, hi);
        bvh_[std::size_t(nodeIdx)].left = left;
        bvh_[std::size_t(nodeIdx)].right = right;
        return nodeIdx;
    }

    /// `s` is the squared distance from p to the node's box.
    void queryBvh(std::int32_t node, real_t s, const Vec3& p, real_t& d) const {
        // Outside the union (d >= 0) a component's SDF is bounded below by
        // the distance to its box. Inside (d < 0) only a box containing p
        // can lower d: outside its box a component's SDF is > 0 > d.
        if (d >= 0 ? s >= d * d : s > 0) return;
        const BvhNode& n = bvh_[std::size_t(node)];
        if (n.left < 0) {
            d = std::min(d, parts_[n.part]->signedDistance(p));
            return;
        }
        const real_t sl = bvh_[std::size_t(n.left)].box.sqrDistance(p);
        const real_t sr = bvh_[std::size_t(n.right)].box.sqrDistance(p);
        if (sl <= sr) {
            queryBvh(n.left, sl, p, d);
            queryBvh(n.right, sr, p, d);
        } else {
            queryBvh(n.right, sr, p, d);
            queryBvh(n.left, sl, p, d);
        }
    }

    std::vector<std::unique_ptr<DistanceFunction>> parts_;
    std::vector<AABB> bounds_;
    std::vector<char> hasBounds_;
    mutable std::once_flag built_;
    mutable bool frozen_ = false;
    mutable std::vector<std::uint32_t> unbounded_; ///< parts without bounds, in add order
    mutable std::vector<BvhNode> bvh_;
};

/// Complement: fluid outside the wrapped body (e.g. flow around an
/// obstacle).
class ComplementDistance final : public DistanceFunction {
public:
    explicit ComplementDistance(std::unique_ptr<DistanceFunction> f) : f_(std::move(f)) {}
    real_t signedDistance(const Vec3& p) const override { return -f_->signedDistance(p); }

private:
    std::unique_ptr<DistanceFunction> f_;
};

} // namespace walb::geometry
