#pragma once
/// \file CoronaryTree.h
/// Deterministic synthetic human-coronary-artery-tree generator — the
/// stand-in for the paper's CTA patient dataset (see DESIGN.md,
/// substitution 4). A recursively bifurcating vessel tree with Murray's-law
/// radii (r_parent^3 = r_1^3 + r_2^3) and randomized branching angles.
/// Exposed in two equivalent representations:
///  * an exact implicit signed distance function (union of capsules) —
///    robust ground truth and fast voxelization source;
///  * a colored triangle surface mesh (tubes; inlet cap red = inflow,
///    leaf caps green = outflow) feeding the paper's full mesh pipeline
///    (octree, point-triangle distance, pseudonormals, vertex-color
///    boundary assignment).
/// The tree covers a fraction of a percent of its bounding box, matching
/// the sparsity the paper reports (~0.3%) that drives all the sparse-domain
/// machinery.

#include <memory>
#include <utility>
#include <vector>

#include "core/AABB.h"
#include "core/Random.h"
#include "geometry/SignedDistance.h"
#include "geometry/TriangleMesh.h"

namespace walb::geometry {

struct CoronarySegment {
    Vec3 a, b;            ///< centerline endpoints
    real_t radius;        ///< vessel radius
    std::int32_t parent;  ///< segment index, -1 for the root
    unsigned depth;       ///< bifurcation generation
    bool leaf;            ///< terminates in an outflow
};

/// Effective tube endpoints of a segment, shared by the mesh and implicit
/// representations: non-root segments extend backward into their parent so
/// joints are sealed; leaf ends extend by half a radius to give the outflow
/// cap some clearance from the last bifurcation.
std::pair<Vec3, Vec3> tubeEndpoints(const CoronarySegment& s);

struct CoronaryTreeParams {
    std::uint64_t seed = 42;
    AABB bounds{0, 0, 0, 1, 1, 1};  ///< physical bounding box of the tree
    real_t rootRadius = 0.035;      ///< radius of the inlet vessel
    real_t lengthToRadius = 7.0;    ///< segment length as multiple of radius
    real_t minRadius = 0.006;       ///< terminate branches below this radius
    unsigned maxDepth = 14;
    real_t splitMin = 0.35, splitMax = 0.65; ///< flow-fraction range at bifurcations
    real_t branchAngle = 0.65;      ///< nominal bifurcation half-angle [rad]
    real_t directionJitter = 0.25;  ///< random wobble added to directions
};

class CoronaryTree {
public:
    static CoronaryTree generate(const CoronaryTreeParams& params);

    const std::vector<CoronarySegment>& segments() const { return segments_; }
    const CoronaryTreeParams& params() const { return params_; }

    /// Exact signed distance of the vessel union (fluid inside).
    std::unique_ptr<DistanceFunction> implicitDistance() const;

    /// Watertight colored surface mesh, extracted from the implicit SDF via
    /// marching tetrahedra on a grid with `gridResolution` cells along the
    /// longest bounding-box axis (the analog of a segmented CTA surface:
    /// one closed surface, no internal walls). Inlet-cap vertices are
    /// colored kColorInflow, outlet caps kColorOutflow. No normals are
    /// computed (MeshDistance does on its first signed-distance query).
    /// Runs on the caller's OpenMP team; the mesh is the same at any team
    /// size.
    TriangleMesh surfaceMesh(unsigned gridResolution = 96) const;

    /// Analytic vessel volume (sum of cylinders; overlaps double-counted,
    /// so this slightly overestimates — used for fluid-fraction sanity).
    real_t vesselVolume() const;

    /// Fluid fraction of the bounding box, from the analytic volume.
    real_t boundingBoxFluidFraction() const {
        return vesselVolume() / params_.bounds.volume();
    }

    std::size_t numLeaves() const;

    /// Inlet description (for velocity boundary conditions).
    Vec3 inletCenter() const { return segments_.front().a; }
    Vec3 inletDirection() const {
        return (segments_.front().b - segments_.front().a).normalized();
    }
    real_t inletRadius() const { return segments_.front().radius; }

private:
    CoronaryTreeParams params_;
    std::vector<CoronarySegment> segments_;
};

} // namespace walb::geometry
