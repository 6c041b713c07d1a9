/// Geometry pipeline tests: point-triangle distance, octree queries,
/// pseudonormal-signed distances vs. analytic ground truth, mesh IO
/// round-trips, voxelization, and the paper's block-classification
/// early-outs, the union's bounding-volume pruning and the surface-
/// proportional isosurface extraction on the coronary tree.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

#include "core/Random.h"
#include "geometry/CoronaryTree.h"
#include "geometry/MarchingTetrahedra.h"
#include "geometry/MeshIO.h"
#include "geometry/Primitives.h"
#include "geometry/SignedDistance.h"
#include "geometry/Voxelizer.h"
#include "support/Oracles.h"

namespace walb::geometry {
namespace {

// ---- point-triangle distance ----------------------------------------------

class PointTriangle : public ::testing::Test {
protected:
    const Vec3 a{0, 0, 0}, b{2, 0, 0}, c{0, 2, 0};
};

TEST_F(PointTriangle, FaceRegion) {
    const auto r = closestPointOnTriangle({0.5, 0.5, 3.0}, a, b, c);
    EXPECT_EQ(r.feature, TriFeature::Face);
    EXPECT_DOUBLE_EQ(r.sqrDistance, 9.0);
    EXPECT_EQ(r.point, Vec3(0.5, 0.5, 0.0));
}

TEST_F(PointTriangle, VertexRegions) {
    EXPECT_EQ(closestPointOnTriangle({-1, -1, 0}, a, b, c).feature, TriFeature::Vert0);
    EXPECT_EQ(closestPointOnTriangle({4, -1, 0}, a, b, c).feature, TriFeature::Vert1);
    EXPECT_EQ(closestPointOnTriangle({-1, 4, 0}, a, b, c).feature, TriFeature::Vert2);
    const auto r = closestPointOnTriangle({3, -1, 2}, a, b, c);
    EXPECT_DOUBLE_EQ(r.sqrDistance, 1.0 + 1.0 + 4.0);
}

TEST_F(PointTriangle, EdgeRegions) {
    EXPECT_EQ(closestPointOnTriangle({1, -1, 0}, a, b, c).feature, TriFeature::Edge01);
    EXPECT_EQ(closestPointOnTriangle({-1, 1, 0}, a, b, c).feature, TriFeature::Edge20);
    EXPECT_EQ(closestPointOnTriangle({2, 2, 0}, a, b, c).feature, TriFeature::Edge12);
    const auto r = closestPointOnTriangle({1, -2, 0}, a, b, c);
    EXPECT_EQ(r.point, Vec3(1, 0, 0));
    EXPECT_DOUBLE_EQ(r.sqrDistance, 4.0);
}

TEST_F(PointTriangle, PointOnTriangleHasZeroDistance) {
    const auto r = closestPointOnTriangle({0.5, 0.5, 0}, a, b, c);
    EXPECT_DOUBLE_EQ(r.sqrDistance, 0.0);
}

TEST(PointSegment, Distance) {
    EXPECT_DOUBLE_EQ(sqrDistancePointSegment({0, 1, 0}, {0, 0, 0}, {2, 0, 0}), 1.0);
    EXPECT_DOUBLE_EQ(sqrDistancePointSegment({-1, 0, 0}, {0, 0, 0}, {2, 0, 0}), 1.0);
    EXPECT_DOUBLE_EQ(sqrDistancePointSegment({3, 0, 0}, {0, 0, 0}, {2, 0, 0}), 1.0);
    EXPECT_DOUBLE_EQ(sqrDistancePointSegment({1, 0, 0}, {1, 1, 1}, {1, 1, 1}), 2.0);
}

// ---- mesh + normals ---------------------------------------------------------

TEST(TriangleMesh, SphereAreaApproachesAnalytic) {
    const TriangleMesh mesh = makeSphereMesh({0, 0, 0}, 1.0, 48, 24);
    const real_t analytic = 4 * 3.14159265358979 * 1.0;
    EXPECT_NEAR(mesh.surfaceArea(), analytic, 0.02 * analytic);
}

TEST(TriangleMesh, SphereNormalsPointOutward) {
    TriangleMesh mesh = makeSphereMesh({1, 2, 3}, 0.5, 16, 8);
    mesh.computeNormals();
    for (std::size_t t = 0; t < mesh.numTriangles(); ++t) {
        Vec3 centroid = (mesh.triangleVertex(t, 0) + mesh.triangleVertex(t, 1) +
                         mesh.triangleVertex(t, 2)) / real_c(3);
        EXPECT_GT(mesh.faceNormal(t).dot(centroid - Vec3(1, 2, 3)), 0.0);
    }
    for (std::size_t v = 0; v < mesh.numVertices(); ++v)
        EXPECT_GT(mesh.vertexNormal(v).dot(mesh.vertex(v) - Vec3(1, 2, 3)), 0.0);
}

TEST(TriangleMesh, BoxIsClosedAndOriented) {
    TriangleMesh mesh = makeBoxMesh(AABB(0, 0, 0, 1, 2, 3));
    EXPECT_EQ(mesh.numTriangles(), 12u);
    EXPECT_NEAR(mesh.surfaceArea(), 2 * (1 * 2 + 2 * 3 + 1 * 3), 1e-12);
    mesh.computeNormals();
    const Vec3 center(0.5, 1.0, 1.5);
    for (std::size_t t = 0; t < mesh.numTriangles(); ++t) {
        const Vec3 centroid = (mesh.triangleVertex(t, 0) + mesh.triangleVertex(t, 1) +
                               mesh.triangleVertex(t, 2)) / real_c(3);
        EXPECT_GT(mesh.faceNormal(t).dot(centroid - center), 0.0) << "triangle " << t;
    }
}

// ---- octree -----------------------------------------------------------------

TEST(TriangleOctree, FindsClosestTriangleExactly) {
    TriangleMesh mesh = makeSphereMesh({0, 0, 0}, 2.0, 32, 16);
    TriangleOctree octree(mesh);
    Random rng(3);
    for (int i = 0; i < 200; ++i) {
        const Vec3 p(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-4, 4));
        const auto fast = octree.closestTriangle(p);
        // Brute force reference.
        real_t best = 1e300;
        for (std::size_t t = 0; t < mesh.numTriangles(); ++t)
            best = std::min(best, closestPointOnTriangle(p, mesh.triangleVertex(t, 0),
                                                         mesh.triangleVertex(t, 1),
                                                         mesh.triangleVertex(t, 2))
                                      .sqrDistance);
        EXPECT_NEAR(fast.sqrDistance, best, 1e-12);
    }
}

TEST(TriangleOctree, PrunesMostTriangles) {
    TriangleMesh mesh = makeSphereMesh({0, 0, 0}, 2.0, 64, 32); // ~4k triangles
    TriangleOctree octree(mesh);
    const auto r = octree.closestTriangle({2.5, 0.1, -0.3});
    // The paper's whole point of the octree (Payne & Toga): only a small
    // fraction of point-triangle distances is evaluated.
    EXPECT_GT(r.evaluations, 0u);
    EXPECT_LT(r.evaluations, mesh.numTriangles() / 10);
}

// ---- signed distance --------------------------------------------------------

TEST(MeshDistance, SphereMatchesAnalytic) {
    TriangleMesh mesh = makeSphereMesh({0, 0, 0}, 1.5, 48, 24);
    MeshDistance dist(mesh);
    SphereDistance analytic({0, 0, 0}, 1.5);
    Random rng(7);
    for (int i = 0; i < 300; ++i) {
        const Vec3 p(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3));
        const real_t dm = dist.signedDistance(p);
        const real_t da = analytic.signedDistance(p);
        // Tolerance ~ faceting sag of the 48x24 tessellation.
        EXPECT_NEAR(dm, da, 0.01) << "at " << p;
        if (std::abs(da) > 0.02) { EXPECT_EQ(dm < 0, da < 0) << "sign flip at " << p; }
    }
}

TEST(MeshDistance, BoxSignIsRobustOnEdgesAndCorners) {
    TriangleMesh mesh = makeBoxMesh(AABB(0, 0, 0, 2, 2, 2));
    MeshDistance dist(mesh);
    // Probes aligned with edges/corners exercise the pseudonormal paths;
    // plain face normals would misclassify many of these.
    EXPECT_LT(dist.signedDistance({1, 1, 1}), 0);
    EXPECT_LT(dist.signedDistance({0.1, 0.1, 0.1}), 0);
    EXPECT_LT(dist.signedDistance({1.9, 1.9, 1.9}), 0);
    EXPECT_GT(dist.signedDistance({-0.1, -0.1, -0.1}), 0);
    EXPECT_GT(dist.signedDistance({2.1, 2.1, 2.1}), 0);
    EXPECT_GT(dist.signedDistance({2.1, 1.0, 1.0}), 0);
    EXPECT_GT(dist.signedDistance({-0.05, 1.0, -0.05}), 0);
    EXPECT_NEAR(dist.signedDistance({1, 1, 1}), -1.0, 1e-12);
    EXPECT_NEAR(dist.signedDistance({3, 1, 1}), 1.0, 1e-12);
}

TEST(MeshDistance, TubeMatchesCapsuleAwayFromCaps) {
    TriangleMesh mesh =
        makeTubeMesh({0, 0, 0}, {4, 0, 0}, 0.5, 0.5, 32, true, true);
    MeshDistance dist(mesh);
    CapsuleDistance capsule({0, 0, 0}, {4, 0, 0}, 0.5);
    Random rng(11);
    for (int i = 0; i < 200; ++i) {
        // Sample around the tube body, away from the flat caps where the
        // capsule (spherical ends) and the tube (flat ends) legitimately
        // differ.
        const Vec3 p(rng.uniform(0.8, 3.2), rng.uniform(-1, 1), rng.uniform(-1, 1));
        EXPECT_NEAR(dist.signedDistance(p), capsule.signedDistance(p), 0.01);
    }
}

TEST(ImplicitDistances, UnionAndComplement) {
    auto u = std::make_unique<UnionDistance>();
    u->add(std::make_unique<SphereDistance>(Vec3(0, 0, 0), 1.0));
    u->add(std::make_unique<SphereDistance>(Vec3(3, 0, 0), 1.0));
    EXPECT_LT(u->signedDistance({0, 0, 0}), 0);
    EXPECT_LT(u->signedDistance({3, 0, 0}), 0);
    EXPECT_GT(u->signedDistance({1.5, 0, 0}), 0);
    EXPECT_DOUBLE_EQ(u->signedDistance({5, 0, 0}), 1.0);

    ComplementDistance comp(std::move(u));
    EXPECT_GT(comp.signedDistance({0, 0, 0}), 0);
    EXPECT_LT(comp.signedDistance({1.5, 0, 0}), 0);
}

TEST(ImplicitDistances, BoxSDF) {
    BoxDistance box(AABB(0, 0, 0, 2, 4, 6));
    EXPECT_DOUBLE_EQ(box.signedDistance({1, 2, 3}), -1.0);
    EXPECT_DOUBLE_EQ(box.signedDistance({-1, 2, 3}), 1.0);
    EXPECT_NEAR(box.signedDistance({-3, -4, 3}), 5.0, 1e-12);
    EXPECT_DOUBLE_EQ(box.signedDistance({0, 2, 3}), 0.0);
}

// ---- mesh IO ----------------------------------------------------------------

TEST(MeshIO, OffRoundTripPreservesGeometryAndColors) {
    TriangleMesh mesh = makeTubeMesh({0, 0, 0}, {1, 0, 0}, 0.3, 0.3, 8, true, true,
                                     kColorWall, kColorInflow, kColorOutflow);
    const std::string path = testing::TempDir() + "/walb_mesh.off";
    ASSERT_TRUE(writeOff(path, mesh));
    TriangleMesh loaded;
    ASSERT_TRUE(readOff(path, loaded));
    ASSERT_EQ(loaded.numVertices(), mesh.numVertices());
    ASSERT_EQ(loaded.numTriangles(), mesh.numTriangles());
    for (std::size_t v = 0; v < mesh.numVertices(); ++v) {
        EXPECT_NEAR((loaded.vertex(v) - mesh.vertex(v)).length(), 0.0, 1e-12);
        EXPECT_EQ(loaded.color(v), mesh.color(v));
    }
    std::remove(path.c_str());
}

TEST(MeshIO, StlRoundTripPreservesTopology) {
    TriangleMesh mesh = makeSphereMesh({0, 0, 0}, 1.0, 12, 6);
    const std::string path = testing::TempDir() + "/walb_mesh.stl";
    ASSERT_TRUE(writeStlBinary(path, mesh));
    TriangleMesh loaded;
    ASSERT_TRUE(readStlBinary(path, loaded));
    EXPECT_EQ(loaded.numTriangles(), mesh.numTriangles());
    EXPECT_EQ(loaded.numVertices(), mesh.numVertices()); // dedup restores indexing
    EXPECT_NEAR(loaded.surfaceArea(), mesh.surfaceArea(), 1e-4);
    std::remove(path.c_str());
}

TEST(MeshIO, ReadOffRejectsGarbage) {
    const std::string path = testing::TempDir() + "/walb_garbage.off";
    std::ofstream(path) << "NOT_A_MESH 1 2 3";
    TriangleMesh mesh;
    EXPECT_FALSE(readOff(path, mesh));
    std::remove(path.c_str());
}

// ---- voxelization -----------------------------------------------------------

TEST(Voxelizer, SphereFluidCountMatchesVolume) {
    SphereDistance sphere({1, 1, 1}, 0.8);
    field::FlagField flags(40, 40, 40, 1);
    const auto fluid = flags.registerFlag("fluid");
    const CellMapping mapping{AABB(0, 0, 0, 2, 2, 2), 0.05};
    const auto stats = voxelize(sphere, flags, mapping, fluid);
    const real_t analytic = 4.0 / 3.0 * 3.14159265 * 0.8 * 0.8 * 0.8;
    const real_t voxelVolume = real_c(flags.count(fluid)) * 0.05 * 0.05 * 0.05;
    EXPECT_NEAR(voxelVolume, analytic, 0.05 * analytic);
    EXPECT_EQ(stats.fluidCells, flags.count(fluid)); // ghost cells outside sphere here
}

TEST(Voxelizer, HierarchicalPruningSkipsMostCells) {
    SphereDistance sphere({1, 1, 1}, 0.8);
    field::FlagField flags(64, 64, 64, 1);
    const auto fluid = flags.registerFlag("fluid");
    const auto stats = voxelize(sphere, flags, {AABB(0, 0, 0, 2, 2, 2), 2.0 / 64}, fluid);
    // Per-cell evaluations must be far fewer than total cells (interface-
    // proportional): 66^3 ~ 287k cells, interface ~ O(64^2).
    EXPECT_LT(stats.cellsEvaluated, 287496u / 4);
    EXPECT_GT(stats.regionsPruned, 10u);
}

TEST(Voxelizer, MatchesBruteForcePerCellTest) {
    SphereDistance sphere({0.7, 1.1, 0.9}, 0.55);
    field::FlagField fast(24, 24, 24, 1), brute(24, 24, 24, 1);
    const auto fluidF = fast.registerFlag("fluid");
    const auto fluidB = brute.registerFlag("fluid");
    const CellMapping mapping{AABB(0, 0, 0, 2, 2, 2), 2.0 / 24};
    voxelize(sphere, fast, mapping, fluidF);
    brute.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (sphere.signedDistance(mapping.cellCenter(x, y, z)) < 0)
            brute.addFlag(x, y, z, fluidB);
    });
    brute.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        EXPECT_EQ(fast.get(x, y, z) != 0, brute.get(x, y, z) != 0)
            << "cell " << x << ',' << y << ',' << z;
    });
}

TEST(Voxelizer, CountFluidCellsAgreesWithVoxelize) {
    SphereDistance sphere({1, 1, 1}, 0.6);
    field::FlagField flags(30, 30, 30, 0); // no ghost: interior only
    const auto fluid = flags.registerFlag("fluid");
    const CellMapping mapping{AABB(0, 0, 0, 2, 2, 2), 2.0 / 30};
    voxelize(sphere, flags, mapping, fluid);
    EXPECT_EQ(countFluid(sphere, mapping, 30, 30, 30, {}).cells, flags.count(fluid));
}

// ---- marching tetrahedra ----------------------------------------------------

TEST(MarchingTetrahedra, SphereSurfaceAreaAndOrientation) {
    SphereDistance sphere({0, 0, 0}, 1.0);
    TriangleMesh mesh =
        extractIsosurface(sphere, AABB(-1.5, -1.5, -1.5, 1.5, 1.5, 1.5), 40, 40, 40);
    ASSERT_GT(mesh.numTriangles(), 100u);
    const real_t analytic = 4 * 3.14159265358979;
    EXPECT_NEAR(mesh.surfaceArea(), analytic, 0.03 * analytic);
    // Every face normal points away from the center (outward convention).
    for (std::size_t t = 0; t < mesh.numTriangles(); ++t) {
        const Vec3 centroid = (mesh.triangleVertex(t, 0) + mesh.triangleVertex(t, 1) +
                               mesh.triangleVertex(t, 2)) / real_c(3);
        EXPECT_GT(mesh.faceNormalRaw(t).dot(centroid), 0.0);
    }
}

TEST(MarchingTetrahedra, OutputIsWatertight) {
    SphereDistance sphere({0, 0, 0}, 0.8);
    TriangleMesh mesh =
        extractIsosurface(sphere, AABB(-1.2, -1.2, -1.2, 1.2, 1.2, 1.2), 24, 24, 24);
    // Watertight <=> every edge is shared by exactly two triangles.
    std::map<std::pair<std::uint32_t, std::uint32_t>, int> edgeUse;
    for (std::size_t t = 0; t < mesh.numTriangles(); ++t) {
        const auto& tri = mesh.triangle(t);
        for (unsigned e = 0; e < 3; ++e) {
            auto a = tri[e], b = tri[(e + 1) % 3];
            if (a > b) std::swap(a, b);
            ++edgeUse[{a, b}];
        }
    }
    for (const auto& [edge, count] : edgeUse) EXPECT_EQ(count, 2);
}

TEST(MarchingTetrahedra, VerticesLieOnTheIsosurface) {
    SphereDistance sphere({0.1, -0.2, 0.3}, 0.7);
    TriangleMesh mesh =
        extractIsosurface(sphere, AABB(-1, -1, -1, 1, 1, 1), 32, 32, 32);
    const real_t h = 2.0 / 32;
    for (std::size_t v = 0; v < mesh.numVertices(); ++v)
        EXPECT_LT(std::abs(sphere.signedDistance(mesh.vertex(v))), 0.5 * h * h / 0.7 + 1e-6);
}

TEST(MarchingTetrahedra, SignedDistanceOfExtractionMatchesSource) {
    // Round trip: implicit -> mesh -> MeshDistance must agree with the
    // implicit SDF up to the grid resolution.
    CapsuleDistance capsule({-0.5, 0, 0}, {0.5, 0, 0}, 0.4);
    TriangleMesh mesh =
        extractIsosurface(capsule, AABB(-1.2, -1, -1, 1.2, 1, 1), 48, 40, 40);
    MeshDistance meshDist(mesh);
    Random rng(21);
    for (int i = 0; i < 200; ++i) {
        const Vec3 p(rng.uniform(-1.1, 1.1), rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9));
        EXPECT_NEAR(meshDist.signedDistance(p), capsule.signedDistance(p), 0.05);
    }
}

// ---- union distance and extraction on the coronary tree ---------------------

/// The fig7 coronary tree (403 segments), as the vascular benchmarks build it.
CoronaryTree fig7Tree() {
    CoronaryTreeParams params;
    params.seed = 2013;
    params.bounds = AABB(0, 0, 0, 1, 1, 1);
    params.rootRadius = 0.04;
    params.minRadius = 0.006;
    params.maxDepth = 11;
    return CoronaryTree::generate(params);
}

/// Forwards to a distance function and counts the evaluations. Set-up
/// code evaluates a distance function from every thread of the caller's
/// team, so the count is atomic.
class CountingDistance final : public DistanceFunction {
public:
    CountingDistance(const DistanceFunction& f, std::uint64_t& count) : f_(f), count_(count) {}
    real_t signedDistance(const Vec3& p) const override {
        std::atomic_ref<std::uint64_t>(count_).fetch_add(1, std::memory_order_relaxed);
        return f_.signedDistance(p);
    }

private:
    const DistanceFunction& f_;
    std::uint64_t& count_;
};

/// phi * 2^-40. The scaling is exact in floating point, and it makes every
/// value far smaller than any region's sphere, so extraction of the scaled
/// function never decides a region's sign at once: it samples every grid
/// point, which makes it the full-sampling reference.
class ScaledDistance final : public DistanceFunction {
public:
    explicit ScaledDistance(const DistanceFunction& f) : f_(f) {}
    real_t signedDistance(const Vec3& p) const override {
        return f_.signedDistance(p) * std::ldexp(real_c(1), -40);
    }

private:
    const DistanceFunction& f_;
};

/// The tree's tubes with their union bounds, built as implicitDistance does.
struct TreeParts {
    std::vector<std::unique_ptr<DistanceFunction>> parts;
    std::vector<AABB> bounds;
};

TreeParts treeParts(const CoronaryTree& tree) {
    TreeParts t;
    for (const CoronarySegment& s : tree.segments()) {
        const auto [a, b] = tubeEndpoints(s);
        AABB box(a, a);
        box.merge(b);
        t.parts.push_back(std::make_unique<CylinderDistance>(a, b, s.radius));
        t.bounds.push_back(box.expanded(s.radius));
    }
    return t;
}

std::uint64_t bits(real_t v) { return std::bit_cast<std::uint64_t>(v); }

/// Tube midpoints (inside one vessel at least).
std::vector<Vec3> insidePoints(const CoronaryTree& tree) {
    std::vector<Vec3> points;
    for (const CoronarySegment& s : tree.segments()) {
        const auto [a, b] = tubeEndpoints(s);
        points.push_back((a + b) * real_c(0.5));
    }
    return points;
}

/// Start points of the child segments: inside the parent's tube and the
/// child's backward-extended one.
std::vector<Vec3> jointPoints(const CoronaryTree& tree) {
    std::vector<Vec3> points;
    for (const CoronarySegment& s : tree.segments())
        if (s.parent >= 0) points.push_back(s.a);
    return points;
}

std::vector<Vec3> randomPoints(std::size_t n, std::uint64_t seed) {
    Random rng(seed);
    std::vector<Vec3> points;
    for (std::size_t i = 0; i < n; ++i)
        points.emplace_back(rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1),
                            rng.uniform(-0.1, 1.1));
    return points;
}

TEST(UnionDistance, MatchesBruteForceMinBitwise) {
    const CoronaryTree tree = fig7Tree();
    const TreeParts t = treeParts(tree);
    // One unbounded component mixed in among the bounded tubes.
    const SphereDistance blob(Vec3(0.5, 0.5, 0.5), 0.15);
    std::uint64_t count = 0;
    UnionDistance u, withBlob;
    for (std::size_t i = 0; i < t.parts.size(); ++i) {
        u.add(std::make_unique<CountingDistance>(*t.parts[i], count), t.bounds[i]);
        withBlob.add(std::make_unique<CountingDistance>(*t.parts[i], count), t.bounds[i]);
        if (i == t.parts.size() / 2)
            withBlob.add(std::make_unique<CountingDistance>(blob, count));
    }
    const auto implicit = tree.implicitDistance();

    const std::vector<Vec3> inside = insidePoints(tree), joints = jointPoints(tree),
                            random = randomPoints(2000, 5);
    std::size_t numInside = 0, numOverlap = 0, numOutside = 0, numInBlob = 0;
    for (const auto* set : {&inside, &joints, &random})
        for (const Vec3& p : *set) {
            real_t brute = real_c(1e300);
            int covering = 0;
            for (const auto& part : t.parts) {
                const real_t d = part->signedDistance(p);
                brute = std::min(brute, d);
                covering += d < 0;
            }
            numInside += covering > 0;
            numOverlap += covering > 1;
            numOutside += covering == 0;
            EXPECT_EQ(bits(u.signedDistance(p)), bits(brute)) << p;
            EXPECT_EQ(bits(implicit->signedDistance(p)), bits(brute)) << p;
            const real_t b = blob.signedDistance(p);
            numInBlob += b < 0;
            EXPECT_EQ(bits(withBlob.signedDistance(p)), bits(std::min(brute, b))) << p;
        }
    // The sample covers every case the pruning distinguishes.
    EXPECT_GE(numInside, inside.size());
    EXPECT_GE(numOverlap, joints.size());
    EXPECT_GT(numOutside, 1000u);
    EXPECT_GT(numInBlob, 10u);
}

TEST(UnionDistance, InsideQueryEvaluatesFewComponents) {
    const CoronaryTree tree = fig7Tree();
    const TreeParts t = treeParts(tree);
    ASSERT_EQ(t.parts.size(), 403u);
    std::uint64_t count = 0;
    UnionDistance u;
    for (std::size_t i = 0; i < t.parts.size(); ++i)
        u.add(std::make_unique<CountingDistance>(*t.parts[i], count), t.bounds[i]);
    std::vector<Vec3> points = insidePoints(tree);
    const std::vector<Vec3> joints = jointPoints(tree);
    points.insert(points.end(), joints.begin(), joints.end());
    for (const Vec3& p : points) {
        count = 0;
        ASSERT_LT(u.signedDistance(p), 0) << p;
        EXPECT_LE(count, 32u) << p;
    }
}

TEST(UnionDistance, ConcurrentFirstQueriesMatchSerial) {
    const CoronaryTree tree = fig7Tree();
    std::vector<Vec3> points = randomPoints(500, 9);
    const std::vector<Vec3> inside = insidePoints(tree);
    points.insert(points.end(), inside.begin(), inside.end());
    const auto serial = tree.implicitDistance();
    std::vector<real_t> expected;
    for (const Vec3& p : points) expected.push_back(serial->signedDistance(p));

    // Four threads make the first queries of a fresh union at once.
    const auto fresh = tree.implicitDistance();
    constexpr int kThreads = 4;
    std::atomic<int> ready{0};
    std::vector<std::vector<real_t>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) std::this_thread::yield();
            for (const Vec3& p : points) got[std::size_t(t)].push_back(fresh->signedDistance(p));
        });
    for (auto& th : threads) th.join();
    for (const auto& values : got) {
        ASSERT_EQ(values.size(), expected.size());
        for (std::size_t i = 0; i < values.size(); ++i)
            EXPECT_EQ(bits(values[i]), bits(expected[i])) << points[i];
    }
}

TEST(UnionDistanceDeathTest, AddAfterFirstQueryIsRejected) {
    UnionDistance u;
    u.add(std::make_unique<SphereDistance>(Vec3(0, 0, 0), 1.0), AABB(-1, -1, -1, 1, 1, 1));
    EXPECT_LT(u.signedDistance({0, 0, 0}), 0);
    EXPECT_DEATH(u.add(std::make_unique<SphereDistance>(Vec3(3, 0, 0), 1.0)),
                 "after the first query");
}

/// Extraction of phi is byte-identical to the full-sampling reference
/// (phi * 2^-40), which does evaluate every grid point.
void expectMatchesFullSampling(const DistanceFunction& phi, const AABB& box, unsigned nx,
                               unsigned ny, unsigned nz) {
    const TriangleMesh mesh = extractIsosurface(phi, box, nx, ny, nz);
    std::uint64_t refEvals = 0;
    const ScaledDistance scaled(phi);
    const CountingDistance counted(scaled, refEvals);
    const TriangleMesh ref = extractIsosurface(counted, box, nx, ny, nz);
    EXPECT_GE(refEvals, std::uint64_t(nx + 1) * (ny + 1) * (nz + 1));
    ASSERT_GT(ref.numTriangles(), 0u);
    ASSERT_EQ(mesh.numVertices(), ref.numVertices());
    ASSERT_EQ(mesh.numTriangles(), ref.numTriangles());
    EXPECT_EQ(std::memcmp(mesh.vertices().data(), ref.vertices().data(),
                          mesh.numVertices() * sizeof(Vec3)),
              0);
    EXPECT_EQ(std::memcmp(mesh.triangles().data(), ref.triangles().data(),
                          mesh.numTriangles() * sizeof(mesh.triangles()[0])),
              0);
    EXPECT_EQ(std::memcmp(mesh.colors().data(), ref.colors().data(),
                          mesh.numVertices() * sizeof(mesh.colors()[0])),
              0);
}

/// The sampling box and grid of CoronaryTree::surfaceMesh at resolution 48.
constexpr real_t kTreeH = real_c(1) / 48;
const AABB kTreeSampleBox = AABB(0, 0, 0, 1, 1, 1).expanded(2 * kTreeH);
constexpr unsigned kTreeCells = 52;

TEST(MarchingTetrahedra, PrunedSamplingMatchesFullSamplingBitwise) {
    expectMatchesFullSampling(SphereDistance({0.1, -0.2, 0.3}, 0.7),
                              AABB(-1, -1, -1, 1, 1, 1), 32, 32, 32);
    expectMatchesFullSampling(CapsuleDistance({-0.5, 0, 0}, {0.5, 0, 0}, 0.4),
                              AABB(-1.2, -1, -1, 1.2, 1, 1), 48, 40, 40);
    const auto tree = fig7Tree().implicitDistance();
    expectMatchesFullSampling(*tree, kTreeSampleBox, kTreeCells, kTreeCells, kTreeCells);
}

TEST(MarchingTetrahedra, TreeExtractionEvaluatesFewGridPoints) {
    std::uint64_t evals = 0;
    const auto tree = fig7Tree().implicitDistance();
    const CountingDistance counted(*tree, evals);
    const TriangleMesh mesh =
        extractIsosurface(counted, kTreeSampleBox, kTreeCells, kTreeCells, kTreeCells);
    ASSERT_GT(mesh.numTriangles(), 1000u);
    const std::uint64_t gridPoints = std::uint64_t(kTreeCells + 1) * (kTreeCells + 1) *
                                     (kTreeCells + 1);
    EXPECT_LT(evals, gridPoints / 4);
}

TEST(BlockClassification, EarlyOutsAreConservativeAndCorrect) {
    SphereDistance sphere({0, 0, 0}, 1.0);
    // Far outside block.
    EXPECT_EQ(classifyBlock(sphere, AABB(5, 5, 5, 6, 6, 6)), BlockCoverage::Outside);
    // Tiny block at the center: entirely inside.
    EXPECT_EQ(classifyBlock(sphere, AABB(-0.1, -0.1, -0.1, 0.1, 0.1, 0.1)),
              BlockCoverage::Inside);
    // Block straddling the surface.
    EXPECT_EQ(classifyBlock(sphere, AABB(0.8, -0.2, -0.2, 1.2, 0.2, 0.2)),
              BlockCoverage::Mixed);
}

} // namespace
} // namespace walb::geometry
