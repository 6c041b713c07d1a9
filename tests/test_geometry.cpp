/// Geometry pipeline tests: point-triangle distance, octree queries,
/// pseudonormal-signed distances vs. analytic ground truth, mesh IO
/// round-trips, voxelization, and the paper's block-classification
/// early-outs.

#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "core/Random.h"
#include "geometry/MarchingTetrahedra.h"
#include "geometry/MeshIO.h"
#include "geometry/Primitives.h"
#include "geometry/SignedDistance.h"
#include "geometry/Voxelizer.h"

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
    EXPECT_EQ(countFluidCells(sphere, mapping, 30, 30, 30), flags.count(fluid));
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
