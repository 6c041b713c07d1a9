/// Additional cross-module integration tests: distributed runs on a
/// *refined* block forest (octree-level BlockIDs through the whole comm
/// stack), watertightness of the extracted coronary surface, large
/// collective payloads, and forest construction combining refinement with
/// geometry exclusion.

#include <gtest/gtest.h>

#include "geometry/CoronaryTree.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace walb {
namespace {

using lbm::TRT;

TEST(RefinedForest, DistributedCavityMatchesSingleBlock) {
    // One root block refined one level -> 8 level-1 blocks of 8^3 cells:
    // the ghost exchange then runs on octree-path BlockIDs (nonzero level),
    // exercising id serialization through PdfCommScheme.
    constexpr cell_idx_t N = 16;
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, N, N, N);
    cfg.rootBlocksX = cfg.rootBlocksY = cfg.rootBlocksZ = 1;
    cfg.refinementLevel = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = N / 2;
    auto setup = bf::SetupBlockForest::create(cfg);
    ASSERT_EQ(setup.numBlocks(), 8u);
    for (const auto& b : setup.blocks()) EXPECT_EQ(b.id.level(), 1u);
    setup.balanceMorton(4);

    auto flagInit = [](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                       const bf::BlockForest::Block&, const geometry::CellMapping& mapping) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 p = mapping.cellCenter(x, y, z);
            if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[0] > N || p[1] > N || p[2] > N)
                return;
            const Cell g{cell_idx_t(p[0]), cell_idx_t(p[1]), cell_idx_t(p[2])};
            if (g.y == N - 1) flags.addFlag(x, y, z, masks.ubb);
            else if (g.x == 0 || g.x == N - 1 || g.y == 0 || g.z == 0 || g.z == N - 1)
                flags.addFlag(x, y, z, masks.noSlip);
            else flags.addFlag(x, y, z, masks.fluid);
        });
    };

    // Reference: the same cavity as one unrefined block on one rank.
    bf::SetupConfig single = cfg;
    single.refinementLevel = 0;
    single.cellsPerBlockX = single.cellsPerBlockY = single.cellsPerBlockZ = N;
    vmpi::SerialComm serial;
    sim::DistributedSimulation reference(serial, bf::SetupBlockForest::create(single), flagInit,
                                         KernelTier::Simd);
    reference.setWallVelocity({0.04, 0, 0});
    reference.run(25, TRT::fromOmegaAndMagic(1.4));
    const Vec3 expected = reference.gatherCellVelocity({N / 2, N / 2, N / 2});

    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.04, 0, 0});
        simulation.run(25, TRT::fromOmegaAndMagic(1.4));
        const Vec3 u = simulation.gatherCellVelocity({N / 2, N / 2, N / 2});
        EXPECT_NEAR(u[0], expected[0], 1e-13);
        EXPECT_NEAR(u[1], expected[1], 1e-13);
        EXPECT_NEAR(u[2], expected[2], 1e-13);
    });
}

TEST(RefinedForest, ExclusionComposesWithRefinement) {
    geometry::SphereDistance sphere({4, 4, 4}, 2.5);
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 8, 8, 8);
    cfg.rootBlocksX = cfg.rootBlocksY = cfg.rootBlocksZ = 2;
    cfg.refinementLevel = 1; // effective 4x4x4 grid of level-1 blocks
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    const auto forest = bf::SetupBlockForest::create(cfg, &sphere);
    EXPECT_LT(forest.numBlocks(), 64u);
    EXPECT_GT(forest.numBlocks(), 8u);
    for (const auto& b : forest.blocks()) {
        EXPECT_EQ(b.id.level(), 1u);
        // Every kept block intersects the sphere volume.
        EXPECT_LT(sphere.signedDistance(b.aabb.center()),
                  b.aabb.circumsphereRadius() + 1e-12);
    }
}

TEST(CoronarySurface, ExtractedMeshIsWatertight) {
    geometry::CoronaryTreeParams params;
    params.seed = 5;
    params.bounds = AABB(0, 0, 0, 1, 1, 1);
    params.rootRadius = 0.06;
    params.minRadius = 0.02;
    params.maxDepth = 5;
    const auto tree = geometry::CoronaryTree::generate(params);
    const auto mesh = tree.surfaceMesh(72);
    ASSERT_GT(mesh.numTriangles(), 500u);

    std::map<std::pair<std::uint32_t, std::uint32_t>, int> edgeUse;
    for (std::size_t t = 0; t < mesh.numTriangles(); ++t) {
        const auto& tri = mesh.triangle(t);
        for (unsigned e = 0; e < 3; ++e) {
            auto a = tri[e], b = tri[(e + 1) % 3];
            if (a > b) std::swap(a, b);
            ++edgeUse[{a, b}];
        }
    }
    std::size_t open = 0;
    for (const auto& [edge, count] : edgeUse)
        if (count != 2) ++open;
    EXPECT_EQ(open, 0u) << "extracted coronary surface has " << open << " open edges";
}

TEST(Vmpi, LargeBroadcastAndGather) {
    // Megabyte-scale payloads through the collectives (the mesh broadcast
    // of §2.3 ships whole surface meshes this way).
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        std::vector<double> payload;
        if (comm.rank() == 2) {
            payload.resize(200000);
            for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = double(i) * 0.5;
        }
        vmpi::broadcastObject(comm, payload, 2);
        ASSERT_EQ(payload.size(), 200000u);
        EXPECT_DOUBLE_EQ(payload[123456], 123456 * 0.5);

        // Gather a rank-dependent chunk back onto rank 0.
        SendBuffer sb;
        sb << std::vector<std::uint32_t>(std::size_t(10000 * (comm.rank() + 1)),
                                         std::uint32_t(comm.rank()));
        const auto all = comm.gatherv(std::span<const std::uint8_t>(sb.data(), sb.size()), 0);
        if (comm.rank() == 0) {
            ASSERT_EQ(all.size(), 4u);
            for (int r = 0; r < 4; ++r) {
                RecvBuffer rb(all[std::size_t(r)]);
                std::vector<std::uint32_t> v;
                rb >> v;
                EXPECT_EQ(v.size(), std::size_t(10000 * (r + 1)));
                EXPECT_EQ(v.back(), std::uint32_t(r));
            }
        }
    });
}

TEST(BlockIDHash, FewCollisionsOnDenseIdSets) {
    bf::BlockIDHash hash;
    std::set<std::size_t> hashes;
    std::size_t total = 0;
    for (std::uint32_t root = 0; root < 64; ++root) {
        bf::BlockID id = bf::BlockID::root(root);
        hashes.insert(hash(id));
        ++total;
        for (unsigned c = 0; c < 8; ++c) {
            hashes.insert(hash(id.child(c)));
            ++total;
            for (unsigned c2 = 0; c2 < 8; ++c2) {
                hashes.insert(hash(id.child(c).child(c2)));
                ++total;
            }
        }
    }
    // Not a cryptographic requirement — just "few enough collisions that
    // hash maps stay O(1)".
    EXPECT_GT(hashes.size(), total * 95 / 100);
}

} // namespace
} // namespace walb
