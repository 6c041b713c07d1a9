/// Block-forest tests: BlockID octree paths, setup construction with
/// geometry exclusion, load balancing, the compact file format, the
/// distributed (parallel) construction path, and the per-process memory
/// invariant of the distributed BlockForest.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "blockforest/BlockForest.h"
#include "blockforest/SetupBlockForest.h"
#include "core/BinaryIO.h"
#include "lbm/LatticeModel.h"
#include "lbm/Sparse.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace walb::bf {
namespace {

TEST(BlockID, RootChildParentRoundTrip) {
    const BlockID root = BlockID::root(17);
    EXPECT_EQ(root.level(), 0u);
    EXPECT_EQ(root.rootIndex(), 17u);
    const BlockID c5 = root.child(5);
    EXPECT_EQ(c5.level(), 1u);
    EXPECT_EQ(c5.octant(), 5u);
    EXPECT_EQ(c5.parent(), root);
    const BlockID c53 = c5.child(3);
    EXPECT_EQ(c53.level(), 2u);
    EXPECT_EQ(c53.octant(), 3u);
    EXPECT_EQ(c53.parent(), c5);
}

TEST(BlockID, OrderingAndDistinctness) {
    const BlockID a = BlockID::root(0).child(0);
    const BlockID b = BlockID::root(0).child(1);
    const BlockID c = BlockID::root(1);
    EXPECT_NE(a, b);
    EXPECT_LT(a, b);
    EXPECT_LT(a, c);
    // Children of different parents are distinct.
    EXPECT_NE(BlockID::root(0).child(7), BlockID::root(1).child(7));
}

TEST(BlockID, CompactSerializationRoundTrip) {
    SendBuffer sb;
    const BlockID id = BlockID::root(300).child(7).child(2).child(5);
    id.serialize(sb, 65535);
    // root: 2 bytes (<= 65535), level: 1, path (3 levels = 9 bits): 2 bytes.
    EXPECT_EQ(sb.size(), 5u);
    RecvBuffer rb(sb.release());
    EXPECT_EQ(BlockID::deserialize(rb, 65535), id);
}

SetupConfig denseConfig(std::uint32_t bx, std::uint32_t by, std::uint32_t bz,
                        std::uint32_t cells = 8) {
    SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, real_c(bx), real_c(by), real_c(bz));
    cfg.rootBlocksX = bx;
    cfg.rootBlocksY = by;
    cfg.rootBlocksZ = bz;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = cells;
    return cfg;
}

TEST(SetupBlockForest, DenseCreationKeepsAllBlocks) {
    const auto forest = SetupBlockForest::create(denseConfig(4, 3, 2));
    EXPECT_EQ(forest.numBlocks(), 24u);
    for (const auto& b : forest.blocks()) {
        EXPECT_TRUE(b.fullyInside);
        EXPECT_EQ(b.workload, 512u);
    }
    EXPECT_NEAR(forest.config().dx(), 1.0 / 8.0, 1e-15);
}

TEST(SetupBlockForest, RefinementLevelMultipliesBlocks) {
    auto cfg = denseConfig(2, 2, 2);
    cfg.refinementLevel = 1; // every root block -> 8 children
    const auto forest = SetupBlockForest::create(cfg);
    EXPECT_EQ(forest.numBlocks(), 64u);
    for (const auto& b : forest.blocks()) {
        EXPECT_EQ(b.id.level(), 1u);
        EXPECT_LT(b.id.rootIndex(), 8u);
    }
    // All 64 ids distinct.
    std::set<BlockID> ids;
    for (const auto& b : forest.blocks()) ids.insert(b.id);
    EXPECT_EQ(ids.size(), 64u);
}

TEST(SetupBlockForest, BlockBoxesTileTheDomain) {
    const auto forest = SetupBlockForest::create(denseConfig(3, 2, 2));
    real_t volume = 0;
    for (const auto& b : forest.blocks()) volume += b.aabb.volume();
    EXPECT_NEAR(volume, forest.config().domain.volume(), 1e-12);
}

TEST(SetupBlockForest, NeighborsMatchGridAdjacency) {
    const auto forest = SetupBlockForest::create(denseConfig(3, 3, 3));
    // The center block has 26 neighbors; a corner block has 7.
    for (std::uint32_t i = 0; i < forest.numBlocks(); ++i) {
        const auto& b = forest.blocks()[i];
        const auto neighbors = forest.neighborsOf(i);
        const bool corner = (b.gridPos.x == 0 || b.gridPos.x == 2) &&
                            (b.gridPos.y == 0 || b.gridPos.y == 2) &&
                            (b.gridPos.z == 0 || b.gridPos.z == 2);
        if (b.gridPos == Cell{1, 1, 1}) { EXPECT_EQ(neighbors.size(), 26u); }
        if (corner) { EXPECT_EQ(neighbors.size(), 7u); }
    }
}

TEST(SetupBlockForest, SphereExclusionDiscardsOutsideBlocks) {
    geometry::SphereDistance sphere({2, 2, 2}, 1.0);
    const auto cfg = denseConfig(4, 4, 4);
    const auto forest = SetupBlockForest::create(cfg, &sphere);
    EXPECT_LT(forest.numBlocks(), 64u);
    EXPECT_GT(forest.numBlocks(), 7u);
    // Every kept block intersects the sphere; every discarded one doesn't.
    const auto full = SetupBlockForest::create(cfg);
    for (const auto& b : full.blocks()) {
        const bool kept = forest.blockAt(b.gridPos.x, b.gridPos.y, b.gridPos.z).has_value();
        const geometry::CellMapping m{b.aabb, cfg.dx()};
        const bool intersects = geometry::anyFluidCell(sphere, m, 8, 8, 8);
        EXPECT_EQ(kept, intersects) << "block at " << b.gridPos;
    }
}

TEST(SetupBlockForest, FluidWorkloadMatchesVoxelCounts) {
    geometry::SphereDistance sphere({2, 2, 2}, 1.3);
    const auto cfg = denseConfig(4, 4, 4);
    auto forest = SetupBlockForest::create(cfg, &sphere);
    forest.assignFluidCellWorkload(sphere);
    std::uint64_t total = 0;
    for (const auto& b : forest.blocks()) {
        EXPECT_GT(b.workload, 0u) << "kept block with zero fluid cells";
        EXPECT_LE(b.workload, cfg.cellsPerBlock());
        if (b.fullyInside) { EXPECT_EQ(b.workload, cfg.cellsPerBlock()); }
        total += b.workload;
    }
    // Total fluid cells approximate the sphere volume.
    const real_t analytic = 4.0 / 3.0 * 3.14159265 * 1.3 * 1.3 * 1.3;
    const real_t voxelVol = real_c(total) * cfg.dx() * cfg.dx() * cfg.dx();
    EXPECT_NEAR(voxelVol, analytic, 0.05 * analytic);
}

/// A block's fluid cells, x-runs and D3Q19 links counted on its voxelized
/// flag field's interior, a neighbor outside the interior counting as fluid.
geometry::FluidCounts voxelCounts(const geometry::DistanceFunction& phi, const SetupConfig& cfg,
                                  const SetupBlock& b) {
    using M = lbm::D3Q19;
    field::FlagField flags(cell_idx_c(cfg.cellsPerBlockX), cell_idx_c(cfg.cellsPerBlockY),
                           cell_idx_c(cfg.cellsPerBlockZ), 1);
    const auto fluid = flags.registerFlag("fluid");
    geometry::voxelize(phi, flags, {b.aabb, cfg.dx()}, fluid);
    geometry::FluidCounts n;
    n.runs = lbm::buildFluidRuns(flags, fluid).runs.size();
    const CellInterval interior = flags.interior();
    interior.forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (!(flags.get(x, y, z) & fluid)) return;
        ++n.cells;
        for (uint_t a = 1; a < M::Q; ++a) {
            const Cell c{x + M::c[a][0], y + M::c[a][1], z + M::c[a][2]};
            if (interior.contains(c) && !(flags.get(c) & fluid)) ++n.links;
        }
    });
    return n;
}

TEST(SetupBlockForest, RunAndLinkCountsMatchTheVoxelizedInterior) {
    const geometry::SphereDistance sphere({2, 2, 2}, 1.9);
    const geometry::CylinderDistance tube({0.3, 0.6, 0.4}, {3.7, 3.2, 3.5}, 0.45);
    SetupConfig wide = denseConfig(4, 4, 4, 12); // a 70-cell x-edge: two words per bit row
    wide.cellsPerBlockX = 70;
    std::size_t fullyInside = 0, mixed = 0;
    const std::array<const geometry::DistanceFunction*, 2> shapes{&sphere, &tube};
    for (const geometry::DistanceFunction* phi : shapes)
        for (const SetupConfig& cfg : {denseConfig(4, 4, 4, 32), wide}) {
            auto forest = SetupBlockForest::create(cfg, phi);
            forest.assignFluidCellWorkload(*phi);
            for (const SetupBlock& b : forest.blocks()) {
                const geometry::FluidCounts ref = voxelCounts(*phi, cfg, b);
                EXPECT_EQ(b.workload, ref.cells) << "block " << b.gridPos;
                EXPECT_EQ(b.fluidRuns, ref.runs) << "block " << b.gridPos;
                EXPECT_EQ(b.fluidLinks, ref.links) << "block " << b.gridPos;
                ++(b.fullyInside ? fullyInside : mixed);
            }
        }
    EXPECT_GT(fullyInside, 0u);
    EXPECT_GT(mixed, 0u);
}

class BalancerTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BalancerTest, MortonBalancesDenseDomain) {
    const std::uint32_t procs = GetParam();
    auto forest = SetupBlockForest::create(denseConfig(8, 8, 8));
    forest.balanceMorton(procs);
    const auto stats = forest.balanceStats();
    EXPECT_EQ(stats.emptyProcesses, 0u);
    // 512 equal blocks over `procs` processes: near-perfect split.
    EXPECT_LE(stats.imbalance, 1.02 + 1.0 * procs / 512.0);
    for (const auto& b : forest.blocks()) EXPECT_LT(b.process, procs);
}

TEST_P(BalancerTest, GraphBalancerBalancesSparseDomain) {
    const std::uint32_t procs = GetParam();
    geometry::SphereDistance sphere({4, 4, 4}, 3.0);
    auto forest = SetupBlockForest::create(denseConfig(8, 8, 8), &sphere);
    forest.assignFluidCellWorkload(sphere);
    forest.balanceGraph(procs);
    const auto stats = forest.balanceStats();
    EXPECT_LE(stats.imbalance, 1.35) << "imbalance " << stats.imbalance;
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, BalancerTest, ::testing::Values(2, 4, 16, 61));

TEST(SetupBlockForest, MortonKeepsCurveLocality) {
    auto forest = SetupBlockForest::create(denseConfig(8, 8, 8));
    forest.balanceMorton(16);
    // Blocks of each process should form few connected clumps: check that
    // the average number of same-process neighbors is high.
    std::size_t sameProcAdjacencies = 0, totalAdjacencies = 0;
    for (std::uint32_t i = 0; i < forest.numBlocks(); ++i)
        for (auto n : forest.neighborsOf(i)) {
            ++totalAdjacencies;
            if (forest.blocks()[i].process == forest.blocks()[n].process)
                ++sameProcAdjacencies;
        }
    EXPECT_GT(double(sameProcAdjacencies), 0.5 * double(totalAdjacencies));
}

TEST(SetupBlockForest, SaveLoadRoundTrip) {
    geometry::SphereDistance sphere({2, 2, 2}, 1.4);
    auto cfg = denseConfig(4, 4, 4);
    cfg.periodicX = cfg.periodicZ = true;
    auto forest = SetupBlockForest::create(cfg, &sphere);
    forest.assignFluidCellWorkload(sphere);
    forest.balanceMorton(7);

    SendBuffer sb;
    forest.save(sb);
    RecvBuffer rb(sb.release());
    const auto loaded = SetupBlockForest::load(rb);

    ASSERT_EQ(loaded.numBlocks(), forest.numBlocks());
    EXPECT_EQ(loaded.numProcesses(), 7u);
    for (std::size_t i = 0; i < forest.numBlocks(); ++i) {
        EXPECT_EQ(loaded.blocks()[i].id, forest.blocks()[i].id);
        EXPECT_EQ(loaded.blocks()[i].gridPos, forest.blocks()[i].gridPos);
        EXPECT_EQ(loaded.blocks()[i].workload, forest.blocks()[i].workload);
        EXPECT_EQ(loaded.blocks()[i].process, forest.blocks()[i].process);
        EXPECT_EQ(loaded.blocks()[i].fullyInside, forest.blocks()[i].fullyInside);
        EXPECT_EQ(loaded.blocks()[i].aabb, forest.blocks()[i].aabb);
    }
    EXPECT_NEAR(loaded.config().dx(), forest.config().dx(), 1e-15);
    EXPECT_TRUE(loaded.config().periodicX);
    EXPECT_FALSE(loaded.config().periodicY);
    EXPECT_TRUE(loaded.config().periodicZ);
}

/// Loads `bytes` and, when they parse, checks that every block is in range:
/// on the grid, on a process of the forest and found by blockAt. Returns
/// false when load() rejected the stream with ForestFileError or
/// BufferError; any other exception escapes.
bool loadsInRange(const std::vector<std::uint8_t>& bytes, const std::string& what) {
    RecvBuffer rb(bytes);
    std::optional<SetupBlockForest> forest;
    try {
        forest.emplace(SetupBlockForest::load(rb));
    } catch (const ForestFileError&) {
        return false;
    } catch (const BufferError&) {
        return false;
    }
    const SetupConfig& c = forest->config();
    for (std::uint32_t i = 0; i < forest->numBlocks(); ++i) {
        const SetupBlock& b = forest->blocks()[i];
        EXPECT_TRUE(b.gridPos.x >= 0 && b.gridPos.x < cell_idx_c(c.blocksX()) &&
                    b.gridPos.y >= 0 && b.gridPos.y < cell_idx_c(c.blocksY()) &&
                    b.gridPos.z >= 0 && b.gridPos.z < cell_idx_c(c.blocksZ()))
            << what << ": block " << i << " at " << b.gridPos;
        EXPECT_LT(b.process, forest->numProcesses()) << what;
        EXPECT_EQ(forest->blockAt(b.gridPos.x, b.gridPos.y, b.gridPos.z), i) << what;
    }
    EXPECT_EQ(forest->balanceStats().totalWorkload, forest->totalWorkload()) << what;
    return true;
}

std::vector<std::uint8_t> saved(const SetupBlockForest& forest) {
    SendBuffer sb;
    forest.save(sb);
    return sb.release();
}

TEST(ForestFileFuzz, EveryMutationFailsCleanly) {
    // A sparse, periodic forest spread over 5 processes with fluid-cell
    // workloads: every header field and record width carries information.
    geometry::SphereDistance sphere({1.5, 1, 1}, 1.1);
    auto cfg = denseConfig(3, 2, 2);
    cfg.periodicY = true;
    auto forest = SetupBlockForest::create(cfg, &sphere);
    forest.assignFluidCellWorkload(sphere);
    forest.balanceMorton(5);
    const std::vector<std::uint8_t> whole = saved(forest);
    ASSERT_TRUE(loadsInRange(whole, "unmodified"));

    std::size_t loaded = 0, rejected = 0;
    for (std::size_t at = 0; at < whole.size(); ++at)
        for (unsigned flip = 1; flip < 256; ++flip) {
            auto bytes = whole;
            bytes[at] ^= std::uint8_t(flip);
            ++(loadsInRange(bytes, "flip " + std::to_string(flip) + " at " +
                                       std::to_string(at))
                   ? loaded
                   : rejected);
        }
    for (std::size_t cut = 0; cut < whole.size(); ++cut)
        EXPECT_FALSE(loadsInRange({whole.begin(), whole.begin() + std::ptrdiff_t(cut)},
                                  "cut at " + std::to_string(cut)));
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, 0u);

    // The named defects, on a two-block forest whose layout is pinned:
    // a 91-byte header (magic 0, domain 4, root grid 52, level 64,
    // periodic bits 65, cells per block 66, processes 78, blocks 82,
    // workload width 90), then 7-byte records (x, y, z, process, 2-byte
    // workload, fully-inside flag).
    auto two = SetupBlockForest::create(denseConfig(2, 1, 1));
    two.balanceMorton(2);
    const std::vector<std::uint8_t> base = saved(two);
    ASSERT_EQ(base.size(), 91u + 2 * 7);
    const auto expectRejected = [&](const std::string& what, std::size_t at,
                                    std::vector<std::uint8_t> value) {
        auto bytes = base;
        std::copy(value.begin(), value.end(), bytes.begin() + std::ptrdiff_t(at));
        RecvBuffer rb(bytes);
        EXPECT_THROW(SetupBlockForest::load(rb), ForestFileError) << what;
        const std::string path = testing::TempDir() + "/walb_fuzz_forest.walb";
        SendBuffer out;
        out.putBytes(bytes.data(), bytes.size());
        ASSERT_TRUE(writeFile(path, out));
        EXPECT_FALSE(SetupBlockForest::loadFromFile(path).has_value()) << what;
        std::remove(path.c_str());
    };
    expectRejected("bad magic", 0, {0x42, 0x4c, 0x41, 0x58});
    expectRejected("grid x = 200 in a 2-block grid", 91, {200});
    expectRejected("duplicate grid position", 98, {0});
    expectRejected("process 2 of 2", 94, {2});
    expectRejected("0 processes", 78, {0, 0, 0, 0});
    expectRejected("9-byte workloads", 90, {9});
    expectRejected("unknown periodic bit", 65, {8});
}

TEST(SetupBlockForest, FileFormatIsCompact) {
    // Paper §2.2: block structures for half a million processes fit in
    // ~40 MiB; ranks below 65,536 use 2 bytes. Verify the per-block cost of
    // our format stays in single-digit bytes.
    auto forest = SetupBlockForest::create(denseConfig(16, 16, 16)); // 4096 blocks
    forest.balanceMorton(4096);
    SendBuffer sb;
    forest.save(sb);
    const double bytesPerBlock = double(sb.size()) / double(forest.numBlocks());
    EXPECT_LE(bytesPerBlock, 12.0) << "file format too fat: " << bytesPerBlock << " B/block";
}

TEST(SetupBlockForest, FileRoundTrip) {
    auto forest = SetupBlockForest::create(denseConfig(2, 2, 2));
    forest.balanceMorton(3);
    const std::string path = testing::TempDir() + "/walb_forest.bin";
    ASSERT_TRUE(forest.saveToFile(path));
    const auto loaded = SetupBlockForest::loadFromFile(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->numBlocks(), 8u);
    std::remove(path.c_str());
}

TEST(SetupBlockForest, DistributedCreationMatchesSerial) {
    geometry::SphereDistance sphere({2, 2, 2}, 1.5);
    const auto cfg = denseConfig(4, 4, 4);
    const auto serial = SetupBlockForest::create(cfg, &sphere);

    for (int ranks : {1, 3, 4}) {
        vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& comm) {
            const auto parallel = SetupBlockForest::createDistributed(comm, cfg, &sphere);
            ASSERT_EQ(parallel.numBlocks(), serial.numBlocks());
            for (std::size_t i = 0; i < serial.numBlocks(); ++i) {
                EXPECT_EQ(parallel.blocks()[i].id, serial.blocks()[i].id);
                EXPECT_EQ(parallel.blocks()[i].gridPos, serial.blocks()[i].gridPos);
                EXPECT_EQ(parallel.blocks()[i].fullyInside, serial.blocks()[i].fullyInside);
            }
        });
    }
}

// ---- distributed BlockForest ------------------------------------------------

TEST(BlockForest, LocalBlocksMatchAssignment) {
    auto setup = SetupBlockForest::create(denseConfig(4, 4, 4));
    setup.balanceMorton(4);
    std::size_t totalLocal = 0;
    for (std::uint32_t rank = 0; rank < 4; ++rank) {
        BlockForest forest(setup, rank);
        for (const auto& b : forest.blocks()) {
            const auto idx = setup.blockAt(b.gridPos.x, b.gridPos.y, b.gridPos.z);
            ASSERT_TRUE(idx.has_value());
            EXPECT_EQ(setup.blocks()[*idx].process, rank);
        }
        totalLocal += forest.numLocalBlocks();
    }
    EXPECT_EQ(totalLocal, setup.numBlocks());
}

TEST(BlockForest, NeighborInfoIsConsistent) {
    auto setup = SetupBlockForest::create(denseConfig(4, 4, 4));
    setup.balanceMorton(4);
    BlockForest forest(setup, 1);
    for (const auto& b : forest.blocks())
        for (const auto& n : b.neighbors) {
            const auto idx =
                setup.blockAt(b.gridPos.x + n.dir[0], b.gridPos.y + n.dir[1],
                              b.gridPos.z + n.dir[2]);
            ASSERT_TRUE(idx.has_value());
            EXPECT_EQ(setup.blocks()[*idx].id, n.id);
            EXPECT_EQ(setup.blocks()[*idx].process, n.process);
            EXPECT_EQ(n.localIndex >= 0, n.process == 1u);
        }
}

TEST(BlockForest, PerProcessKnowledgeIsLocal) {
    // The paper's key data-structure property: a process knows its own
    // blocks and the neighborhood, nothing else. With 512 blocks on 64
    // processes, each process must know only ~8 local + O(surface) remote
    // blocks, far fewer than 512.
    auto setup = SetupBlockForest::create(denseConfig(8, 8, 8));
    setup.balanceMorton(64);
    for (std::uint32_t rank = 0; rank < 64; rank += 13) {
        BlockForest forest(setup, rank);
        EXPECT_LE(forest.numLocalBlocks(), 10u);
        EXPECT_LT(forest.numKnownRemoteBlocks(), 80u); // << 512 total
    }
}

TEST(BlockForest, BlockDataRegistry) {
    auto setup = SetupBlockForest::create(denseConfig(2, 2, 2));
    setup.balanceMorton(1);
    BlockForest forest(setup, 0);
    const auto id = forest.addBlockData<std::uint64_t>([](const BlockForest::Block& b) {
        return std::make_unique<std::uint64_t>(b.id.rootIndex() + 100);
    });
    for (std::size_t i = 0; i < forest.numLocalBlocks(); ++i)
        EXPECT_EQ(forest.getData<std::uint64_t>(i, id),
                  forest.blocks()[i].id.rootIndex() + 100);
}

TEST(BlockForest, PeriodicLinksWrap) {
    // One block periodic on every axis: each of its 26 links leads to itself.
    auto cfg = denseConfig(1, 1, 1);
    cfg.periodicX = cfg.periodicY = cfg.periodicZ = true;
    const auto one = SetupBlockForest::create(cfg);
    const BlockForest self(one, 0);
    ASSERT_EQ(self.blocks()[0].neighbors.size(), 26u);
    for (const auto& n : self.blocks()[0].neighbors) {
        EXPECT_EQ(n.localIndex, 0);
        EXPECT_EQ(n.id, self.blocks()[0].id);
    }
    EXPECT_TRUE(self.neighborProcesses().empty());
    EXPECT_EQ(one.neighborsOf(0), std::vector<std::uint32_t>(26, 0));

    // Two blocks periodic in x, one per process: each has two links to
    // the other, one at +x and one at -x (the unwrapped offsets).
    cfg = denseConfig(2, 1, 1);
    cfg.periodicX = true;
    auto two = SetupBlockForest::create(cfg);
    two.balanceMorton(2);
    ASSERT_NE(two.blocks()[0].process, two.blocks()[1].process);
    for (std::uint32_t rank = 0; rank < 2; ++rank) {
        const BlockForest forest(two, rank);
        const auto& block = forest.blocks()[0];
        const SetupBlock& other = two.blocks()[block.gridPos.x == 0 ? 1 : 0];
        ASSERT_EQ(block.neighbors.size(), 2u);
        std::set<int> dx;
        for (const auto& n : block.neighbors) {
            EXPECT_EQ(n.id, other.id);
            EXPECT_EQ(n.localIndex, -1);
            EXPECT_EQ(n.dir[1], 0);
            EXPECT_EQ(n.dir[2], 0);
            dx.insert(n.dir[0]);
        }
        EXPECT_EQ(dx, (std::set<int>{-1, 1}));
        EXPECT_EQ(forest.neighborProcesses(), std::set<int>{int(other.process)});
    }
    // A non-periodic axis does not wrap.
    EXPECT_FALSE(two.blockAt(0, -1, 0).has_value());
    EXPECT_EQ(two.blockAt(-1, 0, 0), two.blockAt(1, 0, 0));

    // The graph balancer gets one edge for the doubly linked pair and no
    // self-edge, and splits the pair.
    two.balanceGraph(2);
    EXPECT_NE(two.blocks()[0].process, two.blocks()[1].process);
    auto alone = one;
    alone.balanceGraph(1);
    EXPECT_EQ(alone.blocks()[0].process, 0u);
}

TEST(BlockForest, FindBlockForGlobalCell) {
    auto setup = SetupBlockForest::create(denseConfig(2, 2, 2, 8));
    setup.balanceMorton(1);
    BlockForest forest(setup, 0);
    const auto idx = forest.findBlockForGlobalCell({9, 3, 12});
    ASSERT_GE(idx, 0);
    const auto& b = forest.blocks()[std::size_t(idx)];
    EXPECT_EQ(b.gridPos, (Cell{1, 0, 1}));
    EXPECT_EQ(forest.findBlockForGlobalCell({99, 0, 0}), -1);
}

} // namespace
} // namespace walb::bf
