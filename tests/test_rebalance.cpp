/// Tests for `walb::rebalance` (measured-load dynamic rebalancing with live
/// block migration): CLI option parsing, the LoadModel EWMA, the Morton and
/// diffusion policies (determinism, tie-breaking by BlockID, bounded moves),
/// hysteresis of the epoch driver, digest invariance of a forced live
/// migration across 4 virtual ranks, cross-rank neighbor-list symmetry of
/// the rebuilt forest, shuffle-invariance of the static balancers, and the
/// fault drill that restarts from a checkpoint written *after* a migration
/// (exercising BlockID-based checkpoint matching).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "core/Buffer.h"
#include "rebalance/LoadModel.h"
#include "rebalance/Migrator.h"
#include "rebalance/Policy.h"
#include "rebalance/Rebalancer.h"
#include "sim/Checkpoint.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/FaultyComm.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace walb {
namespace {

using lbm::TRT;
using namespace std::chrono_literals;

// ---- shared fixtures -------------------------------------------------------

/// A row of `blocksX` 8^3 root blocks, Morton-balanced over `ranks`.
bf::SetupBlockForest makeRowSetup(std::uint32_t blocksX, std::uint32_t ranks) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 8.0 * blocksX, 8, 8);
    cfg.rootBlocksX = blocksX;
    cfg.rootBlocksY = cfg.rootBlocksZ = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    return setup;
}

/// Lid-driven cavity flags for a row of `blocksX` blocks (the same geometry
/// family the fault-tolerance drills use): moving lid at z = top, walls
/// elsewhere, fluid inside. A pure function of global position, as the
/// migration contract requires.
sim::DistributedSimulation::FlagInitializer rowCavityFlags(std::uint32_t blocksX) {
    const cell_idx_t NX = 8 * cell_idx_c(blocksX);
    return [NX](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                const bf::BlockForest::Block&, const geometry::CellMapping& mapping) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 p = mapping.cellCenter(x, y, z);
            if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[0] > real_c(NX) || p[1] > 8 ||
                p[2] > 8)
                return;
            const Cell g{cell_idx_t(p[0]), cell_idx_t(p[1]), cell_idx_t(p[2])};
            if (g.z == 7) flags.addFlag(x, y, z, masks.ubb);
            else if (g.x == 0 || g.x == NX - 1 || g.y == 0 || g.y == 7 || g.z == 0)
                flags.addFlag(x, y, z, masks.noSlip);
            else flags.addFlag(x, y, z, masks.fluid);
        });
    };
}

/// Owner-by-setup-index of the stored assignment.
std::vector<std::uint32_t> currentOwners(const bf::SetupBlockForest& setup) {
    std::vector<std::uint32_t> owner;
    owner.reserve(setup.numBlocks());
    for (const auto& b : setup.blocks()) owner.push_back(b.process);
    return owner;
}

/// BlockID -> process map, the storage-order-independent view of an
/// assignment (what the shuffle-invariance tests compare).
std::map<bf::BlockID, std::uint32_t> assignmentById(const bf::SetupBlockForest& setup) {
    std::map<bf::BlockID, std::uint32_t> m;
    for (const auto& b : setup.blocks()) m[b.id] = b.process;
    return m;
}

// ---- options parsing -------------------------------------------------------

TEST(RebalanceOptionsTest, ParsesBothFlagStyles) {
    const char* argv[] = {"prog",
                          "--rebalance-every",     "7",
                          "--rebalance-policy=diffusion",
                          "--imbalance-threshold", "1.25",
                          "--rebalance-max-moves=3"};
    const auto opt = rebalance::RebalanceOptions::fromArgs(
        int(std::size(argv)), const_cast<char**>(argv));
    EXPECT_TRUE(opt.any());
    EXPECT_EQ(opt.every, 7u);
    EXPECT_EQ(opt.policy, "diffusion");
    EXPECT_DOUBLE_EQ(opt.imbalanceThreshold, 1.25);
    EXPECT_EQ(opt.maxMoves, 3u);
}

TEST(RebalanceOptionsTest, DefaultIsDisabled) {
    const char* argv[] = {"prog", "--steps", "30"};
    const auto opt = rebalance::RebalanceOptions::fromArgs(
        int(std::size(argv)), const_cast<char**>(argv));
    EXPECT_FALSE(opt.any());
    EXPECT_EQ(opt.policy, "morton");
    EXPECT_DOUBLE_EQ(opt.imbalanceThreshold, 1.10);
}

TEST(RebalanceOptionsTest, RejectsMalformedValuesNamingTheFlag) {
    const std::vector<std::vector<std::string>> bad = {
        {"--rebalance-every", "abc"},      {"--rebalance-every", "-3"},
        {"--rebalance-every=7x"},          {"--imbalance-threshold", "fast"},
        {"--imbalance-threshold=inf"},     {"--rebalance-max-moves", "99999999999"},
        {"--rebalance-max-moves="},        {"--rebalance-policy"}};
    for (const auto& args : bad) {
        std::vector<char*> argv{const_cast<char*>("prog")};
        for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
        const std::string flag = args[0].substr(0, args[0].find('='));
        try {
            (void)rebalance::RebalanceOptions::fromArgs(int(argv.size()), argv.data());
            ADD_FAILURE() << "accepted " << args[0];
        } catch (const sim::OptionError& e) {
            EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
        }
    }
}

TEST(RebalanceOptionsTest, UnknownPolicyNameIsRejectedByFactory) {
    EXPECT_EQ(rebalance::makePolicy("round-robin"), nullptr);
    EXPECT_NE(rebalance::makePolicy("morton"), nullptr);
    EXPECT_NE(rebalance::makePolicy("diffusion"), nullptr);
}

// ---- measurement layer -----------------------------------------------------

TEST(LoadModelTest, FirstEpochIsTakenRawThenEwmaSmoothed) {
    const auto setup = makeRowSetup(2, 1);
    const bf::BlockForest forest(setup, 0);
    ASSERT_EQ(forest.blocks().size(), 2u);

    rebalance::LoadModel model(/*alpha=*/0.5);
    model.recordEpoch(forest, {4.0, 8.0});
    EXPECT_DOUBLE_EQ(model.smoothed(forest.blocks()[0].id), 4.0);
    EXPECT_DOUBLE_EQ(model.smoothed(forest.blocks()[1].id), 8.0);

    model.recordEpoch(forest, {2.0, 4.0});
    // alpha * measured + (1 - alpha) * previous
    EXPECT_DOUBLE_EQ(model.smoothed(forest.blocks()[0].id), 3.0);
    EXPECT_DOUBLE_EQ(model.smoothed(forest.blocks()[1].id), 6.0);
}

TEST(LoadModelTest, DropsBlocksThisRankNoLongerOwns) {
    auto setup = makeRowSetup(2, 2);
    rebalance::LoadModel model;
    {
        const bf::BlockForest forest(setup, 0);
        ASSERT_EQ(forest.blocks().size(), 1u);
        model.recordEpoch(forest, {1.0});
        EXPECT_EQ(model.numTracked(), 1u);
    }
    // Both blocks move to rank 1: rank 0's measurements are stale and must
    // be dropped — after a migration the new owner is the source of truth.
    for (auto& b : setup.blocks()) b.process = 1;
    const bf::BlockForest emptyForest(setup, 0);
    model.recordEpoch(emptyForest, {});
    EXPECT_EQ(model.numTracked(), 0u);
}

TEST(LoadModelTest, GatherGlobalFallsBackToStaticWorkloadWhenUnmeasured) {
    auto setup = makeRowSetup(3, 1);
    setup.blocks()[0].workload = 10;
    setup.blocks()[1].workload = 20;
    setup.blocks()[2].workload = 30;
    vmpi::SerialComm comm;
    const rebalance::LoadModel model; // nothing measured yet
    const auto weights = model.gatherGlobal(comm, setup);
    ASSERT_EQ(weights.size(), 3u);
    // Unmeasured blocks get weight proportional to the static workload.
    EXPECT_DOUBLE_EQ(weights[0], 10.0);
    EXPECT_DOUBLE_EQ(weights[1], 20.0);
    EXPECT_DOUBLE_EQ(weights[2], 30.0);
}

TEST(LoadModelTest, GatherGlobalAlignsMeasurementsWithSetupIndex) {
    const auto setup = makeRowSetup(2, 1);
    const bf::BlockForest forest(setup, 0);
    vmpi::SerialComm comm;
    rebalance::LoadModel model;
    model.recordEpoch(forest, {0.25, 0.75});
    const auto weights = model.gatherGlobal(comm, setup);
    ASSERT_EQ(weights.size(), 2u);
    EXPECT_DOUBLE_EQ(weights[0], 0.25);
    EXPECT_DOUBLE_EQ(weights[1], 0.75);
}

// ---- policy layer ----------------------------------------------------------

TEST(ImbalanceFactorTest, MaxOverAvgWithEmptyRanksCounted) {
    const std::vector<std::uint32_t> owner{0, 0, 1};
    const std::vector<double> weights{3, 1, 2};
    // loads: rank0 = 4, rank1 = 2, avg = 3.
    EXPECT_DOUBLE_EQ(rebalance::imbalanceFactor(owner, weights, 2), 4.0 / 3.0);
    // An idle rank *is* imbalance: one rank holds everything of two.
    EXPECT_DOUBLE_EQ(rebalance::imbalanceFactor(std::vector<std::uint32_t>{0},
                                                std::vector<double>{2.0}, 2),
                     2.0);
    // Degenerate inputs normalize to 1.
    EXPECT_DOUBLE_EQ(rebalance::imbalanceFactor(std::vector<std::uint32_t>{},
                                                std::vector<double>{}, 4),
                     1.0);
}

TEST(MortonPolicyTest, ResplitsSkewedMeasuredWeights) {
    const auto setup = makeRowSetup(8, 4);
    // Measured weights concentrated on the first blocks of the curve —
    // exactly what the static (count-based) balancer cannot see.
    const std::vector<double> weights{8, 8, 1, 1, 1, 1, 1, 1};
    const rebalance::RebalanceContext ctx{setup, weights, 4};
    const double before = rebalance::imbalanceFactor(setup, weights, 4);
    const rebalance::MortonPolicy policy;
    const auto proposed = policy.propose(ctx);
    ASSERT_EQ(proposed.size(), setup.numBlocks());
    EXPECT_LT(rebalance::imbalanceFactor(proposed, weights, 4), before);
    // Deterministic function of its context.
    EXPECT_EQ(policy.propose(ctx), proposed);
    // The curve split is monotone: owners never decrease along the row
    // (the row's storage order *is* its Morton order).
    for (std::size_t i = 1; i < proposed.size(); ++i)
        EXPECT_GE(proposed[i], proposed[i - 1]);
}

TEST(MortonPolicyTest, AssignmentIsIndependentOfStorageOrder) {
    // Weights are a function of the BlockID so they can follow the shuffle.
    auto weightsFor = [](const bf::SetupBlockForest& s) {
        std::vector<double> w;
        for (const auto& b : s.blocks()) w.push_back(1.0 + double(b.id.rootIndex() % 3));
        return w;
    };
    auto a = makeRowSetup(8, 4);
    auto b = a;
    b.shuffleBlocks(/*seed=*/99);

    const rebalance::MortonPolicy policy;
    const auto wa = weightsFor(a);
    const auto wb = weightsFor(b);
    const auto pa = policy.propose({a, wa, 4});
    const auto pb = policy.propose({b, wb, 4});

    std::map<bf::BlockID, std::uint32_t> byIdA, byIdB;
    for (std::size_t i = 0; i < a.numBlocks(); ++i) byIdA[a.blocks()[i].id] = pa[i];
    for (std::size_t i = 0; i < b.numBlocks(); ++i) byIdB[b.blocks()[i].id] = pb[i];
    EXPECT_EQ(byIdA, byIdB);
}

TEST(DiffusionPolicyTest, BoundsBlocksMovedPerEpoch) {
    const auto setup = makeRowSetup(8, 4);
    const std::vector<double> weights{8, 8, 1, 1, 1, 1, 1, 1};
    const auto owner = currentOwners(setup);

    for (std::uint32_t maxMoves : {1u, 2u, 8u}) {
        const rebalance::DiffusionPolicy policy(maxMoves);
        const auto proposed = policy.propose({setup, weights, 4});
        ASSERT_EQ(proposed.size(), owner.size());
        std::size_t moved = 0;
        for (std::size_t i = 0; i < owner.size(); ++i)
            if (proposed[i] != owner[i]) ++moved;
        EXPECT_LE(moved, maxMoves) << "maxMoves=" << maxMoves;
        EXPECT_LE(rebalance::imbalanceFactor(proposed, weights, 4),
                  rebalance::imbalanceFactor(owner, weights, 4));
    }
}

TEST(DiffusionPolicyTest, StopsWhenNoMoveImproves) {
    const auto setup = makeRowSetup(4, 4); // one block per rank, all equal
    const std::vector<double> weights{1, 1, 1, 1};
    const rebalance::DiffusionPolicy policy(8);
    // Already balanced: every move would only raise the pairwise maximum.
    EXPECT_EQ(policy.propose({setup, weights, 4}), currentOwners(setup));
}

// ---- static balancer shuffle-invariance (tie-break regression) -------------

TEST(PartitionerDeterminism, BalanceGraphIsInvariantUnderBlockShuffle) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 32, 16, 16);
    cfg.rootBlocksX = 4;
    cfg.rootBlocksY = cfg.rootBlocksZ = 2;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    auto a = bf::SetupBlockForest::create(cfg);
    // Equal workloads everywhere: every balancing decision is a tie, the
    // worst case for order-dependence.
    for (auto& blk : a.blocks()) blk.workload = 100;
    auto b = a;
    b.shuffleBlocks(/*seed=*/7);

    a.balanceGraph(4);
    b.balanceGraph(4);
    EXPECT_EQ(assignmentById(a), assignmentById(b));

    auto c = a, d = b; // already-balanced copies, rebalance with Morton
    c.balanceMorton(4);
    d.balanceMorton(4);
    EXPECT_EQ(assignmentById(c), assignmentById(d));
}

// ---- epoch driver (hysteresis) ---------------------------------------------

TEST(RebalancerTest, HysteresisSkipsHealthyRunsAndMigratesSkewedOnes) {
    const auto setup = makeRowSetup(4, 2);
    const auto flagInit = rowCavityFlags(4);
    std::atomic<int> healthySkips{0}, skewedMigrations{0};
    std::atomic<std::uint64_t> digestBefore{0}, digestAfter{0};

    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.03, 0, 0});
        simulation.run(3, TRT::fromOmegaAndMagic(1.4));
        const std::uint64_t d0 = simulation.stateDigest();
        if (comm.rank() == 0) digestBefore = d0;

        rebalance::RebalanceOptions opt;
        opt.every = 1; // irrelevant: runEpoch is driven directly
        rebalance::Rebalancer rebalancer(simulation, opt);

        // Balanced measured weights: below the hysteresis threshold,
        // nothing may migrate.
        if (!rebalancer.runEpoch(10, {1, 1, 1, 1})) ++healthySkips;
        ASSERT_FALSE(rebalancer.history().empty());
        EXPECT_FALSE(rebalancer.history().back().migrated);
        EXPECT_DOUBLE_EQ(rebalancer.history().back().imbalanceBefore, 1.0);

        // Skewed measured weights (loads 8 vs 2 under the Morton-balanced
        // 2+2 assignment): above threshold, the epoch must migrate and the
        // interior digest must survive it bit-exactly.
        if (rebalancer.runEpoch(20, {6, 2, 1, 1})) ++skewedMigrations;
        const auto& rec = rebalancer.history().back();
        EXPECT_TRUE(rec.migrated);
        EXPECT_LT(rec.imbalanceAfter, rec.imbalanceBefore);
        EXPECT_GT(rec.blocksMoved, 0u);
        EXPECT_GT(simulation.metrics().counter("rebalance.blocks_moved").value(), 0u);
        const std::uint64_t d1 = simulation.stateDigest();
        if (comm.rank() == 0) digestAfter = d1;
    });
    EXPECT_EQ(healthySkips.load(), 2);
    EXPECT_EQ(skewedMigrations.load(), 2);
    EXPECT_EQ(digestAfter.load(), digestBefore.load());
}

// ---- live migration --------------------------------------------------------

TEST(MigrationTest, ForcedMigrationIsDigestInvariantAndConverges) {
    const std::uint32_t ranks = 4;
    const auto setup = makeRowSetup(ranks, ranks);
    const auto flagInit = rowCavityFlags(ranks);
    const TRT op = TRT::fromOmegaAndMagic(1.4);

    // Reference: 10 uninterrupted steps, never migrated.
    std::atomic<std::uint64_t> wantDigest{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.03, 0, 0});
        simulation.run(10, op);
        const std::uint64_t d = simulation.stateDigest();
        if (comm.rank() == 0) wantDigest = d;
    });

    // Migrating run: rotate every block to the next rank after step 5 —
    // every block moves, the hardest case for the pack/unpack protocol.
    std::atomic<std::uint64_t> gotDigest{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.03, 0, 0});
        simulation.run(5, op);
        const std::uint64_t before = simulation.stateDigest();

        std::vector<std::uint32_t> rotated = currentOwners(simulation.setup());
        for (auto& r : rotated) r = (r + 1) % ranks;
        const auto stats = rebalance::migrate(simulation, rotated);
        EXPECT_EQ(stats.blocksMoved, std::size_t(ranks));

        // Bit-exact across the migration itself...
        EXPECT_EQ(simulation.stateDigest(), before);
        // ...and the refilled ghost layers feed the continued run the same
        // values the never-migrated run sees: trajectories stay identical.
        simulation.run(5, op);
        const std::uint64_t d = simulation.stateDigest();
        if (comm.rank() == 0) gotDigest = d;
    });
    EXPECT_EQ(gotDigest.load(), wantDigest.load());
}

TEST(MigrationTest, NeighborListsStaySymmetricAcrossRanks) {
    const std::uint32_t ranks = 4;
    const auto setup = makeRowSetup(2 * ranks, ranks);
    const auto flagInit = rowCavityFlags(2 * ranks);

    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.run(2, TRT::fromOmegaAndMagic(1.4));

        std::vector<std::uint32_t> rotated = currentOwners(simulation.setup());
        for (auto& r : rotated) r = (r + 1) % ranks;
        rebalance::migrate(simulation, rotated);

        // The stored setup is the authoritative block -> rank map: every
        // rebuilt neighbor entry must agree with it.
        std::map<bf::BlockID, std::uint32_t> ownerById;
        for (const auto& b : simulation.setup().blocks()) ownerById[b.id] = b.process;
        SendBuffer sb;
        std::uint32_t pairs = 0;
        for (const auto& block : simulation.forest().blocks()) {
            for (const auto& n : block.neighbors) {
                ASSERT_TRUE(ownerById.count(n.id));
                EXPECT_EQ(n.process, ownerById[n.id]);
                sb << block.id.rootIndex() << n.id.rootIndex() << std::int8_t(n.dir[0])
                   << std::int8_t(n.dir[1]) << std::int8_t(n.dir[2]);
                ++pairs;
            }
        }
        EXPECT_GT(pairs, 0u);

        // Allgather every rank's (A -> B, dir) edges: A lists B iff B lists
        // A through the opposite direction — also across rank boundaries.
        const std::vector<std::uint8_t> mine = sb.release();
        auto all = comm.allgatherv(std::span<const std::uint8_t>(mine));
        std::set<std::tuple<std::uint32_t, std::uint32_t, int, int, int>> edges;
        for (auto& bytes : all) {
            RecvBuffer rb(std::move(bytes));
            while (!rb.atEnd()) {
                std::uint32_t a = 0, b = 0;
                std::int8_t dx = 0, dy = 0, dz = 0;
                rb >> a >> b >> dx >> dy >> dz;
                edges.insert({a, b, dx, dy, dz});
            }
        }
        for (const auto& [a, b, dx, dy, dz] : edges)
            EXPECT_TRUE(edges.count({b, a, -dx, -dy, -dz}))
                << "block " << a << " lists " << b << " without the mirror edge";
    });
}

// ---- migration + restart fault drill ---------------------------------------

TEST(FaultDrill, RestartFromPostMigrationCheckpointMatchesUninterrupted) {
    // Timeline of the "killed" run: checkpoint every 5 steps, a forced
    // full-rotation migration at step 12, rank 2 dies at step 17. The last
    // surviving checkpoint (step 15) was therefore written under the
    // *migrated* assignment; the restart reconstructs the original one, so
    // matching file blocks to local blocks must go through BlockIDs.
    const std::uint32_t ranks = 4;
    const std::string ckpt = testing::TempDir() + "/walb_rebalance_drill.wckp";
    std::remove(ckpt.c_str());
    const auto setup = makeRowSetup(ranks, ranks);
    const auto flagInit = rowCavityFlags(ranks);
    const TRT op = TRT::fromOmegaAndMagic(1.4);

    vmpi::FaultPlan plan;
    plan.killRank = 2;
    plan.killAtStep = 17;

    std::atomic<int> structured{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        vmpi::FaultyComm faulty(comm, plan);
        faulty.setRecvDeadline(2000ms);
        sim::DistributedSimulation simulation(faulty, setup, flagInit);
        simulation.setWallVelocity({0.03, 0, 0});
        simulation.setPreStepCallback(
            [&](std::uint64_t step) { faulty.beginStep(step); });
        simulation.setStepHook([&](std::uint64_t step) {
            if (step != 12) return;
            std::vector<std::uint32_t> rotated = currentOwners(simulation.setup());
            for (auto& r : rotated) r = (r + 1) % ranks;
            rebalance::migrate(simulation, rotated);
        });
        sim::CheckpointOptions opt;
        opt.every = 5;
        opt.path = ckpt;
        try {
            sim::runWithCheckpoints(simulation, opt, 20, op);
            ADD_FAILURE() << "rank " << comm.rank() << " finished despite the kill";
        } catch (const vmpi::CommError& e) {
            EXPECT_TRUE(e.kind == vmpi::CommError::Kind::RankKilled ||
                        e.kind == vmpi::CommError::Kind::DeadlineExceeded)
                << e.what();
            ++structured;
        }
    });
    EXPECT_EQ(structured.load(), int(ranks));

    sim::CheckpointHeader h;
    std::string err;
    ASSERT_TRUE(sim::checkpointPeek(ckpt, h, &err)) << err;
    EXPECT_EQ(h.step, 15u); // written after the step-12 migration

    // Reference: the uninterrupted, never-migrated 20-step run.
    std::atomic<std::uint64_t> wantDigest{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.03, 0, 0});
        simulation.run(20, op);
        const std::uint64_t d = simulation.stateDigest();
        if (comm.rank() == 0) wantDigest = d;
    });

    // Restart under the ORIGINAL assignment from the post-migration
    // checkpoint and finish: the trajectory must be bit-exact.
    std::atomic<std::uint64_t> gotDigest{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.03, 0, 0});
        sim::CheckpointOptions opt;
        opt.restartFrom = ckpt;
        const std::uint64_t executed = sim::runWithCheckpoints(simulation, opt, 20, op);
        EXPECT_EQ(executed, 5u);
        EXPECT_EQ(simulation.currentStep(), 20u);
        const std::uint64_t d = simulation.stateDigest();
        if (comm.rank() == 0) gotDigest = d;
    });
    EXPECT_EQ(gotDigest.load(), wantDigest.load());
    std::remove(ckpt.c_str());
}

} // namespace
} // namespace walb
