/// Tests for the in-place AA-pattern streaming tiers (lbm/KernelAa.h):
/// the headline property that an AA run is bit-exact with a two-grid run
/// of the same arithmetic tier on random voxelized geometries with every
/// boundary type (bounce-back, UBB, pressure anti-bounce-back), on a
/// single block and across 1-8 virtual ranks with the overlapped schedule;
/// that the single grid halves the PDF memory gauge; and that the parity
/// state machine survives the persistence layers — odd-parity checkpoint/
/// restart round trips and a live block migration mid-run — with the
/// parity-normalized state digest unchanged.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "lbm/KernelAa.h"
#include "rebalance/Migrator.h"
#include "sim/Checkpoint.h"
#include "sim/DistributedSimulation.h"
#include "support/BoxDomain.h"
#include "support/Oracles.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace walb {
namespace {

using lbm::TRT;

// ---- shared helpers --------------------------------------------------------

/// splitmix64 of the cell coordinates: a pure function of global position,
/// as the flag-initializer contract requires (blocks re-derive their flags
/// after a migration).
std::uint64_t cellHash(std::uint64_t seed, cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    std::uint64_t h = seed ^ (std::uint64_t(std::uint32_t(x)) << 42) ^
                      (std::uint64_t(std::uint32_t(y)) << 21) ^
                      std::uint64_t(std::uint32_t(z));
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

/// Random voxel cavity exercising every boundary type: UBB lid on top, a
/// pressure outlet face at y = 0, no-slip on the remaining walls plus
/// random interior obstacle voxels. A periodic x axis has no x walls, so
/// the flow crosses the wrap.
field::flag_t cavityFlag(const Cell& g, cell_idx_t n, std::uint64_t seed, bool periodicX,
                         const lbm::BoundaryFlags& m) {
    if (g.z == n - 1) return m.ubb;
    if (g.y == 0) return m.pressure;
    if ((!periodicX && (g.x == 0 || g.x == n - 1)) || g.y == n - 1 || g.z == 0)
        return m.noSlip;
    if (cellHash(seed, g.x, g.y, g.z) % 8 == 0) return m.noSlip; // random obstacle voxel
    return m.fluid;
}

/// The cavity as a one-block driver run on `tier`, lid and outlet set.
std::unique_ptr<sim::DistributedSimulation> cavity(vmpi::Comm& comm, KernelTier tier,
                                                   cell_idx_t n, std::uint64_t seed,
                                                   bool periodicX = false) {
    const test::BoxDomain box{{n, n, n}, {1, 1, 1}, {periodicX, false, false}};
    auto s = std::make_unique<sim::DistributedSimulation>(
        comm, box.setup(1),
        box.flags([=](const Cell& g, field::FlagField&, const lbm::BoundaryFlags& m) {
            return cavityFlag(g, n, seed, periodicX, m);
        }),
        tier);
    s->setWallVelocity({0.04, 0, 0});
    s->setPressureDensity(real_c(1.01));
    return s;
}

/// The scalar tiers at kernel level: the cavity's flags, boundary handling
/// and PDF fields, swept by the dense flag-masked kernels — two-grid D3Q19
/// or in-place Aa. The cavity is closed, so no ghost exchange runs.
class ScalarCavity {
public:
    using M = lbm::D3Q19;

    ScalarCavity(KernelTier tier, cell_idx_t n, std::uint64_t seed)
        : aa_(isAaTier(tier)), flags_(n, n, n, 1), masks_(lbm::BoundaryFlags::registerOn(flags_)),
          src_(lbm::makePdfField<M>(n, n, n, 1.0, {0, 0, 0})),
          dst_(lbm::makePdfField<M>(n, n, n, 1.0, {0, 0, 0})) {
        flags_.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            flags_.addFlag(x, y, z, cavityFlag({x, y, z}, n, seed, false, masks_));
        });
        boundary_ = std::make_unique<lbm::BoundaryHandling<M>>(flags_, masks_);
        boundary_->setWallVelocity({0.04, 0, 0});
        boundary_->setPressureDensity(real_c(1.01));
    }

    template <typename Op>
    void run(uint_t steps, const Op& op) {
        for (uint_t i = 0; i < steps; ++i, ++step_) {
            const lbm::StepPattern p = pattern();
            boundary_->apply(src_, lbm::Region::All, p);
            if (aa_) {
                lbm::aaStreamCollide(src_, lbm::aaParityOf(p), op, &flags_, masks_.fluid);
            } else {
                lbm::streamCollideD3Q19(src_, dst_, op, &flags_, masks_.fluid);
                src_.swapDataWith(dst_);
            }
        }
    }

    std::array<real_t, M::Q> cellPdfs(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
        return lbm::canonicalPdfs(src_, pattern(), x, y, z);
    }
    const field::FlagField& flags() const { return flags_; }
    field::flag_t fluid() const { return masks_.fluid; }

private:
    lbm::StepPattern pattern() const { return lbm::stepPatternOf(aa_, step_); }

    bool aa_;
    field::FlagField flags_;
    lbm::BoundaryFlags masks_;
    lbm::PdfField src_, dst_;
    std::unique_ptr<lbm::BoundaryHandling<M>> boundary_;
    std::uint64_t step_ = 0;
};

std::array<real_t, lbm::D3Q19::Q> cellPdfs(const ScalarCavity& c, cell_idx_t x, cell_idx_t y,
                                           cell_idx_t z) {
    return c.cellPdfs(x, y, z);
}
std::array<real_t, lbm::D3Q19::Q> cellPdfs(sim::DistributedSimulation& s, cell_idx_t x,
                                           cell_idx_t y, cell_idx_t z) {
    return s.cellCanonicalPdfs(0, x, y, z);
}

/// Steps both runs in lockstep and requires bit-exact canonical PDFs at
/// every fluid cell after every step — both parities of the AA state
/// machine are probed, not just the natural-storage one.
template <typename Run>
void expectLockstepEqual(Run& aa, Run& twoGrid, const field::FlagField& flags,
                         field::flag_t fluid, cell_idx_t n, uint_t steps) {
    const TRT op = TRT::fromOmegaAndMagic(1.6);
    for (uint_t s = 0; s < steps; ++s) {
        aa.run(1, op);
        twoGrid.run(1, op);
        uint_t mismatches = 0;
        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!(flags.get(x, y, z) & fluid)) return;
            const auto a = cellPdfs(aa, x, y, z);
            const auto b = cellPdfs(twoGrid, x, y, z);
            for (uint_t q = 0; q < lbm::D3Q19::Q; ++q)
                if (a[q] != b[q]) ++mismatches;
        });
        ASSERT_EQ(mismatches, 0u) << "step " << s + 1 << " diverged (n=" << n << ")";
    }
}

void expectLockstepEqual(sim::DistributedSimulation& aa, sim::DistributedSimulation& twoGrid,
                         cell_idx_t n, uint_t steps) {
    expectLockstepEqual(aa, twoGrid, twoGrid.flagField(0), twoGrid.masks().fluid, n, steps);
}

// ---- one block: AA == two-grid, bit-exact ----------------------------------

TEST(AaEquivalenceTest, ScalarTierMatchesTwoGridScalarBitExactly) {
    // The scalar AA kernels share d3q19::moments/collide with the two-grid
    // D3Q19 kernel, so equality must be exact to the last bit. The driver
    // runs only the SIMD tiers, so this compares the kernels on fields.
    for (std::uint64_t seed : {11ull, 22ull}) {
        ScalarCavity aa(KernelTier::Aa, 12, seed);
        ScalarCavity ref(KernelTier::D3Q19, 12, seed);
        expectLockstepEqual(aa, ref, ref.flags(), ref.fluid(), 12, 5);
    }
}

TEST(AaEquivalenceTest, SimdTierMatchesTwoGridSimdBitExactly) {
    vmpi::SerialComm comm;
    for (std::uint64_t seed : {33ull, 44ull}) {
        auto aa = cavity(comm, KernelTier::AaSimd, 12, seed);
        auto ref = cavity(comm, KernelTier::Simd, 12, seed);
        expectLockstepEqual(*aa, *ref, 12, 5);
    }
}

TEST(AaEquivalenceTest, PeriodicWrapMatchesTwoGridBitExactly) {
    // Periodic x exercises the AA forward/reverse exchange of a block with
    // itself (its +x and -x links) instead of the boundary closure.
    vmpi::SerialComm comm;
    auto aa = cavity(comm, KernelTier::AaSimd, 10, 55, true);
    auto ref = cavity(comm, KernelTier::Simd, 10, 55, true);
    expectLockstepEqual(*aa, *ref, 10, 6);
}

TEST(AaEquivalenceTest, ConservesMassInClosedBox) {
    // Bounce-back-only closure: total mass is exactly conserved by the
    // two-grid kernels and must stay conserved through the in-place
    // even/odd pair.
    const test::BoxDomain box{{10, 10, 10}};
    vmpi::SerialComm comm;
    sim::DistributedSimulation s(
        comm, box.setup(1),
        box.flags([](const Cell& g, field::FlagField&, const lbm::BoundaryFlags& m) {
            if (g.x == 0 || g.x == 9 || g.y == 0 || g.y == 9 || g.z == 0 || g.z == 9)
                return m.noSlip;
            return cellHash(7, g.x, g.y, g.z) % 8 == 0 ? m.noSlip : m.fluid;
        }),
        KernelTier::AaSimd);
    test::setFluidEquilibrium(s, [](const Cell&) { return Vec3(0.02, 0.01, -0.015); });
    const real_t before = s.gatherTotalMass();
    s.run(9, TRT::fromOmegaAndMagic(1.6)); // odd count: ends at parity Odd
    EXPECT_NEAR(s.gatherTotalMass() / before, 1.0, 1e-12);
}

TEST(AaEquivalenceTest, HalvesPdfMemoryGauge) {
    vmpi::SerialComm comm;
    auto aa = cavity(comm, KernelTier::AaSimd, 16, 66);
    auto ref = cavity(comm, KernelTier::Simd, 16, 66);
    const TRT op = TRT::fromOmegaAndMagic(1.6);
    aa->run(2, op);
    ref->run(2, op);
    const double aaBytes = aa->metrics().gauge("mem.pdf_bytes").value();
    const double refBytes = ref->metrics().gauge("mem.pdf_bytes").value();
    EXPECT_GT(aaBytes, 0.0);
    // One full grid plus the token 1^3 shadow allocation vs two full grids.
    EXPECT_LT(aaBytes, 0.55 * refBytes);
}

// ---- distributed: AA == two-grid across ranks ------------------------------

/// Random voxelized geometry (pure function of global position): UBB lid
/// on top, a pressure face at y = 0, no-slip walls and random obstacles.
sim::DistributedSimulation::FlagInitializer voxelFlags(cell_idx_t NX, cell_idx_t NY,
                                                       cell_idx_t NZ,
                                                       std::uint64_t seed) {
    return [=](field::FlagField& flags, const lbm::BoundaryFlags& masks,
               const bf::BlockForest::Block&, const geometry::CellMapping& mapping) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 p = mapping.cellCenter(x, y, z);
            if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[0] > real_c(NX) ||
                p[1] > real_c(NY) || p[2] > real_c(NZ))
                return;
            const Cell g{cell_idx_t(p[0]), cell_idx_t(p[1]), cell_idx_t(p[2])};
            if (g.z == NZ - 1) flags.addFlag(x, y, z, masks.ubb);
            else if (g.y == 0) flags.addFlag(x, y, z, masks.pressure);
            else if (g.x == 0 || g.x == NX - 1 || g.y == NY - 1 || g.z == 0)
                flags.addFlag(x, y, z, masks.noSlip);
            else if (cellHash(seed, g.x, g.y, g.z) % 8 == 0)
                flags.addFlag(x, y, z, masks.noSlip);
            else
                flags.addFlag(x, y, z, masks.fluid);
        });
    };
}

bf::SetupBlockForest makeSetup(std::uint32_t blocksX, std::uint32_t ranks) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 8.0 * blocksX, 8, 8);
    cfg.rootBlocksX = blocksX;
    cfg.rootBlocksY = cfg.rootBlocksZ = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    return setup;
}

using CellKey = std::tuple<cell_idx_t, cell_idx_t, cell_idx_t>;
using StateMap = std::map<CellKey, std::array<real_t, lbm::D3Q19::Q>>;

/// Runs `steps` on `ranks` virtual ranks with the given tier and collects
/// the canonical PDFs of every global fluid cell (bit-exact, fluid cells
/// are the complete physical state all tiers agree on by contract).
StateMap runCanonicalState(std::uint32_t blocksX, std::uint32_t ranks, uint_t steps,
                           std::uint64_t seed, KernelTier tier, bool overlap) {
    auto setup = makeSetup(blocksX, ranks);
    const auto flagInit = voxelFlags(8 * cell_idx_c(blocksX), 8, 8, seed);
    StateMap state;
    std::mutex mu;
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit, tier);
        simulation.setWallVelocity({0.04, 0, 0});
        simulation.setPressureDensity(real_c(1.01));
        simulation.setOverlapCommunication(overlap);
        simulation.run(steps, TRT::fromOmegaAndMagic(1.6));
        const auto& forest = simulation.forest();
        const auto fluid = simulation.masks().fluid;
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t b = 0; b < forest.blocks().size(); ++b) {
            const Cell off = forest.globalCellOffset(forest.blocks()[b]);
            const auto& flags = simulation.flagField(b);
            flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                if (!(flags.get(x, y, z) & fluid)) return;
                state[{off.x + x, off.y + y, off.z + z}] =
                    simulation.cellCanonicalPdfs(b, x, y, z);
            });
        }
    });
    return state;
}

void expectStatesEqual(const StateMap& a, const StateMap& b) {
    ASSERT_EQ(a.size(), b.size());
    std::size_t mismatches = 0;
    for (const auto& [cell, pdfs] : a) {
        const auto it = b.find(cell);
        if (it == b.end() || pdfs != it->second) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(AaDistributedTest, MatchesTwoGridOnRandomGeometriesAcrossRanks) {
    // 1 rank (no remote neighbors), partial and full distribution; a
    // different random geometry each. Odd step count so the comparison
    // lands on the parity-Even storage (the hard canonicalization case).
    const struct {
        std::uint32_t blocksX, ranks;
        std::uint64_t seed;
    } cases[] = {{2, 1, 101}, {4, 2, 202}, {4, 4, 303}, {8, 8, 404}};
    for (const auto& c : cases) {
        const auto ref =
            runCanonicalState(c.blocksX, c.ranks, 5, c.seed, KernelTier::Simd, false);
        const auto aa =
            runCanonicalState(c.blocksX, c.ranks, 5, c.seed, KernelTier::AaSimd, false);
        SCOPED_TRACE("blocksX=" + std::to_string(c.blocksX) +
                     " ranks=" + std::to_string(c.ranks));
        ASSERT_FALSE(ref.empty());
        expectStatesEqual(aa, ref);
    }
}

TEST(AaDistributedTest, OverlapScheduleMatchesTwoGridAndSynchronous) {
    const auto refSync =
        runCanonicalState(4, 4, 6, 909, KernelTier::Simd, false);
    const auto aaSync =
        runCanonicalState(4, 4, 6, 909, KernelTier::AaSimd, false);
    const auto aaOverlap =
        runCanonicalState(4, 4, 6, 909, KernelTier::AaSimd, true);
    {
        SCOPED_TRACE("aa sync vs two-grid sync");
        expectStatesEqual(aaSync, refSync);
    }
    {
        SCOPED_TRACE("aa overlap vs two-grid sync");
        expectStatesEqual(aaOverlap, refSync);
    }
}

TEST(AaDistributedTest, SurvivesLiveMigrationMidRun) {
    const std::uint32_t ranks = 4;
    const std::uint64_t seed = 777;
    // Reference: uninterrupted AA run. Migration after an odd number of
    // steps moves parity-Even storage — the case where a raw interior copy
    // would lose the odd kernel's ghost-layer pushes.
    const auto want =
        runCanonicalState(ranks, ranks, 7, seed, KernelTier::AaSimd, false);
    const auto twoGrid =
        runCanonicalState(ranks, ranks, 7, seed, KernelTier::Simd, false);

    auto setup = makeSetup(ranks, ranks);
    const auto flagInit = voxelFlags(8 * cell_idx_c(ranks), 8, 8, seed);
    StateMap got;
    std::mutex mu;
    std::atomic<std::uint64_t> digest{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit,
                                              KernelTier::AaSimd);
        simulation.setWallVelocity({0.04, 0, 0});
        simulation.setPressureDensity(real_c(1.01));
        const TRT op = TRT::fromOmegaAndMagic(1.6);
        simulation.run(3, op);

        const std::uint64_t before = simulation.stateDigest();
        std::vector<std::uint32_t> rotated;
        for (const auto& b : simulation.setup().blocks())
            rotated.push_back((b.process + 1) % ranks);
        const auto stats = rebalance::migrate(simulation, rotated);
        EXPECT_EQ(stats.blocksMoved, std::size_t(ranks));
        // The parity-normalized digest must not move across the migration.
        EXPECT_EQ(simulation.stateDigest(), before);

        simulation.run(4, op);
        const std::uint64_t after = simulation.stateDigest(); // collective
        if (comm.rank() == 0) digest = after;
        const auto& forest = simulation.forest();
        const auto fluid = simulation.masks().fluid;
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t b = 0; b < forest.blocks().size(); ++b) {
            const Cell off = forest.globalCellOffset(forest.blocks()[b]);
            const auto& flags = simulation.flagField(b);
            flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                if (!(flags.get(x, y, z) & fluid)) return;
                got[{off.x + x, off.y + y, off.z + z}] =
                    simulation.cellCanonicalPdfs(b, x, y, z);
            });
        }
    });
    expectStatesEqual(got, want);
    expectStatesEqual(got, twoGrid);
    EXPECT_NE(digest.load(), 0u);
}

// ---- persistence: parity-normalized checkpoints ----------------------------

TEST(AaPersistenceTest, OddParityCheckpointRestartRoundTrip) {
    const std::uint32_t ranks = 4;
    const std::uint64_t seed = 1234;
    const std::string path = testing::TempDir() + "/walb_aa_roundtrip.wckp";
    auto setup = makeSetup(ranks, ranks);
    const auto flagInit = voxelFlags(8 * cell_idx_c(ranks), 8, 8, seed);
    const TRT op = TRT::fromOmegaAndMagic(1.6);

    // Reference: 8 uninterrupted AA steps.
    const auto want =
        runCanonicalState(ranks, ranks, 8, seed, KernelTier::AaSimd, false);

    std::atomic<std::uint64_t> digestAtSave{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit,
                                              KernelTier::AaSimd);
        simulation.setWallVelocity({0.04, 0, 0});
        simulation.setPressureDensity(real_c(1.01));
        // An odd step count: the checkpoint is written from parity-Odd
        // storage, so the canonical save must undo the swapped-local slot
        // layout rather than copying the field verbatim.
        simulation.run(3, op);
        ASSERT_EQ(simulation.aaParity(), lbm::AaParity::Odd);
        ASSERT_TRUE(simulation.saveCheckpoint(path));
        const std::uint64_t saved = simulation.stateDigest(); // collective
        if (comm.rank() == 0) digestAtSave = saved;
    });

    StateMap got;
    std::mutex mu;
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit,
                                              KernelTier::AaSimd);
        simulation.setWallVelocity({0.04, 0, 0});
        simulation.setPressureDensity(real_c(1.01));
        std::string err;
        ASSERT_TRUE(simulation.loadCheckpoint(path, &err)) << err;
        // The restored state must digest-match the saver at parity Odd...
        EXPECT_EQ(simulation.currentStep(), 3u);
        EXPECT_EQ(simulation.aaParity(), lbm::AaParity::Odd);
        EXPECT_EQ(simulation.stateDigest(), digestAtSave.load());
        simulation.run(5, op);
        const auto& forest = simulation.forest();
        const auto fluid = simulation.masks().fluid;
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t b = 0; b < forest.blocks().size(); ++b) {
            const Cell off = forest.globalCellOffset(forest.blocks()[b]);
            const auto& flags = simulation.flagField(b);
            flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                if (!(flags.get(x, y, z) & fluid)) return;
                got[{off.x + x, off.y + y, off.z + z}] =
                    simulation.cellCanonicalPdfs(b, x, y, z);
            });
        }
    });
    expectStatesEqual(got, want);
}

TEST(AaPersistenceTest, DigestIsInvariantUnderStorageParity) {
    // The same physical trajectory digested at consecutive steps must show
    // the digest changing with the state, not with the parity: digests at
    // step k of two independent same-seed runs agree at every k, whether k
    // leaves the storage at parity Even or Odd.
    const std::uint32_t ranks = 2;
    auto digestsOf = [&](uint_t steps) {
        auto setup = makeSetup(4, ranks);
        const auto flagInit = voxelFlags(32, 8, 8, 555);
        std::atomic<std::uint64_t> d{0};
        vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
            sim::DistributedSimulation simulation(comm, setup, flagInit,
                                                  KernelTier::AaSimd);
            simulation.setWallVelocity({0.04, 0, 0});
            simulation.setPressureDensity(real_c(1.01));
            simulation.run(steps, TRT::fromOmegaAndMagic(1.6));
            const std::uint64_t dig = simulation.stateDigest(); // collective
            if (comm.rank() == 0) d = dig;
        });
        return d.load();
    };
    const std::uint64_t evenA = digestsOf(4), evenB = digestsOf(4);
    const std::uint64_t oddA = digestsOf(5), oddB = digestsOf(5);
    EXPECT_EQ(evenA, evenB);
    EXPECT_EQ(oddA, oddB);
    EXPECT_NE(evenA, oddA) << "digest must track the state across a step";
}

} // namespace
} // namespace walb
