/// Integration tests of the full distributed stack: block forest + virtual
/// MPI + ghost-layer PDF exchange + boundary handling + kernels. The
/// gold standard: a multi-block, multi-rank run must reproduce the
/// one-block, one-rank run of the same global problem — also across the
/// wrapping links of a periodic forest.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <optional>
#include <ostream>

#include "core/Crc32.h"
#include "sim/DistributedSimulation.h"
#include "support/BoxDomain.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace walb::sim {
namespace {

using lbm::TRT;

constexpr cell_idx_t N = 16; // global domain: N^3 cells

/// Global flag assignment of the reference problem: lid-driven cavity with
/// a moving lid at y = N-1 and no-slip walls elsewhere.
void cavityFlags(field::FlagField& flags, const lbm::BoundaryFlags& masks, const Cell& offset) {
    flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        const Cell g{offset.x + x, offset.y + y, offset.z + z};
        if (g.x < 0 || g.y < 0 || g.z < 0 || g.x >= N || g.y >= N || g.z >= N) return;
        if (g.y == N - 1) flags.addFlag(x, y, z, masks.ubb);
        else if (g.x == 0 || g.x == N - 1 || g.y == 0 || g.z == 0 || g.z == N - 1)
            flags.addFlag(x, y, z, masks.noSlip);
        else flags.addFlag(x, y, z, masks.fluid);
    });
}

bf::SetupBlockForest cavitySetup(std::uint32_t blocksPerAxis, std::uint32_t ranks,
                                 bool graphBalance = false) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, real_c(N), real_c(N), real_c(N));
    cfg.rootBlocksX = cfg.rootBlocksY = cfg.rootBlocksZ = blocksPerAxis;
    const auto cells = std::uint32_t(uint_c(N) / blocksPerAxis);
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = cells;
    auto setup = bf::SetupBlockForest::create(cfg);
    if (graphBalance) setup.balanceGraph(ranks);
    else setup.balanceMorton(ranks);
    return setup;
}

DistributedSimulation::FlagInitializer distributedCavityFlags() {
    return [](field::FlagField& flags, const lbm::BoundaryFlags& masks,
              const bf::BlockForest::Block& block, const geometry::CellMapping& mapping) {
        const auto cells = cell_idx_c(std::llround(mapping.blockBox.xSize() / mapping.dx));
        const Cell offset{block.gridPos.x * cells, block.gridPos.y * cells,
                          block.gridPos.z * cells};
        cavityFlags(flags, masks, offset);
    };
}

/// Reference solution: the cavity as one block on one rank.
std::vector<Vec3> referenceCavity(uint_t steps, const std::vector<Cell>& probes) {
    vmpi::SerialComm comm;
    DistributedSimulation sim(comm, cavitySetup(1, 1), distributedCavityFlags(),
                              KernelTier::Simd);
    sim.setWallVelocity({0.04, 0, 0});
    sim.run(steps, TRT::fromOmegaAndMagic(1.3));
    std::vector<Vec3> result;
    for (const Cell& p : probes) result.push_back(sim.gatherCellVelocity(p));
    return result;
}

struct DistCase {
    std::uint32_t blocksPerAxis;
    int ranks;
    bool graphBalance;
    KernelTier tier;
};

/// Names the case in test listings; without it gtest prints the struct's
/// bytes, padding included, which differ from build to build.
void PrintTo(const DistCase& c, std::ostream* os) {
    *os << c.blocksPerAxis << "^3 blocks on " << c.ranks << " rank(s), "
        << (c.graphBalance ? "graph" : "morton") << ", " << kernelTierName(c.tier);
}

class DistributedEquivalence : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedEquivalence, MatchesSingleBlockReference) {
    const auto param = GetParam();
    const uint_t steps = 40;
    const std::vector<Cell> probes = {
        {N / 2, N / 2, N / 2}, {1, N - 2, 1}, {N - 2, 1, N - 2}, {3, 7, 11}, {7, 7, 8}};
    const std::vector<Vec3> reference = referenceCavity(steps, probes);

    const auto setup = cavitySetup(param.blocksPerAxis, std::uint32_t(param.ranks),
                                   param.graphBalance);
    vmpi::ThreadCommWorld::launch(param.ranks, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags(), param.tier);
        sim.setWallVelocity({0.04, 0, 0});
        sim.run(steps, TRT::fromOmegaAndMagic(1.3));
        for (std::size_t p = 0; p < probes.size(); ++p) {
            const Vec3 u = sim.gatherCellVelocity(probes[p]);
            EXPECT_NEAR(u[0], reference[p][0], 1e-13) << "probe " << probes[p];
            EXPECT_NEAR(u[1], reference[p][1], 1e-13) << "probe " << probes[p];
            EXPECT_NEAR(u[2], reference[p][2], 1e-13) << "probe " << probes[p];
        }
    });
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, DistributedEquivalence,
    ::testing::Values(DistCase{2, 1, false, KernelTier::Simd},   // multi-block, one rank
                      DistCase{2, 4, false, KernelTier::Simd},   // 8 blocks on 4 ranks
                      DistCase{2, 8, false, KernelTier::Simd},   // one block per rank
                      DistCase{4, 4, false, KernelTier::Simd},   // 64 blocks on 4 ranks
                      DistCase{2, 4, true, KernelTier::Simd}),   // graph-balanced
    [](const auto& tinfo) {
        const auto& p = tinfo.param;
        return std::to_string(p.blocksPerAxis) + "x_ranks" + std::to_string(p.ranks) +
               (p.graphBalance ? "_graph" : "_morton") + "_simd";
    });

TEST(Distributed, MassConservedAcrossRanks) {
    const auto setup = cavitySetup(2, 4);
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags());
        sim.setWallVelocity({0.04, 0, 0});
        const real_t m0 = sim.gatherTotalMass();
        sim.run(100, TRT::fromOmegaAndMagic(1.3));
        EXPECT_NEAR(sim.gatherTotalMass(), m0, 1e-9 * m0);
    });
}

TEST(Distributed, UniformEquilibriumIsExactFixedPoint) {
    // An all-periodic-free enclosed box at rest must stay exactly at rest:
    // any packing/unpacking asymmetry would disturb it.
    const auto setup = cavitySetup(2, 8);
    vmpi::ThreadCommWorld::launch(8, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags());
        sim.setWallVelocity({0, 0, 0}); // lid at rest: closed box
        sim.run(20, TRT::fromOmegaAndMagic(1.0));
        const Vec3 u = sim.gatherCellVelocity({N / 2, N / 2, N / 2});
        // Zero up to non-associative summation residue of the lattice
        // weights (~1e-18); any packing asymmetry would be orders larger.
        EXPECT_NEAR(u[0], 0.0, 1e-15);
        EXPECT_NEAR(u[1], 0.0, 1e-15);
        EXPECT_NEAR(u[2], 0.0, 1e-15);
    });
}

TEST(Distributed, FluidCellCountsMatchReference) {
    const auto setup = cavitySetup(2, 4);
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags());
        // Interior fluid cells of the cavity: (N-2)^3 minus nothing else.
        EXPECT_EQ(sim.globalFluidCells(), uint_c((N - 2) * (N - 2) * (N - 2)));
    });
}

TEST(Distributed, CommunicationVolumeIsDirectionSliced) {
    // With 2x2x2 blocks of 8^3 cells on 2 ranks (Morton: 4 blocks each),
    // the direction-sliced exchange ships 5 PDFs per face cell and 1 per
    // edge cell -- far less than the full 19 PDFs per ghost cell.
    const auto setup = cavitySetup(2, 2);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags());
        sim.run(1, TRT::fromOmegaAndMagic(1.3));
        const std::size_t bytes = sim.bytesLastExchange();
        ASSERT_GT(bytes, 0u);
        // Upper bound if all 19 PDFs of every interface cell were sent:
        // 4 faces of 64 cells (+ edges) per rank pair ~ conservative bound.
        const std::size_t fullBytes = 4u * 64u * 19u * sizeof(real_t) * 2;
        EXPECT_LT(bytes, fullBytes / 2) << "exchange not direction-sliced?";
    });
}

TEST(Distributed, TimingPoolSeparatesPhases) {
    const auto setup = cavitySetup(2, 2);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, distributedCavityFlags());
        sim.run(5, TRT::fromOmegaAndMagic(1.3));
        EXPECT_EQ(sim.timing()["communication"].count(), 5u);
        EXPECT_EQ(sim.timing()["collideStream"].count(), 5u);
        EXPECT_GT(sim.timing().grandTotal(), 0.0);
        EXPECT_GT(sim.timing().fraction("collideStream"), 0.0);
    });
}

TEST(Distributed, SerialCommBackendWorksToo) {
    const auto setup = cavitySetup(2, 1);
    vmpi::SerialComm comm;
    DistributedSimulation sim(comm, setup, distributedCavityFlags());
    sim.setWallVelocity({0.04, 0, 0});
    sim.run(10, TRT::fromOmegaAndMagic(1.3));
    const Vec3 u = sim.gatherCellVelocity({N / 2, N - 2, N / 2});
    EXPECT_NE(u[0], 0.0); // lid layer is moving
}

TEST(Distributed, RejectsTiersOtherThanSimdAndAaSimd) {
    // The tier is checked before any block data is built or any message is
    // sent, so on a 2-rank world every rank throws and launch returns.
    const auto expectRejected = [](vmpi::Comm& comm, const bf::SetupBlockForest& setup) {
        for (const KernelTier tier : {KernelTier::Generic, KernelTier::D3Q19, KernelTier::Aa}) {
            const std::string name = std::string("'") + kernelTierName(tier) + "'";
            try {
                DistributedSimulation sim(comm, setup, distributedCavityFlags(), tier);
                ADD_FAILURE() << "tier " << name << " was accepted on rank " << comm.rank();
            } catch (const OptionError& e) {
                EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
            }
        }
    };
    vmpi::SerialComm serial;
    expectRejected(serial, cavitySetup(2, 1));
    const auto setup = cavitySetup(2, 2);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) { expectRejected(comm, setup); });
}

/// Channel periodic in x and z between a no-slip floor and a lid moving
/// diagonally, with random obstacle voxels: flow crosses every wrap.
field::flag_t periodicChannelFlag(const Cell& g, field::FlagField&, const lbm::BoundaryFlags& m) {
    constexpr cell_idx_t kTop = 11;
    if (g.y == 0) return m.noSlip;
    if (g.y == kTop) return m.ubb;
    const auto h = std::uint64_t(g.x * 73856093) ^ std::uint64_t(g.y * 19349663) ^
                   std::uint64_t(g.z * 83492791);
    return h % 13 == 0 ? m.noSlip : m.fluid;
}

TEST(PeriodicForest, ChannelDigestIsLayoutInvariant) {
    // One block (its own neighbor across both wraps), and 4 x 1 x 2 blocks
    // on one rank and on four: x wraps to the block at the far end, on
    // another rank under Morton placement; z links a block twice (+z and
    // -z) to its one z neighbor. On 4 x 1 x 1 blocks over four ranks each
    // block is its own z neighbor and has remote x links.
    struct Layout {
        std::array<std::uint32_t, 3> blocks;
        std::uint32_t ranks;
    };
    const Layout layouts[] = {
        {{1, 1, 1}, 1}, {{4, 1, 2}, 1}, {{4, 1, 2}, 4}, {{4, 1, 1}, 4}};
    const auto box = [](const Layout& l) {
        return test::BoxDomain{{16, 12, 8}, l.blocks, {true, false, true}};
    };

    // The layouts hold the links the test is about.
    const bf::BlockForest single(box(layouts[0]).setup(1), 0);
    ASSERT_EQ(single.blocks()[0].neighbors.size(), 8u); // the 8 links with no y step
    for (const auto& n : single.blocks()[0].neighbors) EXPECT_EQ(n.localIndex, 0);
    const auto spread = box(layouts[2]).setup(4);
    std::size_t remoteWraps = 0;
    for (std::uint32_t rank = 0; rank < 4; ++rank) {
        const bf::BlockForest forest(spread, rank);
        for (const auto& b : forest.blocks())
            for (const auto& n : b.neighbors) {
                const cell_idx_t x = b.gridPos.x + n.dir[0];
                if (n.localIndex < 0 && (x < 0 || x >= 4)) ++remoteWraps;
            }
    }
    EXPECT_GT(remoteWraps, 0u);

    // The state digest sums per-block row CRCs, so it follows the block
    // decomposition; this fingerprint hashes the canonical PDFs of every
    // fluid cell in global cell order instead.
    std::optional<std::uint32_t> reference;
    for (const KernelTier tier : {KernelTier::Simd, KernelTier::AaSimd})
        for (const bool overlap : {false, true})
            for (const Layout& l : layouts) {
                const auto setup = box(l).setup(l.ranks);
                std::map<Cell, std::array<real_t, lbm::D3Q19::Q>> state;
                std::mutex mu;
                vmpi::ThreadCommWorld::launch(int(l.ranks), [&](vmpi::Comm& comm) {
                    DistributedSimulation sim(comm, setup, box(l).flags(periodicChannelFlag), tier);
                    sim.setOverlapCommunication(overlap);
                    sim.setWallVelocity({0.05, 0, 0.03});
                    sim.run(21, TRT::fromOmegaAndMagic(1.4));
                    const auto& forest = sim.forest();
                    std::lock_guard<std::mutex> lock(mu);
                    for (std::size_t b = 0; b < forest.blocks().size(); ++b) {
                        const Cell offset = forest.globalCellOffset(forest.blocks()[b]);
                        const auto& flags = sim.flagField(b);
                        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                            if (flags.get(x, y, z) & sim.masks().fluid)
                                state[offset + Cell{x, y, z}] = sim.cellCanonicalPdfs(b, x, y, z);
                        });
                    }
                });
                std::uint32_t digest = 0;
                for (const auto& [cell, pdfs] : state)
                    digest = crc32(pdfs.data(), sizeof(pdfs), digest);
                if (!reference) reference = digest;
                EXPECT_EQ(digest, *reference)
                    << kernelTierName(tier) << (overlap ? " overlap, " : " sync, ")
                    << l.blocks[0] * l.blocks[1] * l.blocks[2] << " block(s) on " << l.ranks
                    << " rank(s)";
            }
}

/// mem.pdf_bytes counts the stored slots of a block's PDF fields, which on
/// a sparse block are a small part of the full allocation: a tube of radius
/// 4 through a 32^3 block (5% fluid).
TEST(PdfStorage, GaugeCountsTheStoredSlotsOfASparseBlock) {
    const test::BoxDomain box{{32, 32, 32}};
    const auto tube = box.flags([](const Cell& g, field::FlagField&, const lbm::BoundaryFlags& m) {
        const real_t dy = real_c(g.y) - 15.5, dz = real_c(g.z) - 15.5;
        return dy * dy + dz * dz < 16 ? m.fluid : m.noSlip;
    });
    for (const KernelTier tier : {KernelTier::Simd, KernelTier::AaSimd}) {
        SCOPED_TRACE(kernelTierName(tier));
        vmpi::SerialComm comm;
        DistributedSimulation s(comm, box.setup(1), tube, tier);
        s.run(2, TRT::fromOmegaAndMagic(1.2));
        const lbm::PdfField& src = s.pdfField(0);
        const lbm::PdfField& dst = s.pdfDstField(0);
        const auto full = [](const lbm::PdfField& f) {
            return double(f.xAllocSize() * f.yAllocSize() * f.zAllocSize()) * double(f.fSize());
        };
        const double gauge = s.metrics().gauge("mem.pdf_bytes").value();
        EXPECT_EQ(gauge, double((src.allocCells() + dst.allocCells()) * sizeof(real_t)));
        EXPECT_LE(gauge, 0.15 * (full(src) + full(dst)) * double(sizeof(real_t)));
        EXPECT_GT(s.localFluidCells(), 0u);
    }
}

} // namespace
} // namespace walb::sim
