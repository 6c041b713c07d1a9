/// Tests of the fluid-aware ghost exchange (sim::PdfCommScheme's exchange
/// plans, lbm::planExchangeRuns): on random voxel geometries every slot a
/// fluid cell reads after one exchange equals what the full-slice exchange
/// writes there, the plan moves exactly one slot per (slot, fluid reader)
/// pair, all-solid faces ship nothing, malformed payload lengths surface as
/// CommError{Corrupt}, the receive masks survive block migration, and a
/// sender that disagrees with its receiver on a shared cell stores the
/// slots the receiver's plan names.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <tuple>

#include "lbm/Boundary.h"
#include "rebalance/Migrator.h"
#include "sim/DistributedSimulation.h"
#include "support/BoxDomain.h"
#include "support/Oracles.h"
#include "vmpi/ThreadComm.h"

namespace walb::sim {
namespace {

using lbm::D3Q19;
using lbm::ExchangeMode;
using lbm::PdfField;
using Mode = ExchangeMode;

constexpr cell_idx_t CX = 5, CY = 4, CZ = 3; // cells per block (non-cubic)

std::uint64_t mix(std::uint64_t h) {
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

std::uint64_t hashCell(std::uint64_t seed, const Cell& c) {
    return mix(seed ^ mix(std::uint64_t(c.x + 64) | std::uint64_t(c.y + 64) << 16 |
                          std::uint64_t(c.z + 64) << 32));
}

bf::SetupBlockForest makeSetup(std::uint32_t bx, std::uint32_t by, std::uint32_t bz,
                               std::uint32_t ranks) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, real_c(bx * CX), real_c(by * CY), real_c(bz * CZ));
    cfg.rootBlocksX = bx;
    cfg.rootBlocksY = by;
    cfg.rootBlocksZ = bz;
    cfg.cellsPerBlockX = std::uint32_t(CX);
    cfg.cellsPerBlockY = std::uint32_t(CY);
    cfg.cellsPerBlockZ = std::uint32_t(CZ);
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    return setup;
}

Cell globalCell(const bf::BlockForest::Block& b, cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    return {b.gridPos.x * CX + x, b.gridPos.y * CY + y, b.gridPos.z * CZ + z};
}

/// Every cell is fluid with probability ~0.6, a pure function of its
/// global position. With `fillGhosts` false the ghost layers stay empty,
/// as a user initializer may leave them: then only the receiver knows
/// which of its cells read a slot.
DistributedSimulation::FlagInitializer randomFlags(std::uint64_t seed, bool fillGhosts = true) {
    return [seed, fillGhosts](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                              const bf::BlockForest::Block& b, const geometry::CellMapping&) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!fillGhosts && !flags.interior().contains(Cell{x, y, z})) return;
            if (hashCell(seed, globalCell(b, x, y, z)) % 10 < 6)
                flags.addFlag(x, y, z, masks.fluid);
        });
    };
}

/// A distinct value per (block, cell, slot), ghosts included.
void fillDistinct(PdfField& f, const Cell& gridPos) {
    for (cell_idx_t a = 0; a < cell_idx_c(D3Q19::Q); ++a)
        for (cell_idx_t z = -1; z <= CZ; ++z)
            for (cell_idx_t y = -1; y <= CY; ++y)
                for (cell_idx_t x = -1; x <= CX; ++x)
                    if (f.isStored(x, y, z))
                        f.get(x, y, z, a) = real_c(
                        hashCell(std::uint64_t(a) * 7919 + 1,
                                 {gridPos.x * 97 + x, gridPos.y * 89 + y, gridPos.z * 83 + z}) %
                        1000003);
}

using GridKey = std::tuple<cell_idx_t, cell_idx_t, cell_idx_t>;
GridKey key(const Cell& c) { return {c.x, c.y, c.z}; }

/// The full-slice exchange of `mode` on the whole forest in one address
/// space, through the free functions: packPdfs/unpackPdfs for the two-grid
/// ghost fill, addLocalCopyAaForward/addLocalCopyAaReverse for the AA modes.
std::map<GridKey, PdfField> fullSliceReference(bf::SetupBlockForest setup, Mode mode) {
    for (auto& b : setup.blocks()) b.process = 0;
    const bf::BlockForest forest(setup, 0);
    std::vector<PdfField> start;
    for (const auto& b : forest.blocks()) {
        start.push_back(lbm::makePdfField<D3Q19>(CX, CY, CZ));
        fillDistinct(start.back(), b.gridPos);
    }
    std::vector<PdfField> out = start;
    lbm::LocalCopyPlan plan;
    for (std::size_t b = 0; b < forest.blocks().size(); ++b)
        for (const auto& n : forest.blocks()[b].neighbors) {
            const PdfField& from = start[std::size_t(n.localIndex)];
            const std::array<int, 3> back = {-n.dir[0], -n.dir[1], -n.dir[2]};
            if (mode == Mode::TwoGrid) {
                SendBuffer sb;
                lbm::packPdfs<D3Q19>(from, back, sb);
                RecvBuffer rb(std::vector<std::uint8_t>(sb.data(), sb.data() + sb.size()));
                lbm::unpackPdfs<D3Q19>(out[b], n.dir, rb);
            } else if (mode == Mode::AaForward) {
                lbm::addLocalCopyAaForward<D3Q19>(plan, from, out[b], n.dir);
            } else {
                lbm::addLocalCopyAaReverse<D3Q19>(plan, from, out[b], back);
            }
        }
    plan.run();
    std::map<GridKey, PdfField> byGrid;
    for (std::size_t b = 0; b < forest.blocks().size(); ++b)
        byGrid.emplace(key(forest.blocks()[b].gridPos), std::move(out[b]));
    return byGrid;
}

/// The slot the next sweep reads for population a of cell x under `mode`.
std::pair<Cell, cell_idx_t> readSlot(Mode mode, const Cell& x, uint_t a) {
    const Cell pull = x - Cell{D3Q19::c[a][0], D3Q19::c[a][1], D3Q19::c[a][2]};
    switch (mode) {
        case Mode::TwoGrid: return {pull, cell_idx_c(a)};
        case Mode::AaForward: return {pull, cell_idx_c(D3Q19::inv[a])};
        case Mode::AaReverse: break;
    }
    return {x, cell_idx_c(a)};
}

/// Block direction of the ghost region holding cell c, or nullopt when c
/// is interior.
std::optional<std::array<int, 3>> ghostRegion(const Cell& c) {
    const auto side = [](cell_idx_t v, cell_idx_t n) { return v < 0 ? -1 : v >= n ? 1 : 0; };
    const std::array<int, 3> g = {side(c.x, CX), side(c.y, CY), side(c.z, CZ)};
    if (g == std::array<int, 3>{0, 0, 0}) return std::nullopt;
    return g;
}

std::string modeName(Mode mode) {
    switch (mode) {
        case Mode::TwoGrid: return "TwoGrid";
        case Mode::AaForward: return "AaForward";
        case Mode::AaReverse: break;
    }
    return "AaReverse";
}

struct PlanCase {
    Mode mode;
    int ranks;
};

class ExchangePlanReaders : public ::testing::TestWithParam<PlanCase> {};

TEST_P(ExchangePlanReaders, ReadSlotsMatchFullSliceExchange) {
    const auto [mode, ranks] = GetParam();
    const auto setup = makeSetup(3, 2, 2, std::uint32_t(ranks));
    const auto reference = fullSliceReference(setup, mode);
    // Seed 2024 leaves the ghost flags empty.
    for (const std::uint64_t seed : {11ull, 2024ull}) {
        std::atomic<std::size_t> planned{0}, pairs{0}, fullSlice{0}, mismatches{0};
        vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& comm) {
            DistributedSimulation sim(comm, setup, randomFlags(seed, seed != 2024));
            PdfCommScheme& scheme = sim.commScheme();
            const auto& blocks = sim.forest().blocks();
            // The first plan query stores every slot a send reads (with empty
            // ghost flags a block's own fluid reaches fewer), so fill after it.
            (void)scheme.shippedSlots(mode);
            for (std::size_t b = 0; b < blocks.size(); ++b)
                fillDistinct(sim.pdfField(b), blocks[b].gridPos);
            scheme.setExchangeMode(mode);
            scheme.communicate();
            planned += scheme.copiedSlots(mode) + scheme.shippedSlots(mode);

            for (std::size_t b = 0; b < blocks.size(); ++b) {
                std::array<bool, 26> backed{};
                for (const auto& n : blocks[b].neighbors) {
                    backed[lbm::dirIndex26(n.dir)] = true;
                    const std::array<int, 3> back = {-n.dir[0], -n.dir[1], -n.dir[2]};
                    fullSlice += lbm::commDirections<D3Q19>(back).size() *
                                 lbm::recvInterval(sim.pdfField(b), n.dir).numCells();
                }
                const PdfField& got = sim.pdfField(b);
                const PdfField& want = reference.at(key(blocks[b].gridPos));
                const auto& flags = sim.flagField(b);
                flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                    if (!(flags.get(x, y, z) & sim.masks().fluid)) return;
                    for (uint_t a = 0; a < D3Q19::Q; ++a) {
                        const auto [c, slot] = readSlot(mode, {x, y, z}, a);
                        if (got.get(c, slot) != want.get(c, slot)) ++mismatches;
                        // The exchange writes the slot iff its producer (the
                        // pull source) lies in a neighbor-backed ghost region.
                        const Cell src = Cell{x, y, z} - Cell{D3Q19::c[a][0], D3Q19::c[a][1],
                                                              D3Q19::c[a][2]};
                        const auto g = ghostRegion(src);
                        if (g && backed[lbm::dirIndex26(*g)]) ++pairs;
                    }
                });
            }
        });
        EXPECT_EQ(mismatches.load(), 0u) << "seed " << seed;
        EXPECT_EQ(planned.load(), pairs.load()) << "seed " << seed;
        EXPECT_GT(pairs.load(), 0u) << "seed " << seed;
        EXPECT_LT(planned.load(), fullSlice.load()) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndRanks, ExchangePlanReaders,
    ::testing::Values(PlanCase{Mode::TwoGrid, 1}, PlanCase{Mode::TwoGrid, 2},
                      PlanCase{Mode::TwoGrid, 3}, PlanCase{Mode::TwoGrid, 5},
                      PlanCase{Mode::TwoGrid, 8}, PlanCase{Mode::AaForward, 1},
                      PlanCase{Mode::AaForward, 3}, PlanCase{Mode::AaForward, 8},
                      PlanCase{Mode::AaReverse, 1}, PlanCase{Mode::AaReverse, 2},
                      PlanCase{Mode::AaReverse, 5}, PlanCase{Mode::AaReverse, 8}),
    [](const ::testing::TestParamInfo<PlanCase>& p) {
        return modeName(p.param.mode) + "_ranks" + std::to_string(p.param.ranks);
    });

/// Two blocks along x: a fluid pocket in block 0 touching their shared
/// face, walls everywhere else. With `disagree`, block 1 sees the shared
/// cell (4, 1, 1) as a wall although block 0 owns it as fluid: block 1's
/// own fluid view then does not reach all the slots block 0's cell reads
/// from it, and the plan build must store them.
DistributedSimulation::FlagInitializer pocketFlags(bool disagree) {
    return [disagree](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                      const bf::BlockForest::Block& b, const geometry::CellMapping&) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Cell g = globalCell(b, x, y, z);
            bool fluid = g.x >= 1 && g.x <= 4 && g.y >= 1 && g.y <= 2 && g.z == 1;
            if (disagree && b.gridPos.x == 1 && g == Cell{4, 1, 1}) fluid = false;
            flags.addFlag(x, y, z, fluid ? masks.fluid : masks.noSlip);
        });
    };
}

TEST(ExchangePlan, SenderStoresTheSlotsOfAReceiverItDisagreesWith) {
    const auto run = [](std::uint32_t ranks, KernelTier tier, bool overlap, bool disagree,
                        std::size_t* grownBy) {
        std::uint64_t digest = 0;
        std::atomic<std::size_t> grown{0};
        vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
            DistributedSimulation sim(comm, makeSetup(2, 1, 1, ranks), pocketFlags(disagree),
                                      tier);
            sim.setOverlapCommunication(overlap);
            test::setFluidEquilibrium(sim, [](const Cell& g) {
                return Vec3(0.02 * real_c(g.x), 0.01 * real_c(g.y - 1), 0.0);
            });
            std::vector<std::size_t> before;
            for (std::size_t b = 0; b < sim.forest().numLocalBlocks(); ++b)
                before.push_back(sim.pdfField(b).rowTable()->cells());
            sim.run(9, lbm::TRT::fromOmegaAndMagic(1.3));
            for (std::size_t b = 0; b < before.size(); ++b)
                grown += sim.pdfField(b).rowTable()->cells() - before[b];
            const std::uint64_t d = sim.stateDigest();
            if (comm.rank() == 0) digest = d;
        });
        if (grownBy) *grownBy = grown.load();
        return digest;
    };
    const std::uint64_t agreeing = run(1, KernelTier::Simd, false, false, nullptr);
    for (const std::uint32_t ranks : {1u, 2u})
        for (const KernelTier tier : {KernelTier::Simd, KernelTier::AaSimd})
            for (const bool overlap : {false, true}) {
                SCOPED_TRACE(testing::Message() << ranks << " ranks, " << kernelTierName(tier)
                                                << (overlap ? ", overlap" : ", sync"));
                std::size_t grown = 0;
                EXPECT_EQ(run(ranks, tier, overlap, true, &grown), agreeing);
                EXPECT_GT(grown, 0u) << "block 1's storage did not grow";
            }
}

TEST(ExchangePlan, AllSolidReceivingFaceGetsNoPayload) {
    // Two blocks along x on two ranks; block 1's interior layer facing
    // block 0 is solid, everything else fluid.
    const auto setup = makeSetup(2, 1, 1, 2);
    const auto flags = [](field::FlagField& ff, const lbm::BoundaryFlags& masks,
                          const bf::BlockForest::Block& b, const geometry::CellMapping&) {
        ff.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (globalCell(b, x, y, z).x != CX) ff.addFlag(x, y, z, masks.fluid);
        });
    };
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        DistributedSimulation sim(comm, setup, flags);
        PdfCommScheme& scheme = sim.commScheme();
        ASSERT_EQ(sim.forest().blocks().size(), 1u);
        const auto& block = sim.forest().blocks()[0];
        ASSERT_EQ(block.neighbors.size(), 1u);
        const bool solidFace = block.gridPos.x == 1;
        for (const Mode mode : {Mode::TwoGrid, Mode::AaForward, Mode::AaReverse}) {
            const std::size_t received = scheme.recvSlots(mode, 0, block.neighbors[0].dir);
            if (solidFace) {
                EXPECT_EQ(received, 0u) << int(mode);
            } else {
                EXPECT_GT(received, 0u) << int(mode);
            }
            // The sender toward the solid face ships no PDF at all.
            EXPECT_EQ(scheme.shippedSlots(mode) == 0, !solidFace) << int(mode);
        }
        scheme.communicate();
        if (!solidFace) {
            EXPECT_EQ(scheme.bytesLastExchange(), 0u);
        }
    });
}

TEST(ExchangePlan, PayloadOneSlotShortOrLongIsCorruptNamingThePeer) {
    const auto setup = makeSetup(2, 1, 1, 2);
    for (const int delta : {-1, 1}) {
        vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
            DistributedSimulation sim(comm, setup, randomFlags(7));
            PdfCommScheme& scheme = sim.commScheme();
            if (comm.rank() == 1) {
                // A well-formed message whose (block, dir) payload is one
                // slot off the plan.
                // Always sent, so rank 0 never waits for it.
                const auto& block = sim.forest().blocks()[0];
                const std::size_t slots = scheme.shippedSlots(Mode::TwoGrid);
                EXPECT_GT(slots, 0u);
                const auto sent = std::max<std::int64_t>(0, std::int64_t(slots) + delta);
                SendBuffer sb;
                block.id.toWire(sb);
                sb << std::uint8_t(lbm::dirIndex26(block.neighbors[0].dir))
                   << std::uint32_t(sent);
                for (std::int64_t i = 0; i < sent; ++i) sb << real_c(1);
                comm.send(0, vmpi::tags::kGhostExchange, sb.release());
                return;
            }
            try {
                scheme.communicate();
                ADD_FAILURE() << "payload off by " << delta << " was accepted";
            } catch (const vmpi::CommError& e) {
                EXPECT_EQ(e.kind, vmpi::CommError::Kind::Corrupt);
                EXPECT_EQ(e.peer, 1);
                EXPECT_NE(std::string(e.what()).find("slots"), std::string::npos) << e.what();
            }
            scheme.abortExchange();
        });
    }
}

/// A tube along x through a 2 x 2 x 2 forest: UBB inflow at x = 0, pressure
/// outflow at the far end, no-slip hull around it.
DistributedSimulation::FlagInitializer tubeFlags(cell_idx_t nx) {
    return [nx](field::FlagField& ff, const lbm::BoundaryFlags& masks,
                const bf::BlockForest::Block& b, const geometry::CellMapping&) {
        ff.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Cell g = globalCell(b, x, y, z);
            const real_t dy = real_c(g.y) + real_c(0.5) - real_c(CY);
            const real_t dz = real_c(g.z) + real_c(0.5) - real_c(CZ);
            if (dy * dy + dz * dz > real_c(4.5) || g.x < 0 || g.x >= nx) return;
            if (g.x == 0) ff.addFlag(x, y, z, masks.ubb);
            else if (g.x == nx - 1) ff.addFlag(x, y, z, masks.pressure);
            else ff.addFlag(x, y, z, masks.fluid);
        });
        lbm::markBoundaryHull<D3Q19>(ff, masks.fluid, masks.boundaryMask(), masks.noSlip);
    };
}

class ExchangePlanMigration : public ::testing::TestWithParam<KernelTier> {};

TEST_P(ExchangePlanMigration, ReceiveMasksSurviveBlockAssignment) {
    const KernelTier tier = GetParam();
    constexpr int ranks = 4;
    const auto setup = makeSetup(2, 2, 2, ranks);
    const auto flagInit = tubeFlags(2 * CX);
    const lbm::TRT op = lbm::TRT::fromOmegaAndMagic(1.4);
    const auto run = [&](bool migrate) {
        std::atomic<std::uint64_t> digest{0};
        vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& comm) {
            DistributedSimulation sim(comm, setup, flagInit, tier);
            sim.setWallVelocity({0.02, 0, 0});
            sim.run(5, op);
            if (migrate) {
                std::vector<std::uint32_t> owners;
                for (const auto& b : sim.setup().blocks())
                    owners.push_back((b.process + 1) % std::uint32_t(ranks));
                rebalance::migrate(sim, owners);
            }
            sim.run(20, op);
            const std::uint64_t d = sim.stateDigest();
            if (comm.rank() == 0) digest = d;
        });
        return digest.load();
    };
    EXPECT_EQ(run(true), run(false));
}

INSTANTIATE_TEST_SUITE_P(Tiers, ExchangePlanMigration,
                         ::testing::Values(KernelTier::Simd, KernelTier::AaSimd),
                         [](const ::testing::TestParamInfo<KernelTier>& p) {
                             return p.param == KernelTier::Simd ? std::string("Simd")
                                                                : std::string("AaSimd");
                         });

} // namespace
} // namespace walb::sim
