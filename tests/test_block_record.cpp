/// Tests for the fluid-proportional block-record codec (sim/Checkpoint.h)
/// shared by the .wckp file, the buddy copy and live migration: the stored
/// set is complete for every kernel tier and schedule, a restart is
/// digest-exact from its first step on through all three carriers, the
/// digest is equal on the two-grid and the in-place tier, the scatter
/// load hands each rank only its own records, a deterministic mutation
/// fuzzer finds no input that aborts or half-applies the reader, and the
/// migrator rejects a corrupt record with a typed error before any live
/// field is written.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <map>
#include <mutex>
#include <tuple>

#include "core/BinaryIO.h"
#include "core/Crc32.h"
#include "core/Random.h"
#include "lbm/KernelAa.h"
#include "rebalance/Migrator.h"
#include "recover/BuddyCheckpoint.h"
#include "sim/Checkpoint.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/FaultyComm.h"
#include "vmpi/Tags.h"
#include "vmpi/ThreadComm.h"

namespace walb {
namespace {

using lbm::TRT;
using M = lbm::D3Q19;

// ---- fixture: random voxel channel on 2 x 2 x 1 blocks ----------------------

std::uint64_t cellHash(std::uint64_t seed, cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    std::uint64_t h = seed ^ (std::uint64_t(std::uint32_t(x)) << 42) ^
                      (std::uint64_t(std::uint32_t(y)) << 21) ^ std::uint64_t(std::uint32_t(z));
    return splitmix64(h);
}

/// 16 x 16 x 8 cells: UBB lid, pressure face at y = 0, no-slip walls and
/// random obstacles, so every link kind has interior hull cells on several
/// blocks, and hull cells sit next to block faces.
sim::DistributedSimulation::FlagInitializer channelFlags(std::uint64_t seed) {
    return [seed](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                  const bf::BlockForest::Block&, const geometry::CellMapping& mapping) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 p = mapping.cellCenter(x, y, z);
            if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[0] > 16 || p[1] > 16 || p[2] > 8) return;
            const Cell g{cell_idx_t(p[0]), cell_idx_t(p[1]), cell_idx_t(p[2])};
            if (g.z == 7) flags.addFlag(x, y, z, masks.ubb);
            else if (g.y == 0) flags.addFlag(x, y, z, masks.pressure);
            else if (g.x == 0 || g.x == 15 || g.y == 15 || g.z == 0)
                flags.addFlag(x, y, z, masks.noSlip);
            else if (cellHash(seed, g.x, g.y, g.z) % 6 == 0)
                flags.addFlag(x, y, z, masks.noSlip);
            else flags.addFlag(x, y, z, masks.fluid);
        });
    };
}

bf::SetupBlockForest channelSetup(std::uint32_t ranks) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 16, 16, 8);
    cfg.rootBlocksX = cfg.rootBlocksY = 2;
    cfg.rootBlocksZ = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    return setup;
}

constexpr std::uint64_t kSeed = 2013;
const TRT kOp = TRT::fromOmegaAndMagic(1.6);

void configure(sim::DistributedSimulation& s, bool overlap = false) {
    s.setWallVelocity({0.04, 0, 0});
    s.setPressureDensity(real_c(1.01));
    s.setOverlapCommunication(overlap);
}

/// Test-name spelling of the two driver tiers.
const char* tierName(KernelTier t) { return t == KernelTier::AaSimd ? "AaSimd" : "Simd"; }

// ---- the stored set is complete ---------------------------------------------

/// (tier, overlapped schedule, steps before the check: 4 leaves the AA
/// storage at parity Even, 5 at parity Odd).
using CompletenessParam = std::tuple<KernelTier, bool, uint_t>;

class StoredSetCompleteness : public testing::TestWithParam<CompletenessParam> {};

TEST_P(StoredSetCompleteness, EverySlotOutsideItHoldsTheInitializersValue) {
    const auto [tier, overlap, steps] = GetParam();
    const auto setup = channelSetup(2);
    const auto flags = channelFlags(kSeed);
    std::atomic<std::size_t> mismatches{0}, storedChanged{0}, linkSlots{0};
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation run(comm, setup, flags, tier);
        configure(run, overlap);
        run.run(steps, kOp);
        sim::DistributedSimulation fresh(comm, setup, flags, tier);
        for (std::size_t b = 0; b < run.forest().numLocalBlocks(); ++b) {
            const lbm::FluidRunList runs =
                lbm::buildFluidRuns(run.flagField(b), run.masks().fluid);
            const std::vector<std::size_t> links =
                sim::hullLinkSlots(run.flagField(b), run.masks(), run.pdfField(b));
            const lbm::PdfField& pdf = run.pdfField(b);
            std::vector<bool> stored(pdf.allocCells(), false), fluid(pdf.allocCells(), false);
            for (const lbm::FluidRun& r : runs.runs)
                for (cell_idx_t f = 0; f < cell_idx_t(M::Q); ++f)
                    for (cell_idx_t x = r.xBegin; x <= r.xEnd; ++x)
                        stored[pdf.index(x, r.y, r.z, f)] = fluid[pdf.index(x, r.y, r.z, f)] = true;
            // The AA tiers store no link slots: their canonical view holds the
            // fluid cells only, read per cell under the current parity.
            if (run.usesAaPattern()) {
                for (const lbm::FluidRun& r : runs.runs)
                    for (cell_idx_t x = r.xBegin; x <= r.xEnd; ++x) {
                        const auto got = run.cellCanonicalPdfs(b, x, r.y, r.z);
                        const auto init = fresh.cellCanonicalPdfs(b, x, r.y, r.z);
                        for (std::size_t f = 0; f < M::Q; ++f)
                            if (std::bit_cast<std::uint64_t>(got[f]) !=
                                std::bit_cast<std::uint64_t>(init[f]))
                                ++storedChanged;
                    }
                continue;
            }
            for (const std::size_t i : links) stored[i] = true;
            linkSlots += links.size();
            // src and dst, where dst fluid cells are rewritten by the next
            // sweep before any read.
            const std::pair<const lbm::PdfField*, const lbm::PdfField*> fields[] = {
                {&run.pdfField(b), &fresh.pdfField(b)},
                {&run.pdfDstField(b), &fresh.pdfDstField(b)}};
            for (std::size_t k = 0; k < 2; ++k) {
                const auto& [got, init] = fields[k];
                pdf.interior().forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                    if (!pdf.isStored(x, y, z)) return;
                    for (cell_idx_t f = 0; f < cell_idx_t(M::Q); ++f) {
                        const std::size_t i = pdf.index(x, y, z, f);
                        const bool same = std::bit_cast<std::uint64_t>(got->data()[i]) ==
                                          std::bit_cast<std::uint64_t>(init->data()[i]);
                        if (stored[i]) {
                            if (k == 0 && !same) ++storedChanged;
                        } else if (!same && !(k == 1 && fluid[i])) {
                            ++mismatches;
                        }
                    }
                });
            }
        }
    });
    EXPECT_EQ(mismatches.load(), 0u) << "interior slots changed outside the stored set";
    EXPECT_GT(storedChanged.load(), 0u) << "the run did not move the state";
    if (!isAaTier(tier)) {
        EXPECT_GT(linkSlots.load(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, StoredSetCompleteness,
    testing::Combine(testing::Values(KernelTier::Simd, KernelTier::AaSimd), testing::Bool(),
                     testing::Values(uint_t(4), uint_t(5))),
    [](const testing::TestParamInfo<CompletenessParam>& p) {
        return std::string(tierName(std::get<0>(p.param))) +
               (std::get<1>(p.param) ? "_Overlap" : "_Sync") + "_Steps" +
               std::to_string(std::get<2>(p.param));
    });

// ---- a restart is digest-exact from its first step ----------------------------

/// (tier, steps before the save: for AaSimd 4 saves at parity Even, 5 at
/// parity Odd).
using RestartParam = std::tuple<KernelTier, uint_t>;

class RestartDigests : public testing::TestWithParam<RestartParam> {
protected:
    /// Digests at 0, 1 and 2 steps after `steps` uninterrupted steps.
    static std::array<std::uint64_t, 3> digestsAfter(sim::DistributedSimulation& s) {
        std::array<std::uint64_t, 3> d{};
        for (std::size_t k = 0; k < 3; ++k) {
            if (k > 0) s.run(1, kOp);
            d[k] = s.stateDigest();
        }
        return d;
    }
};

TEST_P(RestartDigests, WckpLoadMatchesTheUninterruptedRun) {
    const auto [tier, steps] = GetParam();
    const auto setup = channelSetup(2);
    const auto flags = channelFlags(kSeed);
    // One file per instance: ctest runs the instances as parallel processes.
    const std::string path = testing::TempDir() + "/walb_restart_digests_" + tierName(tier) +
                             std::to_string(steps) + ".wckp";
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation run(comm, setup, flags, tier);
        configure(run);
        run.run(steps, kOp);
        ASSERT_TRUE(run.saveCheckpoint(path));
        const auto want = digestsAfter(run);

        sim::DistributedSimulation restarted(comm, setup, flags, tier);
        configure(restarted);
        std::string err;
        ASSERT_TRUE(restarted.loadCheckpoint(path, &err)) << err;
        EXPECT_EQ(restarted.currentStep(), steps);
        const auto got = digestsAfter(restarted);
        for (std::size_t k = 0; k < 3; ++k)
            EXPECT_EQ(got[k], want[k]) << k << " step(s) after the load";
    });
    std::remove(path.c_str());
}

TEST_P(RestartDigests, BuddyRestoreMatchesTheUninterruptedRun) {
    const auto [tier, steps] = GetParam();
    const auto setup = channelSetup(2);
    const auto flags = channelFlags(kSeed);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation run(comm, setup, flags, tier);
        configure(run);
        run.run(steps, kOp);
        recover::BuddyCheckpoint buddy;
        buddy.refresh(run, comm, run.currentStep());
        const auto want = digestsAfter(run);
        // Rewind the same live simulation, as a recovery does for survivors.
        run.run(3, kOp);
        std::string err;
        ASSERT_TRUE(buddy.restoreOwnBlocks(run, &err)) << err;
        EXPECT_EQ(run.currentStep(), steps);
        const auto got = digestsAfter(run);
        for (std::size_t k = 0; k < 3; ++k)
            EXPECT_EQ(got[k], want[k]) << k << " step(s) after the restore";
    });
}

TEST_P(RestartDigests, MigrationMatchesTheUninterruptedRun) {
    const auto [tier, steps] = GetParam();
    const auto setup = channelSetup(2);
    const auto flags = channelFlags(kSeed);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation reference(comm, setup, flags, tier);
        configure(reference);
        reference.run(steps, kOp);
        const auto want = digestsAfter(reference);

        sim::DistributedSimulation moved(comm, setup, flags, tier);
        configure(moved);
        moved.run(steps, kOp);
        // Every block changes rank; rank 0 ends up with three of four.
        std::vector<std::uint32_t> owner;
        for (const auto& b : moved.setup().blocks()) owner.push_back(1 - b.process);
        owner[0] = owner[1] = owner[2] = 0;
        owner[3] = 1;
        rebalance::migrate(moved, owner);
        const auto got = digestsAfter(moved);
        for (std::size_t k = 0; k < 3; ++k)
            EXPECT_EQ(got[k], want[k]) << k << " step(s) after the migration";
    });
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, RestartDigests,
    testing::Values(RestartParam{KernelTier::Simd, 4}, RestartParam{KernelTier::Simd, 5},
                    RestartParam{KernelTier::AaSimd, 4}, RestartParam{KernelTier::AaSimd, 5}),
    [](const testing::TestParamInfo<RestartParam>& p) {
        return std::string(tierName(std::get<0>(p.param))) + "_Steps" +
               std::to_string(std::get<1>(p.param));
    });

// ---- the digest is tier-invariant -------------------------------------------------

/// (overlapped schedule, ranks).
using TierInvarianceParam = std::tuple<bool, std::uint32_t>;

class DigestTierInvariance : public testing::TestWithParam<TierInvarianceParam> {};

TEST_P(DigestTierInvariance, SimdAndAaSimdDigestsAreEqualAtBothParities) {
    // The digest hashes the canonical PDFs of the fluid cells only, and
    // the two tiers compute bit-identical fluid states, so the two-grid
    // and the in-place run digest equal after an even (AA storage at
    // parity Even) and an odd (parity Odd) step count — with noSlip, UBB
    // and pressure links at block faces.
    const auto [overlap, ranks] = GetParam();
    const auto setup = channelSetup(ranks);
    const auto flags = channelFlags(kSeed);
    constexpr uint_t kSteps[] = {0, 4, 5};
    std::array<std::array<std::atomic<std::uint64_t>, 3>, 2> digest{};
    for (const KernelTier tier : {KernelTier::Simd, KernelTier::AaSimd}) {
        vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
            sim::DistributedSimulation s(comm, setup, flags, tier);
            configure(s, overlap);
            for (std::size_t k = 0; k < 3; ++k) {
                s.run(kSteps[k] - s.currentStep(), kOp);
                const std::uint64_t d = s.stateDigest();
                if (comm.rank() == 0) digest[isAaTier(tier) ? 1 : 0][k] = d;
            }
        });
    }
    for (std::size_t k = 0; k < 3; ++k)
        EXPECT_EQ(digest[0][k].load(), digest[1][k].load()) << "after " << kSteps[k] << " steps";
    EXPECT_NE(digest[0][1].load(), digest[0][0].load()) << "the run did not move the state";
    EXPECT_NE(digest[0][2].load(), digest[0][1].load()) << "the odd step did not move the state";
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, DigestTierInvariance,
    testing::Combine(testing::Bool(), testing::Values(std::uint32_t(1), std::uint32_t(4))),
    [](const testing::TestParamInfo<TierInvarianceParam>& p) {
        return std::string(std::get<0>(p.param) ? "Overlap" : "Sync") + "_" +
               std::to_string(std::get<1>(p.param)) + "Ranks";
    });

// ---- the record is fluid-proportional ---------------------------------------------

TEST(BlockRecordCodec, RecordSizeFollowsTheStoredSet) {
    const auto setup = channelSetup(1);
    const auto flags = channelFlags(kSeed);
    for (const KernelTier tier : {KernelTier::Simd, KernelTier::AaSimd}) {
        vmpi::ThreadCommWorld::launch(1, [&](vmpi::Comm& comm) {
            sim::DistributedSimulation s(comm, setup, flags, tier);
            configure(s);
            s.run(3, kOp);
            for (std::size_t b = 0; b < s.forest().numLocalBlocks(); ++b) {
                const std::size_t fluidCells =
                    lbm::buildFluidRuns(s.flagField(b), s.masks().fluid).fluidCells;
                SendBuffer buf;
                sim::appendBlockRecord(s, b, buf);
                EXPECT_EQ(buf.size(), sim::blockRecordBytes(s, b));
                // BlockID, payload size and CRC; the fluid-cell count and
                // the flag CRC; the stored PDFs.
                EXPECT_EQ(buf.size(), 25 + 8 + 8 * M::Q * fluidCells);
                const lbm::PdfField& pdf = s.pdfField(b);
                EXPECT_LT(buf.size(), std::size_t(pdf.xAllocSize() * pdf.yAllocSize() *
                                                  pdf.zAllocSize()) *
                                          M::Q * sizeof(real_t) / 2);
            }
        });
    }
}

/// Writes a value that depends only on `key` into every slot a record
/// stores: the canonical slots of the fluid cells under the current step
/// pattern. Multiples of 1/1024, so the bytes do not depend on how a build rounds
/// the kernels' arithmetic (optimization level and sanitizers change it).
void fillStoredSet(sim::DistributedSimulation& s, std::uint64_t salt) {
    const auto value = [](std::uint64_t key) {
        return real_c(double(splitmix64(key) % 4096) / 1024.0);
    };
    for (std::size_t b = 0; b < s.forest().numLocalBlocks(); ++b) {
        const std::uint64_t block =
            salt << 40 ^ std::uint64_t(s.forest().blocks()[b].id.rootIndex()) << 32;
        lbm::PdfField& pdf = s.pdfField(b);
        for (const lbm::FluidRun& r : s.fluidRuns(b).runs)
            for (cell_idx_t x = r.xBegin; x <= r.xEnd; ++x)
                for (uint_t a = 0; a < M::Q; ++a)
                    *lbm::canonicalSlot(pdf, s.stepPattern(), x, r.y, r.z, a) =
                        value(cellHash(block ^ a, x, r.y, r.z));
    }
}

/// Size and CRC-32 of whole .wckp files of the channel (noSlip, UBB and
/// pressure links), per tier and rank count: a save at step 2, then one at
/// step 3 onto the same path (the other AA parity, and a replace), each
/// after fillStoredSet. Both tiers store the same canonical fluid PDFs, so
/// their files are equal byte for byte. Any change to a written byte of
/// the version-4 writer fails this test.
TEST(BlockRecordCodec, WholeFileBytesArePinned) {
    struct Pin {
        KernelTier tier;
        std::uint32_t ranks;
        std::size_t bytes;
        std::uint32_t crc;
    };
    const Pin pins[] = {{KernelTier::Simd, 1, 147472, 0xd0f30237u},
                        {KernelTier::Simd, 2, 147484, 0xddec16cfu},
                        {KernelTier::AaSimd, 1, 147472, 0xd0f30237u},
                        {KernelTier::AaSimd, 2, 147484, 0xddec16cfu}};
    for (const Pin& pin : pins) {
        const std::string name = std::string(tierName(pin.tier)) + "_" + std::to_string(pin.ranks);
        SCOPED_TRACE(name + " rank(s)");
        const std::string path = testing::TempDir() + "/walb_pinned_" + name + ".wckp";
        const auto setup = channelSetup(pin.ranks);
        vmpi::ThreadCommWorld::launch(int(pin.ranks), [&](vmpi::Comm& comm) {
            sim::DistributedSimulation s(comm, setup, channelFlags(kSeed), pin.tier);
            for (const std::uint64_t step : {2u, 3u}) {
                s.setCurrentStep(step);
                fillStoredSet(s, step);
                ASSERT_TRUE(s.saveCheckpoint(path));
            }
        });
        std::vector<std::uint8_t> file;
        ASSERT_TRUE(readFile(path, file));
        EXPECT_EQ(file.size(), pin.bytes);
        EXPECT_EQ(crc32Bytewise(file.data(), file.size()), pin.crc);
        std::remove(path.c_str());
    }
}

TEST(BlockRecordCodec, VersionTwoFileIsRejectedNamingTheVersion) {
    const std::string path = testing::TempDir() + "/walb_v2.wckp";
    SendBuffer v2;
    v2 << sim::kCheckpointMagic << std::uint32_t(2) << std::uint32_t(1) << std::uint32_t(8)
       << std::uint32_t(8) << std::uint32_t(8) << std::uint64_t(3) << std::uint32_t(1);
    ASSERT_TRUE(writeFile(path, v2));
    const auto setup = channelSetup(1);
    vmpi::ThreadCommWorld::launch(1, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, setup, channelFlags(kSeed));
        configure(s);
        s.run(2, kOp);
        const std::uint64_t digest = s.stateDigest();
        std::string err;
        EXPECT_FALSE(s.loadCheckpoint(path, &err));
        EXPECT_NE(err.find("version 2"), std::string::npos) << err;
        EXPECT_EQ(s.stateDigest(), digest);
        sim::CheckpointHeader h;
        EXPECT_FALSE(sim::checkpointPeek(path, h, &err));
        EXPECT_NE(err.find("version 2"), std::string::npos) << err;
    });
    std::remove(path.c_str());
}

/// A block stores its PDFs for the rows its fluid cells reach, so a record
/// of another geometry (other obstacles) is rejected before anything is
/// written, not scattered outside the storage.
TEST(BlockRecordCodec, RecordOfOtherFluidCellsIsRejected) {
    const auto setup = channelSetup(1);
    vmpi::ThreadCommWorld::launch(1, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation other(comm, setup, channelFlags(kSeed + 1));
        SendBuffer buf;
        sim::appendBlockRecord(other, 0, buf);
        sim::DistributedSimulation s(comm, setup, channelFlags(kSeed));
        configure(s);
        s.run(2, kOp);
        const std::uint64_t digest = s.stateDigest();
        RecvBuffer rb{std::span<const std::uint8_t>(buf.data(), buf.size())};
        try {
            (void)sim::verifyBlockRecord(s, rb);
            ADD_FAILURE() << "record of other fluid cells was accepted";
        } catch (const sim::CheckpointError& e) {
            EXPECT_NE(std::string(e.what()).find("other fluid cells"), std::string::npos)
                << e.what();
        }
        EXPECT_EQ(s.stateDigest(), digest);
    });
}

/// The channel with its pressure face flagged UBB: the same fluid cells,
/// only the kind of one boundary differs.
sim::DistributedSimulation::FlagInitializer ubbOutletFlags(std::uint64_t seed) {
    return [base = channelFlags(seed)](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                                       const bf::BlockForest::Block& block,
                                       const geometry::CellMapping& mapping) {
        base(flags, masks, block, mapping);
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!(flags.get(x, y, z) & masks.pressure)) return;
            flags.removeFlag(x, y, z, masks.pressure);
            flags.addFlag(x, y, z, masks.ubb);
        });
    };
}

std::vector<field::flag_t> flagBytes(sim::DistributedSimulation& s) {
    std::vector<field::flag_t> out;
    for (std::size_t b = 0; b < s.forest().numLocalBlocks(); ++b) {
        const field::FlagField& f = s.flagField(b);
        out.insert(out.end(), f.data(), f.data() + f.allocCells());
    }
    return out;
}

/// A block's boundary links are derived from its own flags, so a record
/// of a block with other boundary kinds is rejected — on the disk path
/// and on the in-memory path of migration and the buddy copy — and
/// leaves the state and the flags as they were.
TEST(BlockRecordCodec, RecordOfOtherBoundaryKindsIsRejected) {
    // Each rank owns one block of the y = 0 face, so both see the mismatch.
    auto setup = channelSetup(2);
    for (auto& b : setup.blocks()) b.process = std::uint32_t(b.gridPos.x);
    const std::string path = testing::TempDir() + "/walb_pressure_outlet.wckp";
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation pressure(comm, setup, channelFlags(kSeed));
        configure(pressure);
        pressure.run(2, kOp);
        ASSERT_TRUE(pressure.saveCheckpoint(path));
        SendBuffer records;
        for (std::size_t b = 0; b < pressure.forest().numLocalBlocks(); ++b)
            sim::appendBlockRecord(pressure, b, records);

        sim::DistributedSimulation s(comm, setup, ubbOutletFlags(kSeed));
        configure(s);
        s.run(3, kOp);
        const std::uint64_t digest = s.stateDigest();
        const std::vector<field::flag_t> flags = flagBytes(s);
        std::string err;
        EXPECT_FALSE(s.loadCheckpoint(path, &err));
        EXPECT_NE(err.find("block record of block"), std::string::npos) << err;
        EXPECT_NE(err.find("boundary flags"), std::string::npos) << err;
        EXPECT_EQ(s.currentStep(), 3u);
        EXPECT_EQ(s.stateDigest(), digest);
        EXPECT_EQ(flagBytes(s), flags);

        RecvBuffer rb{std::span<const std::uint8_t>(records.data(), records.size())};
        std::size_t rejected = 0;
        for (std::size_t b = 0; b < pressure.forest().numLocalBlocks(); ++b) {
            const field::FlagField& mine = s.flagField(b);
            const field::FlagField& theirs = pressure.flagField(b);
            const bool same =
                std::equal(mine.data(), mine.data() + mine.allocCells(), theirs.data());
            try {
                EXPECT_TRUE(sim::verifyBlockRecord(s, rb).has_value());
                EXPECT_TRUE(same) << "block " << b << " of other boundary kinds was accepted";
            } catch (const sim::CheckpointError& e) {
                ++rejected;
                EXPECT_FALSE(same) << e.what();
                EXPECT_NE(std::string(e.what()).find("boundary flags"), std::string::npos)
                    << e.what();
            }
        }
        EXPECT_EQ(rejected, 1u);
        EXPECT_EQ(s.stateDigest(), digest);
        EXPECT_EQ(flagBytes(s), flags);
    });
    std::remove(path.c_str());
}

/// Canonical PDFs of every fluid cell, keyed by global cell.
using FluidState = std::map<std::tuple<cell_idx_t, cell_idx_t, cell_idx_t>,
                            std::array<real_t, M::Q>>;

void collectFluidState(sim::DistributedSimulation& s, FluidState& out, std::mutex& mu) {
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t b = 0; b < s.forest().numLocalBlocks(); ++b) {
        const Cell off = s.forest().globalCellOffset(s.forest().blocks()[b]);
        const auto& flags = s.flagField(b);
        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (flags.get(x, y, z) & s.masks().fluid)
                out[{off.x + x, off.y + y, off.z + z}] = s.cellCanonicalPdfs(b, x, y, z);
        });
    }
}

TEST(BlockRecordCodec, RestartAcrossTiersKeepsTheFluidState) {
    // AaSimd and Simd compute bit-identical trajectories, so a restart
    // that switches between them must continue the saved fluid state
    // exactly: both store the same canonical fluid PDFs, and a two-grid
    // reader's hull slots are rewritten by its boundary pass before any
    // read.
    const auto setup = channelSetup(2);
    const auto flags = channelFlags(kSeed);
    FluidState want;
    std::mutex mu;
    std::atomic<std::uint64_t> wantDigest{0};
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, setup, flags, KernelTier::Simd);
        configure(s);
        s.run(7, kOp);
        collectFluidState(s, want, mu);
        const std::uint64_t d = s.stateDigest();
        if (comm.rank() == 0) wantDigest = d;
    });
    for (const auto& [saver, loader] : {std::pair{KernelTier::AaSimd, KernelTier::Simd},
                                        std::pair{KernelTier::Simd, KernelTier::AaSimd}}) {
        SCOPED_TRACE(std::string(tierName(saver)) + " -> " + tierName(loader));
        const std::string path =
            testing::TempDir() + "/walb_cross_tier_" + tierName(saver) + ".wckp";
        FluidState got;
        std::atomic<std::uint64_t> gotDigest{0};
        vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
            sim::DistributedSimulation save(comm, setup, flags, saver);
            configure(save);
            save.run(5, kOp); // odd: AA storage is parity-swapped
            ASSERT_TRUE(save.saveCheckpoint(path));
            sim::DistributedSimulation load(comm, setup, flags, loader);
            configure(load);
            std::string err;
            ASSERT_TRUE(load.loadCheckpoint(path, &err)) << err;
            load.run(2, kOp);
            collectFluidState(load, got, mu);
            const std::uint64_t d = load.stateDigest();
            if (comm.rank() == 0) gotDigest = d;
        });
        EXPECT_EQ(got.size(), want.size());
        std::size_t mismatches = 0;
        for (const auto& [cell, pdfs] : want) {
            const auto it = got.find(cell);
            if (it == got.end() || it->second != pdfs) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u);
        // The digest hashes exactly this fluid state, whatever the tier.
        EXPECT_EQ(gotDigest.load(), wantDigest.load());
        std::remove(path.c_str());
    }
}

// ---- scatter load ------------------------------------------------------------------

/// Comm decorator that records the largest message each rank receives
/// point-to-point, per tag, and the largest broadcast payload.
class RecordingComm final : public vmpi::Comm {
public:
    explicit RecordingComm(vmpi::Comm& inner) : inner_(inner) {}
    int rank() const override { return inner_.rank(); }
    int size() const override { return inner_.size(); }
    void send(int dest, int tag, std::vector<std::uint8_t> data) override {
        inner_.send(dest, tag, std::move(data));
    }
    std::vector<std::uint8_t> recv(int src, int tag) override {
        auto data = inner_.recv(src, tag);
        note(tag, data.size());
        return data;
    }
    bool tryRecv(int src, int tag, std::vector<std::uint8_t>& out) override {
        const bool got = inner_.tryRecv(src, tag, out);
        if (got) note(tag, out.size());
        return got;
    }
    void barrier() override { inner_.barrier(); }
    void broadcast(std::vector<std::uint8_t>& data, int root) override {
        inner_.broadcast(data, root);
        maxBroadcast = std::max(maxBroadcast, data.size());
    }
    void allreduce(std::span<double> inout, vmpi::ReduceOp op) override {
        inner_.allreduce(inout, op);
    }
    void allreduce(std::span<std::uint64_t> inout, vmpi::ReduceOp op) override {
        inner_.allreduce(inout, op);
    }
    std::vector<std::vector<std::uint8_t>> allgatherv(std::span<const std::uint8_t> mine) override {
        return inner_.allgatherv(mine);
    }
    std::vector<std::vector<std::uint8_t>> gatherv(std::span<const std::uint8_t> mine,
                                                   int root) override {
        return inner_.gatherv(mine, root);
    }

    std::map<int, std::size_t> maxReceived;
    std::size_t maxBroadcast = 0;

private:
    void note(int tag, std::size_t bytes) {
        maxReceived[tag] = std::max(maxReceived[tag], bytes);
    }
    vmpi::Comm& inner_;
};

TEST(BlockRecordCodec, ScatterLoadSendsEachRankOnlyItsOwnRecords) {
    // Saved on 4 ranks, restored on 4 ranks with a different assignment:
    // blocks are found by ID, and no rank receives more than its own
    // records — never the whole file.
    const auto saveSetup = channelSetup(4);
    auto loadSetup = channelSetup(4);
    for (auto& b : loadSetup.blocks()) b.process = 3 - b.process;
    const auto flags = channelFlags(kSeed);
    const std::string path = testing::TempDir() + "/walb_scatter.wckp";
    std::atomic<std::uint64_t> saved{0};
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, saveSetup, flags);
        configure(s);
        s.run(3, kOp);
        ASSERT_TRUE(s.saveCheckpoint(path));
        const std::uint64_t d = s.stateDigest();
        if (comm.rank() == 0) saved = d;
    });
    std::vector<std::uint8_t> file;
    ASSERT_TRUE(readFile(path, file));
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& world) {
        RecordingComm comm(world);
        sim::DistributedSimulation s(comm, loadSetup, flags);
        configure(s);
        std::string err;
        ASSERT_TRUE(s.loadCheckpoint(path, &err)) << err;
        EXPECT_EQ(s.stateDigest(), saved.load());
        EXPECT_LT(comm.maxBroadcast, file.size() / 2);
        if (comm.rank() == 0) return;
        std::size_t own = 0;
        for (std::size_t b = 0; b < s.forest().numLocalBlocks(); ++b)
            own += sim::blockRecordBytes(s, b);
        const std::size_t got = comm.maxReceived[vmpi::tags::kCheckpointScatter];
        EXPECT_GE(got, own);
        EXPECT_LT(got, own + 64) << "rank " << comm.rank() << " got more than its own records";
    });
    std::remove(path.c_str());
}

// ---- mutation fuzzer ----------------------------------------------------------------

/// Where the length and count fields of a v4 file sit.
struct FileLayout {
    std::vector<std::size_t> cuts;          ///< every record boundary but the end
    std::vector<std::size_t> contribLength; ///< u64 contribution lengths
    std::vector<std::size_t> numBlocks;     ///< u32 block counts
    std::vector<std::size_t> payloadLength; ///< u64 record payload sizes
    std::vector<std::size_t> payloadStart;  ///< first payload byte (the u32 counts)
    std::size_t numContribs = 0;            ///< u32 numRankContributions
};

FileLayout layoutOf(const std::vector<std::uint8_t>& bytes) {
    FileLayout l;
    RecvBuffer file{std::span<const std::uint8_t>(bytes)};
    const auto here = [&] { return bytes.size() - file.remaining(); };
    sim::CheckpointHeader h;
    std::uint32_t magic = 0, crc = 0;
    file >> magic >> h.version >> h.worldSize >> h.cellsX >> h.cellsY >> h.cellsZ >> h.step;
    l.numContribs = here();
    file >> h.numRankContributions >> crc;
    l.cuts.push_back(here());
    for (std::uint32_t c = 0; c < h.numRankContributions; ++c) {
        l.contribLength.push_back(here());
        std::uint64_t length = 0;
        file >> length;
        l.cuts.push_back(here());
        l.numBlocks.push_back(here());
        std::uint32_t n = 0;
        file >> n;
        l.cuts.push_back(here());
        for (std::uint32_t b = 0; b < n; ++b) {
            file.skip(bf::BlockID::kWireBytes);
            l.payloadLength.push_back(here());
            std::uint64_t payload = 0;
            file >> payload >> crc;
            l.cuts.push_back(here());
            l.payloadStart.push_back(here());
            file.skip(std::size_t(payload));
            l.cuts.push_back(here());
        }
    }
    l.cuts.pop_back();
    return l;
}

/// Recomputes the header CRC and every record CRC, so a crafted length
/// gets past the checksums and reaches the bounds checks behind them.
void resealCrcs(std::vector<std::uint8_t>& bytes, const FileLayout& l) {
    detail::putLE(bytes.data() + l.numContribs + 4, crc32(bytes.data(), l.numContribs + 4), 4);
    for (std::size_t r = 0; r < l.payloadStart.size(); ++r) {
        const std::size_t id = l.payloadLength[r] - bf::BlockID::kWireBytes;
        const auto payload = std::size_t(detail::getLE(bytes.data() + l.payloadLength[r], 8));
        const std::size_t start = l.payloadStart[r];
        if (start + payload > bytes.size()) continue;
        std::uint32_t crc = crc32(bytes.data() + id, start - 4 - id);
        crc = crc32(bytes.data() + start, payload, crc);
        detail::putLE(bytes.data() + start - 4, crc, 4);
    }
}

TEST(CheckpointFuzz, EveryMutationFailsCleanlyAndLeavesTheStateUntouched) {
    const auto setup = channelSetup(2);
    const auto flags = channelFlags(kSeed);
    const std::string path = testing::TempDir() + "/walb_fuzz.wckp";
    const std::string mutant = testing::TempDir() + "/walb_fuzz_mutant.wckp";
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation s(comm, setup, flags, KernelTier::Simd);
        configure(s);
        s.run(3, kOp);
        ASSERT_TRUE(s.saveCheckpoint(path));
        s.run(2, kOp);
        const std::uint64_t digest = s.stateDigest();
        std::vector<std::uint8_t> whole;
        ASSERT_TRUE(readFile(path, whole));
        const FileLayout layout = layoutOf(whole);

        // The cases, built identically on every rank.
        std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases;
        Random rng(20130517);
        for (int k = 0; k < 400; ++k) {
            auto bytes = whole;
            const std::size_t at = std::size_t(rng.uniformInt(bytes.size()));
            bytes[at] ^= std::uint8_t(1 + rng.uniformInt(255));
            cases.push_back({"flip at " + std::to_string(at), std::move(bytes)});
        }
        for (const std::size_t cut : layout.cuts)
            cases.push_back({"cut at " + std::to_string(cut),
                             {whole.begin(), whole.begin() + std::ptrdiff_t(cut)}});
        const auto inflate = [&](const std::string& what, std::size_t at, unsigned width,
                                 std::uint64_t value, bool reseal) {
            auto bytes = whole;
            detail::putLE(bytes.data() + at, value, width);
            if (reseal) resealCrcs(bytes, layout);
            cases.push_back({what + " at " + std::to_string(at), std::move(bytes)});
        };
        inflate("numRankContributions", layout.numContribs, 4, 0xffffffffu, true);
        for (const std::size_t at : layout.contribLength)
            inflate("contribution length", at, 8, 1ull << 62, true);
        for (const std::size_t at : layout.numBlocks)
            inflate("numBlocks", at, 4, 0x7fffffffu, true);
        for (const std::size_t at : layout.payloadLength) {
            inflate("payload length", at, 8, 1ull << 62, false);
            inflate("payload length", at, 8, 1ull << 62, true);
        }
        for (const std::size_t at : layout.payloadStart)
            for (std::size_t field = 0; field < 2; ++field) // fluidCells, flagsCrc
                for (const std::uint64_t v : {0xffffffffull, 0x10000000ull})
                    inflate("payload count " + std::to_string(field), at + 4 * field, 4, v, true);

        for (const auto& [what, bytes] : cases) {
            if (comm.rank() == 0) {
                SendBuffer out;
                out.putBytes(bytes.data(), bytes.size());
                ASSERT_TRUE(writeFile(mutant, out));
            }
            comm.barrier();
            std::string err;
            EXPECT_FALSE(s.loadCheckpoint(mutant, &err)) << what;
            EXPECT_FALSE(err.empty()) << what;
            EXPECT_EQ(s.currentStep(), 5u) << what;
            EXPECT_EQ(s.stateDigest(), digest) << what << ": " << err;
        }
        // The unmutated file still loads.
        std::string err;
        EXPECT_TRUE(s.loadCheckpoint(path, &err)) << err;
        EXPECT_EQ(s.currentStep(), 3u);
    });
    std::remove(path.c_str());
    std::remove(mutant.c_str());
}

// ---- migration rejects a corrupt record ------------------------------------------

TEST(BlockRecordCodec, MigrationRejectsACorruptRecordBeforeWritingAnyField) {
    const auto setup = channelSetup(2);
    const auto flags = channelFlags(kSeed);
    vmpi::FaultPlan plan;
    vmpi::FaultPlan::MessageFault corrupt;
    corrupt.action = vmpi::FaultPlan::Action::Corrupt;
    corrupt.srcRank = 0;
    corrupt.tag = vmpi::tags::kMigration;
    corrupt.corruptFromEnd = 100; // inside the last record's payload
    plan.messageFaults.push_back(corrupt);
    std::string rejection;
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& world) {
        vmpi::FaultyComm comm(world, plan);
        comm.setRecvDeadline(std::chrono::milliseconds(500));
        sim::DistributedSimulation s(comm, setup, flags);
        configure(s);
        s.run(3, kOp);
        // Rank 0 hands one block to rank 1, which keeps both of its own.
        std::vector<std::uint32_t> owner;
        for (const auto& b : s.setup().blocks()) owner.push_back(b.process);
        for (auto& o : owner)
            if (o == 0) {
                o = 1;
                break;
            }
        if (comm.rank() == 0) {
            // Rank 1 never joins the closing ghost exchange.
            EXPECT_THROW(rebalance::migrate(s, owner), vmpi::CommError);
            return;
        }
        try {
            rebalance::migrate(s, owner);
            ADD_FAILURE() << "corrupt migration record was accepted";
        } catch (const sim::CheckpointError& e) {
            rejection = e.what();
        }
        // No record was applied: every interior slot of all three blocks
        // (the received one and the two stashed ones) is still the rebuilt
        // initializer's.
        const auto init = sim::DistributedSimulation::initialPdfs();
        std::size_t changed = 0;
        ASSERT_EQ(s.forest().numLocalBlocks(), 3u);
        for (std::size_t b = 0; b < 3; ++b)
            s.pdfField(b).interior().forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                if (!s.pdfField(b).isStored(x, y, z)) return;
                for (cell_idx_t f = 0; f < cell_idx_t(M::Q); ++f)
                    changed += s.pdfField(b).get(x, y, z, f) != init[std::size_t(f)] ? 1 : 0;
            });
        EXPECT_EQ(changed, 0u);
        EXPECT_EQ(comm.counts().corrupted, 0u); // rank 1 sent nothing corrupt
    });
    EXPECT_NE(rejection.find("migration message from rank 0"), std::string::npos) << rejection;
    EXPECT_NE(rejection.find("CRC mismatch on block"), std::string::npos) << rejection;
    EXPECT_NE(rejection.find("(stored)"), std::string::npos) << rejection;
    EXPECT_NE(rejection.find("(computed)"), std::string::npos) << rejection;
}

} // namespace
} // namespace walb
