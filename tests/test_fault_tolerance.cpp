/// Tests for the fault-tolerant runtime (ISSUE PR 2): typed buffer underflow
/// errors, CRC32, recv deadlines, FaultyComm fault injection, the versioned
/// CRC-protected checkpoint format, the HealthMonitor guards — and the
/// end-to-end acceptance drill: a 4-rank run whose rank is killed mid-run
/// terminates with a structured CommError (no hang) and a restart from the
/// last checkpoint reproduces the uninterrupted run bit-exactly.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>

#include "core/BinaryIO.h"
#include "core/Buffer.h"
#include "core/Crc32.h"
#include "sim/Checkpoint.h"
#include "sim/DistributedSimulation.h"
#include "sim/Health.h"
#include "vmpi/BufferSystem.h"
#include "vmpi/FaultyComm.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace walb {
namespace {

using lbm::TRT;
using namespace std::chrono_literals;

// ---- typed buffer errors ---------------------------------------------------

TEST(BufferErrorTest, UnderflowThrowsTypedErrorWithCounts) {
    RecvBuffer rb(std::vector<std::uint8_t>{1, 2});
    std::uint32_t v = 0;
    try {
        rb >> v;
        FAIL() << "expected BufferError";
    } catch (const BufferError& e) {
        EXPECT_EQ(e.requested, 4u);
        EXPECT_EQ(e.available, 2u);
        EXPECT_NE(std::string(e.what()).find("underflow"), std::string::npos);
    }
}

TEST(BufferErrorTest, CorruptLengthFieldDoesNotDriveAllocation) {
    // A vector length decoded as "huge" must raise BufferError *before* any
    // resize(): the allocation size would otherwise be attacker-controlled.
    SendBuffer sb;
    sb << std::uint64_t(1) << std::uint64_t(42); // element count lies: says 1...
    std::vector<std::uint8_t> bytes = sb.release();
    bytes[0] = 0xff; // ...now says 255+ with only 8 payload bytes present
    RecvBuffer rb(std::move(bytes));
    std::vector<std::uint64_t> v;
    EXPECT_THROW(rb >> v, BufferError);

    SendBuffer sb2;
    sb2 << std::uint32_t(1000); // string claims 1000 chars, carries none
    RecvBuffer rb2(sb2.release());
    std::string s;
    EXPECT_THROW(rb2 >> s, BufferError);
}

TEST(BufferErrorTest, SkipAndCursorHonorBounds) {
    RecvBuffer rb(std::vector<std::uint8_t>{9, 8, 7});
    EXPECT_EQ(*rb.cursor(), 9);
    rb.skip(2);
    EXPECT_EQ(*rb.cursor(), 7);
    EXPECT_THROW(rb.skip(2), BufferError);
    rb.skip(1);
    EXPECT_TRUE(rb.atEnd());
}

// ---- crc32 -----------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVector) {
    // The canonical IEEE 802.3 check value.
    const char* s = "123456789";
    EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32Test, SeedChainingEqualsOneShot) {
    const std::uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const std::uint32_t oneShot = crc32(data, 8);
    std::uint32_t chained = crc32(data, 3);
    chained = crc32(data + 3, 5, chained);
    EXPECT_EQ(oneShot, chained);
    EXPECT_NE(crc32(data, 7), oneShot);
}

TEST(Crc32Test, SliceBy16MatchesBytewiseReference) {
    constexpr std::uint8_t kCheck[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    static_assert(crc32(kCheck, 9) == 0xCBF43926u);
    static_assert(crc32Bytewise(kCheck, 9) == 0xCBF43926u);

    std::mt19937 rng(2013);
    std::vector<std::uint8_t> data(4096 + 16);
    for (auto& b : data) b = std::uint8_t(rng());
    std::uniform_int_distribution<std::size_t> randomLength(0, 4096);
    // Every length 0..40 (all tail lengths around one and two 16-byte
    // strides), then random lengths up to 4096; each at all 16 start
    // misalignments, each check seeded with the previous CRC (chaining).
    std::uint32_t seed = 0;
    for (std::size_t trial = 0; trial < 100; ++trial) {
        const std::size_t n = trial <= 40 ? trial : randomLength(rng);
        for (std::size_t offset = 0; offset < 16; ++offset) {
            const std::uint8_t* p = data.data() + offset;
            const std::uint32_t fast = crc32(p, n, seed);
            ASSERT_EQ(fast, crc32Bytewise(p, n, seed))
                << "length " << n << " offset " << offset << " seed " << seed;
            seed = fast;
        }
    }
}

// ---- recv deadlines --------------------------------------------------------

TEST(RecvDeadline, ThreadCommThrowsStructuredErrorInsteadOfHanging) {
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        if (comm.rank() != 0) return; // rank 1 never sends
        comm.setRecvDeadline(50ms);
        try {
            comm.recv(1, 7);
            FAIL() << "expected CommError";
        } catch (const vmpi::CommError& e) {
            EXPECT_EQ(e.kind, vmpi::CommError::Kind::DeadlineExceeded);
            EXPECT_EQ(e.peer, 1);
            EXPECT_EQ(e.tag, 7);
            EXPECT_GE(e.elapsed, 0.04);
        }
    });
}

TEST(RecvDeadline, DeliveredMessageBeatsTheDeadline) {
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        comm.setRecvDeadline(5000ms);
        if (comm.rank() == 0) {
            vmpi::sendObject(comm, 1, 3, std::uint32_t(1234));
        } else {
            EXPECT_EQ(vmpi::recvObject<std::uint32_t>(comm, 0, 3), 1234u);
        }
    });
}

TEST(RecvDeadline, SerialCommReportsInstantDeadlockStructurally) {
    vmpi::SerialComm comm;
    try {
        comm.recv(0, 5);
        FAIL() << "expected CommError";
    } catch (const vmpi::CommError& e) {
        EXPECT_EQ(e.kind, vmpi::CommError::Kind::DeadlineExceeded);
        EXPECT_EQ(e.tag, 5);
    }
}

TEST(RecvDeadline, BufferSystemCountsMissesAndRethrows) {
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        if (comm.rank() != 0) return;
        comm.setRecvDeadline(50ms);
        vmpi::BufferSystem bs(comm, /*tag=*/9);
        bs.setReceiverInfo({1}); // rank 1 will never send on tag 9
        EXPECT_THROW(bs.exchange(), vmpi::CommError);
        EXPECT_EQ(bs.deadlineMisses(), 1u);
    });
}

// ---- fault injection -------------------------------------------------------

TEST(FaultyCommTest, DropMakesTheReceiverMissItsDeadline) {
    vmpi::FaultPlan plan;
    plan.messageFaults.push_back({vmpi::FaultPlan::Action::Drop, /*src=*/0,
                                  /*dest=*/-1, /*tag=*/-1, /*matchIndex=*/0});
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        vmpi::FaultyComm faulty(comm, plan);
        faulty.setRecvDeadline(50ms);
        if (comm.rank() == 0) {
            vmpi::sendObject(faulty, 1, 1, std::uint32_t(1)); // dropped
            EXPECT_EQ(faulty.counts().dropped, 1u);
        } else {
            EXPECT_THROW(vmpi::recvObject<std::uint32_t>(faulty, 0, 1),
                         vmpi::CommError);
        }
    });
}

TEST(FaultyCommTest, DelayReordersMessages) {
    vmpi::FaultPlan plan;
    vmpi::FaultPlan::MessageFault f;
    f.action = vmpi::FaultPlan::Action::Delay;
    f.srcRank = 0;
    f.matchIndex = 0; // hold the first send back...
    f.delayBySends = 1; // ...until one more send went out
    plan.messageFaults.push_back(f);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        vmpi::FaultyComm faulty(comm, plan);
        if (comm.rank() == 0) {
            vmpi::sendObject(faulty, 1, 1, std::uint32_t(111)); // delayed
            vmpi::sendObject(faulty, 1, 1, std::uint32_t(222)); // overtakes
            EXPECT_EQ(faulty.counts().delayed, 1u);
        } else {
            faulty.setRecvDeadline(5000ms);
            EXPECT_EQ(vmpi::recvObject<std::uint32_t>(faulty, 0, 1), 222u);
            EXPECT_EQ(vmpi::recvObject<std::uint32_t>(faulty, 0, 1), 111u);
        }
    });
}

TEST(FaultyCommTest, BarrierFlushesDelayedMessages) {
    vmpi::FaultPlan plan;
    vmpi::FaultPlan::MessageFault f;
    f.action = vmpi::FaultPlan::Action::Delay;
    f.srcRank = 0;
    f.delayBySends = 100; // would be held essentially forever
    plan.messageFaults.push_back(f);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        vmpi::FaultyComm faulty(comm, plan);
        faulty.setRecvDeadline(5000ms);
        if (comm.rank() == 0) vmpi::sendObject(faulty, 1, 1, std::uint32_t(7));
        faulty.barrier(); // orders everything: the held message must go out
        if (comm.rank() == 1) {
            EXPECT_EQ(vmpi::recvObject<std::uint32_t>(faulty, 0, 1), 7u);
        }
    });
}

TEST(FaultyCommTest, DuplicateDeliversTwice) {
    vmpi::FaultPlan plan;
    plan.messageFaults.push_back({vmpi::FaultPlan::Action::Duplicate, 0});
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        vmpi::FaultyComm faulty(comm, plan);
        faulty.setRecvDeadline(5000ms);
        if (comm.rank() == 0) {
            vmpi::sendObject(faulty, 1, 1, std::uint32_t(5));
            EXPECT_EQ(faulty.counts().duplicated, 1u);
        } else {
            EXPECT_EQ(vmpi::recvObject<std::uint32_t>(faulty, 0, 1), 5u);
            EXPECT_EQ(vmpi::recvObject<std::uint32_t>(faulty, 0, 1), 5u);
        }
    });
}

TEST(FaultyCommTest, TruncateSurfacesAsBufferErrorOnDeserialization) {
    vmpi::FaultPlan plan;
    vmpi::FaultPlan::MessageFault f;
    f.action = vmpi::FaultPlan::Action::Truncate;
    f.srcRank = 0;
    f.truncateToBytes = 2; // a u32 message loses its upper half
    plan.messageFaults.push_back(f);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        vmpi::FaultyComm faulty(comm, plan);
        faulty.setRecvDeadline(5000ms);
        if (comm.rank() == 0) {
            vmpi::sendObject(faulty, 1, 1, std::uint32_t(0xDEADBEEF));
        } else {
            EXPECT_THROW(vmpi::recvObject<std::uint32_t>(faulty, 0, 1), BufferError);
        }
    });
}

TEST(FaultyCommTest, TruncateThroughBufferSystemBecomesCommErrorCorrupt) {
    vmpi::FaultPlan plan;
    vmpi::FaultPlan::MessageFault f;
    f.action = vmpi::FaultPlan::Action::Truncate;
    f.srcRank = 0;
    f.truncateToBytes = 3;
    plan.messageFaults.push_back(f);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        vmpi::FaultyComm faulty(comm, plan);
        faulty.setRecvDeadline(5000ms);
        vmpi::BufferSystem bs(faulty, /*tag=*/4);
        bs.setReceiverInfo({1 - comm.rank()});
        bs.sendBuffer(1 - comm.rank()) << std::uint64_t(0x1122334455667788ull);
        bs.exchange();
        if (comm.rank() == 1) {
            try {
                bs.forEachRecvBuffer([](int, RecvBuffer& buf) {
                    std::uint64_t v = 0;
                    buf >> v;
                });
                FAIL() << "expected CommError";
            } catch (const vmpi::CommError& e) {
                EXPECT_EQ(e.kind, vmpi::CommError::Kind::Corrupt);
                EXPECT_EQ(e.peer, 0);
                EXPECT_EQ(e.tag, 4);
            }
        } else {
            bs.forEachRecvBuffer([](int, RecvBuffer& buf) {
                std::uint64_t v = 0;
                buf >> v;
                EXPECT_EQ(v, 0x1122334455667788ull);
            });
        }
    });
}

TEST(FaultyCommTest, BeginStepKillsThePlannedRankAtThePlannedStep) {
    vmpi::FaultPlan plan;
    plan.killRank = 0;
    plan.killAtStep = 3;
    vmpi::SerialComm inner;
    vmpi::FaultyComm faulty(inner, plan);
    faulty.beginStep(0);
    faulty.beginStep(2); // other steps pass
    try {
        faulty.beginStep(3);
        FAIL() << "expected CommError";
    } catch (const vmpi::CommError& e) {
        EXPECT_EQ(e.kind, vmpi::CommError::Kind::RankKilled);
        EXPECT_EQ(e.peer, 0);
    }
    EXPECT_EQ(faulty.counts().killed, 1u);
}

TEST(FaultyCommTest, InjectionsFeedTheObsCounter) {
    obs::MetricsRegistry metrics;
    vmpi::FaultPlan plan;
    plan.messageFaults.push_back({vmpi::FaultPlan::Action::Drop, /*src=*/-1});
    vmpi::SerialComm inner;
    vmpi::FaultyComm faulty(inner, plan, &metrics);
    faulty.send(0, 1, {1, 2, 3});
    EXPECT_EQ(metrics.counter("comm.faults_injected").value(), 1u);
    EXPECT_EQ(faulty.faultsInjected(), 1u);
}

TEST(FaultPlanTest, RandomizedPlansAreSeedDeterministic) {
    const auto a = vmpi::FaultPlan::randomized(42, 8, 6);
    const auto b = vmpi::FaultPlan::randomized(42, 8, 6);
    ASSERT_EQ(a.messageFaults.size(), 6u);
    for (std::size_t i = 0; i < a.messageFaults.size(); ++i) {
        EXPECT_EQ(a.messageFaults[i].action, b.messageFaults[i].action);
        EXPECT_EQ(a.messageFaults[i].srcRank, b.messageFaults[i].srcRank);
        EXPECT_EQ(a.messageFaults[i].matchIndex, b.messageFaults[i].matchIndex);
    }
    // A different seed produces a different scenario (overwhelmingly likely).
    const auto c = vmpi::FaultPlan::randomized(43, 8, 6);
    bool anyDifferent = false;
    for (std::size_t i = 0; i < a.messageFaults.size(); ++i)
        anyDifferent |= a.messageFaults[i].action != c.messageFaults[i].action ||
                        a.messageFaults[i].srcRank != c.messageFaults[i].srcRank ||
                        a.messageFaults[i].matchIndex != c.messageFaults[i].matchIndex;
    EXPECT_TRUE(anyDifferent);
}

// ---- checkpoint format -----------------------------------------------------

/// 4-block lid-driven cavity used by all simulation-level tests: the lid
/// keeps the state evolving so bit-exactness is a real statement.
bf::SetupBlockForest makeCavitySetup(std::uint32_t ranks) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 8.0 * ranks, 8, 8);
    cfg.rootBlocksX = ranks;
    cfg.rootBlocksY = cfg.rootBlocksZ = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    return setup;
}

sim::DistributedSimulation::FlagInitializer cavityFlags(std::uint32_t ranks) {
    const cell_idx_t NX = 8 * cell_idx_c(ranks);
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

TEST(CheckpointFormat, PeekReadsTheHeader) {
    const std::string path = testing::TempDir() + "/walb_peek.wckp";
    auto setup = makeCavitySetup(1);
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, cavityFlags(1));
    simulation.setWallVelocity({0.03, 0, 0});
    simulation.run(5, TRT::fromOmegaAndMagic(1.4));
    std::size_t bytes = 0;
    ASSERT_TRUE(sim::checkpointSave(simulation, path, simulation.currentStep(), &bytes));
    EXPECT_GT(bytes, 0u);

    sim::CheckpointHeader h;
    std::string err;
    ASSERT_TRUE(sim::checkpointPeek(path, h, &err)) << err;
    EXPECT_EQ(h.version, sim::kCheckpointVersion);
    EXPECT_EQ(h.worldSize, 1u);
    EXPECT_EQ(h.step, 5u);
    EXPECT_EQ(h.cellsX, 8u);
    EXPECT_EQ(h.numRankContributions, 1u);
    std::remove(path.c_str());
}

TEST(CheckpointFormat, RestoresStepCounterAndReportsMetrics) {
    const std::string path = testing::TempDir() + "/walb_step.wckp";
    auto setup = makeCavitySetup(1);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, cavityFlags(1));
    simulation.setWallVelocity({0.03, 0, 0});
    simulation.run(7, op);
    EXPECT_EQ(simulation.currentStep(), 7u);
    ASSERT_TRUE(simulation.saveCheckpoint(path));
    EXPECT_GT(simulation.metrics().counter("ckpt.bytes").value(), 0u);
    EXPECT_GE(simulation.metrics().gauge("ckpt.seconds").value(), 0.0);

    vmpi::SerialComm comm2;
    sim::DistributedSimulation resumed(comm2, setup, cavityFlags(1));
    resumed.setWallVelocity({0.03, 0, 0});
    ASSERT_TRUE(resumed.loadCheckpoint(path));
    EXPECT_EQ(resumed.currentStep(), 7u);
    EXPECT_EQ(resumed.stateDigest(), simulation.stateDigest());
    std::remove(path.c_str());
}

TEST(CheckpointFormat, CorruptedPayloadIsRejectedByCrc) {
    const std::string path = testing::TempDir() + "/walb_crc.wckp";
    auto setup = makeCavitySetup(1);
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, cavityFlags(1));
    simulation.setWallVelocity({0.03, 0, 0});
    simulation.run(3, TRT::fromOmegaAndMagic(1.4));
    ASSERT_TRUE(simulation.saveCheckpoint(path));

    // Flip one byte deep inside the (CRC-protected) payload region.
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readFile(path, bytes));
    bytes[bytes.size() - 10] ^= 0x5a;
    SendBuffer out;
    out.putBytes(bytes.data(), bytes.size());
    ASSERT_TRUE(writeFile(path, out));

    const std::uint64_t digestBefore = simulation.stateDigest();
    std::string err;
    EXPECT_FALSE(simulation.loadCheckpoint(path, &err));
    EXPECT_NE(err.find("CRC"), std::string::npos) << err;
    // The corrupted payload must not have clobbered the live state.
    EXPECT_EQ(simulation.stateDigest(), digestBefore);
    std::remove(path.c_str());
}

TEST(CheckpointFormat, BadMagicAndTruncationFailCleanly) {
    const std::string path = testing::TempDir() + "/walb_bad.wckp";
    {
        std::ofstream os(path, std::ios::binary);
        os << "this is not a checkpoint";
    }
    sim::CheckpointHeader h;
    std::string err;
    EXPECT_FALSE(sim::checkpointPeek(path, h, &err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    std::remove(path.c_str());
}

/// Cavity setup of `ranks` ranks with two blocks each.
struct TwoBlocksPerRank {
    explicit TwoBlocksPerRank(std::uint32_t ranks)
        : setup(makeCavitySetup(2 * ranks)), flags(cavityFlags(2 * ranks)) {
        setup.balanceMorton(ranks);
    }
    bf::SetupBlockForest setup;
    sim::DistributedSimulation::FlagInitializer flags;
};

TEST(CheckpointFormat, FileIsByteIdenticalToTheSendBufferLayout) {
    // The streaming writer must produce exactly the bytes of the v3 layout
    // assembled by hand: the CRC-protected header, then each contribution
    // (block count plus appendBlockRecord records) grown in a SendBuffer
    // and added with the vector operator<<.
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    for (const sim::KernelTier tier : {sim::KernelTier::Simd, sim::KernelTier::AaSimd}) {
        for (const std::uint32_t ranks : {1u, 2u, 4u}) {
            SCOPED_TRACE("tier " + std::to_string(int(tier)) + ", " +
                         std::to_string(ranks) + " ranks");
            const std::string path = testing::TempDir() + "/walb_layout.wckp";
            const TwoBlocksPerRank cavity(ranks);
            std::vector<std::uint8_t> reference;
            vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
                sim::DistributedSimulation simulation(comm, cavity.setup, cavity.flags, tier);
                simulation.setWallVelocity({0.03, 0, 0});
                simulation.run(3, op); // odd: AA storage is parity-swapped
                ASSERT_TRUE(simulation.saveCheckpoint(path));

                const bf::BlockForest& forest = simulation.forest();
                SendBuffer mine;
                mine << std::uint32_t(forest.numLocalBlocks());
                for (std::size_t b = 0; b < forest.numLocalBlocks(); ++b)
                    sim::appendBlockRecord(simulation, b, mine);
                const auto all =
                    comm.gatherv(std::span<const std::uint8_t>(mine.data(), mine.size()), 0);
                if (comm.rank() != 0) return;
                SendBuffer file;
                file << sim::kCheckpointMagic << sim::kCheckpointVersion
                     << std::uint32_t(comm.size()) << std::uint32_t(forest.cellsX())
                     << std::uint32_t(forest.cellsY()) << std::uint32_t(forest.cellsZ())
                     << simulation.currentStep() << std::uint32_t(all.size());
                file << crc32(file.data(), file.size());
                for (const auto& contribution : all) file << contribution;
                reference = file.release();
            });
            std::vector<std::uint8_t> written;
            ASSERT_TRUE(readFile(path, written));
            ASSERT_EQ(written.size(), reference.size());
            EXPECT_TRUE(written == reference);
            std::remove(path.c_str());
        }
    }
}

/// Offsets of every record boundary of a checkpoint file: the end of the
/// header, of each contribution's length prefix and block-count word, and
/// of each block record's fixed header and payload. The file's own end is
/// excluded.
std::vector<std::size_t> recordBoundaries(const std::vector<std::uint8_t>& bytes) {
    RecvBuffer file{std::span<const std::uint8_t>(bytes)};
    sim::CheckpointHeader h;
    std::uint32_t magic = 0, headerCrc = 0;
    file >> magic >> h.version >> h.worldSize >> h.cellsX >> h.cellsY >> h.cellsZ >> h.step >>
        h.numRankContributions >> headerCrc;
    std::vector<std::size_t> cuts;
    const auto here = [&] { return bytes.size() - file.remaining(); };
    cuts.push_back(here());
    for (std::uint32_t c = 0; c < h.numRankContributions; ++c) {
        std::uint64_t length = 0;
        std::uint32_t numBlocks = 0;
        file >> length;
        cuts.push_back(here());
        file >> numBlocks;
        cuts.push_back(here());
        for (std::uint32_t b = 0; b < numBlocks; ++b) {
            std::uint32_t root = 0, crc = 0;
            std::uint8_t level = 0;
            std::uint64_t path = 0, payloadBytes = 0;
            file >> root >> level >> path >> payloadBytes >> crc;
            cuts.push_back(here());
            file.skip(std::size_t(payloadBytes));
            cuts.push_back(here());
        }
    }
    EXPECT_TRUE(file.atEnd());
    cuts.pop_back(); // the end of the last record is the end of the file
    return cuts;
}

TEST(CheckpointFormat, TruncationAtEveryRecordBoundaryLeavesTheStateUntouched) {
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    for (const sim::KernelTier tier : {sim::KernelTier::Simd, sim::KernelTier::AaSimd}) {
        SCOPED_TRACE("tier " + std::to_string(int(tier)));
        const std::string path = testing::TempDir() + "/walb_truncated.wckp";
        const TwoBlocksPerRank cavity(2);
        vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
            sim::DistributedSimulation simulation(comm, cavity.setup, cavity.flags, tier);
            simulation.setWallVelocity({0.03, 0, 0});
            simulation.run(3, op);
            ASSERT_TRUE(simulation.saveCheckpoint(path));
            std::vector<std::uint8_t> whole;
            if (comm.rank() == 0) {
                EXPECT_TRUE(readFile(path, whole));
            }
            comm.broadcast(whole, 0);
            // Move on, so that any partial restore would show in the digest
            // (and, for the AA tiers, in the step parity).
            simulation.run(2, op);
            const std::uint64_t digest = simulation.stateDigest();
            const std::vector<std::size_t> cuts = recordBoundaries(whole);
            // Header end, then per contribution 2 cuts plus 2 per record,
            // minus the end of the file.
            EXPECT_EQ(cuts.size(), 1u + 2u * (2u + 2u * 2u) - 1u);
            for (const std::size_t cut : cuts) {
                if (comm.rank() == 0) {
                    SendBuffer truncated;
                    truncated.putBytes(whole.data(), cut);
                    ASSERT_TRUE(writeFile(path, truncated));
                }
                std::string err;
                EXPECT_FALSE(simulation.loadCheckpoint(path, &err)) << "cut at " << cut;
                EXPECT_NE(err.find("truncated"), std::string::npos) << "cut at " << cut << ": "
                                                                   << err;
                EXPECT_EQ(simulation.currentStep(), 5u) << "cut at " << cut;
                EXPECT_EQ(simulation.stateDigest(), digest) << "cut at " << cut;
            }
        });
        std::remove(path.c_str());
    }
}

TEST(CheckpointFormat, FailedOrInterruptedSaveLeavesThePreviousFileLoadable) {
    const std::string path = testing::TempDir() + "/walb_durable.wckp";
    const std::string tmp = path + ".tmp";
    auto setup = makeCavitySetup(1);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, cavityFlags(1));
    simulation.setWallVelocity({0.03, 0, 0});
    simulation.run(3, op);
    ASSERT_TRUE(simulation.saveCheckpoint(path));
    const std::uint64_t saved = simulation.stateDigest();
    simulation.run(2, op);

    const auto expectPreviousLoads = [&] {
        vmpi::SerialComm comm2;
        sim::DistributedSimulation resumed(comm2, setup, cavityFlags(1));
        resumed.setWallVelocity({0.03, 0, 0});
        std::string err;
        ASSERT_TRUE(resumed.loadCheckpoint(path, &err)) << err;
        EXPECT_EQ(resumed.currentStep(), 3u);
        EXPECT_EQ(resumed.stateDigest(), saved);
    };

    // A save that cannot write its temporary fails on every rank and does
    // not touch the previous checkpoint.
    ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
    std::string err;
    EXPECT_FALSE(simulation.saveCheckpoint(path, &err));
    EXPECT_NE(err.find("failed to write"), std::string::npos) << err;
    ASSERT_EQ(::rmdir(tmp.c_str()), 0);
    expectPreviousLoads();

    // A writer that dies mid-file (never commits) leaves the previous file
    // in place and cleans up its temporary.
    {
        FileWriter torn(path);
        ASSERT_TRUE(torn.ok());
        const std::uint8_t half[4] = {'W', 'C', 'K', 'P'};
        EXPECT_TRUE(torn.write(half, sizeof(half)));
    }
    EXPECT_NE(::access(tmp.c_str(), F_OK), 0);
    expectPreviousLoads();

    // A writer whose file cannot be created reports it at commit.
    FileWriter nowhere(testing::TempDir() + "/no_such_dir/x.wckp");
    EXPECT_FALSE(nowhere.ok());
    EXPECT_FALSE(nowhere.commit());
    std::remove(path.c_str());
}

TEST(CheckpointOptionsTest, RejectsMalformedCountsNamingTheFlag) {
    const std::vector<std::vector<std::string>> bad = {
        {"--checkpoint-every", "abc"}, {"--checkpoint-every", "-1"},
        {"--stop-after=-5"},           {"--steps", "12x"},
        {"--steps="},                  {"--stop-after", "99999999999999999999999"},
        {"--checkpoint-every"}};
    for (const auto& args : bad) {
        std::vector<char*> argv{const_cast<char*>("prog")};
        for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
        const std::string flag = args[0].substr(0, args[0].find('='));
        try {
            (void)sim::CheckpointOptions::fromArgs(int(argv.size()), argv.data());
            ADD_FAILURE() << "accepted " << args[0];
        } catch (const sim::OptionError& e) {
            EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
        }
    }
}

TEST(CheckpointOptionsTest, ParsesBothFlagStyles) {
    const char* argv[] = {"prog",
                          "--checkpoint-every", "8",
                          "--checkpoint-path=/tmp/x.wckp",
                          "--restart-from", "/tmp/y.wckp",
                          "--stop-after=16",
                          "--steps", "30"};
    const auto opt = sim::CheckpointOptions::fromArgs(
        int(std::size(argv)), const_cast<char**>(argv));
    EXPECT_EQ(opt.every, 8u);
    EXPECT_EQ(opt.path, "/tmp/x.wckp");
    EXPECT_EQ(opt.restartFrom, "/tmp/y.wckp");
    EXPECT_EQ(opt.stopAfter, 16u);
    EXPECT_EQ(opt.steps, 30u);
    EXPECT_TRUE(opt.any());
    EXPECT_FALSE(sim::CheckpointOptions{}.any());
}

// ---- health guards ---------------------------------------------------------

TEST(HealthMonitorTest, HealthyRunPassesAndReportsGauges) {
    auto setup = makeCavitySetup(1);
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, cavityFlags(1));
    simulation.setWallVelocity({0.03, 0, 0});
    sim::HealthPolicy policy;
    policy.checkEvery = 4;
    simulation.attachHealthMonitor(policy);
    EXPECT_NO_THROW(simulation.run(8, TRT::fromOmegaAndMagic(1.4)));
    EXPECT_EQ(simulation.metrics().gauge("health.nan_cells").value(), 0.0);
    EXPECT_LT(std::abs(simulation.metrics().gauge("health.mass_drift").value()), 1e-6);
    EXPECT_EQ(simulation.metrics().counter("health.violations").value(), 0u);
}

TEST(HealthMonitorTest, SeededNaNIsCaughtAndEmergencyCheckpointed) {
    const std::string emergency = testing::TempDir() + "/walb_nan_emergency.wckp";
    std::remove(emergency.c_str());
    auto setup = makeCavitySetup(1);
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, cavityFlags(1));
    simulation.setWallVelocity({0.03, 0, 0});
    sim::HealthPolicy policy;
    policy.checkEvery = 2;
    policy.emergencyPath = emergency;
    simulation.attachHealthMonitor(policy);
    simulation.run(2, TRT::fromOmegaAndMagic(1.4)); // baseline captured, healthy

    // Seed a NaN into one interior fluid PDF.
    simulation.pdfField(0).get(4, 4, 4, 0) = std::nan("");
    try {
        simulation.run(2, TRT::fromOmegaAndMagic(1.4));
        FAIL() << "expected HealthError";
    } catch (const sim::HealthError& e) {
        EXPECT_FALSE(e.report.ok);
        EXPECT_GE(e.report.nonFiniteCells, 1u);
    }
    EXPECT_EQ(simulation.metrics().counter("health.violations").value(), 1u);
    // The emergency checkpoint was written (under its rank/step-decorated
    // name) and is a parseable v3 file.
    const std::string written = simulation.healthMonitor()->lastEmergencyPath();
    ASSERT_FALSE(written.empty());
    EXPECT_NE(written.find(".r0.s"), std::string::npos) << written;
    sim::CheckpointHeader h;
    std::string err;
    EXPECT_TRUE(sim::checkpointPeek(written, h, &err)) << err;
    std::remove(written.c_str());
}

TEST(HealthMonitorTest, MassLeakIsCaught) {
    auto setup = makeCavitySetup(1);
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, cavityFlags(1));
    simulation.setWallVelocity({0.03, 0, 0});
    sim::HealthPolicy policy;
    policy.checkEvery = 2;
    policy.maxMassDrift = 1e-6;
    policy.emergencyCheckpoint = false;
    simulation.attachHealthMonitor(policy);
    simulation.run(2, TRT::fromOmegaAndMagic(1.4));

    // Simulate a broken boundary handling: scale every PDF up by 1% — the
    // total mass drifts far beyond the bound while staying finite.
    lbm::PdfField& pdf = simulation.pdfField(0);
    for (std::size_t i = 0; i < pdf.allocCells(); ++i) pdf.data()[i] *= real_c(1.01);
    try {
        simulation.run(2, TRT::fromOmegaAndMagic(1.4));
        FAIL() << "expected HealthError";
    } catch (const sim::HealthError& e) {
        EXPECT_FALSE(e.report.ok);
        EXPECT_EQ(e.report.nonFiniteCells, 0u);
        EXPECT_GT(std::abs(e.report.drift), 1e-6);
    }
}

TEST(HealthMonitorTest, VerdictIsIdenticalOnAllRanks) {
    // The violation verdict derives from allreduced values only, so every
    // rank of a 4-rank world throws HealthError together — no rank keeps
    // stepping a diverged lattice.
    auto setup = makeCavitySetup(4);
    auto flagInit = cavityFlags(4);
    std::atomic<int> threw{0};
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.03, 0, 0});
        sim::HealthPolicy policy;
        policy.checkEvery = 2;
        policy.emergencyCheckpoint = false;
        simulation.attachHealthMonitor(policy);
        simulation.run(2, TRT::fromOmegaAndMagic(1.4));
        if (comm.rank() == 2) // only ONE rank's lattice diverges
            simulation.pdfField(0).get(4, 4, 4, 0) = std::nan("");
        try {
            simulation.run(2, TRT::fromOmegaAndMagic(1.4));
        } catch (const sim::HealthError& e) {
            EXPECT_GE(e.report.nonFiniteCells, 1u);
            ++threw;
        }
    });
    EXPECT_EQ(threw.load(), 4);
}

// ---- acceptance: kill a rank, restart from the checkpoint ------------------

TEST(FaultDrill, KilledRankTerminatesTheWorldStructurally) {
    // 4-rank run, rank 2 dies at step 12 (after the step-10 checkpoint).
    // Every surviving rank must terminate with a structured CommError —
    // deadline miss or the kill itself — instead of hanging.
    const std::string ckpt = testing::TempDir() + "/walb_drill.wckp";
    std::remove(ckpt.c_str());
    auto setup = makeCavitySetup(4);
    auto flagInit = cavityFlags(4);
    const TRT op = TRT::fromOmegaAndMagic(1.4);

    vmpi::FaultPlan plan;
    plan.killRank = 2;
    plan.killAtStep = 12;

    std::atomic<int> structured{0};
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        vmpi::FaultyComm faulty(comm, plan);
        faulty.setRecvDeadline(2000ms);
        sim::DistributedSimulation simulation(faulty, setup, flagInit);
        simulation.setWallVelocity({0.03, 0, 0});
        simulation.setPreStepCallback(
            [&](std::uint64_t step) { faulty.beginStep(step); });
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
    // All four ranks saw a structured failure (no hang: the launch returned).
    EXPECT_EQ(structured.load(), 4);

    // The step-10 checkpoint survived the crash.
    sim::CheckpointHeader h;
    std::string err;
    ASSERT_TRUE(sim::checkpointPeek(ckpt, h, &err)) << err;
    EXPECT_EQ(h.step, 10u);

    // Reference: the uninterrupted 20-step run.
    std::uint64_t wantDigest = 0;
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.03, 0, 0});
        simulation.run(20, op);
        const std::uint64_t d = simulation.stateDigest();
        if (comm.rank() == 0) wantDigest = d;
    });

    // Relaunch from the surviving checkpoint and finish the run: the
    // resumed trajectory must be bit-exact.
    std::uint64_t gotDigest = 0;
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.03, 0, 0});
        sim::CheckpointOptions opt;
        opt.restartFrom = ckpt;
        const std::uint64_t executed = sim::runWithCheckpoints(simulation, opt, 20, op);
        EXPECT_EQ(executed, 10u);
        EXPECT_EQ(simulation.currentStep(), 20u);
        const std::uint64_t d = simulation.stateDigest();
        if (comm.rank() == 0) gotDigest = d;
    });
    EXPECT_EQ(gotDigest, wantDigest);
    std::remove(ckpt.c_str());
}

} // namespace
} // namespace walb
