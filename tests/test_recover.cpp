/// Tests for the self-healing runtime (walb::recover): ReliableComm's
/// transient-fault healing (sequencing, NACK/resend, bounded escalation),
/// the ULFM-style failure agreement, the shrunken survivor communicator,
/// the in-memory buddy checkpoint — and the end-to-end acceptance drills:
/// a 4-rank run whose rank is killed mid-run heals in flight and reaches
/// the uninterrupted run's exact state digest, while a fault plan of
/// drops/delays below the escalation threshold completes with zero
/// recoveries and nonzero retries.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "recover/RecoveryManager.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/Agreement.h"
#include "vmpi/FaultyComm.h"
#include "vmpi/ReliableComm.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ShrunkComm.h"
#include "vmpi/Tags.h"
#include "vmpi/ThreadComm.h"

namespace walb {
namespace {

using lbm::TRT;
using namespace std::chrono_literals;

std::vector<std::uint8_t> payload(std::uint8_t stamp) {
    return {stamp, std::uint8_t(stamp + 1), std::uint8_t(stamp + 2)};
}

// ---- ReliableComm: transient-fault healing ---------------------------------

TEST(ReliableCommTest, InOrderRoundTripCostsNoRetries) {
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& base) {
        vmpi::ReliableComm rel(base);
        if (base.rank() == 0) {
            for (std::uint8_t i = 0; i < 4; ++i) rel.send(1, 5, payload(i));
            EXPECT_EQ(rel.recv(1, 6), payload(99));
        } else {
            for (std::uint8_t i = 0; i < 4; ++i) EXPECT_EQ(rel.recv(0, 5), payload(i));
            rel.send(0, 6, payload(99));
        }
        EXPECT_EQ(rel.retries(), 0u);
        EXPECT_EQ(rel.escalations(), 0u);
        EXPECT_EQ(rel.duplicatesDropped(), 0u);
        EXPECT_EQ(rel.reordered(), 0u);
    });
}

TEST(ReliableCommTest, DroppedMessageIsHealedByNackAndResend) {
    // The wire eats rank 0's first tag-5 send; rank 1's recv must NACK it
    // back into existence instead of delivering out of order or giving up.
    vmpi::FaultPlan plan;
    {
        vmpi::FaultPlan::MessageFault f;
        f.action = vmpi::FaultPlan::Action::Drop;
        f.srcRank = 0;
        f.tag = 5;
        f.matchIndex = 0;
        plan.messageFaults.push_back(f);
    }
    std::atomic<std::uint64_t> retries{0}, resends{0}, dropped{0};
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& base) {
        vmpi::FaultyComm faulty(base, plan);
        vmpi::ReliableComm rel(faulty);
        rel.setRecvDeadline(200ms);
        if (base.rank() == 0) {
            for (std::uint8_t i = 0; i < 3; ++i) rel.send(1, 5, payload(i));
            // Blocking on the ack keeps rank 0 inside the reliability
            // protocol, where it services rank 1's NACK between deadline
            // windows — a sender that just returns can never resend.
            EXPECT_EQ(rel.recv(1, 6), payload(77));
            resends += rel.resends();
            dropped += faulty.counts().dropped;
        } else {
            for (std::uint8_t i = 0; i < 3; ++i) EXPECT_EQ(rel.recv(0, 5), payload(i));
            rel.send(0, 6, payload(77));
            retries += rel.retries();
        }
        EXPECT_EQ(rel.escalations(), 0u);
    });
    EXPECT_EQ(dropped.load(), 1u);
    EXPECT_GE(retries.load(), 1u);
    EXPECT_GE(resends.load(), 1u);
}

TEST(ReliableCommTest, DuplicatesAndReorderingAreHealedBySequencing) {
    // Rank 0's first send is duplicated and its second held back past the
    // third: arrival order 0,0,2,1,3. The sequence numbers must deliver
    // 0,1,2,3 exactly once each.
    vmpi::FaultPlan plan;
    {
        vmpi::FaultPlan::MessageFault dup;
        dup.action = vmpi::FaultPlan::Action::Duplicate;
        dup.srcRank = 0;
        dup.tag = 5;
        dup.matchIndex = 0;
        plan.messageFaults.push_back(dup);
        vmpi::FaultPlan::MessageFault delay;
        delay.action = vmpi::FaultPlan::Action::Delay;
        delay.srcRank = 0;
        delay.tag = 5;
        delay.matchIndex = 0; // first send reaching this rule is message 1
        delay.delayBySends = 1;
        plan.messageFaults.push_back(delay);
    }
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& base) {
        vmpi::FaultyComm faulty(base, plan);
        vmpi::ReliableComm rel(faulty);
        rel.setRecvDeadline(2000ms);
        if (base.rank() == 0) {
            for (std::uint8_t i = 0; i < 4; ++i) rel.send(1, 5, payload(i));
            EXPECT_EQ(faulty.counts().duplicated, 1u);
            EXPECT_EQ(faulty.counts().delayed, 1u);
        } else {
            for (std::uint8_t i = 0; i < 4; ++i) EXPECT_EQ(rel.recv(0, 5), payload(i));
            EXPECT_GE(rel.duplicatesDropped() + rel.reordered(), 2u);
            EXPECT_EQ(rel.retries(), 0u); // healed without a single NACK
        }
        base.barrier();
    });
}

TEST(ReliableCommTest, DeadPeerEscalatesAfterTheRetryBudget) {
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& base) {
        if (base.rank() != 0) {
            base.barrier();
            return; // rank 1 never sends: a dead peer, as far as rank 0 knows
        }
        vmpi::ReliableComm::RetryOptions opt;
        opt.maxRetries = 1;
        opt.backoffBase = 1ms;
        vmpi::ReliableComm rel(base, opt);
        rel.setRecvDeadline(50ms);
        std::atomic<int> observed{0};
        rel.setErrorObserver([&](const vmpi::CommError&) { ++observed; });
        try {
            rel.recv(1, 9);
            FAIL() << "expected CommError";
        } catch (const vmpi::CommError& e) {
            EXPECT_EQ(e.kind, vmpi::CommError::Kind::DeadlineExceeded);
            EXPECT_EQ(e.peer, 1);
        }
        EXPECT_EQ(rel.retries(), 1u);
        EXPECT_EQ(rel.escalations(), 1u);
        EXPECT_GT(rel.backoffSeconds(), 0.0);
        // The observer is gated: healed-in-progress attempts stay silent,
        // only the final escalated miss reaches the last-breath hooks.
        EXPECT_EQ(observed.load(), 1);
        base.barrier();
    });
}

// ---- failure agreement -----------------------------------------------------

TEST(AgreementTest, AllAliveWorldConvergesOnAnEmptyVerdict) {
    std::mutex mu;
    std::vector<std::vector<std::uint8_t>> verdicts;
    vmpi::ThreadCommWorld::launch(3, [&](vmpi::Comm& comm) {
        vmpi::AgreementOptions opt;
        opt.window = 250ms;
        const auto r = vmpi::agreeOnDeadRanks(comm, {}, {}, opt);
        EXPECT_EQ(r.attempts, 1);
        std::lock_guard<std::mutex> lk(mu);
        verdicts.push_back(r.dead);
    });
    ASSERT_EQ(verdicts.size(), 3u);
    for (const auto& v : verdicts) EXPECT_EQ(v, std::vector<std::uint8_t>({0, 0, 0}));
}

TEST(AgreementTest, SilentRankIsAgreedDeadByEverySurvivor) {
    std::mutex mu;
    std::vector<std::vector<std::uint8_t>> verdicts;
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        if (comm.rank() == 2) return; // dies without a word
        vmpi::AgreementOptions opt;
        opt.window = 250ms;
        const auto r = vmpi::agreeOnDeadRanks(comm, {}, {}, opt);
        std::lock_guard<std::mutex> lk(mu);
        verdicts.push_back(r.dead);
    });
    ASSERT_EQ(verdicts.size(), 3u);
    for (const auto& v : verdicts)
        EXPECT_EQ(v, std::vector<std::uint8_t>({0, 0, 1, 0}));
}

TEST(AgreementTest, SuspectThatParticipatesIsCleared) {
    // The escalated CommError names a peer, but the peer was merely slow:
    // participating in round 1 (the roll call) must clear the suspicion.
    vmpi::ThreadCommWorld::launch(3, [&](vmpi::Comm& comm) {
        std::vector<std::uint8_t> suspects(3, 0);
        suspects[1] = 1; // everyone suspects rank 1...
        vmpi::AgreementOptions opt;
        opt.window = 250ms;
        const auto r = vmpi::agreeOnDeadRanks(comm, {}, suspects, opt);
        // ...but rank 1 is right here, agreeing.
        EXPECT_EQ(r.dead, std::vector<std::uint8_t>({0, 0, 0}));
    });
}

TEST(AgreementTest, KnownDeadStayDeadWithoutBeingPolled) {
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        if (comm.rank() == 3) return; // dead since a previous epoch
        std::vector<std::uint8_t> knownDead(4, 0);
        knownDead[3] = 1;
        vmpi::AgreementOptions opt;
        opt.window = 250ms;
        const auto r = vmpi::agreeOnDeadRanks(comm, knownDead, {}, opt, /*epoch=*/1);
        EXPECT_EQ(r.dead, std::vector<std::uint8_t>({0, 0, 0, 1}));
        // Nobody waited a liveness window for the already-dead rank.
        EXPECT_EQ(r.attempts, 1);
    });
}

TEST(AgreementTest, SerialWorldReturnsImmediately) {
    vmpi::SerialComm comm;
    const auto r = vmpi::agreeOnDeadRanks(comm, {0}, {});
    EXPECT_EQ(r.dead, std::vector<std::uint8_t>({0}));
    EXPECT_EQ(r.rounds, 0);
}

// ---- shrunken communicator -------------------------------------------------

TEST(ShrunkCommTest, RankMapAndPointToPointWorkOnSurvivorsOnly) {
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& base) {
        if (base.rank() == 2) return; // the dead rank never joins the epoch
        vmpi::ShrunkComm sc(base, {0, 1, 3}, /*epoch=*/1);
        EXPECT_EQ(sc.size(), 3);
        EXPECT_EQ(sc.epoch(), 1);
        EXPECT_EQ(sc.newRankOf(0), 0);
        EXPECT_EQ(sc.newRankOf(1), 1);
        EXPECT_EQ(sc.newRankOf(2), -1); // dead
        EXPECT_EQ(sc.newRankOf(3), 2);
        EXPECT_EQ(sc.worldRank(sc.rank()), base.rank());

        // p2p in the dense numbering: 0 -> 2 (world 0 -> world 3).
        if (sc.rank() == 0) sc.send(2, 7, payload(42));
        if (sc.rank() == 2) {
            EXPECT_EQ(sc.recv(0, 7), payload(42));
        }
        sc.barrier(); // p2p fan-in/out, NOT the full-world ThreadComm barrier
    });
}

TEST(ShrunkCommTest, CollectivesAreRebuiltOverTheSurvivors) {
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& base) {
        if (base.rank() == 2) return;
        vmpi::ShrunkComm sc(base, {0, 1, 3}, 1);

        double v[1] = {double(base.rank())};
        sc.allreduce(std::span<double>(v, 1), vmpi::ReduceOp::Sum);
        EXPECT_DOUBLE_EQ(v[0], 0 + 1 + 3);

        std::uint64_t m[1] = {std::uint64_t(10 + base.rank())};
        sc.allreduce(std::span<std::uint64_t>(m, 1), vmpi::ReduceOp::Max);
        EXPECT_EQ(m[0], 13u);

        std::vector<std::uint8_t> bytes = payload(std::uint8_t(base.rank()));
        if (sc.rank() != 0) bytes.clear();
        sc.broadcast(bytes, 0);
        EXPECT_EQ(bytes, payload(0));

        const std::vector<std::uint8_t> mine{std::uint8_t(base.rank())};
        const auto all = sc.allgatherv(mine);
        ASSERT_EQ(all.size(), 3u);
        EXPECT_EQ(all[0], std::vector<std::uint8_t>{0});
        EXPECT_EQ(all[1], std::vector<std::uint8_t>{1});
        EXPECT_EQ(all[2], std::vector<std::uint8_t>{3});

        const auto gathered = sc.gatherv(mine, /*root=*/1);
        if (sc.rank() == 1) {
            ASSERT_EQ(gathered.size(), 3u);
            EXPECT_EQ(gathered[2], std::vector<std::uint8_t>{3});
        } else {
            EXPECT_TRUE(gathered.empty());
        }
    });
}

// ---- fixtures shared by the simulation-level tests -------------------------

/// Lid-driven cavity, one 8^3 block per rank: small enough for a subsecond
/// step loop, live enough (moving lid) that digest equality is a real
/// statement.
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

// ---- buddy checkpoint ------------------------------------------------------

TEST(BuddyCheckpointTest, RestoreOwnBlocksRewindsBitExactly) {
    auto setup = makeCavitySetup(2);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, cavityFlags(2));
        simulation.setWallVelocity({0.05, 0, 0});
        simulation.run(4, TRT::fromOmegaAndMagic(1.5));
        recover::BuddyCheckpoint buddy;
        buddy.refresh(simulation, comm, simulation.currentStep());
        ASSERT_TRUE(buddy.valid());
        EXPECT_EQ(buddy.step(), 4u);
        EXPECT_EQ(buddy.ringSize(), 2);
        EXPECT_EQ(buddy.partnerRingRank(), (comm.rank() + 1) % 2);
        EXPECT_GT(buddy.selfBytes(), 0u);
        EXPECT_GT(buddy.partnerBytes(), 0u);
        const std::uint64_t digestAtRefresh = simulation.stateDigest();

        simulation.run(4, TRT::fromOmegaAndMagic(1.5));
        EXPECT_NE(simulation.stateDigest(), digestAtRefresh);

        std::string err;
        ASSERT_TRUE(buddy.restoreOwnBlocks(simulation, &err)) << err;
        simulation.setCurrentStep(buddy.step());
        EXPECT_EQ(simulation.stateDigest(), digestAtRefresh);
    });
}

TEST(BuddyCheckpointTest, PartnerBlocksParseIntoShippableRecords) {
    auto setup = makeCavitySetup(2);
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, cavityFlags(2));
        simulation.setWallVelocity({0.05, 0, 0});
        simulation.run(2, TRT::fromOmegaAndMagic(1.5));
        recover::BuddyCheckpoint buddy;
        buddy.refresh(simulation, comm, simulation.currentStep());

        std::vector<recover::BuddyCheckpoint::BlockRecord> records;
        std::string err;
        ASSERT_TRUE(buddy.partnerBlocks(records, &err)) << err;
        // One 8^3 block per rank in this fixture: the partner copy must
        // hold exactly the ring predecessor's single block.
        ASSERT_EQ(records.size(), 1u);
        EXPECT_FALSE(records[0].bytes.empty());
        buddy.invalidate();
        EXPECT_FALSE(buddy.valid());
        EXPECT_EQ(buddy.selfBytes(), 0u);
    });
}

// ---- option parsing --------------------------------------------------------

TEST(RecoveryOptionsTest, FromArgsParsesTheWholeSurface) {
    const char* argv[] = {"prog",
                          "--recover",
                          "--buddy-every", "5",
                          "--agree-timeout-ms=300",
                          "--max-recoveries", "7",
                          "--recover-disk-fallback", "/tmp/last.wckp"};
    const auto opt = recover::RecoveryOptions::fromArgs(
        int(std::size(argv)), const_cast<char**>(argv));
    EXPECT_TRUE(opt.enabled);
    EXPECT_EQ(opt.buddyEvery, 5u);
    EXPECT_EQ(opt.agreeTimeout, 300ms);
    EXPECT_EQ(opt.maxRecoveries, 7);
    EXPECT_EQ(opt.diskFallback, "/tmp/last.wckp");

    const char* off[] = {"prog"};
    EXPECT_FALSE(recover::RecoveryOptions::fromArgs(1, const_cast<char**>(off)).enabled);
}

TEST(RecoveryOptionsTest, RejectsMalformedValuesNamingTheFlag) {
    const std::vector<std::vector<std::string>> bad = {
        {"--buddy-every", "abc"},         {"--buddy-every=-1"},
        {"--agree-timeout-ms", "1.5"},    {"--agree-timeout-ms", "-300"},
        {"--max-recoveries", "many"},     {"--max-recoveries", "99999999999"},
        {"--recover-disk-fallback="},     {"--max-recoveries"}};
    for (const auto& args : bad) {
        std::vector<char*> argv{const_cast<char*>("prog")};
        for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
        const std::string flag = args[0].substr(0, args[0].find('='));
        try {
            (void)recover::RecoveryOptions::fromArgs(int(argv.size()), argv.data());
            ADD_FAILURE() << "accepted " << args[0];
        } catch (const sim::OptionError& e) {
            EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
        }
    }
}

// ---- end-to-end: kill-and-heal and transient-only drills -------------------

std::uint64_t uninterruptedDigest(const bf::SetupBlockForest& setup, int ranks,
                                  uint_t steps) {
    std::atomic<std::uint64_t> digest{0};
    vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup,
                                              cavityFlags(std::uint32_t(ranks)));
        simulation.setWallVelocity({0.05, 0, 0});
        simulation.run(steps, TRT::fromOmegaAndMagic(1.5));
        const std::uint64_t d = simulation.stateDigest(); // collective: all call
        if (comm.rank() == 0) digest = d;
    });
    return digest.load();
}

TEST(RecoverEndToEnd, KilledRankIsHealedToTheUninterruptedDigest) {
    const int ranks = 4;
    const uint_t steps = 12;
    auto setup = makeCavitySetup(std::uint32_t(ranks));
    const std::uint64_t reference = uninterruptedDigest(setup, ranks, steps);
    ASSERT_NE(reference, 0u);

    vmpi::FaultPlan plan;
    plan.killRank = 1;
    plan.killAtStep = 6;
    recover::RecoveryOptions opt;
    opt.enabled = true;
    opt.buddyEvery = 4;

    std::atomic<std::uint64_t> healed{0};
    std::atomic<int> recoveries{-1}, lostBlocks{0}, survivors{0};
    std::atomic<std::uint64_t> rewindStep{0};
    vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& base) {
        vmpi::FaultyComm faulty(base, plan);
        vmpi::ReliableComm reliable(faulty);
        reliable.setRecvDeadline(250ms);
        sim::DistributedSimulation simulation(reliable, setup,
                                              cavityFlags(std::uint32_t(ranks)));
        simulation.setWallVelocity({0.05, 0, 0});
        // Keep the failure-moment .wfr dumps out of the working directory.
        simulation.setFlightRecorderDumpPrefix(testing::TempDir() + "/walb_recover_kill");
        simulation.setPreStepCallback(
            [&](std::uint64_t step) { faulty.beginStep(step); });
        recover::RecoveryManager manager(simulation, opt);
        try {
            manager.runWithRecovery(steps, TRT::fromOmegaAndMagic(1.5));
        } catch (const vmpi::CommError& e) {
            if (recover::RecoveryManager::isSelfDeath(e, base.rank())) return;
            throw;
        }
        ++survivors;
        const std::uint64_t digest = simulation.stateDigest();
        EXPECT_EQ(simulation.currentStep(), steps);
        if (manager.activeComm().rank() == 0) {
            healed = digest;
            recoveries = manager.recoveries();
            ASSERT_EQ(manager.history().size(), 1u);
            lostBlocks = manager.history()[0].lostBlocks;
            rewindStep = manager.history()[0].rewindStep;
        }
    });

    EXPECT_EQ(survivors.load(), ranks - 1);
    EXPECT_EQ(recoveries.load(), 1);
    EXPECT_GE(lostBlocks.load(), 1);
    EXPECT_EQ(rewindStep.load(), 4u); // last buddy refresh before the kill
    EXPECT_EQ(healed.load(), reference) << "healed run diverged from reference";
}

TEST(RecoverEndToEnd, TransientFaultsHealWithZeroRecoveriesAndNonzeroRetries) {
    // The ISSUE's required drill: a plan of drops/delays/duplicates on the
    // ghost-exchange tag, all below ReliableComm's escalation threshold.
    // The run must complete with zero recoveries, nonzero recover.retries,
    // and the uninterrupted digest.
    const int ranks = 4;
    const uint_t steps = 12;
    auto setup = makeCavitySetup(std::uint32_t(ranks));
    const std::uint64_t reference = uninterruptedDigest(setup, ranks, steps);

    constexpr int kGhostTag = vmpi::tags::kGhostExchange;
    vmpi::FaultPlan plan;
    auto add = [&](vmpi::FaultPlan::Action action, int src, std::uint64_t matchIndex,
                   std::uint64_t delayBy = 1) {
        vmpi::FaultPlan::MessageFault f;
        f.action = action;
        f.srcRank = src;
        f.tag = kGhostTag;
        f.matchIndex = matchIndex;
        f.delayBySends = delayBy;
        plan.messageFaults.push_back(f);
    };
    add(vmpi::FaultPlan::Action::Drop, 1, 5);
    add(vmpi::FaultPlan::Action::Drop, 3, 12);
    add(vmpi::FaultPlan::Action::Delay, 2, 9, 2);
    add(vmpi::FaultPlan::Action::Duplicate, 0, 3);

    recover::RecoveryOptions opt;
    opt.enabled = true;
    opt.buddyEvery = 4;

    std::atomic<std::uint64_t> digest{0}, retries{0}, injected{0};
    std::atomic<int> recoveries{-1};
    std::atomic<double> publishedRetries{-1.0};
    vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& base) {
        vmpi::FaultyComm faulty(base, plan);
        vmpi::ReliableComm reliable(faulty);
        reliable.setRecvDeadline(250ms);
        sim::DistributedSimulation simulation(reliable, setup,
                                              cavityFlags(std::uint32_t(ranks)));
        simulation.setWallVelocity({0.05, 0, 0});
        simulation.setPreStepCallback(
            [&](std::uint64_t step) { faulty.beginStep(step); });
        recover::RecoveryManager manager(simulation, opt);
        manager.runWithRecovery(steps, TRT::fromOmegaAndMagic(1.5));
        const std::uint64_t d = simulation.stateDigest();
        retries += vmpi::allreduceSum(base, reliable.retries());
        injected += vmpi::allreduceSum(base, faulty.faultsInjected());
        if (base.rank() == 0) {
            digest = d;
            recoveries = manager.recoveries();
            // publishMetrics ran inside runWithRecovery: this rank's own
            // retry count must surface under the recover.* gauge family.
            const obs::Gauge* g = simulation.metrics().findGauge("recover.retries");
            ASSERT_NE(g, nullptr);
            publishedRetries = g->value();
            EXPECT_DOUBLE_EQ(publishedRetries.load(), double(reliable.retries()));
        }
    });

    EXPECT_EQ(recoveries.load(), 0) << "a transient fault escalated into recovery";
    EXPECT_GE(injected.load(), 4u);
    EXPECT_GE(retries.load(), 1u) << "faults were planned but never retried";
    EXPECT_GE(publishedRetries.load(), 0.0);
    EXPECT_EQ(digest.load(), reference);
}

} // namespace
} // namespace walb
