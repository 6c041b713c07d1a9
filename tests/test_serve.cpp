/// Tests for the scenario service (walb::serve) and the generalized
/// sub-communicator beneath it: dense renumbering and hub collectives over
/// a sparse member subset, per-generation tag isolation of stale frames
/// (exercised under FaultyComm delay/duplicate plans), the deterministic
/// multi-tenant JobQueue, and the end-to-end acceptance properties —
/// preempt-and-resume bit-exactness on random voxel geometries and a
/// 4-rank fault drill where a gang member dies mid-job, the job is
/// requeued from its checkpoint and still reaches the run-alone digest.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "serve/JobQueue.h"
#include "serve/Scenario.h"
#include "serve/ServeDriver.h"
#include "vmpi/FaultyComm.h"
#include "vmpi/ReliableComm.h"
#include "vmpi/SerialComm.h"
#include "vmpi/SubComm.h"
#include "vmpi/Tags.h"
#include "vmpi/ThreadComm.h"

namespace walb {
namespace {

using namespace std::chrono_literals;

std::string scratchDir(const std::string& name) {
    const std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::create_directories(dir);
    return dir;
}

// ---- SubComm: dense renumbering over a sparse member subset ----------------

TEST(SubCommTest, DenseNumberingAndHubCollectivesOverSubset) {
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& base) {
        if (base.rank() == 0 || base.rank() == 2) return; // not members
        vmpi::SubComm sub(base, {1, 3}, /*generation=*/1);
        sub.setRecvDeadline(2000ms);
        EXPECT_EQ(sub.size(), 2);
        EXPECT_EQ(sub.rank(), base.rank() == 1 ? 0 : 1);
        EXPECT_EQ(sub.parentRank(0), 1);
        EXPECT_EQ(sub.parentRank(1), 3);
        EXPECT_EQ(sub.subRankOf(3), 1);
        EXPECT_EQ(sub.subRankOf(2), -1); // non-member

        // Broadcast from the hub reaches the other member.
        std::vector<std::uint8_t> msg =
            sub.rank() == 0 ? std::vector<std::uint8_t>{7, 8, 9}
                            : std::vector<std::uint8_t>{};
        sub.broadcast(msg, 0);
        EXPECT_EQ(msg, (std::vector<std::uint8_t>{7, 8, 9}));

        // Allreduce over sub ranks only: 10^0 + 10^1.
        std::uint64_t v[1] = {sub.rank() == 0 ? 1ull : 10ull};
        sub.allreduce(std::span<std::uint64_t>(v, 1), vmpi::ReduceOp::Sum);
        EXPECT_EQ(v[0], 11u);

        // Allgatherv keeps sub-rank order.
        const std::vector<std::uint8_t> mine{std::uint8_t(100 + sub.rank())};
        const auto parts = sub.allgatherv(mine);
        ASSERT_EQ(parts.size(), 2u);
        EXPECT_EQ(parts[0], (std::vector<std::uint8_t>{100}));
        EXPECT_EQ(parts[1], (std::vector<std::uint8_t>{101}));

        sub.barrier();
        // Point-to-point uses SUB ranks; the error surface carries parent
        // ranks, which the recovery path depends on — covered below.
        if (sub.rank() == 0) {
            sub.send(1, 5, {42});
        } else {
            EXPECT_EQ(sub.recv(0, 5), (std::vector<std::uint8_t>{42}));
        }
    });
}

TEST(SubCommTest, GenerationShiftIsolatesStaleFrames) {
    // Two attempts (generations) between the same two ranks. The wire
    // delays generation 1's frame until after generation 2's was sent, and
    // duplicates generation 2's frame — in a tag-shared world both would
    // leak across attempts; with the generation shift each frame can only
    // ever match its own attempt's receives.
    constexpr int kTag = 5; // sub-side tag, shifted per generation on the wire
    vmpi::FaultPlan plan;
    {
        vmpi::FaultPlan::MessageFault delay;
        delay.action = vmpi::FaultPlan::Action::Delay;
        delay.srcRank = 0;
        delay.tag = kTag + 1 * vmpi::tags::kEpochTagStride;
        delay.delayBySends = 1;
        plan.messageFaults.push_back(delay);
        vmpi::FaultPlan::MessageFault dup;
        dup.action = vmpi::FaultPlan::Action::Duplicate;
        dup.srcRank = 0;
        dup.tag = kTag + 2 * vmpi::tags::kEpochTagStride;
        plan.messageFaults.push_back(dup);
    }
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& base) {
        vmpi::FaultyComm faulty(base, plan);
        vmpi::SubComm gen1(faulty, {0, 1}, 1);
        vmpi::SubComm gen2(faulty, {0, 1}, 2);
        gen1.setRecvDeadline(2000ms);
        if (faulty.rank() == 0) {
            gen1.send(1, kTag, {0xA1}); // held back by the delay rule
            gen2.send(1, kTag, {0xB2}); // delivered (and duplicated); releases A1
        } else {
            // Generation 2 sees ONLY its own frame, even though the stale
            // generation-1 frame is in flight on the same sub-side tag.
            EXPECT_EQ(gen2.recv(0, kTag), (std::vector<std::uint8_t>{0xB2}));
            // The delayed frame arrives on generation 1's shifted tag.
            EXPECT_EQ(gen1.recv(0, kTag), (std::vector<std::uint8_t>{0xA1}));
            // No residue leaks into generation 1...
            std::vector<std::uint8_t> raw;
            EXPECT_FALSE(gen1.tryRecv(0, kTag, raw));
            // ...while the duplicate stayed pinned to generation 2.
            EXPECT_TRUE(gen2.tryRecv(0, kTag, raw));
            EXPECT_EQ(raw, (std::vector<std::uint8_t>{0xB2}));
        }
    });
}

TEST(SubCommTest, ErrorsCarryParentRanks) {
    // A deadline inside the sub must name the PARENT rank of the silent
    // peer — that is what the gang's agree-and-shrink translates back into
    // the gang space.
    vmpi::ThreadCommWorld::launch(3, [&](vmpi::Comm& base) {
        if (base.rank() == 0) return;
        vmpi::SubComm sub(base, {1, 2}, 3);
        sub.setRecvDeadline(100ms);
        if (sub.rank() == 1) {
            try {
                sub.recv(0, 6); // rank 1 (parent) never sends
                FAIL() << "expected a deadline CommError";
            } catch (const vmpi::CommError& e) {
                EXPECT_EQ(e.kind, vmpi::CommError::Kind::DeadlineExceeded);
                EXPECT_EQ(e.peer, 1); // parent rank space
            }
        }
    });
}

// ---- JobQueue: deterministic multi-tenant ordering --------------------------

serve::JobSpec quickSpec(const std::string& name, int priority = 0,
                         std::uint64_t release = 0,
                         const std::string& tenant = "default") {
    serve::JobSpec s;
    s.name = name;
    s.priority = priority;
    s.releaseAfterCompleted = release;
    s.tenant = tenant;
    return s;
}

TEST(JobQueueTest, PriorityFirstThenFifoWithinClass) {
    serve::JobQueue q;
    const auto a = q.push(quickSpec("a", 0));
    const auto b = q.push(quickSpec("b", 5));
    const auto c = q.push(quickSpec("c", 5));
    const auto d = q.push(quickSpec("d", 0));
    EXPECT_EQ(q.claim(0), b); // highest priority, lowest id
    EXPECT_EQ(q.claim(0), c);
    EXPECT_EQ(q.claim(0), a); // FIFO within the 0-class
    EXPECT_EQ(q.claim(0), d);
    EXPECT_FALSE(q.claim(0).has_value());
}

TEST(JobQueueTest, ReleaseAfterCompletedGatesEligibility) {
    serve::JobQueue q;
    const auto late = q.push(quickSpec("late", 9, /*release=*/2));
    const auto now1 = q.push(quickSpec("now1"));
    const auto now2 = q.push(quickSpec("now2"));
    EXPECT_EQ(q.claim(q.completedCount()), now1); // late not yet released
    q.complete(now1, 1, 1);
    EXPECT_EQ(q.claim(q.completedCount()), now2);
    q.complete(now2, 2, 1);
    EXPECT_EQ(q.bestQueuedPriority(q.completedCount()), 9);
    EXPECT_EQ(q.claim(q.completedCount()), late);
}

TEST(JobQueueTest, TenantQuotaSkipsAndPreemptTriggerExcludesBlocked) {
    serve::JobQueue q;
    q.setTenantQuota("acme", 1);
    const auto a1 = q.push(quickSpec("a1", 8, 0, "acme"));
    const auto a2 = q.push(quickSpec("a2", 8, 0, "acme"));
    const auto b1 = q.push(quickSpec("b1", 0, 0, "other"));
    EXPECT_EQ(q.claim(0), a1);
    // acme is at quota: a2 is skipped in favor of the other tenant, and a
    // quota-blocked job must NOT look like a preemption trigger.
    EXPECT_EQ(q.bestQueuedPriority(0), 0);
    EXPECT_EQ(q.claim(0), b1);
    EXPECT_FALSE(q.claim(0).has_value());
    q.complete(a1, 1, 1);
    EXPECT_EQ(q.claim(q.completedCount()), a2);
}

TEST(JobQueueTest, RequeueKeepsIdAndFifoPlace) {
    serve::JobQueue q;
    const auto a = q.push(quickSpec("a"));
    const auto b = q.push(quickSpec("b"));
    EXPECT_EQ(q.claim(0), a);
    q.requeue(a, /*preempted=*/true);
    // Same id, same FIFO place: the requeued job outranks the younger one.
    EXPECT_EQ(q.claim(0), a);
    EXPECT_EQ(q.record(a).attempts, 2);
    EXPECT_EQ(q.record(a).preemptions, 1);
    EXPECT_EQ(q.record(a).requeues, 1);
    q.requeue(a, /*preempted=*/false);
    EXPECT_EQ(q.record(a).preemptions, 1); // failure requeue, not preemption
    EXPECT_EQ(q.record(a).requeues, 2);
    EXPECT_EQ(q.claim(0), a);
    q.complete(a, 7, 4);
    EXPECT_EQ(q.claim(1), b);
    q.complete(b, 8, 4);
    EXPECT_TRUE(q.allCompleted());
}

// ---- end-to-end fleet properties -------------------------------------------

serve::JobSpec voxelSpec(const std::string& name, std::uint64_t seed,
                         std::uint64_t steps) {
    serve::JobSpec s;
    s.name = name;
    s.kind = serve::ScenarioKind::Voxel;
    s.voxelSeed = seed;
    s.steps = steps;
    return s;
}

TEST(ServeTest, FleetMatchesSerialBaselineOnVoxelGeometries) {
    const std::string dir = scratchDir("serve_fleet");
    std::vector<serve::JobSpec> jobs;
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
        jobs.push_back(voxelSpec("voxel" + std::to_string(seed), seed, 10));

    serve::ServeOptions opt;
    opt.gangSize = 2;
    opt.chunkSteps = 4;
    opt.checkpointEvery = 4;
    opt.checkpointDir = dir;
    opt.recvDeadline = 500ms;
    serve::ServeReport report;
    vmpi::ThreadCommWorld::launch(3, [&](vmpi::Comm& base) {
        const auto rep = serve::ServeDriver::run(base, opt, jobs);
        if (base.rank() == 0) report = rep;
    });

    ASSERT_EQ(report.completed, jobs.size());
    EXPECT_EQ(report.gangs, 1);
    EXPECT_EQ(report.ranksLost, 0);
    for (const auto& rec : report.jobs) {
        ASSERT_EQ(rec.state, serve::JobState::Completed);
        EXPECT_EQ(rec.digest, serve::ServeDriver::runAlone(rec.spec, dir))
            << rec.spec.name;
    }
    // Per-tenant accounting saw every job.
    ASSERT_EQ(report.tenants.count("default"), 1u);
    EXPECT_EQ(report.tenants.at("default").jobs, jobs.size());
}

TEST(ServeTest, PreemptAndResumeIsBitExact) {
    const std::string dir = scratchDir("serve_preempt");
    // Two 1-rank gangs. Background jobs of very different lengths occupy
    // both; the completion of the short one releases two urgent jobs at
    // once, so the second can only start by preempting the long-running
    // background — which must later resume from its checkpoint and still
    // reach the run-alone digest.
    std::vector<serve::JobSpec> jobs;
    jobs.push_back(voxelSpec("bg_short", 11, 16));
    jobs.push_back(voxelSpec("bg_long", 12, 160));
    for (int i = 0; i < 2; ++i) {
        auto urgent = voxelSpec("urgent" + std::to_string(i), 20 + std::uint64_t(i), 8);
        urgent.priority = 5;
        urgent.releaseAfterCompleted = 1;
        jobs.push_back(std::move(urgent));
    }

    serve::ServeOptions opt;
    opt.gangSize = 1;
    opt.chunkSteps = 4;
    opt.checkpointEvery = 8;
    opt.checkpointDir = dir;
    opt.recvDeadline = 500ms;
    serve::ServeReport report;
    vmpi::ThreadCommWorld::launch(3, [&](vmpi::Comm& base) {
        const auto rep = serve::ServeDriver::run(base, opt, jobs);
        if (base.rank() == 0) report = rep;
    });

    ASSERT_EQ(report.completed, jobs.size());
    EXPECT_GE(report.preemptions, 1u);
    const auto& bgLong = report.jobs[1];
    EXPECT_EQ(bgLong.spec.name, "bg_long");
    EXPECT_GE(bgLong.preemptions, 1);
    EXPECT_GE(bgLong.attempts, 2);
    for (const auto& rec : report.jobs) {
        ASSERT_EQ(rec.state, serve::JobState::Completed);
        EXPECT_EQ(rec.digest, serve::ServeDriver::runAlone(rec.spec, dir))
            << rec.spec.name;
    }
}

TEST(ServeTest, FailedCheckpointSavesAreCountedAndNeverClaimed) {
    // The checkpoint directory does not exist, so every save fails. The
    // jobs still complete with their run-alone digests, the report counts
    // every failed save, and no job claims a checkpoint it does not have.
    const std::string dir = scratchDir("serve_no_ckpt");
    const std::string missing = dir + "/missing";
    std::vector<serve::JobSpec> jobs;
    for (std::uint64_t seed = 31; seed <= 33; ++seed)
        jobs.push_back(voxelSpec("nockpt" + std::to_string(seed), seed, 10));

    serve::ServeOptions opt;
    opt.chunkSteps = 4;
    opt.checkpointEvery = 4;
    opt.checkpointDir = missing;
    vmpi::SerialComm pool;
    const serve::ServeReport report = serve::Scheduler::runInline(pool, opt, jobs);

    ASSERT_EQ(report.completed, jobs.size());
    // Chunk ends at steps 4, 8 and 10: periodic saves at 4 and 8, and the
    // final save of record at 10.
    EXPECT_EQ(report.checkpointSaveFailures, 3 * jobs.size());
    for (const auto& rec : report.jobs) {
        ASSERT_EQ(rec.state, serve::JobState::Completed);
        EXPECT_FALSE(rec.hasCheckpoint) << rec.spec.name;
        EXPECT_EQ(rec.digest, serve::ServeDriver::runAlone(rec.spec, dir)) << rec.spec.name;
    }
    EXPECT_FALSE(std::filesystem::exists(missing));
}

TEST(ServeTest, FaultDrillRequeuesKilledJobWithUnchangedDigest) {
    const std::string dir = scratchDir("serve_kill");
    // Dispatcher + one gang of 3. The gang LEADER is killed mid-job: the
    // two survivors must agree on the death, the new leader reports the
    // failure with the survivor list, and the job is rerun from its last
    // checkpoint on the shrunken gang — same digest as run alone.
    std::vector<serve::JobSpec> jobs;
    for (std::uint64_t seed = 21; seed <= 23; ++seed)
        jobs.push_back(voxelSpec("kill" + std::to_string(seed), seed, 16));

    serve::ServeOptions opt;
    opt.gangSize = 3;
    opt.chunkSteps = 4;
    opt.checkpointEvery = 4;
    opt.checkpointDir = dir;
    opt.recvDeadline = 250ms;
    opt.agreement.window = 800ms;

    vmpi::FaultPlan plan;
    plan.killRank = 1;   // the gang leader
    plan.killAtStep = 3; // step 3 of job 2: mid second job

    serve::ServeReport report;
    std::atomic<int> selfDeaths{0};
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& base) {
        vmpi::FaultyComm faulty(base, plan);
        vmpi::ReliableComm reliable(faulty);
        serve::ServeOptions mine = opt;
        mine.stepProbe = [&faulty](std::uint64_t job, std::uint64_t step) {
            if (job == 2) faulty.beginStep(step);
        };
        const auto rep = serve::ServeDriver::run(reliable, mine, jobs);
        if (base.rank() == 0) report = rep;
        if (base.rank() == plan.killRank) ++selfDeaths;
    });

    EXPECT_EQ(selfDeaths.load(), 1); // the doomed rank exited its loop quietly
    ASSERT_EQ(report.completed, jobs.size());
    EXPECT_GE(report.failedAttempts, 1u);
    EXPECT_EQ(report.ranksLost, 1);
    bool sawRequeue = false;
    for (const auto& rec : report.jobs) {
        ASSERT_EQ(rec.state, serve::JobState::Completed);
        sawRequeue = sawRequeue || rec.requeues > 0;
        EXPECT_EQ(rec.digest, serve::ServeDriver::runAlone(rec.spec, dir))
            << rec.spec.name;
    }
    EXPECT_TRUE(sawRequeue);
}

} // namespace
} // namespace walb
