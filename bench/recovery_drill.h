#pragma once
/// \file recovery_drill.h
/// The kill-and-heal drill behind `fig7_weak_vascular --recover` and the
/// ctest gate bench/gates/fig7_recovery_drill.json: the executable
/// rehearsal of the self-healing runtime (recover/RecoveryManager.h). Three
/// legs on the same vascular partition:
///
///   1. reference — an uninterrupted run of the full step count; its
///      checkpointDigest is the ground truth (interior-only, rank-count
///      invariant);
///   2. kill      — a FaultPlan kills one of the ranks mid-run. The doomed
///      rank exits its driver quietly; the survivors agree on the death,
///      shrink the world, restore the lost blocks from the in-memory buddy
///      checkpoint, rewind and finish the full step count. Their digest
///      must equal the reference bit for bit;
///   3. transient — a plan of drops/delays/duplicates below the escalation
///      threshold. ReliableComm heals everything locally: the run finishes
///      with *zero* recoveries, nonzero `recover.retries`, and again the
///      reference digest.
///
/// Every leg stacks ThreadComm -> FaultyComm (injection) -> ReliableComm
/// (transient healing) -> DistributedSimulation, which is exactly the
/// production decoration order: faults strike below the reliability
/// protocol, as they would on a real wire.

#include <cstdio>
#include <filesystem>
#include <map>

#include "blockforest/SetupBlockForest.h"
#include "geometry/SignedDistance.h"
#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "rebalance_drill.h"
#include "recover/RecoveryManager.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/FaultyComm.h"
#include "vmpi/Tags.h"
#include "vmpi/ReliableComm.h"
#include "vmpi/ThreadComm.h"

namespace walb::bench {

struct RecoveryDrillRecord {
    int ranks = 0;
    uint_t blocks = 0;
    int killRank = -1;
    std::uint64_t killStep = 0;
    std::uint64_t steps = 0;

    std::uint64_t digestReference = 0;
    std::uint64_t digestHealed = 0;
    std::uint64_t digestTransient = 0;

    // kill leg
    int recoveries = 0;
    int lostBlocks = 0;
    int deadRanks = 0;
    std::uint64_t rewindStep = 0;
    double recoverSeconds = 0.0;
    bool usedDiskFallback = false;
    std::uint64_t wfrDumps = 0; ///< failure-moment .wfr dumps written, read back CRC-clean

    // transient leg
    int transientRecoveries = 0;
    std::uint64_t transientRetries = 0;
    std::uint64_t transientResends = 0;
    std::uint64_t transientFaultsInjected = 0;
    double transientBackoffSeconds = 0.0;

    bool healedDigestMatches() const { return digestHealed == digestReference; }
    bool transientDigestMatches() const { return digestTransient == digestReference; }
};

/// A message-fault plan that stays strictly below ReliableComm's escalation
/// threshold: isolated drops (healed by NACK + resend), short delays
/// (healed by the sequence-number stash) and duplicates (dropped by the
/// same) on the ghost-exchange tag.
inline vmpi::FaultPlan transientFaultPlan(int ranks) {
    constexpr int kGhostTag = vmpi::tags::kGhostExchange;
    vmpi::FaultPlan plan;
    auto add = [&](vmpi::FaultPlan::Action action, int src, std::uint64_t matchIndex,
                   std::uint64_t delayBy = 1) {
        vmpi::FaultPlan::MessageFault f;
        f.action = action;
        f.srcRank = src % ranks;
        f.tag = kGhostTag;
        f.matchIndex = matchIndex;
        f.delayBySends = delayBy;
        plan.messageFaults.push_back(f);
    };
    add(vmpi::FaultPlan::Action::Drop, 1, 5);
    add(vmpi::FaultPlan::Action::Drop, 3, 12);
    add(vmpi::FaultPlan::Action::Delay, 2, 9, 2);
    add(vmpi::FaultPlan::Action::Duplicate, 0, 3);
    return plan;
}

/// The `walb.r<rank>.s<step>.wfr` flight-recorder dumps (the default dump
/// prefix) in the working directory, with their modification times.
inline std::map<std::string, std::filesystem::file_time_type> flightDumps() {
    std::map<std::string, std::filesystem::file_time_type> dumps;
    for (const auto& e : std::filesystem::directory_iterator(".")) {
        const std::string name = e.path().filename().string();
        if (name.starts_with("walb.r") && name.find(".s") != std::string::npos &&
            name.ends_with(".wfr"))
            dumps[name] = e.last_write_time();
    }
    return dumps;
}

inline RecoveryDrillRecord runRecoveryDrill(const bf::SetupBlockForest& forest,
                                            uint_t numBlocks,
                                            const geometry::DistanceFunction& phi,
                                            int ranks,
                                            const recover::RecoveryOptions& opt,
                                            uint_t steps, int killRank,
                                            std::uint64_t killStep) {
    const auto flagInit = vascularFlagInit(&phi);
    RecoveryDrillRecord rec;
    rec.ranks = ranks;
    rec.blocks = numBlocks;
    rec.killRank = killRank;
    rec.killStep = killStep;
    rec.steps = steps;

    // Leg 1: the uninterrupted reference.
    vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, forest, flagInit);
        simulation.run(steps, lbm::TRT::fromOmegaAndMagic(1.5));
        const std::uint64_t digest = simulation.stateDigest();
        if (comm.rank() == 0) rec.digestReference = digest;
    });

    // Leg 2: kill one rank mid-run, heal in flight, finish the step count.
    // Every rank of the killed epoch dumps its flight history at the
    // failure moment; the files this leg wrote must read back CRC-clean.
    {
        const auto before = flightDumps();
        vmpi::FaultPlan plan;
        plan.killRank = killRank;
        plan.killAtStep = killStep;
        vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& base) {
            vmpi::FaultyComm faulty(base, plan);
            vmpi::ReliableComm reliable(faulty);
            // The deadline is what turns the dead rank's silence into a
            // detectable CommError. Generous enough for a loaded CI box,
            // short enough that escalation (3 misses) stays sub-second.
            reliable.setRecvDeadline(std::chrono::milliseconds(250));
            sim::DistributedSimulation simulation(reliable, forest, flagInit);
            simulation.setPreStepCallback(
                [&](std::uint64_t step) { faulty.beginStep(step); });
            recover::RecoveryManager manager(simulation, opt);
            try {
                manager.chunkedRun().run(steps, lbm::TRT::fromOmegaAndMagic(1.5));
            } catch (const vmpi::CommError& e) {
                // The doomed rank's own death sentence: exit the driver
                // quietly, the survivors carry the run to completion.
                if (recover::RecoveryManager::isSelfDeath(e, base.rank())) return;
                throw;
            }
            const std::uint64_t digest = simulation.stateDigest();
            if (manager.activeComm().rank() == 0) {
                rec.digestHealed = digest;
                rec.recoveries = manager.recoveries();
                for (const auto& r : manager.history()) {
                    rec.lostBlocks += r.lostBlocks;
                    rec.deadRanks += int(r.deadWorldRanks.size());
                    rec.recoverSeconds += r.seconds;
                    rec.rewindStep = r.rewindStep;
                    rec.usedDiskFallback |= r.usedDiskFallback;
                }
            }
        });
        for (const auto& [name, written] : flightDumps()) {
            const auto old = before.find(name);
            obs::FlightRecorder::Dump dump;
            if ((old == before.end() || old->second != written) &&
                obs::FlightRecorder::read(name, dump))
                ++rec.wfrDumps;
        }
    }

    // Leg 3: transient faults only — healed below the recovery layer.
    {
        const vmpi::FaultPlan plan = transientFaultPlan(ranks);
        vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& base) {
            vmpi::FaultyComm faulty(base, plan);
            vmpi::ReliableComm reliable(faulty);
            reliable.setRecvDeadline(std::chrono::milliseconds(250));
            sim::DistributedSimulation simulation(reliable, forest, flagInit);
            simulation.setPreStepCallback(
                [&](std::uint64_t step) { faulty.beginStep(step); });
            recover::RecoveryManager manager(simulation, opt);
            manager.chunkedRun().run(steps, lbm::TRT::fromOmegaAndMagic(1.5));
            const std::uint64_t digest = simulation.stateDigest();
            // Retries land on the rank that missed a deadline, injections on
            // the rank that sent — sum both across the (intact) world.
            const std::uint64_t retries =
                vmpi::allreduceSum(base, reliable.retries());
            const std::uint64_t resends =
                vmpi::allreduceSum(base, reliable.resends());
            const std::uint64_t injected =
                vmpi::allreduceSum(base, faulty.faultsInjected());
            const double backoff =
                vmpi::allreduceSum(base, reliable.backoffSeconds());
            if (base.rank() == 0) {
                rec.digestTransient = digest;
                rec.transientRecoveries = manager.recoveries();
                rec.transientRetries = retries;
                rec.transientResends = resends;
                rec.transientFaultsInjected = injected;
                rec.transientBackoffSeconds = backoff;
            }
        });
    }

    // One summary line per drill.
    std::printf("recovery drill: ranks=%d blocks=%llu kill_rank=%d kill_step=%llu "
                "steps=%llu recoveries=%d dead_ranks=%d lost_blocks=%d "
                "rewind_step=%llu digest_match=%d transient_recoveries=%d "
                "transient_retries=%llu transient_digest_match=%d wfr_dumps=%llu\n",
                rec.ranks, (unsigned long long)rec.blocks, rec.killRank,
                (unsigned long long)rec.killStep, (unsigned long long)rec.steps,
                rec.recoveries, rec.deadRanks, rec.lostBlocks,
                (unsigned long long)rec.rewindStep, rec.healedDigestMatches() ? 1 : 0,
                rec.transientRecoveries, (unsigned long long)rec.transientRetries,
                rec.transientDigestMatches() ? 1 : 0, (unsigned long long)rec.wfrDumps);
    return rec;
}

/// JSON export of one drill (an object under the key "recovery", with the
/// `recover.*` metric names spelled out so gates can require them).
inline void writeRecoveryJson(obs::json::Writer& w, const RecoveryDrillRecord& rec,
                              const recover::RecoveryOptions& opt) {
    w.key("recovery").beginObject();
    w.kv("ranks", std::uint64_t(rec.ranks));
    w.kv("blocks", std::uint64_t(rec.blocks));
    w.kv("kill_rank", std::int64_t(rec.killRank));
    w.kv("kill_step", rec.killStep);
    w.kv("steps", rec.steps);
    w.kv("buddy_every", opt.buddyEvery);
    w.kv("digest_reference", rec.digestReference);
    w.kv("digest_healed", rec.digestHealed);
    w.kv("digest_transient", rec.digestTransient);
    w.kv("digest_match", std::uint64_t(rec.healedDigestMatches() ? 1 : 0));
    w.kv("transient_digest_match",
         std::uint64_t(rec.transientDigestMatches() ? 1 : 0));
    w.kv("recover.attempts", std::uint64_t(rec.recoveries));
    w.kv("recover.dead_ranks", std::uint64_t(rec.deadRanks));
    w.kv("recover.lost_blocks", std::uint64_t(rec.lostBlocks));
    w.kv("recover.seconds", rec.recoverSeconds);
    w.kv("recover.rewind_step", rec.rewindStep);
    w.kv("recover.used_disk_fallback", std::uint64_t(rec.usedDiskFallback ? 1 : 0));
    w.kv("wfr_dumps", rec.wfrDumps);
    w.kv("transient.recoveries", std::uint64_t(rec.transientRecoveries));
    w.kv("recover.retries", rec.transientRetries);
    w.kv("recover.resends", rec.transientResends);
    w.kv("recover.backoff_seconds", rec.transientBackoffSeconds);
    w.kv("transient.faults_injected", rec.transientFaultsInjected);
    w.endObject();
}

} // namespace walb::bench
