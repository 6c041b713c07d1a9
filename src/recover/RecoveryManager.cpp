#include "recover/RecoveryManager.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "core/Logging.h"
#include "rebalance/Migrator.h"
#include "rebalance/Policy.h"
#include "sim/Checkpoint.h"

namespace walb::recover {

namespace {

double elapsedSeconds(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

std::string rankList(const std::vector<int>& ranks) {
    std::string s;
    for (int r : ranks) {
        if (!s.empty()) s += ',';
        s += std::to_string(r);
    }
    return s;
}

} // namespace

RecoveryOptions RecoveryOptions::fromArgs(int argc, char** argv) {
    RecoveryOptions opt;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--recover")
            opt.enabled = true;
        else if (auto v = sim::flagValue(argc, argv, i, "--buddy-every"))
            opt.buddyEvery = sim::parseFlagValue<std::uint64_t>("--buddy-every", *v);
        else if ((v = sim::flagValue(argc, argv, i, "--agree-timeout-ms")))
            opt.agreeTimeout = std::chrono::milliseconds(
                sim::parseFlagValue<std::uint32_t>("--agree-timeout-ms", *v));
        else if ((v = sim::flagValue(argc, argv, i, "--max-recoveries")))
            opt.maxRecoveries = sim::parseFlagValue<int>("--max-recoveries", *v);
        else if ((v = sim::flagValue(argc, argv, i, "--recover-disk-fallback")))
            opt.diskFallback = *v;
    }
    return opt;
}

sim::ChunkedRun RecoveryManager::chunkedRun() {
    WALB_ASSERT(!opt_.enabled || !sim_.healthMonitor() ||
                    sim_.healthMonitor()->policy().checkEvery == 0,
                "recovery mode requires the health monitor off (its "
                "collectives hang on a dying world)");
    const std::uint64_t every = opt_.enabled ? opt_.buddyEvery : 0;
    if (every > 0 && !buddy_.valid()) buddy_.refresh(sim_, activeComm(), sim_.currentStep());
    const auto boundary = [this, every](std::uint64_t step) {
        if (every > 0 && step % every == 0) buddy_.refresh(sim_, activeComm(), step);
        publishMetrics();
        return true;
    };
    const auto rewind = [this](const vmpi::CommError& e) {
        // A second failure surfacing inside the recovery pipeline feeds
        // back into another recovery attempt.
        for (vmpi::CommError cur = e;;) {
            // Failures recovery must not absorb: my own death sentence
            // (FaultPlan kill or agreement excommunication — the driver
            // catches it and exits the rank function quietly), a disabled
            // recovery mode, or an exhausted recovery budget.
            if (isSelfDeath(cur, world_.rank()) || !opt_.enabled) throw cur;
            if (recoveries() >= opt_.maxRecoveries)
                throw RecoveryError("recovery budget exhausted (" +
                                    std::to_string(opt_.maxRecoveries) +
                                    " recoveries); last failure: " + cur.what());
            try {
                performRecovery(cur);
                return;
            } catch (const vmpi::CommError& again) {
                cur = again;
            }
        }
    };
    return sim::ChunkedRun(sim_, every, boundary, rewind);
}

void RecoveryManager::performRecovery(const vmpi::CommError& trigger) {
    const auto t0 = std::chrono::steady_clock::now();
    RecoveryRecord rec;
    rec.failStep = sim_.currentStep();
    rec.epoch = epoch() + 1;

    WALB_LOG_WARNING("rank " << world_.rank() << ": step " << rec.failStep
                             << ": entering recovery epoch " << rec.epoch << " ("
                             << trigger.what() << ")");

    // The failed step's ghost exchange will never complete (and what did
    // arrive belongs to a half-stepped state the rewind discards) — drop it
    // before anything rebuilds on the shrunken world.
    sim_.abortGhostExchange();

    // ---- agree: identical verdict on the dead set --------------------------
    vmpi::AgreementResult verdict;
    {
        obs::ScopedTrace tr(sim_.trace(), "recover-agree");
        vmpi::AgreementOptions aopt;
        aopt.window = opt_.agreeTimeout;
        aopt.maxAttempts = opt_.agreeMaxAttempts;
        try {
            verdict = vmpi::agreeAndShrink(world_, trigger.peer, deadWorld_, aopt, rec.epoch);
        } catch (const vmpi::AgreementError& e) {
            throw RecoveryError(std::string("failure agreement failed: ") + e.what());
        }
    }
    for (std::size_t r = 0; r < verdict.dead.size(); ++r)
        if (verdict.dead[r] && !deadWorld_[r]) rec.deadWorldRanks.push_back(int(r));
    deadWorld_ = verdict.dead;
    std::vector<int> survivors;
    for (std::size_t r = 0; r < deadWorld_.size(); ++r)
        if (!deadWorld_[r]) survivors.push_back(int(r));
    WALB_ASSERT(!survivors.empty(), "agreement left no survivors");
    WALB_LOG_WARNING("rank " << world_.rank() << ": agreed dead=["
                             << rankList(rec.deadWorldRanks) << "] survivors=["
                             << rankList(survivors) << "] in " << verdict.rounds
                             << " round(s)");

    // ---- shrink: new epoch comm, new tag band ------------------------------
    // Even a verdict with no *new* deaths shrinks to a fresh epoch: the
    // abandoned time step may have left half-delivered ghost messages in the
    // mailboxes, and the epoch's tag band is what isolates them.
    std::vector<int> prevRing(std::size_t(activeComm().size())); // failed epoch -> world
    for (std::size_t r = 0; r < prevRing.size(); ++r)
        prevRing[r] = epochs_.empty() ? int(r) : epochs_.back()->parentRank(int(r));
    {
        obs::ScopedTrace tr(sim_.trace(), "recover-shrink");
        epochs_.push_back(std::make_unique<vmpi::SubComm>(world_, survivors, rec.epoch));
        sim_.rebindComm(*epochs_.back());
    }

    // ---- restore: re-spread the orphans, rebuild, refill the state ---------
    bool usedDisk = false;
    {
        obs::ScopedTrace tr(sim_.trace(), "recover-restore");
        const auto& blocks = sim_.setup().blocks();

        // The setup's process fields are in the *previous* epoch's dense
        // rank space (rebalancing may have rewritten them since the last
        // recovery) — lift them to world ranks, spread the dead ranks'
        // blocks, then project onto the new epoch's numbering.
        std::vector<std::uint32_t> ownerWorldOld(blocks.size());
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            WALB_ASSERT(blocks[i].process < prevRing.size(),
                        "setup names rank " << blocks[i].process << " in an epoch of "
                                            << prevRing.size() << " ranks");
            ownerWorldOld[i] = std::uint32_t(prevRing[blocks[i].process]);
        }
        // Uniform weights: the recovery spread optimizes block *count* per
        // survivor. Measured-load balance is the rebalancer's job and its
        // next epoch runs on the healed world.
        const std::vector<double> weights(blocks.size(), 1.0);
        const std::vector<std::uint32_t> ownerWorldNew =
            rebalance::spreadLostBlocks(sim_.setup(), ownerWorldOld, weights,
                                        deadWorld_);
        std::vector<std::uint32_t> assignment(blocks.size());
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            if (deadWorld_[ownerWorldOld[i]]) ++rec.lostBlocks;
            const int newRank = epochs_.back()->subRankOf(int(ownerWorldNew[i]));
            WALB_ASSERT(newRank >= 0, "spread assigned a block to dead rank "
                                          << ownerWorldNew[i]);
            assignment[i] = std::uint32_t(newRank);
        }
        sim_.applyBlockAssignment(assignment);

        std::string why;
        if (!restoreFromBuddy(ownerWorldOld, ownerWorldNew, prevRing, &why)) {
            // The decision to fall back is derived from agreed data only
            // (dead set, ring layout), so every survivor takes this
            // collective branch together.
            if (opt_.diskFallback.empty())
                throw RecoveryError("unrecoverable state: " + why +
                                    " and no --recover-disk-fallback configured");
            WALB_LOG_WARNING("rank " << world_.rank() << ": " << why
                                     << " — falling back to disk checkpoint '"
                                     << opt_.diskFallback << "'");
            std::string err;
            if (!sim_.loadCheckpoint(opt_.diskFallback, &err))
                throw RecoveryError("disk fallback '" + opt_.diskFallback +
                                    "' failed: " + err);
            usedDisk = true;
        }
    }

    // ---- rewind: step counter, ghost layers, re-armed diagnostics ----------
    {
        obs::ScopedTrace tr(sim_.trace(), "recover-rewind");
        if (!usedDisk) sim_.setCurrentStep(buddy_.step());
        // loadCheckpoint already restored the step counter on the disk path.
        sim_.refillGhostLayers();
        sim_.resetErrorDump();
        if (opt_.buddyEvery > 0)
            buddy_.refresh(sim_, *epochs_.back(), sim_.currentStep());
    }

    rec.rewindStep = sim_.currentStep();
    rec.usedDiskFallback = usedDisk;
    rec.seconds = elapsedSeconds(t0, std::chrono::steady_clock::now());
    totalSeconds_ += rec.seconds;
    totalLostBlocks_ += rec.lostBlocks;
    history_.push_back(rec);
    publishMetrics();

    WALB_LOG_WARNING("rank " << world_.rank() << ": recovery epoch " << rec.epoch
                             << " complete in " << rec.seconds << " s: rewound "
                             << rec.failStep << " -> " << rec.rewindStep << ", "
                             << rec.lostBlocks << " block(s) restored"
                             << (usedDisk ? " via disk fallback" : " from buddy"));
}

bool RecoveryManager::restoreFromBuddy(const std::vector<std::uint32_t>& ownerWorldOld,
                                       const std::vector<std::uint32_t>& ownerWorldNew,
                                       const std::vector<int>& prevRing,
                                       std::string* why) {
    if (opt_.buddyEvery == 0 || !buddy_.valid()) {
        *why = "no buddy checkpoint held";
        return false;
    }
    if (buddy_.ringSize() != int(prevRing.size())) {
        *why = "buddy checkpoint ring (" + std::to_string(buddy_.ringSize()) +
               " ranks) does not match the failed epoch (" +
               std::to_string(prevRing.size()) + " ranks)";
        return false;
    }

    vmpi::SubComm& comm = *epochs_.back();
    const auto& blocks = sim_.setup().blocks();
    const int nPrev = int(prevRing.size());

    // Deterministic shipping plan, computed identically on every survivor:
    // each lost block is held by its dead owner's ring successor at the
    // last refresh and travels to the survivor the spread assigned it to.
    struct Move {
        std::size_t block;
        int holder, dest; // epoch ranks
    };
    std::vector<Move> moves;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const int ownWorld = int(ownerWorldOld[i]);
        if (!deadWorld_[std::size_t(ownWorld)]) continue;
        const auto it = std::lower_bound(prevRing.begin(), prevRing.end(), ownWorld);
        if (it == prevRing.end() || *it != ownWorld) {
            *why = "dead rank " + std::to_string(ownWorld) +
                   " was not part of the buddy refresh ring";
            return false;
        }
        const int holderWorld = prevRing[std::size_t(int(it - prevRing.begin() + 1) % nPrev)];
        if (deadWorld_[std::size_t(holderWorld)]) {
            *why = "rank " + std::to_string(ownWorld) + " and its buddy " +
                   std::to_string(holderWorld) +
                   " died within one refresh interval";
            return false;
        }
        moves.push_back({i, comm.subRankOf(holderWorld),
                         comm.subRankOf(int(ownerWorldNew[i]))});
        WALB_ASSERT(moves.back().holder >= 0 && moves.back().dest >= 0,
                    "ship plan names a dead rank");
    }

    // From here on the buddy path is committed on every survivor alike; any
    // local failure is a hard RecoveryError, never a divergent fallback.
    const auto fail = [&](const std::string& what) {
        return RecoveryError("rank " + std::to_string(world_.rank()) + ": " + what);
    };
    std::string err;
    if (!buddy_.restoreOwnBlocks(sim_, &err)) throw fail(err);

    // Holders route the partner copy's records, one message per
    // destination; the rest of the lost-block path is migration's.
    const int me = comm.rank();
    std::vector<BuddyCheckpoint::BlockRecord> held;
    std::map<bf::BlockID, const BuddyCheckpoint::BlockRecord*> byId;
    std::map<int, SendBuffer> outgoing;
    SendBuffer local;
    std::map<int, std::uint32_t> expected;
    for (const Move& m : moves) {
        if (m.holder != me) {
            if (m.dest == me) ++expected[m.holder];
            continue;
        }
        if (held.empty()) {
            if (!buddy_.partnerBlocks(held, &err)) throw fail(err);
            for (const auto& r : held) byId[r.id] = &r;
        }
        const auto it = byId.find(blocks[m.block].id);
        if (it == byId.end())
            throw fail("buddy copy of rank " + std::to_string(buddy_.partnerRingRank()) +
                       " lacks a block the spread expects");
        const auto& bytes = it->second->bytes;
        (m.dest == me ? local : outgoing[m.dest]).putBytes(bytes.data(), bytes.size());
    }
    try {
        rebalance::deliverBlockRecords(
            sim_, comm, kRestoreTag, "buddy restore", std::move(outgoing),
            std::span<const std::uint8_t>(local.data(), local.size()), expected);
    } catch (const sim::CheckpointError& e) {
        throw fail(e.what());
    }
    return true;
}

void RecoveryManager::publishMetrics() {
    auto& m = sim_.metrics();
    m.gauge("recover.attempts").set(double(history_.size()));
    m.gauge("recover.seconds").set(totalSeconds_);
    m.gauge("recover.lost_blocks").set(double(totalLostBlocks_));
    int deadTotal = 0;
    for (std::uint8_t d : deadWorld_) deadTotal += d;
    m.gauge("recover.dead_ranks").set(double(deadTotal));
    m.gauge("recover.epoch").set(double(epoch()));
    if (auto* rc = dynamic_cast<vmpi::ReliableComm*>(&world_)) {
        m.gauge("recover.retries").set(double(rc->retries()));
        m.gauge("recover.resends").set(double(rc->resends()));
        m.gauge("recover.backoff_seconds").set(rc->backoffSeconds());
    }
}

} // namespace walb::recover
