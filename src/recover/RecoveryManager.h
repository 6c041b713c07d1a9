#pragma once
/// \file RecoveryManager.h
/// The self-healing runtime: in-flight rank-failure recovery without
/// relaunch. When a communication failure escalates out of the step loop
/// (ReliableComm exhausted its retries, or a FaultPlan killed a rank), the
/// survivors — instead of aborting the job — run the recovery pipeline:
///
///   1. agree   — ULFM-style failure agreement (vmpi/Agreement.h): every
///                survivor reaches the identical verdict on who is dead,
///                using point-to-point polling only;
///   2. shrink  — a ShrunkComm presents the survivors as a fresh, densely
///                renumbered world with all collectives rebuilt on p2p and
///                the whole epoch isolated in its own tag band;
///   3. restore — the dead ranks' blocks are re-spread over the survivors
///                (rebalance::spreadLostBlocks), the forest is rebuilt on
///                the shrunken world, and the state is restored from the
///                in-memory buddy checkpoint: every survivor rewinds its own
///                blocks from its self copy, and each dead rank's blocks are
///                shipped from the dead rank's ring buddy to their new
///                owners (falling back to the last disk checkpoint only when
///                a rank *and* its buddy died inside one refresh interval);
///   4. rewind  — the step counter returns to the buddy-refresh step, the
///                ghost layers are refilled, the error dump is re-armed and
///                a fresh buddy checkpoint is taken on the new ring.
///
/// The rewind is bit-exact: buddy records are the disk checkpoint's v2
/// per-block records, so a kill-and-heal run reaches the same
/// checkpointDigest as an uninterrupted run of the same step count.
///
/// Constraints: the health monitor and straggler detection must be off
/// (their collectives run on the *unshrunken* world while a rank is dying
/// and would hang in ThreadComm's full-world barrier); runWithRecovery
/// asserts this. Observability: phases emit `recover-agree` /
/// `recover-shrink` / `recover-restore` / `recover-rewind` trace markers,
/// the flight recorder dumps at the failure moment (the simulation's
/// one-shot error observer), and publishMetrics() exports the `recover.*`
/// gauge family.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/Debug.h"
#include "obs/Trace.h"
#include "recover/BuddyCheckpoint.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/Agreement.h"
#include "vmpi/ReliableComm.h"
#include "vmpi/ShrunkComm.h"

namespace walb::recover {

/// The world could not be healed: agreement failed, too many recoveries,
/// or the lost state is unrecoverable (rank + buddy dead, no disk
/// fallback). The job should abort — cleanly, with this diagnosis.
class RecoveryError : public std::runtime_error {
public:
    explicit RecoveryError(const std::string& what) : std::runtime_error(what) {}
};

/// Command-line surface shared by the fig6/fig7 drivers:
///   --recover                    enable in-flight recovery
///   --buddy-every N              buddy-checkpoint refresh interval (steps)
///   --agree-timeout-ms N         failure-agreement poll window
///   --max-recoveries N           give up after N recoveries
///   --recover-disk-fallback P    last-resort .wckp when buddy state is lost
struct RecoveryOptions {
    bool enabled = false;
    std::uint64_t buddyEvery = 8;
    int maxRecoveries = 4;
    std::chrono::milliseconds agreeTimeout{1500};
    int agreeMaxAttempts = 2;
    std::string diskFallback;

    /// Throws sim::OptionError on a malformed or missing value.
    static RecoveryOptions fromArgs(int argc, char** argv);
};

/// One completed recovery, for post-mortem reporting and tests.
struct RecoveryRecord {
    std::uint64_t failStep = 0;    ///< step counter when the failure surfaced
    std::uint64_t rewindStep = 0;  ///< step the survivors rewound to
    std::vector<int> deadWorldRanks; ///< newly agreed dead (world rank space)
    int epoch = 0;                 ///< recovery generation (1 = first)
    int lostBlocks = 0;            ///< blocks re-spread off the dead ranks
    double seconds = 0.0;          ///< wall time of the whole pipeline
    bool usedDiskFallback = false;
};

class RecoveryManager {
public:
    /// Takes the simulation's *current* comm as the immutable world handle:
    /// every ShrunkComm epoch wraps it directly. When it is a ReliableComm,
    /// publishMetrics() also exports the transient-fault counters.
    RecoveryManager(sim::DistributedSimulation& sim, RecoveryOptions opt)
        : sim_(sim), world_(sim.comm()), opt_(opt),
          deadWorld_(std::size_t(world_.size()), 0) {
        prevSurvivors_.resize(std::size_t(world_.size()));
        for (int r = 0; r < world_.size(); ++r)
            prevSurvivors_[std::size_t(r)] = r;
    }

    /// Rebinds the simulation back to the original world comm so the
    /// simulation never outlives the comm it points at (the ShrunkComm
    /// epochs die with this manager).
    ~RecoveryManager() {
        if (!epochs_.empty()) sim_.rebindComm(world_);
    }

    RecoveryManager(const RecoveryManager&) = delete;
    RecoveryManager& operator=(const RecoveryManager&) = delete;

    const RecoveryOptions& options() const { return opt_; }
    int recoveries() const { return int(history_.size()); }
    int epoch() const { return epoch_; }
    const std::vector<RecoveryRecord>& history() const { return history_; }
    BuddyCheckpoint& buddy() { return buddy_; }
    /// The comm the simulation currently steps on: the latest ShrunkComm,
    /// or the original world before the first recovery.
    vmpi::Comm& activeComm() {
        return epochs_.empty() ? world_ : *epochs_.back();
    }
    /// True when this rank is (agreed or plan-) dead and must exit its
    /// driver function quietly while the survivors heal.
    static bool isSelfDeath(const vmpi::CommError& e, int myWorldRank) {
        return e.kind == vmpi::CommError::Kind::RankKilled && e.peer == myWorldRank;
    }

    /// Drives `sim.run(numSteps, op)` chunked to buddy-checkpoint
    /// boundaries, healing escalated communication failures in flight.
    /// Throws RecoveryError when the world cannot be healed, and rethrows
    /// CommError{RankKilled, self} so a dead rank's driver can exit — the
    /// survivors complete the full step count regardless.
    template <typename Op>
    void runWithRecovery(uint_t numSteps, const Op& op) {
        WALB_ASSERT(!opt_.enabled || !sim_.healthMonitor() ||
                        sim_.healthMonitor()->policy().checkEvery == 0,
                    "recovery mode requires the health monitor off (its "
                    "collectives hang on a dying world)");
        const std::uint64_t target = sim_.currentStep() + numSteps;
        if (opt_.enabled && opt_.buddyEvery > 0 && !buddy_.valid())
            buddy_.refresh(sim_, activeComm(), sim_.currentStep());
        while (sim_.currentStep() < target) {
            std::uint64_t next = target;
            if (opt_.enabled && opt_.buddyEvery > 0) {
                const std::uint64_t boundary =
                    (sim_.currentStep() / opt_.buddyEvery + 1) * opt_.buddyEvery;
                next = std::min(next, boundary);
            }
            try {
                sim_.run(uint_t(next - sim_.currentStep()), op);
                if (opt_.enabled && opt_.buddyEvery > 0 &&
                    sim_.currentStep() % opt_.buddyEvery == 0)
                    buddy_.refresh(sim_, activeComm(), sim_.currentStep());
            } catch (const vmpi::CommError& e) {
                // Heal, then continue the while loop from the rewound step.
                // A *second* failure surfacing inside the recovery pipeline
                // feeds back into another recovery attempt.
                vmpi::CommError cur = e;
                for (;;) {
                    ensureRecoverable(cur);
                    try {
                        performRecovery(cur);
                        break;
                    } catch (const vmpi::CommError& e2) {
                        cur = e2;
                    }
                }
            }
        }
        publishMetrics();
    }

    /// Exports the `recover.*` gauges into the simulation's metrics
    /// registry (attempts, seconds, lost_blocks, dead_ranks, epoch, and —
    /// when the world comm is a ReliableComm — retries, resends,
    /// backoff_seconds). Called by runWithRecovery; callable any time.
    void publishMetrics();

private:
    /// Rethrows failures recovery must not absorb: this rank's own death
    /// sentence, a disabled recovery mode, or an exhausted recovery budget.
    void ensureRecoverable(const vmpi::CommError& e);

    /// The agree → shrink → restore → rewind pipeline (see file comment).
    void performRecovery(const vmpi::CommError& trigger);

    /// Restores all survivor + orphan block state from the buddy
    /// checkpoint; returns false when that is impossible (buddy invalid, a
    /// dead rank's buddy also dead, a corrupt copy) with a diagnosis.
    bool restoreFromBuddy(const std::vector<std::uint32_t>& ownerWorldOld,
                          const std::vector<std::uint32_t>& ownerWorldNew,
                          const std::vector<int>& prevRing, std::string* why);

    sim::DistributedSimulation& sim_;
    vmpi::Comm& world_;
    RecoveryOptions opt_;
    BuddyCheckpoint buddy_;
    std::vector<std::unique_ptr<vmpi::ShrunkComm>> epochs_;
    int epoch_ = 0;
    std::vector<std::uint8_t> deadWorld_; ///< cumulative verdict, world space
    std::vector<int> prevSurvivors_;      ///< current epoch rank -> world rank
    std::vector<RecoveryRecord> history_;
    double totalSeconds_ = 0.0;
    int totalLostBlocks_ = 0;
};

} // namespace walb::recover
