#pragma once
/// \file Rebalancer.h
/// Orchestration of `walb::rebalance`: ties the measurement (LoadModel),
/// policy (RebalancePolicy) and migration (migrate()) layers into one
/// epoch-driven loop that plugs into DistributedSimulation's structural
/// step hook.
///
/// Every `every` steps the rebalancer
///   1. folds the accumulated per-block sweep seconds into the LoadModel
///      and resets the accumulators,
///   2. allgathers the global weight vector and computes the imbalance
///      factor max/avg of the *current* assignment,
///   3. applies hysteresis: below `imbalanceThreshold` nothing migrates —
///      healthy runs never pay migration cost,
///   4. asks the policy for a new assignment and migrates only when the
///      proposed assignment is strictly better than the current one.
///
/// Observability: `rebalance.imbalance` (gauge, last measured),
/// `rebalance.blocks_moved` / `rebalance.bytes_moved` (counters) and
/// `rebalance.seconds` (gauge, cumulative) land in the obs metrics JSON of
/// the bench drivers.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rebalance/LoadModel.h"
#include "rebalance/Policy.h"

namespace walb::sim {
class DistributedSimulation;
}

namespace walb::rebalance {

/// Command-line surface shared by the fig7/fig8 drivers:
///   --rebalance-every N        epoch length in steps (0 = disabled)
///   --rebalance-policy NAME    "morton" (default) or "diffusion"
///   --imbalance-threshold X    hysteresis: migrate only above X (max/avg)
///   --rebalance-max-moves N    diffusion: blocks moved per epoch bound
struct RebalanceOptions {
    std::uint64_t every = 0;
    std::string policy = "morton";
    double imbalanceThreshold = 1.10;
    std::uint32_t maxMoves = 8;

    bool any() const { return every > 0; }
    /// Throws sim::OptionError on a malformed or missing value.
    static RebalanceOptions fromArgs(int argc, char** argv);
};

/// One rebalance decision, kept for post-run reporting.
struct EpochRecord {
    std::uint64_t step = 0;
    double imbalanceBefore = 1.0; ///< of the assignment entering the epoch
    double imbalanceAfter = 1.0;  ///< of the assignment leaving the epoch
    std::size_t blocksMoved = 0;
    std::size_t bytesMoved = 0; ///< this rank's sent+received payload bytes
    double seconds = 0.0;
    bool migrated = false;
};

class Rebalancer {
public:
    /// Does not install itself — call install() (or drive maybeRebalance()
    /// manually from an existing step hook).
    Rebalancer(sim::DistributedSimulation& sim, RebalanceOptions opt);

    /// Registers this rebalancer as the simulation's structural step hook.
    void install();

    /// Epoch driver for the step hook: no-op except at epoch boundaries
    /// (step > 0, step % every == 0). Collective at boundaries.
    void maybeRebalance(std::uint64_t step);

    /// Decision core, testable with injected weights: measures nothing,
    /// computes imbalance / applies hysteresis / proposes / migrates.
    /// Returns true when a migration happened. Collective.
    bool runEpoch(std::uint64_t step, const std::vector<double>& weights);

    const RebalanceOptions& options() const { return opt_; }
    LoadModel& loadModel() { return model_; }
    const std::vector<EpochRecord>& history() const { return history_; }

private:
    sim::DistributedSimulation& sim_;
    RebalanceOptions opt_;
    LoadModel model_;
    std::unique_ptr<RebalancePolicy> policy_;
    std::vector<EpochRecord> history_;
    double cumulativeSeconds_ = 0.0;
    std::uint64_t lastEpochStep_ = 0; ///< flight-recorder window start (step index)
};

} // namespace walb::rebalance
