#pragma once
/// \file rebalance_drill.h
/// Shared rebalance drill for the vascular bench drivers (fig7/fig8):
/// builds a *deliberately skewed* block assignment, runs one reference
/// simulation (never migrates) and one live-rebalanced simulation on
/// virtual-MPI ranks, and reports
///   * the interior-state digests of both runs at the same step —
///     equality is the bit-exactness guarantee of live migration, and
///   * the measured imbalance trajectory — the final factor must fall
///     strictly below the skewed starting point (`imbalance_fell`).
/// The ctest gate bench/gates/fig7_rebalance_smoke.json bounds both in the
/// exported metrics JSON.

#include <cstdio>

#include "geometry/SignedDistance.h"
#include "geometry/Voxelizer.h"
#include "obs/Report.h"
#include "rebalance/Rebalancer.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/ThreadComm.h"

namespace walb::bench {

/// The all-wall vascular flag initializer shared by the fig7 real runs and
/// the rebalance drills.
inline sim::DistributedSimulation::FlagInitializer
vascularFlagInit(const geometry::DistanceFunction* phi) {
    return [phi](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                 const bf::BlockForest::Block& block, const geometry::CellMapping& mapping) {
        (void)block;
        geometry::voxelize(*phi, flags, mapping, masks.fluid);
        const field::flag_t hull = flags.registerFlag("hull");
        lbm::markBoundaryHull<lbm::D3Q19>(flags, masks.fluid, 0, hull);
        // All-wall boundaries suffice for the performance measurement.
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (flags.isFlagSet(x, y, z, hull)) {
                flags.removeFlag(x, y, z, hull);
                flags.addFlag(x, y, z, masks.noSlip);
            }
        });
    };
}

/// Deliberately unbalances an already-balanced assignment: rank 0 receives
/// half of the total workload, the rest is split evenly — the "skewed
/// vascular tree" starting point whose measured imbalance the rebalancer
/// must bring down.
inline void skewAssignment(bf::SetupBlockForest& forest, std::uint32_t ranks) {
    if (ranks < 2) return;
    std::vector<double> cumulativeShare(ranks);
    double acc = 0.0;
    for (std::uint32_t r = 0; r < ranks; ++r) {
        acc += r == 0 ? 0.5 : 0.5 / double(ranks - 1);
        cumulativeShare[r] = acc;
    }
    const double total = double(std::max<std::uint64_t>(1, forest.totalWorkload()));
    double used = 0.0;
    for (auto& b : forest.blocks()) {
        const double mid = (used + 0.5 * double(b.workload)) / total;
        used += double(b.workload);
        std::uint32_t r = 0;
        while (r + 1 < ranks && mid > cumulativeShare[r]) ++r;
        b.process = r;
    }
}

struct RebalanceDrillRecord {
    int ranks = 0;
    uint_t blocks = 0;
    std::uint64_t digestReference = 0;
    std::uint64_t digestMigrated = 0;
    double imbalanceFirst = 0.0; ///< measured, entering the first epoch
    double imbalanceLast = 0.0;  ///< measured, leaving the last epoch
    std::uint64_t blocksMoved = 0;
    std::uint64_t bytesMoved = 0;
    double seconds = 0.0;
    std::size_t epochs = 0;
    std::size_t migrations = 0;
    obs::ReducedMetrics metrics;
};

/// Runs the drill on `forest` (expected pre-skewed): reference run without
/// rebalancing, then an identical run with the rebalancer installed, both
/// for `steps` steps from the same initial state. With `overlap` both runs
/// use the overlapped communication schedule — digest equality then also
/// certifies that live migration rebuilds the core/shell split plans
/// correctly.
inline RebalanceDrillRecord runRebalanceDrill(const bf::SetupBlockForest& forest,
                                              uint_t numBlocks,
                                              const geometry::DistanceFunction& phi,
                                              int ranks,
                                              const rebalance::RebalanceOptions& rbOpt,
                                              uint_t steps, bool overlap = false) {
    const auto flagInit = vascularFlagInit(&phi);
    RebalanceDrillRecord rec;
    rec.ranks = ranks;
    rec.blocks = numBlocks;

    vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, forest, flagInit);
        simulation.setOverlapCommunication(overlap);
        simulation.run(steps, lbm::TRT::fromOmegaAndMagic(1.5));
        const std::uint64_t digest = simulation.stateDigest();
        if (comm.rank() == 0) rec.digestReference = digest;
    });

    vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, forest, flagInit);
        simulation.setOverlapCommunication(overlap);
        rebalance::Rebalancer rebalancer(simulation, rbOpt);
        rebalancer.install();
        simulation.run(steps, lbm::TRT::fromOmegaAndMagic(1.5));
        const std::uint64_t digest = simulation.stateDigest();
        const obs::ReducedMetrics metrics = simulation.reduceMetrics();
        if (comm.rank() == 0) {
            rec.digestMigrated = digest;
            rec.metrics = metrics;
            const auto& history = rebalancer.history();
            rec.epochs = history.size();
            if (!history.empty()) {
                rec.imbalanceFirst = history.front().imbalanceBefore;
                rec.imbalanceLast = history.back().imbalanceAfter;
            }
            for (const auto& epoch : history) {
                rec.blocksMoved += epoch.blocksMoved;
                rec.bytesMoved += epoch.bytesMoved;
                rec.seconds += epoch.seconds;
                if (epoch.migrated) ++rec.migrations;
            }
        }
    });

    // One summary line per drill.
    std::printf("rebalance drill: ranks=%d blocks=%llu digest_reference=%llu "
                "digest_migrated=%llu imbalance_first=%.4f imbalance_last=%.4f "
                "blocks_moved=%llu migrations=%zu\n",
                rec.ranks, (unsigned long long)rec.blocks,
                (unsigned long long)rec.digestReference,
                (unsigned long long)rec.digestMigrated, rec.imbalanceFirst,
                rec.imbalanceLast, (unsigned long long)rec.blocksMoved, rec.migrations);
    return rec;
}

/// JSON export of one drill (an object under the key "rebalance").
inline void writeRebalanceJson(obs::json::Writer& w, const RebalanceDrillRecord& rec,
                               const rebalance::RebalanceOptions& rbOpt) {
    w.key("rebalance").beginObject();
    w.kv("ranks", std::uint64_t(rec.ranks));
    w.kv("blocks", std::uint64_t(rec.blocks));
    w.kv("policy", rbOpt.policy);
    w.kv("every", rbOpt.every);
    w.kv("imbalance_threshold", rbOpt.imbalanceThreshold);
    w.kv("digest_reference", rec.digestReference);
    w.kv("digest_migrated", rec.digestMigrated);
    w.kv("imbalance_first", rec.imbalanceFirst);
    w.kv("imbalance_last", rec.imbalanceLast);
    // Strict: an inclusive bound on the difference would pass a flat line.
    w.kv("imbalance_fell", std::uint64_t(rec.imbalanceLast < rec.imbalanceFirst ? 1 : 0));
    w.kv("blocks_moved", rec.blocksMoved);
    w.kv("bytes_moved", rec.bytesMoved);
    w.kv("seconds", rec.seconds);
    w.kv("epochs", std::uint64_t(rec.epochs));
    w.kv("migrations", std::uint64_t(rec.migrations));
    auto gaugeMax = [&](const char* name) -> double {
        auto it = rec.metrics.gauges.find(name);
        return it == rec.metrics.gauges.end() ? 0.0 : it->second.max;
    };
    auto counterSum = [&](const char* name) -> std::uint64_t {
        auto it = rec.metrics.counters.find(name);
        return it == rec.metrics.counters.end() ? 0 : it->second.sum;
    };
    w.kv("metric_imbalance", gaugeMax("rebalance.imbalance"));
    w.kv("metric_blocks_moved", counterSum("rebalance.blocks_moved"));
    w.kv("metric_bytes_moved", counterSum("rebalance.bytes_moved"));
    w.kv("metric_seconds", gaugeMax("rebalance.seconds"));
    w.endObject();
}

} // namespace walb::bench
