#pragma once
/// \file ServeDriver.h
/// Batch front end of the scenario service: parameter studies as one
/// workload.
///
/// The paper-scale reality of production LBM fleets is not one trillion-
/// cell run but thousands of small ones — Reynolds sweeps, geometry
/// variants, per-customer studies. ServeDriver turns such a study into a
/// job list (makeParameterSweep), runs it SPMD over a rank pool
/// (dispatcher + gangs, see Scheduler.h), and exports the dispatcher's
/// accounting as JSON. A 1-rank pool degrades to inline one-job-at-a-time
/// execution — which doubles as the bit-exactness baseline: runAlone()
/// must reproduce every fleet job's final digest.

#include <string>
#include <vector>

#include "serve/Scheduler.h"

namespace walb::serve {

class ServeDriver {
public:
    /// SPMD entry — call on EVERY pool rank with identical options and
    /// job list. Pool rank 0 dispatches and returns the filled report;
    /// other ranks serve jobs and return an empty report. On a 1-rank
    /// pool, runs the whole queue inline.
    static ServeReport run(vmpi::Comm& pool, const ServeOptions& opt,
                           std::vector<JobSpec> jobs);

    /// The serial baseline: runs one job start-to-finish on a private
    /// 1-rank world (fresh SerialComm) and returns its final state
    /// digest. Checkpoints go under `scratchDir`.
    static std::uint64_t runAlone(const JobSpec& spec, const std::string& scratchDir);

    /// Sweep builder: the cross product tenants × kinds × omegas ×
    /// repeats, round-robining tenants over the points. Job names encode
    /// the sweep point; ids are assigned later by the queue.
    struct SweepConfig {
        std::vector<std::string> tenants{"default"};
        std::vector<ScenarioKind> kinds{ScenarioKind::Cavity};
        std::vector<double> omegas{1.5};
        int repeats = 1;
        std::uint32_t blocksX = 2, blocksY = 1, blocksZ = 1;
        std::uint32_t cellsPerBlock = 8;
        std::uint64_t steps = 12;
        double lidVelocity = 0.05;
        std::uint64_t voxelSeedBase = 7; ///< repeat r of a Voxel point uses base + r
    };
    static std::vector<JobSpec> makeParameterSweep(const SweepConfig& cfg);

    /// Writes the dispatcher's report (per-job records, per-tenant
    /// accounting, fleet totals) as pretty JSON, plus the caller's `extra`
    /// top-level counts (a drill's injected kills, say). Returns false on
    /// I/O failure.
    static bool writeReportJson(
        const std::string& path, const ServeReport& report, const ServeOptions& opt,
        const std::vector<std::pair<std::string, std::uint64_t>>& extra = {});
};

} // namespace walb::serve
