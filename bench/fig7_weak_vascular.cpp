/// Figure 7 — weak scaling with the complex vascular geometry.
///
/// Paper: MFLUPS per core (solid) and the fluid fraction of the allocated
/// blocks (dashed) vs cores, on SuperMUC (up to 2^17, blocks 170^3) and
/// JUQUEEN (up to 458,752, blocks 80^3). Key effect: with more processes
/// the blocks become smaller, fit the vessel tree better, the fluid
/// fraction rises — and with it the efficiency of kernels and
/// communication; MFLUPS/core *increases* with scale, unlike the flat
/// dense curves of Figure 6.
///
/// Reproduction: the partitionings are computed for real at every scale
/// with the binary search of §2.3 (fluid fractions are exact, measured on
/// the synthetic tree with scaled-down 16^3 blocks); the time axis uses
/// the calibrated machine models; the smallest scales also run for real on
/// virtual-MPI ranks.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "blockforest/ScalingSetup.h"
#include "core/Timer.h"
#include "geometry/CoronaryTree.h"
#include "obs/Report.h"
#include "perf/Scaling.h"
#include "rebalance_drill.h"
#include "recovery_drill.h"
#include "sim/ChunkedRun.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/ThreadComm.h"

using namespace walb;
using namespace walb::perf;

namespace {

constexpr std::uint32_t kCellsPerBlockEdge = 16;

geometry::CoronaryTree makeTree() {
    geometry::CoronaryTreeParams params;
    params.seed = 2013;
    params.bounds = AABB(0, 0, 0, 1, 1, 1);
    params.rootRadius = 0.04;
    params.minRadius = 0.006;
    params.maxDepth = 11;
    return geometry::CoronaryTree::generate(params);
}

struct VascularPoint {
    uint_t processes;
    uint_t blocks;
    double fluidFraction;
    double fluidPerProcess;
    double imbalance;
    real_t dx;
};

VascularPoint partitionAt(const geometry::DistanceFunction& phi, uint_t processes) {
    // Like the paper: "we allocate up to four blocks on every process and
    // enable load balancing".
    auto search = bf::findWeakScalingPartition(phi, AABB(0, 0, 0, 1, 1, 1),
                                               kCellsPerBlockEdge, 4 * processes);
    search.forest.assignFluidCellWorkload(phi);
    search.forest.balanceMorton(std::uint32_t(processes));
    const auto stats = search.forest.balanceStats();
    const double totalCells =
        double(search.blocks) * double(search.forest.config().cellsPerBlock());
    return {processes,
            search.blocks,
            double(search.forest.totalWorkload()) / totalCells,
            double(search.forest.totalWorkload()) / double(processes),
            stats.imbalance,
            search.dx};
}

void modelCurves(const std::vector<VascularPoint>& points) {
    struct MachineCase {
        MachineSpec machine;
        NetworkParams network;
        unsigned threadsPerProcess;
        double processesPerNode;
        double paperBlockEdge; ///< the paper's block size on this machine
    };
    const MachineCase cases[] = {
        {superMUCSocket(), prunedTreeNetwork(), 4, 4, 170},  // paper: 4P4T, 170^3 blocks
        {juqueenNode(), torusNetwork(), 4, 16, 80},          // paper: 16P4T, 80^3 blocks
    };
    for (const auto& c : cases) {
        const ScalingModel model(c.machine, c.network);
        std::printf("\n[%s] modeled vascular weak scaling (%uP%uT, block statistics\n"
                    "  measured at %u^3 and mapped onto the paper's %.0f^3 blocks):\n",
                    c.machine.name.c_str(), unsigned(c.processesPerNode),
                    c.threadsPerProcess, kCellsPerBlockEdge, c.paperBlockEdge);
        std::printf("%10s %9s %10s %12s %7s\n", "cores", "blocks", "fluidfrac",
                    "MFLUPS/core", "MPI%");
        for (const auto& p : points) {
            const unsigned cores = unsigned(p.processes) * c.threadsPerProcess;
            // Map the measured per-block statistics (fluid fraction, blocks
            // per process, imbalance) onto the paper's block size: volumes
            // scale with edge^3, exchanged surfaces with edge^2.
            const double cellsPerBlock =
                c.paperBlockEdge * c.paperBlockEdge * c.paperBlockEdge;
            DecompositionStats stats;
            stats.blocksPerProcess = double(p.blocks) / double(p.processes);
            stats.cellsPerProcess = stats.blocksPerProcess * cellsPerBlock;
            stats.fluidCellsPerProcess = p.fluidFraction * stats.cellsPerProcess;
            // Communication is unaware of fluid cells: full block surfaces
            // are exchanged (paper §4.3).
            stats.ghostBytesPerProcess =
                cubeGhostBytes(c.paperBlockEdge) * stats.blocksPerProcess;
            stats.messagesPerProcess = 18.0 * stats.blocksPerProcess;
            stats.processesPerNode = c.processesPerNode;
            stats.loadImbalance = p.imbalance;
            const auto point = model.fromDecomposition(cores, c.threadsPerProcess, stats);
            std::printf("%10u %9llu %9.1f%% %12.3f %6.1f%%\n", cores,
                        (unsigned long long)p.blocks, 100.0 * p.fluidFraction,
                        point.mlupsPerCore, 100.0 * point.mpiFraction);
        }
    }
}

/// Set-up seconds of one real run: the partition search, the workload
/// counts and the balancing on the calling thread's team, then the
/// slowest rank's simulation construction (voxelization, boundary flags,
/// fields).
struct SetupSeconds {
    double search = 0, workload = 0, balance = 0, constructMax = 0;
};

/// Telemetry of one real virtual-rank run, for the JSON exporter.
struct RealRunRecord {
    int ranks = 0;
    uint_t blocks = 0;
    double fluidCells = 0;
    double mflupsPerRank = 0;
    double commFraction = 0;
    SetupSeconds setup;
    obs::ReducedTimingPool phases;
    obs::ReducedMetrics metrics;
};

RealRunRecord realRun(const geometry::DistanceFunction& phi, int ranks, bool overlap,
                      const sim::CheckpointOptions& ckptOpt = {}) {
    SetupSeconds setup;
    const auto timed = [](double& seconds, const auto& phase) {
        Timer t;
        t.start();
        phase();
        t.stop();
        seconds = t.total();
    };
    bf::ScalingSearchResult search;
    timed(setup.search, [&] {
        search = bf::findWeakScalingPartition(phi, AABB(0, 0, 0, 1, 1, 1), kCellsPerBlockEdge,
                                              uint_t(ranks) * 16);
    });
    timed(setup.workload, [&] { search.forest.assignFluidCellWorkload(phi); });
    timed(setup.balance, [&] { search.forest.balanceGraph(std::uint32_t(ranks)); });
    const auto balance = search.forest.balanceStats();

    const auto flagInit = bench::vascularFlagInit(&phi);

    RealRunRecord record;
    std::vector<double> constructSeconds(std::size_t(ranks), 0.0);
    vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& comm) {
#ifdef _OPENMP
        // One OpenMP thread per rank, as in fig6's 4P1T runs: with the
        // default team of nproc threads each, 8 ranks oversubscribe a
        // 4-core host eightfold and MFLUPS/rank swings from run to run.
        omp_set_num_threads(1);
#endif
        Timer construct;
        construct.start();
        sim::DistributedSimulation simulation(comm, search.forest, flagInit);
        construct.stop();
        constructSeconds[std::size_t(comm.rank())] = construct.total();
        simulation.setOverlapCommunication(overlap);
        // ECM reference of the run's kernel tier for the live
        // model-vs-measured gauges (perf.predicted_mlups / perf.efficiency
        // in the exported metrics).
        simulation.setPerfReference(
            EcmModel(superMUCSocket(), simulation.kernelTier()).singleCoreMLUPS());
        uint_t steps = 20;
        if (ckptOpt.any()) {
            // Checkpoint/restart contract (see sim/Checkpoint.h): restart,
            // periodic saves, simulated kill via --stop-after.
            steps = uint_t(sim::runCheckpointed(simulation, ckptOpt, steps,
                                                lbm::TRT::fromOmegaAndMagic(1.5)));
        } else {
            simulation.run(steps, lbm::TRT::fromOmegaAndMagic(1.5));
        }
        // Collectives: every rank must participate.
        const double fluid = double(simulation.globalFluidCells());
        const obs::ReducedTimingPool reduced = simulation.reduceTiming();
        const obs::ReducedMetrics metrics = simulation.reduceMetrics();
        if (comm.rank() == 0) {
            const double mflups = fluid * double(steps) /
                                  simulation.timing().grandTotal() / 1e6 / double(ranks);
            std::printf("%6d %9llu %12.0f %11.2f %7.1f%% %9.3f %9.3f\n", ranks,
                        (unsigned long long)search.blocks, fluid, mflups,
                        100.0 * simulation.timing().fraction("communication"),
                        balance.imbalance, balance.costImbalance);
            record = {ranks,  search.blocks,
                      fluid,  mflups,
                      reduced.fraction("communication"), {}, reduced, metrics};
        }
    });
    setup.constructMax = *std::max_element(constructSeconds.begin(), constructSeconds.end());
    record.setup = setup;
    return record;
}

} // namespace

int main(int argc, char** argv) {
    std::printf("=== Figure 7: weak scaling with the vascular geometry ===\n");
    const std::string metricsPath = obs::metricsJsonPathFromArgs(argc, argv);
    sim::CheckpointOptions ckptOpt;
    rebalance::RebalanceOptions rbOpt;
    recover::RecoveryOptions rcOpt;
    // Victim of the --recover drill.
    int killRank = 2;
    std::uint64_t killStep = 13;
    try {
        ckptOpt = sim::CheckpointOptions::fromArgs(argc, argv);
        rbOpt = rebalance::RebalanceOptions::fromArgs(argc, argv);
        rcOpt = recover::RecoveryOptions::fromArgs(argc, argv);
        for (int i = 1; i < argc; ++i) {
            if (auto v = sim::flagValue(argc, argv, i, "--kill-rank"))
                killRank = sim::parseFlagValue<int>("--kill-rank", *v);
            else if ((v = sim::flagValue(argc, argv, i, "--kill-step")))
                killStep = sim::parseFlagValue<std::uint64_t>("--kill-step", *v);
        }
    } catch (const sim::OptionError& e) {
        std::fprintf(stderr, "fig7_weak_vascular: %s\n", e.what());
        return 2;
    }
    const auto tree = makeTree();
    const auto phi = tree.implicitDistance();
    std::printf("synthetic tree: %zu segments, bbox fluid fraction %.2f%%\n",
                tree.segments().size(), 100.0 * tree.boundingBoxFluidFraction());

    bool overlap = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--overlap") overlap = true;

    // Rebalance drill (--rebalance-every N [--rebalance-policy ...]): skewed
    // 4-rank assignment, reference vs live-rebalanced run, digest-invariance
    // and imbalance trajectory — see bench/rebalance_drill.h.
    if (rbOpt.any()) {
        const int drillRanks = 4;
        auto search = bf::findWeakScalingPartition(*phi, AABB(0, 0, 0, 1, 1, 1),
                                                   kCellsPerBlockEdge,
                                                   uint_t(drillRanks) * 16);
        search.forest.assignFluidCellWorkload(*phi);
        search.forest.balanceMorton(std::uint32_t(drillRanks));
        bench::skewAssignment(search.forest, std::uint32_t(drillRanks));
        const uint_t drillSteps = 4 * uint_t(rbOpt.every);
        const auto drill = bench::runRebalanceDrill(search.forest, search.blocks, *phi,
                                                    drillRanks, rbOpt, drillSteps, overlap);
        if (!metricsPath.empty()) {
            {
                std::ofstream os(metricsPath, std::ios::binary);
                if (!os) {
                    std::fprintf(stderr, "cannot open '%s' for writing\n",
                                 metricsPath.c_str());
                    return 1;
                }
                obs::json::Writer w(os);
                w.beginObject();
                w.kv("benchmark", "fig7_weak_vascular");
                bench::writeRebalanceJson(w, drill, rbOpt);
                w.endObject();
                os << '\n';
            }
            if (!obs::validateMetricsJson(metricsPath, {"benchmark", "rebalance"}))
                return 1;
            std::printf("wrote metrics JSON: %s\n", metricsPath.c_str());
        }
        return 0;
    }

    // Self-healing drill (--recover [--kill-rank R] [--kill-step S] ...):
    // reference vs kill-and-heal vs transient-faults runs on a 4-rank
    // vascular partition — see bench/recovery_drill.h.
    if (rcOpt.enabled) {
        const int drillRanks = 4;
        const uint_t drillSteps = uint_t(3 * rcOpt.buddyEvery);
        auto search = bf::findWeakScalingPartition(*phi, AABB(0, 0, 0, 1, 1, 1),
                                                   kCellsPerBlockEdge,
                                                   uint_t(drillRanks) * 16);
        search.forest.assignFluidCellWorkload(*phi);
        search.forest.balanceMorton(std::uint32_t(drillRanks));
        const auto drill = bench::runRecoveryDrill(search.forest, search.blocks, *phi,
                                                   drillRanks, rcOpt, drillSteps,
                                                   killRank, killStep);
        if (!metricsPath.empty()) {
            {
                std::ofstream os(metricsPath, std::ios::binary);
                if (!os) {
                    std::fprintf(stderr, "cannot open '%s' for writing\n",
                                 metricsPath.c_str());
                    return 1;
                }
                obs::json::Writer w(os);
                w.beginObject();
                w.kv("benchmark", "fig7_weak_vascular");
                bench::writeRecoveryJson(w, drill, rcOpt);
                w.endObject();
                os << '\n';
            }
            if (!obs::validateMetricsJson(metricsPath, {"benchmark", "recovery"}))
                return 1;
            std::printf("wrote metrics JSON: %s\n", metricsPath.c_str());
        }
        return 0;
    }

    std::printf("\nreal virtual-rank runs (target 2 blocks/rank, %u^3 blocks, TRT%s):\n",
                kCellsPerBlockEdge, overlap ? ", overlapped comm schedule" : "");
    std::printf("%6s %9s %12s %11s %8s %9s %9s\n", "ranks", "blocks", "fluid cells",
                "MFLUPS/rank", "comm%", "fluid imb", "cost imb");
    std::vector<RealRunRecord> records;
    // Under a checkpoint/restart drill only the largest world runs (the
    // checkpoint file is per-invocation; three worlds would clobber it).
    if (ckptOpt.any())
        records.push_back(realRun(*phi, 8, overlap, ckptOpt));
    else
        for (int ranks : {2, 4, 8}) records.push_back(realRun(*phi, ranks, overlap));

    std::printf("\nexact partitionings across scales (fluid fraction rises with the "
                "block fit):\n");
    std::vector<VascularPoint> points;
    for (uint_t procs : {64u, 256u, 1024u, 4096u, 16384u}) {
        points.push_back(partitionAt(*phi, procs));
        const auto& p = points.back();
        std::printf("  %6llu processes: %6llu blocks, dx=%.5f, fluid fraction %5.1f%%, "
                    "imbalance %.2f\n",
                    (unsigned long long)p.processes, (unsigned long long)p.blocks, p.dx,
                    100.0 * p.fluidFraction, p.imbalance);
    }

    modelCurves(points);

    std::printf("\npaper anchors: fluid fraction and MFLUPS/core rise together with the "
                "core count\n(Figure 7a/b); largest run 1,033,660,569,847 fluid cells at "
                "dx = 1.276 um\n(one fifth of a red blood cell), 1.25 time steps/s on "
                "458,752 cores.\n");

    if (!metricsPath.empty()) {
        {
            std::ofstream os(metricsPath, std::ios::binary);
            if (!os) {
                std::fprintf(stderr, "cannot open '%s' for writing\n", metricsPath.c_str());
                return 1;
            }
            obs::json::Writer w(os);
            w.beginObject();
            w.kv("benchmark", "fig7_weak_vascular");
            w.key("runs").beginArray();
            for (const RealRunRecord& r : records) {
                w.beginObject();
                w.kv("ranks", r.ranks).kv("blocks", std::uint64_t(r.blocks));
                w.kv("fluid_cells", r.fluidCells);
                w.kv("mflups_per_rank", r.mflupsPerRank);
                w.kv("comm_fraction", r.commFraction);
                auto counterSum = [&](const char* name) -> std::uint64_t {
                    auto it = r.metrics.counters.find(name);
                    return it == r.metrics.counters.end() ? 0 : it->second.sum;
                };
                w.kv("bytes_sent", counterSum("comm.bytesSent"));
                w.kv("bytes_received", counterSum("comm.bytesReceived"));
                w.kv("perf.predicted_mlups", r.metrics.gaugeAvg("perf.predicted_mlups"));
                w.kv("perf.efficiency", r.metrics.gaugeAvg("perf.efficiency"));
                // Zero outside a --recover drill; present so downstream
                // gates can --require the key family unconditionally.
                w.kv("recover.attempts", r.metrics.gaugeAvg("recover.attempts"));
                w.kv("recover.retries", r.metrics.gaugeAvg("recover.retries"));
                w.key("setup").beginObject();
                w.kv("search_s", r.setup.search).kv("workload_s", r.setup.workload);
                w.kv("balance_s", r.setup.balance);
                w.kv("construct_max_s", r.setup.constructMax);
                w.endObject();
                w.key("phases");
                obs::writePhasesJson(w, r.phases);
                w.endObject();
            }
            w.endArray();
            w.key("partitionings").beginArray();
            for (const auto& p : points) {
                w.beginObject();
                w.kv("processes", std::uint64_t(p.processes));
                w.kv("blocks", std::uint64_t(p.blocks));
                w.kv("fluid_fraction", p.fluidFraction);
                w.kv("imbalance", p.imbalance);
                w.kv("dx", double(p.dx));
                w.endObject();
            }
            w.endArray();
            w.endObject();
            os << '\n';
        }
        if (!obs::validateMetricsJson(metricsPath, {"benchmark", "runs", "partitionings"}))
            return 1;
        std::printf("\nwrote metrics JSON: %s\n", metricsPath.c_str());
    }
    return 0;
}
