/// Figure 8 — strong scaling with the complex vascular geometry at two
/// fixed resolutions.
///
/// Paper: 0.1 mm (2.1 M fluid cells) and 0.05 mm (16.9 M fluid cells);
/// MFLUPS/core and time steps/s vs cores on SuperMUC (a/c) and JUQUEEN
/// (b/d). The experiments vary the number and size of blocks and report
/// the best: optimal blocks/core fell from 32 at 16 cores to 1 at large
/// scale, block sizes from 34^3 to 9^3 (0.1 mm) and 46^3 to 13^3
/// (0.05 mm). Time steps/s rise to 6638/s (SuperMUC, 0.1 mm); efficiency
/// decays with scale, and earlier on JUQUEEN, whose slim cores digest the
/// per-block framework overhead more slowly.
///
/// Reproduction: partitionings (block-edge binary search per §2.3, several
/// blocks-per-core candidates) are computed for real on the synthetic tree
/// at laptop-scale resolutions — once per configuration — then evaluated
/// through both calibrated machine models using the *measured* per-process
/// workload imbalance; the fastest candidate is reported per core count.

#include <cstdio>
#include <fstream>
#include <vector>

#include "blockforest/ScalingSetup.h"
#include "geometry/CoronaryTree.h"
#include "obs/Report.h"
#include "perf/Scaling.h"
#include "rebalance_drill.h"

using namespace walb;
using namespace walb::perf;

namespace {

geometry::CoronaryTree makeTree() {
    geometry::CoronaryTreeParams params;
    params.seed = 2013;
    params.bounds = AABB(0, 0, 0, 1, 1, 1);
    params.rootRadius = 0.04;
    params.minRadius = 0.006;
    params.maxDepth = 11;
    return geometry::CoronaryTree::generate(params);
}

/// One real partitioning candidate: geometry statistics, machine-agnostic.
struct Candidate {
    uint_t blocks = 0;
    std::uint32_t blockEdge = 0;
    double fluidTotal = 0;
    double imbalance = 1.0;
    unsigned cores = 0;
};

/// Computes the candidate partitionings for one core count (several
/// blocks-per-process targets), reusable across machines.
std::vector<Candidate> candidatesFor(const geometry::DistanceFunction& phi, real_t dx,
                                     unsigned cores) {
    std::vector<Candidate> result;
    for (unsigned blocksPerProcess : {1u, 2u, 4u, 8u, 16u, 32u}) {
        const uint_t target = uint_t(cores) * blocksPerProcess;
        bf::ScalingSearchResult search =
            bf::findStrongScalingPartition(phi, AABB(0, 0, 0, 1, 1, 1), dx, target, 4, 96);
        if (search.blocks == 0 || search.blocks < cores / 4) continue;
        search.forest.assignFluidCellWorkload(phi);
        search.forest.balanceMorton(cores);
        const auto stats = search.forest.balanceStats();
        result.push_back({search.blocks, search.blockEdgeCells,
                          double(search.forest.totalWorkload()),
                          std::max(1.0, stats.imbalance), cores});
        // Identical partitionings repeat once the block count saturates.
        if (!result.empty() && result.size() >= 2 &&
            result[result.size() - 2].blocks == search.blocks)
            break;
    }
    return result;
}

struct BestPoint {
    ScalingPoint point;
    const Candidate* candidate = nullptr;
};

BestPoint evaluate(const std::vector<Candidate>& candidates, const ScalingModel& model) {
    BestPoint best;
    for (const Candidate& c : candidates) {
        DecompositionStats d;
        d.fluidCellsPerProcess = c.fluidTotal / double(c.cores);
        d.blocksPerProcess = double(c.blocks) / double(c.cores);
        const double cellsPerBlock =
            double(c.blockEdge) * c.blockEdge * c.blockEdge;
        d.cellsPerProcess = d.blocksPerProcess * cellsPerBlock;
        d.ghostBytesPerProcess = cubeGhostBytes(double(c.blockEdge)) * d.blocksPerProcess;
        d.messagesPerProcess = 18.0 * std::max(1.0, d.blocksPerProcess);
        d.loadImbalance = c.imbalance;
        const auto point = model.fromDecomposition(c.cores, 1, d);
        if (point.timeStepsPerSecond > best.point.timeStepsPerSecond) {
            best.point = point;
            best.candidate = &c;
        }
    }
    return best;
}

} // namespace

int main(int argc, char** argv) {
    std::printf("=== Figure 8: strong scaling with the vascular geometry ===\n");
    const std::string metricsPath = obs::metricsJsonPathFromArgs(argc, argv);
    rebalance::RebalanceOptions rbOpt;
    try {
        rbOpt = rebalance::RebalanceOptions::fromArgs(argc, argv);
    } catch (const sim::OptionError& e) {
        std::fprintf(stderr, "fig8_strong_vascular: %s\n", e.what());
        return 2;
    }

    // Modeled best points collected for the JSON exporter.
    struct ExportPoint {
        std::string machine;
        std::string resolution;
        unsigned cores = 0;
        double mlupsPerCore = 0;
        double stepsPerSecond = 0;
        std::uint64_t blocks = 0;
        unsigned blockEdge = 0;
        double ecmEfficiency = 0; ///< per-core rate vs the ECM single-core bound
    };
    std::vector<ExportPoint> exportPoints;

    const auto tree = makeTree();
    const auto phi = tree.implicitDistance();

    bool overlap = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--overlap") overlap = true;

    // Rebalance drill on a real strong-scaling partitioning: fixed problem
    // size, skewed 4-rank assignment, reference vs live-rebalanced run (the
    // strong-scaling case is where measured-load rebalancing matters most —
    // the most-loaded rank alone sets the time per step).
    if (rbOpt.any()) {
        const int drillRanks = 4;
        bf::ScalingSearchResult search = bf::findStrongScalingPartition(
            *phi, AABB(0, 0, 0, 1, 1, 1), real_c(1.0 / 160.0),
            uint_t(drillRanks) * 16, 4, 96);
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
                w.kv("benchmark", "fig8_strong_vascular");
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

    // Laptop-scale analogs of the paper's two resolutions (the paper's
    // 0.1 mm case holds 2.1 M fluid cells; ours holds proportionally fewer
    // on the smaller synthetic tree — the shape, not the absolute cell
    // count, is the reproduction target).
    struct Case {
        const char* name;
        real_t dx;
    };
    const Case cases[] = {{"coarse ('0.1 mm')", real_c(1.0 / 160.0)},
                          {"fine ('0.05 mm')", real_c(1.0 / 320.0)}};

    struct MachineCase {
        MachineSpec machine;
        NetworkParams network;
    };
    const MachineCase machines[] = {{superMUCSocket(), prunedTreeNetwork()},
                                    {juqueenNode(), torusNetwork()}};

    for (const Case& c : cases) {
        // Partitionings are machine-independent: compute once per scale.
        std::vector<std::vector<Candidate>> perCores;
        std::vector<unsigned> coreCounts = {16u, 64u, 256u, 1024u, 4096u, 16384u};
        for (unsigned cores : coreCounts)
            perCores.push_back(candidatesFor(*phi, c.dx, cores));

        for (const MachineCase& mc : machines) {
            const ScalingModel model(mc.machine, mc.network);
            std::printf("\n[%s, resolution %s (dx=%.5f)]\n", mc.machine.name.c_str(),
                        c.name, c.dx);
            std::printf("%8s %12s %12s %10s %10s %11s\n", "cores", "MFLUPS/core",
                        "steps/s", "blocks", "blk/core", "block edge");
            for (std::size_t i = 0; i < coreCounts.size(); ++i) {
                const BestPoint best = evaluate(perCores[i], model);
                if (!best.candidate) {
                    std::printf("%8u   (no feasible partitioning)\n", coreCounts[i]);
                    continue;
                }
                std::printf("%8u %12.3f %12.1f %10llu %10.2f %8u^3\n", coreCounts[i],
                            best.point.mlupsPerCore, best.point.timeStepsPerSecond,
                            (unsigned long long)best.candidate->blocks,
                            double(best.candidate->blocks) / double(coreCounts[i]),
                            best.candidate->blockEdge);
                // Strong-scaling efficiency against the socket's ECM bound:
                // the decay of this ratio with the core count is Figure 8's
                // central statement (per-block overhead eats the per-core
                // rate as blocks shrink).
                const double eff = EcmModel(mc.machine)
                                       .efficiency(best.point.mlupsPerCore);
                exportPoints.push_back({mc.machine.name, c.name, coreCounts[i],
                                        best.point.mlupsPerCore,
                                        best.point.timeStepsPerSecond,
                                        std::uint64_t(best.candidate->blocks),
                                        unsigned(best.candidate->blockEdge), eff});
            }
        }
    }

    std::printf("\npaper anchors (shapes to compare): steps/s rise monotonically "
                "(11.4 -> 6638/s on SuperMUC at 0.1 mm);\nMFLUPS/core decays with "
                "scale; optimal blocks/core falls from 32 toward 1; block edges\n"
                "shrink from 34^3 to 9^3 (0.1 mm) and 46^3 to 13^3 (0.05 mm); "
                "JUQUEEN's efficiency decays earlier\nbecause the A2 cores digest the "
                "per-block framework overhead more slowly.\n");

    if (!metricsPath.empty()) {
        {
            std::ofstream os(metricsPath, std::ios::binary);
            if (!os) {
                std::fprintf(stderr, "cannot open '%s' for writing\n", metricsPath.c_str());
                return 1;
            }
            obs::json::Writer w(os);
            w.beginObject();
            w.kv("benchmark", "fig8_strong_vascular");
            w.key("points").beginArray();
            for (const ExportPoint& p : exportPoints) {
                w.beginObject();
                w.kv("machine", p.machine).kv("resolution", p.resolution);
                w.kv("cores", std::uint64_t(p.cores));
                w.kv("mlups_per_core", p.mlupsPerCore);
                w.kv("steps_per_second", p.stepsPerSecond);
                w.kv("blocks", p.blocks).kv("block_edge", std::uint64_t(p.blockEdge));
                w.kv("ecm_efficiency", p.ecmEfficiency);
                w.endObject();
            }
            w.endArray();
            w.endObject();
            os << '\n';
        }
        if (!obs::validateMetricsJson(metricsPath, {"benchmark", "points"})) return 1;
        std::printf("\nwrote metrics JSON: %s (%zu points)\n", metricsPath.c_str(),
                    exportPoints.size());
    }
    return 0;
}
