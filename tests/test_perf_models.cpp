/// Tests of the performance models against the paper's published numbers:
/// roofline bounds (87.8 / 76.2 MLUPS), ECM composition (448 + 114 cycles),
/// frequency scaling (93% performance at 1.6 GHz), SMT behavior, network
/// model shapes, and the local STREAM / kernel measurement plumbing.

#include <gtest/gtest.h>

#include <array>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "perf/Ecm.h"
#include "perf/LocalBench.h"
#include "perf/Scaling.h"
#include "perf/Stream.h"

namespace walb::perf {
namespace {

TEST(Roofline, MatchesPaperBounds) {
    // Paper §4.1: 37.3 GiB/s / 456 B = 87.8 MLUPS on a SuperMUC socket,
    // 32.4 GiB/s -> 76.2 MLUPS on a JUQUEEN node.
    EXPECT_NEAR(rooflineMLUPS(superMUCSocket().usableBandwidthGiBs), 87.8, 0.1);
    EXPECT_NEAR(rooflineMLUPS(juqueenNode().usableBandwidthGiBs), 76.2, 0.2);
    EXPECT_DOUBLE_EQ(kBytesPerLUP, 456.0);
}

TEST(Ecm, PaperCycleInputs) {
    const EcmModel ecm(superMUCSocket());
    EXPECT_DOUBLE_EQ(ecm.coreCyclesPer8LUP(), 448.0); // IACA, paper §4.1
    EXPECT_DOUBLE_EQ(ecm.cacheCyclesPer8LUP(), 114.0);
    // Single-core T_mem at 2.7 GHz: 8 * 456 B over the ~11.2 GiB/s one SNB
    // core can draw.
    EXPECT_NEAR(ecm.memCyclesPer8LUP(),
                8.0 * 456.0 / (superMUCSocket().singleCoreBandwidthGiBs * kGiB) * 2.7e9,
                1e-9);
    // Chip saturation still follows the usable 37.3 GiB/s roofline.
    EXPECT_NEAR(ecm.saturationMLUPS(), 87.8, 0.1);
}

TEST(Ecm, SocketSaturatesBelowFullCoreCount) {
    // Paper §4.1: "the memory interface can be saturated using only six of
    // the eight cores" at 2.7 GHz.
    const EcmModel ecm(superMUCSocket());
    EXPECT_LE(ecm.saturationCores(), 7u);
    EXPECT_GE(ecm.saturationCores(), 4u);
    EXPECT_NEAR(ecm.predictMLUPS(8), 87.8, 0.2); // full socket hits roofline
    EXPECT_LT(ecm.predictMLUPS(1), 40.0);        // single core far below
    // Monotone non-decreasing in cores.
    for (unsigned c = 1; c < 8; ++c)
        EXPECT_LE(ecm.predictMLUPS(c), ecm.predictMLUPS(c + 1) + 1e-12);
}

TEST(Ecm, ReducedFrequencyKeepsMostPerformance) {
    // Paper §4.1 (Figure 4): at 1.6 GHz all eight cores are needed to
    // saturate, 93% of the 2.7 GHz performance is kept, ~25% less energy.
    const EcmModel fast(superMUCSocket(), KernelTier::Simd, 2.7);
    const EcmModel slow(superMUCSocket(), KernelTier::Simd, 1.6);
    const double ratio = slow.predictMLUPS(8) / fast.predictMLUPS(8);
    EXPECT_NEAR(ratio, 0.93, 0.02);
    EXPECT_EQ(slow.saturationCores(), 8u);
    const double energy = slow.relativeEnergyPerLUP(fast, 8);
    EXPECT_LT(energy, 0.85); // at least 15% saving
    EXPECT_GT(energy, 0.6);  // but not implausibly much
}

TEST(Ecm, KernelTierOrdering) {
    // Figure 3: generic < D3Q19 < SIMD at every core count; only SIMD
    // reaches the roofline.
    for (const auto& machine : {superMUCSocket(), juqueenNode()}) {
        const EcmModel generic(machine, KernelTier::Generic);
        const EcmModel d3q19(machine, KernelTier::D3Q19);
        const EcmModel simd(machine, KernelTier::Simd);
        for (unsigned c = 1; c <= machine.coresPerChip; ++c) {
            EXPECT_LE(generic.predictMLUPS(c), d3q19.predictMLUPS(c) + 1e-9);
            EXPECT_LE(d3q19.predictMLUPS(c), simd.predictMLUPS(c) + 1e-9);
        }
        EXPECT_LT(generic.predictMLUPS(machine.coresPerChip),
                  0.8 * simd.predictMLUPS(machine.coresPerChip))
            << machine.name;
    }
}

TEST(Ecm, SmtIsEssentialOnJuqueen) {
    // Figure 5: 4-way SMT saturates the node; 1-way falls well short.
    const auto machine = juqueenNode();
    const EcmModel smt1(machine, KernelTier::Simd, 0, 1);
    const EcmModel smt2(machine, KernelTier::Simd, 0, 2);
    const EcmModel smt4(machine, KernelTier::Simd, 0, 4);
    const double full = rooflineMLUPS(machine.usableBandwidthGiBs);
    EXPECT_LT(smt1.predictMLUPS(16), 0.75 * full);
    EXPECT_GT(smt4.predictMLUPS(16), 0.98 * full);
    EXPECT_LT(smt1.predictMLUPS(16), smt2.predictMLUPS(16));
    EXPECT_LT(smt2.predictMLUPS(16), smt4.predictMLUPS(16) + 1e-9);
    // On SuperMUC SMT gives nothing (paper: "no performance gain").
    const EcmModel snb1(superMUCSocket(), KernelTier::Simd, 0, 1);
    EXPECT_NEAR(snb1.predictMLUPS(8), 87.8, 0.2);
}

TEST(ScalingModel, JuqueenWeakScalingIsFlat) {
    // Figure 6b: MLUPS/core nearly constant from 2^5 to 2^19 cores; 92%
    // parallel efficiency at the full machine; MPI share stable.
    const ScalingModel model(juqueenNode(), torusNetwork());
    const ProcessConfig pure{64, 1};
    const auto base = model.weakScalingDense(1u << 5, pure, 1.728e6);
    const auto full = model.weakScalingDense(458752, pure, 1.728e6);
    EXPECT_GT(full.mlupsPerCore / base.mlupsPerCore, 0.9);
    EXPECT_NEAR(full.mpiFraction, base.mpiFraction, 0.05);
    // Total: paper reports 1.93 TLUPS on the full machine (0.5 MLUPS/core
    // resolution: 4.2 +- ~0.4 per core).
    EXPECT_NEAR(full.totalMLUPS / 1e6, 1.93, 0.35);
}

TEST(ScalingModel, SuperMucEfficiencyDropsAcrossIslands) {
    // Figure 6a: efficiency falls once the job spans multiple islands, and
    // the MPI fraction rises correspondingly.
    const ScalingModel model(superMUCSocket(), prunedTreeNetwork());
    const ProcessConfig pure{16, 1};
    const auto oneIsland = model.weakScalingDense(1u << 12, pure, 3.43e6);
    const auto sixteenIslands = model.weakScalingDense(1u << 17, pure, 3.43e6);
    EXPECT_LT(sixteenIslands.mlupsPerCore, 0.95 * oneIsland.mlupsPerCore);
    EXPECT_GT(sixteenIslands.mpiFraction, oneIsland.mpiFraction + 0.02);
    // Paper: 837 GLUPS at 2^17 cores -> ~6.4 MLUPS/core.
    EXPECT_NEAR(sixteenIslands.totalMLUPS / 1e6, 0.837, 0.25);
}

TEST(ScalingModel, HybridConfigsReduceMessageOverheadAtScale) {
    // Hybrid processes own larger subdomains: fewer, larger messages.
    const ScalingModel model(superMUCSocket(), prunedTreeNetwork());
    const auto pure = model.weakScalingDense(1u << 17, {16, 1}, 3.43e6);
    const auto hybrid = model.weakScalingDense(1u << 17, {2, 8}, 3.43e6);
    EXPECT_LT(hybrid.mpiFraction, pure.mpiFraction);
}

TEST(ScalingModel, StrongScalingSaturates) {
    // Figure 8 shape: time steps/s keeps rising with cores, but
    // MFLUPS/core decays as blocks shrink.
    const ScalingModel model(superMUCSocket(), prunedTreeNetwork());
    const double totalFluid = 2.1e6; // 0.1 mm resolution case
    double lastSteps = 0;
    double firstPerCore = 0, lastPerCore = 0;
    for (unsigned cores : {16u, 256u, 4096u, 32768u}) {
        DecompositionStats stats;
        stats.fluidCellsPerProcess = totalFluid / cores;
        stats.cellsPerProcess = stats.fluidCellsPerProcess * 2; // sparse blocks
        stats.blocksPerProcess = std::max(1.0, 32.0 * 16.0 / cores);
        stats.ghostBytesPerProcess =
            cubeGhostBytes(std::cbrt(stats.cellsPerProcess)) * stats.blocksPerProcess;
        stats.messagesPerProcess = 18.0 * stats.blocksPerProcess;
        stats.loadImbalance = 1.0 + 0.3 * std::log2(double(cores)) / 15.0; // grows mildly
        const auto p = model.fromDecomposition(cores, 1, stats);
        // Paper Figure 8a: time steps/s increase monotonically up to the
        // largest measured scale (11.4 -> 6638 steps/s), while efficiency
        // per core decays.
        EXPECT_GT(p.timeStepsPerSecond, lastSteps) << cores << " cores";
        lastSteps = p.timeStepsPerSecond;
        if (firstPerCore == 0) firstPerCore = p.mlupsPerCore;
        lastPerCore = p.mlupsPerCore;
    }
    EXPECT_LT(lastPerCore, 0.5 * firstPerCore); // efficiency decays
    // Paper: up to 6638 time steps/s in the strong scaling setting.
    EXPECT_GT(lastSteps, 1000.0);
}

TEST(Stream, LocalBandwidthMeasurementIsPlausible) {
    const StreamResult r = measureStreamBandwidth(16u << 20, 2);
    EXPECT_GT(r.copyGiBs, 0.5);    // any machine manages 0.5 GiB/s
    EXPECT_LT(r.copyGiBs, 2000.0); // and none reaches 2 TiB/s single-core
    EXPECT_GT(r.triadGiBs, 0.5);
    EXPECT_GT(r.lbmLikeGiBs, 0.5);
}

TEST(LocalBench, KernelMeasurementRunsAndOrdersSanely) {
    // The generic kernel is serial, so the SIMD sweep runs on a team of one
    // as well, and the two are timed in alternating rounds (best of 5): a
    // busy spell of the host then costs both sides a round instead of
    // starving one side's team against the other's single thread.
#ifdef _OPENMP
    const int threads = omp_get_max_threads();
    omp_set_num_threads(1);
#endif
    const std::array tiers{KernelTier::Generic, KernelTier::Simd};
    const auto results = measureKernelsInterleaved(tiers, true, 32, 3, 5);
#ifdef _OPENMP
    omp_set_num_threads(threads);
#endif
    const KernelBenchResult &generic = results[0], &simd = results[1];
    EXPECT_GT(generic.mlups, 0.05);
    EXPECT_GT(simd.mlups, 0.05);
    // SIMD should never lose to the generic textbook kernel.
    EXPECT_GE(simd.mlups, generic.mlups * 0.9);
    EXPECT_EQ(simd.cells, 32u * 32 * 32);
}

} // namespace
} // namespace walb::perf
