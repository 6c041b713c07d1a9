#pragma once
/// \file LocalBench.h
/// Measures the actual MLUPS of the kernel optimization tiers on the
/// local machine (dense memory-resident domain, kernel time only —
/// communication excluded, exactly like the paper's Figure 3 methodology).
/// The figure benches anchor the machine models with these measurements.

#include <span>
#include <vector>

#include "core/KernelTier.h"
#include "core/Types.h"

namespace walb::perf {

struct KernelBenchResult {
    double mlups = 0;
    double seconds = 0;
    uint_t cells = 0;
    uint_t timeSteps = 0;
};

/// Runs the requested kernel tier (SRT or TRT) on a dense n^3 domain for
/// `timeSteps` fused stream-collide sweeps and reports the best-of-3 rate.
KernelBenchResult measureKernelMLUPS(KernelTier tier, bool trt, cell_idx_t n = 64,
                                     uint_t timeSteps = 8);

/// Measures several tiers against each other: each tier gets its own dense
/// n^3 fields, and every one of the `repetitions` rounds runs `timeSteps`
/// sweeps of each tier in turn. Each result is that tier's best round, so a
/// slow spell of the host (a descheduled thread, a neighbour's burst) costs
/// every tier a round instead of skewing one tier's whole measurement. The
/// results follow the order of `tiers`.
std::vector<KernelBenchResult> measureKernelsInterleaved(std::span<const KernelTier> tiers,
                                                         bool trt, cell_idx_t n = 64,
                                                         uint_t timeSteps = 8,
                                                         int repetitions = 3);

} // namespace walb::perf
