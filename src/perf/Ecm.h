#pragma once
/// \file Ecm.h
/// Execution-Cache-Memory performance model (Treibig & Hager; paper §4.1).
/// Unlike the roofline model it resolves the single-core and intermediate
/// core counts: the runtime of one unit of work (8 lattice updates = one
/// cache line per PDF stream) decomposes into
///   T_core  — in-core execution with all data in L1 (IACA: 448 cycles),
///   T_cache — cache-line transfers through the hierarchy (114 cycles),
///   T_mem   — transfer over the memory interface (456 B at the usable
///             bandwidth, converted to core cycles).
/// Under the no-overlap assumption a single core needs
/// T_core + T_cache + T_mem; n cores scale performance linearly until the
/// memory interface saturates at the roofline bound.

#include <algorithm>
#include <cmath>

#include "core/KernelTier.h"
#include "perf/Machine.h"

namespace walb::perf {

using walb::KernelTier;

class EcmModel {
public:
    /// Model for a kernel tier (Figure 3's three curves, plus the in-place
    /// AA-pattern tiers) on a machine at a given core frequency. Both AA
    /// tiers are modeled as the vectorized AA kernel.
    /// `smtThreadsPerCore` scales T_core down (an s-way occupied in-order
    /// core retires s instruction streams; Figure 5).
    EcmModel(const MachineSpec& machine, KernelTier tier = KernelTier::Simd,
             double frequencyGHz = 0.0, unsigned smtThreadsPerCore = 0)
        : machine_(machine),
          freq_(frequencyGHz > 0 ? frequencyGHz : machine.frequencyGHz),
          smt_(smtThreadsPerCore > 0 ? smtThreadsPerCore : machine.smtWays) {
        double factor = 1.0;
        if (tier == KernelTier::D3Q19) factor = machine.d3q19CoreCyclesFactor;
        if (tier == KernelTier::Generic) factor = machine.genericCoreCyclesFactor;
        tCore_ = machine.coreCyclesPer8LUP * factor / double(std::min(smt_, machine.smtWays));
        tCache_ = machine.cacheCyclesPer8LUP;
        // AA-pattern traffic model: the arithmetic is the vectorized kernel's
        // (T_core unchanged), but the single grid drops the write-allocate
        // stream — 304 instead of 456 B/LUP through memory, and the
        // cache-transfer term shrinks by the same 2/3 stream ratio.
        if (isAaTier(tier)) {
            bytesPerLUP_ = kAaBytesPerLUP;
            tCache_ *= kAaBytesPerLUP / kBytesPerLUP;
        }
        bandwidth_ = bandwidthAtFrequency(machine, freq_);
        coreBandwidth_ = singleCoreBandwidthAtFrequency(machine, freq_);
    }

    /// Memory transfer time for 8 updates on ONE core, in core cycles at
    /// this frequency. A single core cannot draw the chip's full bandwidth
    /// (limited memory concurrency), which is what makes several cores
    /// necessary to saturate the interface.
    double memCyclesPer8LUP() const {
        const double bytes = 8.0 * bytesPerLUP_;
        return bytes / (coreBandwidth_ * kGiB) * freq_ * 1e9;
    }

    double coreCyclesPer8LUP() const { return tCore_; }
    double cacheCyclesPer8LUP() const { return tCache_; }
    /// Memory traffic this tier moves per lattice update (456 B two-grid,
    /// 304 B AA-pattern).
    double bytesPerLUP() const { return bytesPerLUP_; }

    /// Single-core prediction in MLUPS (no-overlap: all parts serialize).
    double singleCoreMLUPS() const {
        const double cycles = tCore_ + tCache_ + memCyclesPer8LUP();
        return 8.0 / (cycles / (freq_ * 1e9)) / 1e6;
    }

    /// Bandwidth ceiling of the chip in MLUPS at this tier's traffic.
    double saturationMLUPS() const { return rooflineMLUPS(bandwidth_, bytesPerLUP_); }

    /// Multicore prediction: linear scaling until the memory interface
    /// saturates.
    double predictMLUPS(unsigned cores) const {
        return std::min(double(cores) * singleCoreMLUPS(), saturationMLUPS());
    }

    /// Smallest core count that saturates the memory interface.
    unsigned saturationCores() const {
        return unsigned(std::ceil(saturationMLUPS() / singleCoreMLUPS()));
    }

    double frequencyGHz() const { return freq_; }

    /// Measured-vs-model ratio behind the live `perf.efficiency` gauge
    /// (fed through `DistributedSimulation::setPerfReference`): measured
    /// MLUPS over the prediction for this core count. 1.0 = the run hits
    /// the ECM prediction exactly; the virtual-rank drills sit well below
    /// because the ranks timeshare one socket.
    double efficiency(double measuredMLUPS, unsigned cores = 1) const {
        const double predicted = predictMLUPS(cores);
        return predicted > 0 ? measuredMLUPS / predicted : 0.0;
    }

    /// Core-hour energy proxy: dynamic power ~ f^3 contribution on top of
    /// static power; used for the paper's "25% less energy at 1.6 GHz"
    /// estimate. Returns energy per cell update relative to running the
    /// same work at refFreq (lower is better).
    double relativeEnergyPerLUP(const EcmModel& ref, unsigned cores) const {
        // P = P_static + P_dyn * (f/f0)^3 with a 60/40 split at f0.
        auto power = [&](double f) {
            const double f0 = machine_.frequencyGHz;
            return 0.6 + 0.4 * (f / f0) * (f / f0) * (f / f0);
        };
        const double myRate = predictMLUPS(cores);
        const double refRate = ref.predictMLUPS(cores);
        return (power(freq_) / myRate) / (power(ref.freq_) / refRate);
    }

private:
    MachineSpec machine_;
    double freq_;
    unsigned smt_;
    double tCore_;
    double tCache_;
    double bytesPerLUP_ = kBytesPerLUP;
    double bandwidth_;
    double coreBandwidth_;
};

} // namespace walb::perf
