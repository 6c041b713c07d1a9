#pragma once
/// \file KernelTier.h
/// The LBM kernel tiers, shared by the drivers (sim), the machine models and
/// local kernel measurements (perf) and the flight-recorder readers (obs).
/// Aa and AaSimd are the in-place AA-pattern tiers (lbm/KernelAa.h): a
/// single PDF grid — half the PDF memory — with the even/odd kernels
/// alternating by step parity. The driver (sim::DistributedSimulation) runs
/// Simd and AaSimd; Generic, D3Q19 and Aa are kernel tiers of the kernel
/// figures and kernel-level tests.

namespace walb {

enum class KernelTier { Generic, D3Q19, Simd, Aa, AaSimd };

// The numeric values are part of the .wfr v2 flight-recorder format
// (obs::StepSample::kernelTier) — keep stable.
static_assert(int(KernelTier::Generic) == 0 && int(KernelTier::D3Q19) == 1 &&
              int(KernelTier::Simd) == 2 && int(KernelTier::Aa) == 3 &&
              int(KernelTier::AaSimd) == 4);

/// True for the single-grid AA-pattern tiers (no shadow buffer, no swap).
constexpr bool isAaTier(KernelTier t) {
    return t == KernelTier::Aa || t == KernelTier::AaSimd;
}

/// Lower-case tier name; "unknown" for a value outside the enum (e.g. a
/// corrupt StepSample read back from a .wfr dump).
constexpr const char* kernelTierName(KernelTier t) {
    switch (t) {
        case KernelTier::Generic: return "generic";
        case KernelTier::D3Q19: return "d3q19";
        case KernelTier::Simd: return "simd";
        case KernelTier::Aa: return "aa";
        case KernelTier::AaSimd: return "aa-simd";
    }
    return "unknown";
}

} // namespace walb
