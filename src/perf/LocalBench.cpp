#include "perf/LocalBench.h"

#include <cstdint>

#include "core/Timer.h"
#include "lbm/KernelAaSimd.h"
#include "lbm/KernelD3Q19.h"
#include "lbm/KernelD3Q19Simd.h"
#include "lbm/KernelGeneric.h"

namespace walb::perf {
namespace {

/// One tier's fields and step state.
struct TierSweep {
    KernelTier tier;
    lbm::PdfField src, dst;
    std::uint64_t aaStep = 0; // the AA tier alternates even/odd kernels

    TierSweep(KernelTier t, cell_idx_t n)
        : tier(t), src(lbm::makePdfField<lbm::D3Q19>(n, n, n)),
          dst(lbm::makePdfField<lbm::D3Q19>(n, n, n)) {
        lbm::initEquilibrium<lbm::D3Q19>(src, 1.0, {0.01, 0.005, -0.01});
        lbm::initEquilibrium<lbm::D3Q19>(dst, 1.0, {0, 0, 0});
    }

    template <typename Op>
    void sweepOnce(const Op& op) {
        using namespace lbm;
        switch (tier) {
            case KernelTier::Generic: streamCollideGeneric<D3Q19>(src, dst, op); break;
            case KernelTier::D3Q19: streamCollideD3Q19(src, dst, op); break;
            case KernelTier::Simd: KernelD3Q19Simd<>().sweep(src, dst, op); break;
            // Both AA tiers run the vectorized AA kernel, the one EcmModel
            // describes. In place — the second grid is never touched, no swap.
            case KernelTier::Aa:
            case KernelTier::AaSimd:
                KernelAaSimd<>().sweep(src, aaParityOfStep(aaStep++), op);
                return;
        }
        src.swapDataWith(dst);
    }
};

} // namespace

KernelBenchResult measureKernelMLUPS(KernelTier tier, bool trt, cell_idx_t n,
                                     uint_t timeSteps) {
    return measureKernelsInterleaved(std::span(&tier, 1), trt, n, timeSteps).front();
}

std::vector<KernelBenchResult> measureKernelsInterleaved(std::span<const KernelTier> tiers,
                                                         bool trt, cell_idx_t n,
                                                         uint_t timeSteps, int repetitions) {
    const lbm::SRT srt(1.4);
    const lbm::TRT trtOp = lbm::TRT::fromOmegaAndMagic(1.4);
    std::vector<TierSweep> sweeps;
    sweeps.reserve(tiers.size());
    for (KernelTier tier : tiers) sweeps.emplace_back(tier, n);
    const auto sweepOnce = [&](TierSweep& s) {
        if (trt) s.sweepOnce(trtOp);
        else s.sweepOnce(srt);
    };
    for (TierSweep& s : sweeps) sweepOnce(s); // warm up caches / page-fault the fields

    std::vector<KernelBenchResult> results(tiers.size());
    for (KernelBenchResult& r : results) {
        r.cells = uint_c(n * n * n);
        r.timeSteps = timeSteps;
    }
    for (int rep = 0; rep < repetitions; ++rep) {
        for (std::size_t i = 0; i < sweeps.size(); ++i) {
            Timer t;
            t.start();
            for (uint_t s = 0; s < timeSteps; ++s) sweepOnce(sweeps[i]);
            t.stop();
            KernelBenchResult& r = results[i];
            const double mlups = double(r.cells) * double(timeSteps) / t.total() / 1e6;
            if (mlups > r.mlups) {
                r.mlups = mlups;
                r.seconds = t.total();
            }
        }
    }
    return results;
}

} // namespace walb::perf
