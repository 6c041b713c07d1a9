#include "perf/LocalBench.h"

#include <cstdint>

#include "core/Timer.h"
#include "lbm/KernelAaSimd.h"
#include "lbm/KernelD3Q19.h"
#include "lbm/KernelD3Q19Simd.h"
#include "lbm/KernelGeneric.h"

namespace walb::perf {

KernelBenchResult measureKernelMLUPS(KernelTier tier, bool trt, cell_idx_t n,
                                     uint_t timeSteps) {
    using namespace lbm;
    PdfField src = makePdfField<D3Q19>(n, n, n);
    PdfField dst = makePdfField<D3Q19>(n, n, n);
    initEquilibrium<D3Q19>(src, 1.0, {0.01, 0.005, -0.01});
    initEquilibrium<D3Q19>(dst, 1.0, {0, 0, 0});

    const SRT srt(1.4);
    const TRT trtOp = TRT::fromOmegaAndMagic(1.4);
    KernelD3Q19Simd<> simdKernel;
    KernelAaSimd<> aaKernel;
    std::uint64_t aaStep = 0; // the AA tier alternates even/odd kernels

    auto sweepOnce = [&] {
        switch (tier) {
            case KernelTier::Generic:
                if (trt) streamCollideGeneric<D3Q19>(src, dst, trtOp);
                else streamCollideGeneric<D3Q19>(src, dst, srt);
                break;
            case KernelTier::D3Q19:
                if (trt) streamCollideD3Q19(src, dst, trtOp);
                else streamCollideD3Q19(src, dst, srt);
                break;
            case KernelTier::Simd:
                if (trt) simdKernel.sweep(src, dst, trtOp);
                else simdKernel.sweep(src, dst, srt);
                break;
            // Both AA tiers run the vectorized AA kernel, the one EcmModel
            // describes. In place — the second grid is never touched, no swap.
            case KernelTier::Aa:
            case KernelTier::AaSimd:
                if (trt) aaKernel.sweep(src, aaParityOfStep(aaStep), trtOp);
                else aaKernel.sweep(src, aaParityOfStep(aaStep), srt);
                ++aaStep;
                return;
        }
        src.swapDataWith(dst);
    };

    sweepOnce(); // warm up caches / page-fault the fields

    KernelBenchResult result;
    result.cells = uint_c(n * n * n);
    result.timeSteps = timeSteps;
    for (int rep = 0; rep < 3; ++rep) {
        Timer t;
        t.start();
        for (uint_t s = 0; s < timeSteps; ++s) sweepOnce();
        t.stop();
        const double mlups =
            double(result.cells) * double(timeSteps) / t.total() / 1e6;
        if (mlups > result.mlups) {
            result.mlups = mlups;
            result.seconds = t.total();
        }
    }
    return result;
}

} // namespace walb::perf
