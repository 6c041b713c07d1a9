#pragma once
/// \file KernelAaSimd.h
/// SIMD variant of the in-place AA-pattern kernels (KernelAa.h). It runs
/// the fused collision body of the two-grid SIMD tier (KernelD3Q19Simd.h)
/// with the AA load/store offsets:
///
///  * even step — all 19 loads are cell-local (zero spatial offset), and
///    direction a stores to the *opposing* slot abar of the same cell. The
///    stores hit lines the group just loaded, which is what removes the
///    write-allocate stream of the two-grid kernel.
///  * odd step — direction a loads from (x - e_a, abar) and stores to
///    (x + e_a, a). The slot (w, s) is read and written only by the cell
///    w - e_s, and a group's 19 loads precede its stores, so the in-place
///    update is safe for any row order — including OpenMP over rows/runs.
///
/// One body for both tiers makes the AA SIMD tier bit-exact against the
/// two-grid SIMD tier by construction.

#include "lbm/KernelAa.h"
#include "lbm/KernelD3Q19Simd.h"

namespace walb::lbm {

template <typename V = simd::BestD>
class KernelAaSimd {
public:
    /// Dense parity-dispatched sweep over the whole interior.
    template <typename Op>
    void sweep(PdfField& pdf, AaParity parity, const Op& op) const {
        d3q19simd::collideDense<V>(pdf, pdf, aaPatternOf(parity), op);
    }
};

} // namespace walb::lbm
