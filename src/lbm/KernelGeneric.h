#pragma once
/// \file KernelGeneric.h
/// Optimization tier 1 (paper §4.1): the naive, textbook-style stream-pull
/// kernel written generically for arbitrary lattice models. The model is a
/// template parameter so neighborhood offsets and weights are compile-time
/// constants, but no stream/collide fusion tricks, no common-subexpression
/// elimination and no vectorization are applied. This is the baseline both
/// performance-wise (Figure 3, "Generic") and semantically: all optimized
/// kernels must reproduce its results bit-for-bit or within FP tolerance.

#include "field/FlagField.h"
#include "lbm/Collision.h"
#include "lbm/PdfField.h"

namespace walb::lbm {

/// Fused stream(pull)-collide over the interior of dst. `flags`/`fluidMask`
/// restrict processing to fluid cells; pass nullptr to process every cell
/// (dense domains). src must have at least one ghost layer; src holds
/// post-collision values of the previous time step.
template <LatticeModel M, CollisionOperator C>
void streamCollideGeneric(const PdfField& src, PdfField& dst, const C& collision,
                          const field::FlagField* flags = nullptr,
                          field::flag_t fluidMask = 0) {
    WALB_ASSERT(src.ghostLayers() >= 1);
    WALB_ASSERT(src.fSize() == M::Q && dst.fSize() == M::Q);

    dst.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (flags && !(flags->get(x, y, z) & fluidMask)) return;
        std::array<real_t, M::Q> f{};
        for (uint_t a = 0; a < M::Q; ++a)
            f[a] = src.get(x - M::c[a][0], y - M::c[a][1], z - M::c[a][2], cell_idx_c(a));
        collision.template apply<M>(f);
        for (uint_t a = 0; a < M::Q; ++a) dst.get(x, y, z, cell_idx_c(a)) = f[a];
    });
}

} // namespace walb::lbm
