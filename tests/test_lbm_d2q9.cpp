/// D2Q9 end-to-end tests: the generic templated pipeline (kernel, boundary
/// handling, periodic copies) must deliver correct 2-D physics — Couette
/// profile, uniform translation invariance, and mass conservation.

#include <gtest/gtest.h>

#include "lbm/Boundary.h"
#include "lbm/Communication.h"
#include "lbm/KernelGeneric.h"
#include "support/Oracles.h"

namespace walb::lbm {
namespace {

using M = D2Q9;

TEST(D2Q9, UniformTranslationIsInvariant) {
    // A fully periodic uniform flow is an exact fixed point (Galilean
    // invariance of the discrete equilibrium under lattice-aligned shift).
    PdfField src = makePdfField<M>(12, 12, 1);
    PdfField dst = makePdfField<M>(12, 12, 1);
    const Vec3 u(0.05, -0.03, 0);
    initEquilibrium<M>(src, 1.0, u);
    const SRT op(1.3);
    for (int step = 0; step < 50; ++step) {
        // D2Q9 never moves in z; wrap only the in-plane directions.
        for (const auto& d : neighborhood26)
            if (d[2] == 0) copyPdfsLocal<M>(src, src, d);
        streamCollideGeneric<M>(src, dst, op);
        src.swapDataWith(dst);
    }
    const Vec3 result = cellVelocity<M>(src, 6, 6, 0);
    EXPECT_NEAR(result[0], u[0], 1e-14);
    EXPECT_NEAR(result[1], u[1], 1e-14);
    EXPECT_NEAR(cellDensity<M>(src, 3, 9, 0), 1.0, 1e-13);
}

TEST(D2Q9, CouetteProfileThroughGenericPipeline) {
    const cell_idx_t H = 10, NX = 6;
    field::FlagField flags(NX, H + 2, 1, 1);
    const auto masks = BoundaryFlags::registerOn(flags);
    flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (y == 0) flags.addFlag(x, y, z, masks.noSlip);
        else if (y == H + 1) flags.addFlag(x, y, z, masks.ubb);
        else flags.addFlag(x, y, z, masks.fluid);
    });
    // Periodic in x: wrap flags so wall links crossing the seam exist.
    for (const auto& d : neighborhood26)
        if (d[1] == 0 && d[2] == 0) copySliceLocal(flags, flags, d);

    PdfField src = makePdfField<M>(NX, H + 2, 1);
    PdfField dst = makePdfField<M>(NX, H + 2, 1);
    initEquilibrium<M>(src, 1.0, {0, 0, 0});
    initEquilibrium<M>(dst, 1.0, {0, 0, 0});

    BoundaryHandling<M> boundary(flags, masks);
    const real_t U = 0.02;
    boundary.setWallVelocity({U, 0, 0});
    const auto op = TRT::fromOmegaAndMagic(1.2);
    for (int step = 0; step < 3000; ++step) {
        for (const auto& d : neighborhood26)
            if (d[1] == 0 && d[2] == 0) copyPdfsLocal<M>(src, src, d);
        boundary.apply(src);
        streamCollideGeneric<M>(src, dst, op, &flags, masks.fluid);
        src.swapDataWith(dst);
    }
    for (cell_idx_t j = 1; j <= H; ++j) {
        const real_t expected = U * (real_c(j) - real_c(0.5)) / real_c(H);
        EXPECT_NEAR(cellVelocity<M>(src, 2, j, 0)[0], expected, 1e-7) << "row " << j;
    }
}

TEST(D2Q9, MassConservedInClosedBox) {
    const cell_idx_t N = 12;
    field::FlagField flags(N, N, 1, 1);
    const auto masks = BoundaryFlags::registerOn(flags);
    flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (x == 0 || x == N - 1 || y == 0 || y == N - 1)
            flags.addFlag(x, y, z, masks.noSlip);
        else flags.addFlag(x, y, z, masks.fluid);
    });
    PdfField src = makePdfField<M>(N, N, 1);
    PdfField dst = makePdfField<M>(N, N, 1);
    initEquilibrium<M>(src, 1.0, {0.01, 0.02, 0});
    BoundaryHandling<M> boundary(flags, masks);
    auto mass = [&] {
        real_t m = 0;
        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (flags.get(x, y, z) & masks.fluid) m += cellDensity<M>(src, x, y, z);
        });
        return m;
    };
    const real_t m0 = mass();
    const SRT op(1.1);
    for (int step = 0; step < 300; ++step) {
        boundary.apply(src);
        streamCollideGeneric<M>(src, dst, op, &flags, masks.fluid);
        src.swapDataWith(dst);
    }
    EXPECT_NEAR(mass(), m0, 1e-10 * m0);
}

} // namespace
} // namespace walb::lbm
