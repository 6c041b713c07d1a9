/// Physics validation: analytic flow solutions (Couette, pressure-driven
/// Poiseuille), boundary-condition correctness, mass conservation, and the
/// TRT magic-parameter wall-placement property. These are the correctness
/// foundations beneath the paper's performance numbers. Every case runs on
/// the production driver, a one-block DistributedSimulation, with the
/// periodic axes as wrapping forest links.

#include <gtest/gtest.h>

#include "sim/DistributedSimulation.h"
#include "support/BoxDomain.h"
#include "vmpi/SerialComm.h"

namespace walb::sim {
namespace {

using lbm::SRT;
using lbm::TRT;
using test::BoxDomain;

constexpr KernelTier kDriverTiers[] = {KernelTier::Simd, KernelTier::AaSimd};

real_t density(DistributedSimulation& s, cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    return lbm::density<lbm::D3Q19>(s.cellCanonicalPdfs(0, x, y, z));
}

/// Couette flow: wall at bottom (no-slip), lid at top moving with U in x,
/// periodic in x and z. Steady profile is linear; with half-way bounce-back
/// walls this is resolved exactly.
class CouetteTest : public ::testing::TestWithParam<KernelTier> {};

TEST_P(CouetteTest, LinearProfile) {
    const cell_idx_t H = 12;
    // One boundary row at bottom and top.
    const BoxDomain box{{6, H + 2, 4}, {1, 1, 1}, {true, false, true}};
    vmpi::SerialComm comm;
    DistributedSimulation simulation(
        comm, box.setup(1),
        box.flags([&](const Cell& g, field::FlagField&, const lbm::BoundaryFlags& m) {
            return g.y == 0 ? m.noSlip : g.y == H + 1 ? m.ubb : m.fluid;
        }),
        GetParam());

    const real_t U = 0.02;
    simulation.setWallVelocity({U, 0, 0});
    simulation.run(3000, TRT::fromOmegaAndMagic(1.1));

    // Walls sit half a cell outside the first/last fluid rows: the analytic
    // profile at fluid row j (1-based y) is U * (j - 0.5) / H.
    for (cell_idx_t j = 1; j <= H; ++j) {
        const Vec3 u = simulation.gatherCellVelocity({2, j, 2});
        const real_t expected = U * (real_c(j) - real_c(0.5)) / real_c(H);
        EXPECT_NEAR(u[0], expected, 1e-7) << "row " << j;
        EXPECT_NEAR(u[1], 0.0, 1e-9);
        EXPECT_NEAR(u[2], 0.0, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, CouetteTest,
                         ::testing::Values(KernelTier::Simd, KernelTier::AaSimd),
                         [](const auto& tinfo) {
                             return tinfo.param == KernelTier::Simd ? "Simd" : "AaSimd";
                         });

/// Pressure-driven Poiseuille flow between two plates: pressure
/// anti-bounce-back inlet/outlet in x, no-slip walls in y, periodic z.
/// Steady profile: u(y) = G/(2 nu) * y (H - y). The simple anti-bounce-back
/// BC imposes pressure with an O(1)-cell effective plane offset, so the
/// profile *shape* is validated against the measured mid-channel pressure
/// gradient (tight), and the magnitude against the imposed total drop
/// (loose). The outlet is a test-owned handling applied before each step,
/// on the two-grid Simd tier.
TEST(Poiseuille, ParabolicProfileTRT) {
    const cell_idx_t L = 30, H = 14;
    // Pressure boundary columns at x = 0 and x = L+1, no-slip rows at
    // y = 0 and y = H+1.
    const BoxDomain box{{L + 2, H + 2, 3}, {1, 1, 1}, {false, false, true}};
    vmpi::SerialComm comm;
    // Outlet uses a second, custom pressure flag so two densities coexist.
    DistributedSimulation simulation(
        comm, box.setup(1),
        box.flags([&](const Cell& g, field::FlagField& ff, const lbm::BoundaryFlags& m) {
            if (g.y == 0 || g.y == H + 1) return m.noSlip;
            if (g.x == 0) return m.pressure;
            if (g.x == L + 1) return ff.registerFlag("pressureOut");
            return m.fluid;
        }),
        KernelTier::Simd);
    const real_t rhoIn = 1.002, rhoOut = 1.0;
    simulation.setPressureDensity(rhoIn);

    auto& ff = simulation.flagField(0);
    lbm::BoundaryFlags outletMasks{simulation.masks().fluid, 0, 0, ff.flag("pressureOut")};
    lbm::BoundaryHandling<lbm::D3Q19> outlet(ff, outletMasks, simulation.pdfField(0));
    outlet.setPressureDensity(rhoOut);

    const TRT op = TRT::fromOmegaAndMagic(1.0);
    const real_t nu = op.viscosity();
    for (int step = 0; step < 10000; ++step) {
        outlet.apply(simulation.pdfField(0));
        simulation.run(1, op);
    }

    // Effective pressure gradient from the linear mid-channel density drop.
    const cell_idx_t xa = L / 3, xb = 2 * L / 3;
    const real_t gradRho = (density(simulation, xa, H / 2, 1) -
                            density(simulation, xb, H / 2, 1)) / real_c(xb - xa);
    const real_t G = lbm::D3Q19::csSqr * gradRho;
    EXPECT_GT(gradRho, 0.0) << "density must decrease toward the outlet";

    // Profile shape against the measured gradient: tight tolerance.
    const real_t h = real_c(H);
    real_t maxRel = 0;
    for (cell_idx_t j = 1; j <= H; ++j) {
        const real_t y = real_c(j) - real_c(0.5); // wall plane at y = 0
        const real_t expected = G / (2 * nu) * y * (h - y);
        const Vec3 u = simulation.gatherCellVelocity({L / 2, j, 1});
        maxRel = std::max(maxRel, std::abs(u[0] - expected) / std::abs(expected));
        EXPECT_NEAR(u[1], 0.0, 2e-6);
        EXPECT_NEAR(u[2], 0.0, 2e-6);
    }
    EXPECT_LT(maxRel, 0.02) << "parabolic profile deviates more than 2%";

    // Magnitude against the imposed total drop: loose (BC plane offsets).
    const real_t gNominal = lbm::D3Q19::csSqr * (rhoIn - rhoOut) / real_c(L + 1);
    EXPECT_NEAR(G, gNominal, 0.15 * gNominal);

    // Steady-state mass conservation: identical volumetric flux through
    // every channel cross-section.
    auto flux = [&](cell_idx_t x) {
        real_t q = 0;
        for (cell_idx_t j = 1; j <= H; ++j)
            for (cell_idx_t k = 0; k < 3; ++k) q += simulation.gatherCellVelocity({x, j, k})[0];
        return q;
    };
    const real_t qMid = flux(L / 2);
    EXPECT_GT(qMid, 0.0);
    EXPECT_NEAR(flux(L / 4), qMid, 0.01 * qMid);
    EXPECT_NEAR(flux(3 * L / 4), qMid, 0.01 * qMid);
}

TEST(MassConservation, ClosedCavityConservesMassExactly) {
    // Fully enclosed box of no-slip walls.
    const BoxDomain box{{12, 12, 12}};
    for (const KernelTier tier : kDriverTiers) {
        SCOPED_TRACE(kernelTierName(tier));
        vmpi::SerialComm comm;
        DistributedSimulation simulation(
            comm, box.setup(1),
            box.flags([](const Cell& g, field::FlagField&, const lbm::BoundaryFlags& m) {
                const bool wall = g.x == 0 || g.x == 11 || g.y == 0 || g.y == 11 ||
                                  g.z == 0 || g.z == 11;
                return wall ? m.noSlip : m.fluid;
            }),
            tier);
        test::setFluidEquilibrium(simulation, [](const Cell&) {
            return Vec3(0.01, 0.005, -0.01); // initial swirl
        });

        const real_t m0 = simulation.gatherTotalMass();
        simulation.run(500, TRT::fromOmegaAndMagic(1.5));
        EXPECT_NEAR(simulation.gatherTotalMass(), m0, 1e-9 * m0);
    }
}

TEST(LidDrivenCavity, ConvergesToSteadySwirl) {
    const cell_idx_t N = 16;
    const BoxDomain box{{N, N, N}};
    for (const KernelTier tier : kDriverTiers) {
        SCOPED_TRACE(kernelTierName(tier));
        vmpi::SerialComm comm;
        DistributedSimulation simulation(
            comm, box.setup(1),
            box.flags([&](const Cell& g, field::FlagField&, const lbm::BoundaryFlags& m) {
                if (g.y == N - 1) return m.ubb;
                if (g.x == 0 || g.x == N - 1 || g.y == 0 || g.z == 0 || g.z == N - 1)
                    return m.noSlip;
                return m.fluid;
            }),
            tier);
        simulation.setWallVelocity({0.05, 0, 0});

        const TRT op = TRT::fromOmegaAndMagic(1.2);
        simulation.run(2000, op);
        const Vec3 uMid1 = simulation.gatherCellVelocity({N / 2, N / 2, N / 2});
        simulation.run(2000, op);
        const Vec3 uMid2 = simulation.gatherCellVelocity({N / 2, N / 2, N / 2});

        // The lid drags fluid: a nonzero recirculation develops...
        EXPECT_GT(uMid2.length(), 1e-5);
        // ...and converges to a steady state.
        EXPECT_NEAR(uMid1[0], uMid2[0], 5e-5);
        EXPECT_NEAR(uMid1[1], uMid2[1], 5e-5);
        // Velocities stay bounded by the lid speed (sanity/stability).
        EXPECT_LT(uMid2.length(), 0.05);
    }
}

/// TRT with magic parameter 3/16 places bounce-back walls exactly at the
/// half-way plane for Poiseuille-type flows regardless of viscosity; SRT
/// has a tau-dependent wall offset. We verify the *relative* property: the
/// TRT profile error is substantially smaller than SRT's at large tau.
TEST(TrtMagicParameter, BeatsSrtAtLargeTau) {
    auto channelError = [](KernelTier tier, auto op) {
        const cell_idx_t H = 10;
        const BoxDomain box{{4, H + 2, 4}, {1, 1, 1}, {true, false, true}};
        vmpi::SerialComm comm;
        DistributedSimulation simulation(
            comm, box.setup(1),
            box.flags([&](const Cell& g, field::FlagField&, const lbm::BoundaryFlags& m) {
                return g.y == 0 ? m.noSlip : g.y == H + 1 ? m.ubb : m.fluid;
            }),
            tier);
        simulation.setWallVelocity({0.02, 0, 0});
        simulation.run(6000, op);
        real_t err = 0;
        for (cell_idx_t j = 1; j <= H; ++j) {
            const real_t expected = 0.02 * (real_c(j) - 0.5) / real_c(H);
            err = std::max(err, std::abs(simulation.gatherCellVelocity({1, j, 1})[0] - expected));
        }
        return err;
    };
    for (const KernelTier tier : kDriverTiers) {
        SCOPED_TRACE(kernelTierName(tier));
        // tau = 3 (omega = 1/3): strongly over-relaxed regime.
        const real_t srtErr = channelError(tier, SRT(1.0 / 3.0));
        const real_t trtErr = channelError(tier, TRT::fromOmegaAndMagic(1.0 / 3.0));
        // Couette is linear, so both should be decent, but TRT must not be worse.
        EXPECT_LE(trtErr, srtErr + 1e-12);
    }
}

} // namespace
} // namespace walb::sim
