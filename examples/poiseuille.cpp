/// poiseuille — physics validation against the analytic channel solution.
///
/// Pressure-driven flow between two plates using the paper's boundary
/// conditions: pressure anti-bounce-back at inlet and outlet, no-slip
/// bounce-back walls. Prints the lattice profile next to the analytic
/// parabola and the relative error, for both SRT and TRT collision
/// operators — TRT with magic parameter 3/16 places the walls exactly.
/// Exits 1 if the TRT profile error reaches 2%.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/DistributedSimulation.h"
#include "vmpi/SerialComm.h"

using namespace walb;

namespace {

/// Runs the channel and returns the maximum relative profile error. The
/// outlet is a second pressure handling on a flag of its own, applied to
/// the block's PDFs before each step, so the run uses the two-grid Simd
/// tier, whose storage such a handling writes.
template <typename Op>
real_t runChannel(const char* name, const Op& op, real_t nu) {
    const cell_idx_t L = 40, H = 18;
    // Pressure columns at x = 0 and L+1, walls at y = 0 and H+1, periodic z.
    bf::SetupConfig config;
    config.domain = AABB(0, 0, 0, real_c(L + 2), real_c(H + 2), 3);
    config.cellsPerBlockX = L + 2;
    config.cellsPerBlockY = H + 2;
    config.cellsPerBlockZ = 3;
    config.periodicZ = true;
    const auto setup = bf::SetupBlockForest::create(config);

    // Flags are a function of the global cell. They do not depend on z, so
    // the ghost layers across the periodic z wrap hold their images' flags.
    const auto flagChannel = [&](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                                 const bf::BlockForest::Block&, const geometry::CellMapping&) {
        const field::flag_t outletFlag = flags.registerFlag("pressureOut");
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (x < 0 || y < 0 || x > L + 1 || y > H + 1) return;
            if (y == 0 || y == H + 1) flags.addFlag(x, y, z, masks.noSlip);
            else if (x == 0) flags.addFlag(x, y, z, masks.pressure);
            else if (x == L + 1) flags.addFlag(x, y, z, outletFlag);
            else flags.addFlag(x, y, z, masks.fluid);
        });
    };
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, flagChannel, KernelTier::Simd);
    const real_t rhoIn = 1.0015, rhoOut = 1.0;
    simulation.setPressureDensity(rhoIn);

    auto& flags = simulation.flagField(0);
    lbm::BoundaryFlags outletMasks{simulation.masks().fluid, 0, 0, flags.flag("pressureOut")};
    lbm::BoundaryHandling<lbm::D3Q19> outlet(flags, outletMasks, simulation.pdfField(0));
    outlet.setPressureDensity(rhoOut);

    for (int step = 0; step < 14000; ++step) {
        outlet.apply(simulation.pdfField(0));
        simulation.run(1, op);
    }

    // Effective pressure gradient measured in the developed mid-channel.
    const auto density = [&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        return lbm::density<lbm::D3Q19>(simulation.cellCanonicalPdfs(0, x, y, z));
    };
    const cell_idx_t xa = L / 3, xb = 2 * L / 3;
    const real_t gradRho = (density(xa, H / 2, 1) - density(xb, H / 2, 1)) / real_c(xb - xa);
    const real_t G = lbm::D3Q19::csSqr * gradRho;

    std::printf("\n%s (omega=1, nu=%.4f): u_x(y) at x=%lld vs analytic\n", name, nu,
                (long long)(L / 2));
    std::printf("  %3s %12s %12s %9s\n", "y", "simulated", "analytic", "rel.err");
    real_t maxRel = 0;
    for (cell_idx_t j = 1; j <= H; ++j) {
        const real_t y = real_c(j) - real_c(0.5);
        const real_t analytic = G / (2 * nu) * y * (real_c(H) - y);
        const real_t simulated = simulation.gatherCellVelocity({L / 2, j, 1})[0];
        const real_t rel = std::abs(simulated - analytic) / analytic;
        maxRel = std::max(maxRel, rel);
        std::printf("  %3lld %12.4e %12.4e %8.3f%%\n", (long long)j, simulated, analytic,
                    100.0 * rel);
    }
    std::printf("  max relative profile error: %.3f%%\n", 100.0 * maxRel);
    return maxRel;
}

} // namespace

int main() {
    std::printf("pressure-driven Poiseuille channel validation\n");
    const real_t omega = 1.0;
    runChannel("SRT", lbm::SRT(omega), lbm::SRT(omega).viscosity());
    const real_t trtError = runChannel("TRT (magic 3/16)", lbm::TRT::fromOmegaAndMagic(omega),
                                       lbm::TRT::fromOmegaAndMagic(omega).viscosity());
    // The tolerance of the Poiseuille physics test.
    return trtError < 0.02 ? 0 : 1;
}
