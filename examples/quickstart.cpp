/// quickstart — the smallest complete walb simulation.
///
/// Sets up a 3-D lid-driven cavity on a single block, runs the vectorized
/// two-relaxation-time LBM and reports the centerline velocity profile and
/// the achieved MLUPS. Start here to learn the API; the other examples
/// build up to the distributed multi-block pipeline of the paper.

#include <cstdio>

#include "core/Timer.h"
#include "sim/SingleBlockSimulation.h"

int main() {
    using namespace walb;
    using sim::SingleBlockSimulation;

    // 1. Describe the domain: a 48^3 box of lattice cells.
    constexpr cell_idx_t N = 48;
    SingleBlockSimulation::Config config;
    config.xSize = config.ySize = config.zSize = N;
    config.tier = sim::KernelTier::Simd; // the fused SoA SIMD kernel
    SingleBlockSimulation simulation(config);

    // 2. Flag the geometry: a moving lid on top, walls everywhere else,
    //    fluid inside.
    auto& flags = simulation.flags();
    const auto& masks = simulation.masks();
    flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (y == N - 1) flags.addFlag(x, y, z, masks.ubb);
        else if (x == 0 || x == N - 1 || y == 0 || z == 0 || z == N - 1)
            flags.addFlag(x, y, z, masks.noSlip);
    });
    simulation.fillRemainingWithFluid();

    // 3. Finalize (builds boundary link lists, initializes equilibrium).
    simulation.finalize();
    simulation.boundary().setWallVelocity({0.05, 0, 0});

    // 4. Run: TRT collision with the canonical magic parameter 3/16.
    const auto op = lbm::TRT::fromOmegaAndMagic(1.6);
    const uint_t steps = 500;
    Timer timer;
    timer.start();
    simulation.run(steps, op);
    timer.stop();

    const double mlups =
        double(simulation.fluidCells()) * double(steps) / timer.total() / 1e6;
    std::printf("lid-driven cavity, %lld^3 cells, %llu fluid cells\n", (long long)N,
                (unsigned long long)simulation.fluidCells());
    std::printf("%llu time steps in %.2f s  ->  %.1f MLUPS (%s kernel)\n",
                (unsigned long long)steps, timer.total(), mlups,
                simd::backendName<simd::BestD>());

    std::printf("\ncenterline x-velocity profile u_x(y) at x=z=%lld:\n", (long long)(N / 2));
    for (cell_idx_t y = 1; y < N - 1; y += 4) {
        const Vec3 u = simulation.velocity(N / 2, y, N / 2);
        std::printf("  y=%2lld  u_x=%+.6f  u_y=%+.6f\n", (long long)y, u[0], u[1]);
    }
    std::printf("\nmass conservation check: total mass %.12f (ideal %.1f)\n",
                simulation.totalMass(), double(simulation.fluidCells()));
    return 0;
}
