/// quickstart — the smallest complete walb simulation.
///
/// Sets up a 3-D lid-driven cavity as one block on one rank, runs the
/// vectorized two-relaxation-time LBM and reports the centerline velocity
/// profile and the achieved MLUPS. Start here to learn the API; the same
/// driver runs the distributed multi-block pipeline of the paper, and the
/// other examples build up to it. Exits 1 if the closed cavity does not
/// conserve its mass.

#include <cmath>
#include <cstdio>

#include "core/Timer.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/SerialComm.h"

int main() {
    using namespace walb;

    // 1. Describe the domain: a 48^3 box of lattice cells in one block.
    constexpr cell_idx_t N = 48;
    bf::SetupConfig config;
    config.domain = AABB(0, 0, 0, N, N, N);
    config.cellsPerBlockX = config.cellsPerBlockY = config.cellsPerBlockZ = N;
    const auto setup = bf::SetupBlockForest::create(config);

    // 2. Flag the geometry, as a function of the cell position (ghost
    //    layers included): a moving lid on top, walls everywhere else,
    //    fluid inside.
    const auto flagCavity = [](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                               const bf::BlockForest::Block&, const geometry::CellMapping&) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (x < 0 || y < 0 || z < 0 || x >= N || y >= N || z >= N) return;
            if (y == N - 1) flags.addFlag(x, y, z, masks.ubb);
            else if (x == 0 || x == N - 1 || y == 0 || z == 0 || z == N - 1)
                flags.addFlag(x, y, z, masks.noSlip);
            else flags.addFlag(x, y, z, masks.fluid);
        });
    };

    // 3. Build the simulation on a one-rank communicator: it allocates the
    //    fields, builds the boundary links and starts at rest. The default
    //    kernel is the in-place SIMD tier (AA pattern, one PDF grid).
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, flagCavity);
    simulation.setWallVelocity({0.05, 0, 0});

    // 4. Run: TRT collision with the canonical magic parameter 3/16.
    const auto op = lbm::TRT::fromOmegaAndMagic(1.6);
    const uint_t steps = 500;
    Timer timer;
    timer.start();
    simulation.run(steps, op);
    timer.stop();

    const uint_t fluidCells = simulation.globalFluidCells();
    const double mlups = double(fluidCells) * double(steps) / timer.total() / 1e6;
    std::printf("lid-driven cavity, %lld^3 cells, %llu fluid cells\n", (long long)N,
                (unsigned long long)fluidCells);
    std::printf("%llu time steps in %.2f s  ->  %.1f MLUPS (%s kernel)\n",
                (unsigned long long)steps, timer.total(), mlups,
                simd::backendName<simd::BestD>());

    std::printf("\ncenterline x-velocity profile u_x(y) at x=z=%lld:\n", (long long)(N / 2));
    for (cell_idx_t y = 1; y < N - 1; y += 4) {
        const Vec3 u = simulation.gatherCellVelocity({N / 2, y, N / 2});
        std::printf("  y=%2lld  u_x=%+.6f  u_y=%+.6f\n", (long long)y, u[0], u[1]);
    }
    const real_t mass = simulation.gatherTotalMass();
    std::printf("\nmass conservation check: total mass %.12f (ideal %.1f)\n", mass,
                double(fluidCells));
    return std::abs(mass - real_c(fluidCells)) > 1e-6 * real_c(fluidCells) ? 1 : 0;
}
