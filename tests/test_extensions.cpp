/// Tests for the framework extensions beyond the paper's core scope:
/// momentum-exchange force evaluation, per-link wall-velocity profiles,
/// distributed checkpoint/restart, and VTK output.

#include <gtest/gtest.h>

#include <fstream>

#include "io/VtkOutput.h"
#include "lbm/Force.h"
#include "sim/DistributedSimulation.h"
#include "support/BoxDomain.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace walb {
namespace {

using lbm::TRT;

// ---- momentum exchange force ------------------------------------------------

// These cases apply a boundary handling of their own to the driver's
// fields, in the two-grid storage, so they run on the Simd tier.

TEST(BoundaryForce, CouetteShearStressMatchesAnalytic) {
    // Couette flow: the wall force per unit area is the shear stress
    // tau = rho * nu * U / H. Compare the momentum-exchange force on the
    // stationary bottom wall with the analytic value.
    const cell_idx_t H = 10, NX = 8, NZ = 8;
    const test::BoxDomain box{{NX, H + 2, NZ}, {1, 1, 1}, {true, false, true}};
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(
        comm, box.setup(1),
        box.flags([&](const Cell& g, field::FlagField&, const lbm::BoundaryFlags& m) {
            return g.y == 0 ? m.noSlip : g.y == H + 1 ? m.ubb : m.fluid;
        }),
        KernelTier::Simd);
    const real_t U = 0.02;
    simulation.setWallVelocity({U, 0, 0});
    const TRT op = TRT::fromOmegaAndMagic(1.2);
    simulation.run(4000, op);

    // The moving lid feels the opposite force and the lid's UBB momentum
    // input, so the total over both walls balances to ~0: evaluate the
    // force on a handling of the bottom wall only, right after its
    // boundary sweep.
    const auto& ff = simulation.flagField(0);
    const auto& masks = simulation.masks();
    field::FlagField bottomOnly(NX, H + 2, NZ, 1);
    auto bm = lbm::BoundaryFlags::registerOn(bottomOnly);
    ff.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (ff.isFlagSet(x, y, z, masks.fluid)) bottomOnly.addFlag(x, y, z, bm.fluid);
        if (ff.isFlagSet(x, y, z, masks.noSlip)) bottomOnly.addFlag(x, y, z, bm.noSlip);
    });
    lbm::BoundaryHandling<lbm::D3Q19> bottom(bottomOnly, bm, simulation.pdfField(0));
    bottom.apply(simulation.pdfField(0));
    const Vec3 bottomForce =
        lbm::computeBoundaryForce<lbm::D3Q19>(bottom, simulation.pdfField(0));

    const real_t area = real_c(NX * NZ);
    // Tangential: the viscous shear stress tau = rho nu U / H.
    const real_t tauAnalytic = op.viscosity() * U / real_c(H); // rho = 1
    EXPECT_NEAR(bottomForce[0] / area, tauAnalytic, 0.05 * tauAnalytic);
    // Normal: the fluid pushes the bottom wall down with the hydrostatic
    // pressure p = rho cs^2 = 1/3.
    EXPECT_NEAR(bottomForce[1] / area, -lbm::D3Q19::csSqr, 1e-6);
    EXPECT_NEAR(bottomForce[2] / area, 0.0, 1e-6);
}

TEST(BoundaryForce, RestFluidExertsNoTangentialForce) {
    const test::BoxDomain box{{10, 10, 10}};
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(
        comm, box.setup(1),
        box.flags([](const Cell& g, field::FlagField&, const lbm::BoundaryFlags& m) {
            const bool wall =
                g.x == 0 || g.x == 9 || g.y == 0 || g.y == 9 || g.z == 0 || g.z == 9;
            return wall ? m.noSlip : m.fluid;
        }),
        KernelTier::Simd);
    simulation.run(10, TRT::fromOmegaAndMagic(1.0));
    lbm::BoundaryHandling<lbm::D3Q19> walls(simulation.flagField(0), simulation.masks(),
                                            simulation.pdfField(0));
    walls.apply(simulation.pdfField(0));
    const Vec3 f = lbm::computeBoundaryForce<lbm::D3Q19>(walls, simulation.pdfField(0));
    // Fluid at rest in a closed box: forces balance to zero.
    EXPECT_NEAR(f[0], 0.0, 1e-12);
    EXPECT_NEAR(f[1], 0.0, 1e-12);
    EXPECT_NEAR(f[2], 0.0, 1e-12);
}

// ---- wall velocity profiles ----------------------------------------------------

TEST(VelocityProfile, ParabolicInletIsImposed) {
    // Drive a channel purely by a parabolic UBB inlet; the downstream flow
    // approaches the imposed profile shape. Inlet and outlet are one
    // test-owned handling on custom flags, applied before each step.
    const cell_idx_t L = 24, H = 10;
    const test::BoxDomain box{{L + 2, H + 2, 3}, {1, 1, 1}, {false, false, true}};
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(
        comm, box.setup(1),
        box.flags([&](const Cell& g, field::FlagField& ff, const lbm::BoundaryFlags& m) {
            if (g.y == 0 || g.y == H + 1) return m.noSlip;
            if (g.x == 0) return ff.registerFlag("inlet");
            if (g.x == L + 1) return ff.registerFlag("pressureOut");
            return m.fluid;
        }),
        KernelTier::Simd);

    auto& ff = simulation.flagField(0);
    const lbm::BoundaryFlags ends{simulation.masks().fluid, 0, ff.flag("inlet"),
                                  ff.flag("pressureOut")};
    lbm::BoundaryHandling<lbm::D3Q19> inletOutlet(ff, ends, simulation.pdfField(0));
    const real_t uMax = 0.03;
    inletOutlet.setWallVelocityProfile([&](const Cell& c) {
        const real_t y = real_c(c.y) - real_c(0.5); // wall plane at y=0
        const real_t h = real_c(H);
        return Vec3(4 * uMax * y * (h - y) / (h * h), 0, 0);
    });
    inletOutlet.setPressureDensity(1.0);

    for (int step = 0; step < 6000; ++step) {
        inletOutlet.apply(simulation.pdfField(0));
        simulation.run(1, TRT::fromOmegaAndMagic(1.0));
    }
    // Centerline fastest, near-wall slowest, profile roughly parabolic.
    const real_t uMid = simulation.gatherCellVelocity({L / 2, (H + 1) / 2, 1})[0];
    const real_t uNearWall = simulation.gatherCellVelocity({L / 2, 1, 1})[0];
    EXPECT_GT(uMid, 3 * uNearWall);
    EXPECT_NEAR(uMid, uMax, 0.25 * uMax);
    // Quarter-height point of an ideal parabola carries 3/4 of the peak.
    const real_t uQuarter = simulation.gatherCellVelocity({L / 2, (H + 2) / 4, 1})[0];
    EXPECT_NEAR(uQuarter / uMid, 0.75, 0.12);
}

// ---- checkpoint / restart -------------------------------------------------------

TEST(Checkpoint, RestartReproducesTheRun) {
    constexpr cell_idx_t N = 16;
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, N, N, N);
    cfg.rootBlocksX = cfg.rootBlocksY = cfg.rootBlocksZ = 2;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = N / 2;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(4);

    auto flagInit = [](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                       const bf::BlockForest::Block& block,
                       const geometry::CellMapping& mapping) {
        (void)block;
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 p = mapping.cellCenter(x, y, z);
            if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[0] > N || p[1] > N || p[2] > N)
                return;
            const Cell g{cell_idx_t(p[0]), cell_idx_t(p[1]), cell_idx_t(p[2])};
            if (g.y == N - 1) flags.addFlag(x, y, z, masks.ubb);
            else if (g.x == 0 || g.x == N - 1 || g.y == 0 || g.z == 0 || g.z == N - 1)
                flags.addFlag(x, y, z, masks.noSlip);
            else flags.addFlag(x, y, z, masks.fluid);
        });
    };

    const std::string path = testing::TempDir() + "/walb_checkpoint.bin";
    const TRT op = TRT::fromOmegaAndMagic(1.3);
    Vec3 continuous, restarted;

    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.04, 0, 0});
        simulation.run(15, op);
        ASSERT_TRUE(simulation.saveCheckpoint(path));
        simulation.run(15, op);
        const Vec3 u = simulation.gatherCellVelocity({N / 2, N / 2, N / 2});
        if (comm.rank() == 0) continuous = u;
    });

    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.04, 0, 0});
        ASSERT_TRUE(simulation.loadCheckpoint(path));
        simulation.run(15, op);
        const Vec3 u = simulation.gatherCellVelocity({N / 2, N / 2, N / 2});
        if (comm.rank() == 0) restarted = u;
    });

    EXPECT_EQ(continuous[0], restarted[0]); // bitwise: restart is exact
    EXPECT_EQ(continuous[1], restarted[1]);
    EXPECT_EQ(continuous[2], restarted[2]);
    std::remove(path.c_str());
}

TEST(Checkpoint, LoadFailsCleanlyOnMissingFile) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 8, 8, 8);
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(1);
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(
        comm, setup,
        [](field::FlagField& flags, const lbm::BoundaryFlags& masks, const auto&,
           const auto&) {
            flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                flags.addFlag(x, y, z, masks.fluid);
            });
        });
    EXPECT_FALSE(simulation.loadCheckpoint("/nonexistent/path/checkpoint.bin"));
}

// ---- VTK output ------------------------------------------------------------------

TEST(VtkOutput, ImageFileIsWellFormedAndComplete) {
    io::VtkImageWriter writer(4, 3, 2, 0.5, {1, 2, 3});
    writer.addScalar("rho", [](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        return real_c(x + 10 * y + 100 * z);
    });
    writer.addVector("vel", [](cell_idx_t x, cell_idx_t, cell_idx_t) {
        return Vec3(real_c(x), 0, -real_c(x));
    });
    const std::string path = testing::TempDir() + "/walb_out.vti";
    ASSERT_TRUE(writer.write(path));

    std::ifstream is(path);
    std::string content((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("<VTKFile type=\"ImageData\""), std::string::npos);
    EXPECT_NE(content.find("WholeExtent=\"0 4 0 3 0 2\""), std::string::npos);
    EXPECT_NE(content.find("Name=\"rho\""), std::string::npos);
    EXPECT_NE(content.find("NumberOfComponents=\"3\""), std::string::npos);
    EXPECT_NE(content.find("Spacing=\"0.5 0.5 0.5\""), std::string::npos);
    // Last scalar value (x=3,y=2,z=1): 3 + 20 + 100 = 123.
    EXPECT_NE(content.find("123"), std::string::npos);
    std::remove(path.c_str());
}

TEST(VtkOutput, MeshFileContainsGeometryAndColors) {
    geometry::TriangleMesh mesh;
    mesh.addVertex({0, 0, 0}, geometry::kColorInflow);
    mesh.addVertex({1, 0, 0});
    mesh.addVertex({0, 1, 0});
    mesh.addTriangle(0, 1, 2);
    const std::string path = testing::TempDir() + "/walb_mesh.vtk";
    ASSERT_TRUE(io::writeVtkMesh(path, mesh));
    std::ifstream is(path);
    std::string content((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("POINTS 3 double"), std::string::npos);
    EXPECT_NE(content.find("POLYGONS 1 4"), std::string::npos);
    EXPECT_NE(content.find("COLOR_SCALARS"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace walb
