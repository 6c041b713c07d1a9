/// Dedicated boundary-condition tests: link-list construction, the hull
/// dilation operator, UBB momentum injection, pressure-BC density
/// imposition, and the mesh-color boundary assignment of paper §2.3.

#include <gtest/gtest.h>

#include <cstring>

#include "blockforest/ScalingSetup.h"
#include "core/Random.h"
#include "geometry/BoundarySetup.h"
#include "geometry/CoronaryTree.h"
#include "geometry/Primitives.h"
#include "lbm/Boundary.h"
#include "lbm/KernelD3Q19.h"
#include "support/Oracles.h"

namespace walb::lbm {
namespace {

using field::FlagField;
using field::flag_t;

class BoundaryLinks : public ::testing::Test {
protected:
    BoundaryLinks() : flags(5, 5, 5, 1), masks(BoundaryFlags::registerOn(flags)) {}
    FlagField flags;
    BoundaryFlags masks;
};

TEST_F(BoundaryLinks, SingleFluidCellSurroundedByWalls) {
    // Fluid at the center, walls all around: one link per non-center
    // direction = 18 links.
    flags.addFlag(2, 2, 2, masks.fluid);
    for (uint_t a = 1; a < D3Q19::Q; ++a)
        flags.addFlag(2 + D3Q19::c[a][0], 2 + D3Q19::c[a][1], 2 + D3Q19::c[a][2],
                      masks.noSlip);
    BoundaryHandling<D3Q19> handling(flags, masks);
    EXPECT_EQ(handling.noSlipLinks().size(), 18u);
    EXPECT_EQ(handling.ubbLinks().size(), 0u);
    for (const auto& link : handling.noSlipLinks()) {
        // Each link's fluid cell is the center.
        EXPECT_EQ(link.boundary.x + D3Q19::c[link.dir][0], 2);
        EXPECT_EQ(link.boundary.y + D3Q19::c[link.dir][1], 2);
        EXPECT_EQ(link.boundary.z + D3Q19::c[link.dir][2], 2);
    }
}

TEST_F(BoundaryLinks, GhostBoundaryCellsGetLinksToo) {
    // Fluid cell at the edge of the block; the wall sits in the ghost
    // layer (it belongs to a neighboring block).
    flags.addFlag(0, 2, 2, masks.fluid);
    flags.addFlag(-1, 2, 2, masks.noSlip); // ghost cell
    BoundaryHandling<D3Q19> handling(flags, masks);
    ASSERT_EQ(handling.noSlipLinks().size(), 1u);
    EXPECT_EQ(handling.noSlipLinks()[0].boundary, (Cell{-1, 2, 2}));
}

TEST_F(BoundaryLinks, NoLinksBetweenNonAdjacentCells) {
    flags.addFlag(0, 0, 0, masks.fluid);
    flags.addFlag(4, 4, 4, masks.noSlip); // too far away
    BoundaryHandling<D3Q19> handling(flags, masks);
    EXPECT_EQ(handling.numLinks(), 0u);
}

TEST_F(BoundaryLinks, NoSlipWritesBouncedValueIntoBoundarySlot) {
    flags.addFlag(2, 2, 2, masks.fluid);
    flags.addFlag(2, 3, 2, masks.noSlip); // wall to the north
    BoundaryHandling<D3Q19> handling(flags, masks);

    PdfField pdfs = makePdfField<D3Q19>(5, 5, 5);
    initEquilibrium<D3Q19>(pdfs, 1.0, {0, 0, 0});
    // Mark the fluid cell's post-collision northbound PDF.
    const uint_t north = 1; // N in our ordering
    const uint_t south = D3Q19::inv[north];
    pdfs.get(2, 2, 2, cell_idx_c(north)) = 0.75;
    handling.apply(pdfs);
    // The wall's south slot (pointing back into the fluid) must hold the
    // bounced northbound value.
    EXPECT_DOUBLE_EQ(pdfs.get(2, 3, 2, cell_idx_c(south)), 0.75);
}

TEST_F(BoundaryLinks, UbbInjectsWallMomentum) {
    // Three fluid cells under a lid row moving in +x; the central lid cell
    // then has straight (S) and diagonal (SW, SE) links into the fluid.
    for (cell_idx_t x = 1; x <= 3; ++x) {
        flags.addFlag(x, 2, 2, masks.fluid);
        flags.addFlag(x, 3, 2, masks.ubb);
    }
    BoundaryHandling<D3Q19> handling(flags, masks);
    handling.setWallVelocity({0.1, 0, 0});

    PdfField pdfs = makePdfField<D3Q19>(5, 5, 5);
    initEquilibrium<D3Q19>(pdfs, 1.0, {0, 0, 0});
    handling.apply(pdfs);

    // Diagonal link with c = (1,-1,0) gains +6 w (e.u_w); (-1,-1,0) loses.
    const uint_t se = 10; // (1,-1,0)
    const uint_t sw = 9;  // (-1,-1,0)
    const real_t base = equilibrium<D3Q19>(D3Q19::inv[se], 1.0, {0, 0, 0});
    EXPECT_NEAR(pdfs.get(2, 3, 2, cell_idx_c(se)), base + 6 * D3Q19::w[se] * 0.1, 1e-15);
    EXPECT_NEAR(pdfs.get(2, 3, 2, cell_idx_c(sw)), base - 6 * D3Q19::w[sw] * 0.1, 1e-15);
    // Straight-down link (0,-1,0) is unaffected by an x-wall-velocity.
    const uint_t s = 2;
    EXPECT_DOUBLE_EQ(pdfs.get(2, 3, 2, cell_idx_c(s)),
                     equilibrium<D3Q19>(D3Q19::inv[s], 1.0, {0, 0, 0}));
}

TEST_F(BoundaryLinks, PressureImposesTargetDensity) {
    flags.addFlag(2, 2, 2, masks.fluid);
    flags.addFlag(2, 3, 2, masks.pressure);
    BoundaryHandling<D3Q19> handling(flags, masks);
    handling.setPressureDensity(1.05);

    PdfField pdfs = makePdfField<D3Q19>(5, 5, 5);
    initEquilibrium<D3Q19>(pdfs, 1.0, {0, 0, 0});
    handling.apply(pdfs);
    // Anti-bounce-back at rest: slot = -f_inv + 2 w rho_w. With f at
    // equilibrium(1.0, 0): slot = w (2*1.05 - 1).
    const uint_t south = 2;
    const real_t expected = D3Q19::w[south] * (2 * 1.05 - 1.0);
    EXPECT_NEAR(pdfs.get(2, 3, 2, cell_idx_c(south)), expected, 1e-14);
}

// ---- hull marking ------------------------------------------------------------

TEST(BoundaryHull, DilationMarksExactlyTheStencilNeighbors) {
    FlagField flags(7, 7, 7, 1);
    const auto masks = BoundaryFlags::registerOn(flags);
    const flag_t hull = flags.registerFlag("hull");
    flags.addFlag(3, 3, 3, masks.fluid); // single fluid cell
    markBoundaryHull<D3Q19>(flags, masks.fluid, 0, hull);
    // Exactly the 18 stencil neighbors are hull; nothing else.
    uint_t count = 0;
    flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (flags.isFlagSet(x, y, z, hull)) {
            ++count;
            const int dx = int(x - 3), dy = int(y - 3), dz = int(z - 3);
            bool isNeighbor = false;
            for (uint_t a = 1; a < D3Q19::Q; ++a)
                if (D3Q19::c[a][0] == dx && D3Q19::c[a][1] == dy && D3Q19::c[a][2] == dz)
                    isNeighbor = true;
            EXPECT_TRUE(isNeighbor) << "hull at non-stencil offset " << dx << ',' << dy
                                    << ',' << dz;
        }
    });
    EXPECT_EQ(count, 18u);
    EXPECT_FALSE(flags.isFlagSet(3, 3, 3, hull)) << "fluid cell must not become hull";
}

TEST(BoundaryHull, RespectsAlreadyOccupiedCells) {
    FlagField flags(5, 5, 5, 1);
    const auto masks = BoundaryFlags::registerOn(flags);
    const flag_t hull = flags.registerFlag("hull");
    flags.addFlag(2, 2, 2, masks.fluid);
    flags.addFlag(2, 3, 2, masks.ubb); // pre-assigned inflow
    markBoundaryHull<D3Q19>(flags, masks.fluid, masks.ubb, hull);
    EXPECT_FALSE(flags.isFlagSet(2, 3, 2, hull)) << "pre-colored cell was overwritten";
    EXPECT_TRUE(flags.isFlagSet(2, 1, 2, hull));
}

TEST(BoundaryHull, BitRowsMatchPullRuleOnRandomFields) {
    // Rows of one and of two words, one and two ghost layers; random fluid,
    // pre-occupied (ubb) and unrelated (pressure) bits.
    const std::array<std::array<cell_idx_t, 4>, 3> shapes{
        {{9, 7, 6, 1}, {70, 5, 4, 1}, {61, 6, 5, 2}}};
    Random rng(2013);
    for (const auto& [nx, ny, nz, ghost] : shapes)
        for (const double fluidFraction : {0.0, 0.04, 0.5, 1.0}) {
            FlagField flags(nx, ny, nz, ghost);
            const auto masks = BoundaryFlags::registerOn(flags);
            const flag_t hull = flags.registerFlag("hull");
            flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                if (rng.uniform(0, 1) < fluidFraction) flags.addFlag(x, y, z, masks.fluid);
                else if (rng.uniform(0, 1) < 0.1) flags.addFlag(x, y, z, masks.ubb);
                if (rng.uniform(0, 1) < 0.2) flags.addFlag(x, y, z, masks.pressure);
            });
            FlagField reference(flags);
            markBoundaryHull<D3Q19>(flags, masks.fluid, masks.ubb, hull);
            markBoundaryHullPull<D3Q19>(reference, masks.fluid, masks.ubb, hull);
            EXPECT_EQ(std::memcmp(flags.data(), reference.data(), flags.allocCells()), 0)
                << nx << 'x' << ny << 'x' << nz << " ghost " << ghost << ", fluid fraction "
                << fluidFraction;
            if (fluidFraction == 0.04) {
                EXPECT_GT(reference.count(hull), 0u);
            }
        }
}

// ---- color-based assignment ---------------------------------------------------

/// Runs the certified assignment and the per-cell oracle on copies of the
/// same hull-marked flags; both must write the same flags and counts.
void expectCertifiedMatchesPerCell(const FlagField& marked, const BoundaryFlags& masks,
                                   flag_t hull, const geometry::MeshDistance& dist,
                                   const geometry::CellMapping& mapping) {
    FlagField certified(marked), reference(marked);
    const auto got =
        geometry::assignBoundaryConditionsFromColors(certified, masks, hull, dist, mapping);
    const auto want =
        geometry::assignBoundaryConditionsPerCell(reference, masks, hull, dist, mapping);
    EXPECT_EQ(got.noSlipCells, want.noSlipCells);
    EXPECT_EQ(got.inflowCells, want.inflowCells);
    EXPECT_EQ(got.outflowCells, want.outflowCells);
    EXPECT_EQ(std::memcmp(certified.data(), reference.data(), certified.allocCells()), 0);
}

TEST(ColorAssignment, CertificationMatchesPerCellQueriesOnEveryFig7Block) {
    // The fig7 tree at the benchmark's smoke size: 12^3 blocks, <= 24 blocks,
    // mesh resolution 48.
    geometry::CoronaryTreeParams params;
    params.seed = 2013;
    params.rootRadius = 0.04;
    params.minRadius = 0.006;
    params.maxDepth = 11;
    const auto tree = geometry::CoronaryTree::generate(params);
    const auto phi = tree.implicitDistance();
    geometry::TriangleMesh mesh = tree.surfaceMesh(48);
    const geometry::MeshDistance dist(mesh);
    const auto search = bf::findWeakScalingPartition(*phi, params.bounds, 12, 24);
    ASSERT_GT(search.blocks, 0u);
    uint_t inflow = 0, outflow = 0;
    for (const bf::SetupBlock& b : search.forest.blocks()) {
        FlagField flags(12, 12, 12, 1);
        const auto masks = BoundaryFlags::registerOn(flags);
        const flag_t hull = flags.registerFlag("hull");
        const geometry::CellMapping mapping{b.aabb, search.forest.config().dx()};
        geometry::voxelize(*phi, flags, mapping, masks.fluid);
        markBoundaryHull<D3Q19>(flags, masks.fluid, 0, hull);
        expectCertifiedMatchesPerCell(flags, masks, hull, dist, mapping);
        FlagField counted(flags);
        const auto stats =
            geometry::assignBoundaryConditionsPerCell(counted, masks, hull, dist, mapping);
        inflow += stats.inflowCells;
        outflow += stats.outflowCells;
    }
    // Both cap colors occur, so the certification was tested next to them.
    EXPECT_GT(inflow, 0u);
    EXPECT_GT(outflow, 0u);
}

TEST(ColorAssignment, CertificationMatchesPerCellWhereOutletCapMeetsWall) {
    using namespace geometry;
    TriangleMesh mesh = makeTubeMesh({0, 0, 0}, {4, 0, 0}, 1.0, 1.0, 16, true, true,
                                     kColorWall, kColorInflow, kColorOutflow);
    const MeshDistance dist(mesh);
    for (const cell_idx_t n : {16, 24, 31}) {
        FlagField flags(n, n, n, 1);
        const auto masks = BoundaryFlags::registerOn(flags);
        const flag_t hull = flags.registerFlag("hull");
        const CellMapping mapping{AABB(-1, -2, -2, 5, 2, 2), 6.0 / real_c(n)};
        voxelize(dist, flags, mapping, masks.fluid);
        markBoundaryHull<D3Q19>(flags, masks.fluid, 0, hull);
        expectCertifiedMatchesPerCell(flags, masks, hull, dist, mapping);

        // The outlet cap meets the wall at a hull cell: a pressure cell has
        // a no-slip stencil neighbor.
        FlagField assigned(flags);
        assignBoundaryConditionsPerCell(assigned, masks, hull, dist, mapping);
        bool meets = false;
        assigned.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!assigned.isFlagSet(x, y, z, masks.pressure)) return;
            for (uint_t a = 1; a < D3Q19::Q; ++a)
                if (assigned.isFlagSet(x + D3Q19::c[a][0], y + D3Q19::c[a][1],
                                       z + D3Q19::c[a][2], masks.noSlip))
                    meets = true;
        });
        EXPECT_TRUE(meets) << n << "^3 cells";
    }
}

TEST(ColorAssignment, TubeCapsBecomeInflowAndOutflow) {
    using namespace geometry;
    // A tube along x: inflow cap at x=0 (red), outflow at x=4 (green).
    TriangleMesh mesh = makeTubeMesh({0, 0, 0}, {4, 0, 0}, 1.0, 1.0, 16, true, true,
                                     kColorWall, kColorInflow, kColorOutflow);
    MeshDistance dist(mesh);

    const cell_idx_t N = 24;
    field::FlagField flags(N, N, N, 1);
    const auto masks = lbm::BoundaryFlags::registerOn(flags);
    const flag_t hull = flags.registerFlag("hull");
    const CellMapping mapping{AABB(-1, -2, -2, 5, 2, 2), 6.0 / N};
    voxelize(dist, flags, mapping, masks.fluid);
    ASSERT_GT(flags.count(masks.fluid), 50u);
    markBoundaryHull<D3Q19>(flags, masks.fluid, 0, hull);

    const auto stats = assignBoundaryConditionsFromColors(flags, masks, hull, dist, mapping);
    EXPECT_GT(stats.inflowCells, 0u);
    EXPECT_GT(stats.outflowCells, 0u);
    EXPECT_GT(stats.noSlipCells, stats.inflowCells);

    // Inflow cells cluster at low x, outflow at high x. Cap colors bleed
    // onto the first side ring of the tube tessellation (ring spacing
    // ~1.3), so the split point is generous.
    flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        const Vec3 p = mapping.cellCenter(x, y, z);
        if (flags.isFlagSet(x, y, z, masks.ubb)) { EXPECT_LT(p[0], 1.8); }
        if (flags.isFlagSet(x, y, z, masks.pressure)) { EXPECT_GT(p[0], 2.2); }
    });
}

} // namespace
} // namespace walb::lbm
