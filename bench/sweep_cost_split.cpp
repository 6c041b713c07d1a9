/// Per-block cost split of the fluid sweep on the coronary-tree geometry of
/// the `vascular_tree` benchmark workload (fig7 tree, 32^3-cell blocks, at
/// most 128 blocks, balanced on 4 ranks x 1 OpenMP thread).
///
/// Runs the same setup on the two-grid Simd tier and the in-place AaSimd
/// tier, reads each block's measured sweep seconds
/// (DistributedSimulation::blockSweepSeconds) and fits, by least squares
/// over the blocks,
///
///     sweep time per step = a * fluid cells + b * fluid x-runs
///
/// so `a` is the streaming cost per cell and `b` the fixed cost of starting
/// a run (loop setup, unaligned head and tail, row pointers). Also prints
/// the geometry's block, fluid-cell, run and boundary-link counts.
///
/// Usage: sweep_cost_split [--seed N] [--steps N]
/// (the seed draws inlet speed and omega exactly as walb_bench does).

#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "blockforest/ScalingSetup.h"
#include "core/Buffer.h"
#include "core/Random.h"
#include "geometry/BoundarySetup.h"
#include "geometry/CoronaryTree.h"
#include "geometry/SignedDistance.h"
#include "geometry/Voxelizer.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/ThreadComm.h"

using namespace walb;

namespace {

/// One block's counts and its measured sweep seconds per step.
struct BlockSample {
    double cells = 0, runs = 0, links = 0, seconds = 0;
};

/// Boundary links of a block: (fluid cell, direction) pairs whose neighbor
/// carries a boundary flag.
double boundaryLinks(sim::DistributedSimulation& s, std::size_t b) {
    using M = lbm::D3Q19;
    const field::FlagField& flags = s.flagField(b);
    const field::flag_t boundary = s.masks().boundaryMask();
    double n = 0;
    for (const lbm::FluidRun& r : s.fluidRuns(b).runs)
        for (cell_idx_t x = r.xBegin; x <= r.xEnd; ++x)
            for (uint_t a = 1; a < M::Q; ++a)
                if (flags.get(x + M::c[a][0], r.y + M::c[a][1], r.z + M::c[a][2]) & boundary)
                    ++n;
    return n;
}

/// Runs `steps` timed steps (after 10 warm-up steps) on `tier` and returns
/// every block's sample, gathered on all ranks.
std::vector<BlockSample> measure(const bf::SetupBlockForest& setup,
                                 const sim::DistributedSimulation::FlagInitializer& flags,
                                 const Vec3& inlet, real_t omega, KernelTier tier,
                                 std::uint64_t steps) {
    std::vector<BlockSample> all;
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
#ifdef _OPENMP
        omp_set_num_threads(1);
#endif
        sim::DistributedSimulation s(comm, setup, flags, tier);
        s.setWallVelocity(inlet);
        s.setPressureDensity(1.0);
        const auto op = lbm::TRT::fromOmegaAndMagic(omega);
        s.run(10, op);
        s.resetBlockSweepSeconds();
        s.run(steps, op);
        SendBuffer mine;
        for (std::size_t b = 0; b < s.forest().numLocalBlocks(); ++b)
            mine << double(s.fluidRuns(b).fluidCells) << double(s.fluidRuns(b).runs.size())
                 << boundaryLinks(s, b) << s.blockSweepSeconds()[b] / double(steps);
        // walb-lint: allow(blocking): measurement collective, reached by every rank
        auto gathered = comm.allgatherv(std::span<const std::uint8_t>(mine.data(), mine.size()));
        if (comm.rank() != 0) return;
        for (auto& bytes : gathered) {
            RecvBuffer rb(std::move(bytes));
            while (!rb.atEnd()) {
                BlockSample x;
                rb >> x.cells >> x.runs >> x.links >> x.seconds;
                all.push_back(x);
            }
        }
    });
    return all;
}

/// Least-squares fit t = a * cells + b * runs; returns {a, b, R^2}.
std::array<double, 3> fit(const std::vector<BlockSample>& s) {
    double cc = 0, cr = 0, rr = 0, ct = 0, rt = 0, tt = 0, t = 0;
    for (const BlockSample& x : s) {
        cc += x.cells * x.cells;
        cr += x.cells * x.runs;
        rr += x.runs * x.runs;
        ct += x.cells * x.seconds;
        rt += x.runs * x.seconds;
        t += x.seconds;
    }
    const double det = cc * rr - cr * cr;
    const double a = (ct * rr - rt * cr) / det, b = (rt * cc - ct * cr) / det;
    const double mean = t / double(s.size());
    double res = 0;
    for (const BlockSample& x : s) {
        const double e = x.seconds - a * x.cells - b * x.runs;
        res += e * e;
        tt += (x.seconds - mean) * (x.seconds - mean);
    }
    return {a, b, tt > 0 ? 1.0 - res / tt : 0.0};
}

} // namespace

int main(int argc, char** argv) {
    std::uint64_t seed = 2013, steps = 200;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (!std::strcmp(argv[i], "--seed")) seed = std::stoull(argv[i + 1]);
        else if (!std::strcmp(argv[i], "--steps")) steps = std::stoull(argv[i + 1]);
    }
    Random rng(seed);
    const real_t inletSpeed = rng.uniform(0.015, 0.025);
    const real_t omega = rng.uniform(1.4, 1.8);

    geometry::CoronaryTreeParams params; // the fig7 tree, as walb_bench
    params.seed = 2013;
    params.bounds = AABB(0, 0, 0, 1, 1, 1);
    params.rootRadius = 0.04;
    params.minRadius = 0.006;
    params.maxDepth = 11;
    const geometry::CoronaryTree tree = geometry::CoronaryTree::generate(params);
    const auto phi = tree.implicitDistance();
    geometry::TriangleMesh mesh = tree.surfaceMesh(96);
    const geometry::MeshDistance meshDistance(mesh);
    auto search = bf::findWeakScalingPartition(*phi, params.bounds, 32, 128);
    search.forest.assignFluidCellWorkload(*phi);
    search.forest.balanceGraph(4);
    const sim::DistributedSimulation::FlagInitializer flags =
        [&](field::FlagField& f, const lbm::BoundaryFlags& masks, const bf::BlockForest::Block&,
            const geometry::CellMapping& mapping) {
            geometry::voxelize(*phi, f, mapping, masks.fluid);
            const field::flag_t hull = f.registerFlag("hull");
            lbm::markBoundaryHull<lbm::D3Q19>(f, masks.fluid, 0, hull);
            geometry::assignBoundaryConditionsFromColors(f, masks, hull, meshDistance, mapping);
        };
    const Vec3 inlet = tree.inletDirection() * inletSpeed;

    for (const KernelTier tier : {KernelTier::Simd, KernelTier::AaSimd}) {
        const auto samples = measure(search.forest, flags, inlet, omega, tier, steps);
        double cells = 0, runs = 0, links = 0, seconds = 0;
        for (const BlockSample& x : samples) {
            cells += x.cells;
            runs += x.runs;
            links += x.links;
            seconds += x.seconds;
        }
        const auto [a, b, r2] = fit(samples);
        std::printf("%-6s blocks %zu fluid_cells %.0f runs %.0f mean_run %.2f "
                    "links_per_fluid_cell %.2f sweep_ms_per_step %.3f ns_per_cell %.1f "
                    "ns_per_run %.1f run_share %.2f r2 %.3f\n",
                    tier == KernelTier::Simd ? "Simd" : "AaSimd", samples.size(), cells, runs,
                    cells / runs, links / cells, seconds * 1e3, a * 1e9, b * 1e9,
                    b * runs / seconds, r2);
    }
    return 0;
}
