/// Per-block cost split of a step's fluid sweep and boundary apply on the
/// coronary-tree geometry of the `vascular_tree` benchmark workload (fig7
/// tree, 32^3-cell blocks, at most 128 blocks, balanced on 4 ranks x 1
/// OpenMP thread).
///
/// Runs the same setup on the two-grid Simd tier and the in-place AaSimd
/// tier. Each block's sweep seconds come from
/// DistributedSimulation::blockSweepSeconds; its boundary seconds from one
/// extra, timed apply of its links per step (they write the values the
/// next step writes again). Least squares over the blocks fit
///
///     sweep time per step = a * fluid cells + b * fluid x-runs
///     sweep + boundary    = a * fluid cells + b * fluid x-runs + c * links
///
/// with the counts of bf::SetupBlockForest::assignFluidCellWorkload (links
/// inside the block). The second fit's b/a and c/a are a run's and a
/// link's cost in fluid cells: the SetupBlock::kRunCost and kLinkCost that
/// SetupBlockForest::balanceGraph weights blocks by.
///
/// Usage: sweep_cost_split [--seed N] [--steps N]
/// (the seed draws inlet speed and omega exactly as walb_bench does).

#include <array>
#include <chrono>
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
#include "lbm/Boundary.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/ThreadComm.h"

using namespace walb;

namespace {

/// One block's setup counts and its measured seconds per step.
struct BlockSample {
    double cells = 0, runs = 0, links = 0, sweep = 0, boundary = 0;
};

/// Runs `steps` timed steps (after 10 warm-up steps) on `tier` and returns
/// every block's sample, gathered on all ranks.
std::vector<BlockSample> measure(const bf::SetupBlockForest& setup,
                                 const sim::DistributedSimulation::FlagInitializer& flags,
                                 const Vec3& inlet, real_t omega, KernelTier tier,
                                 std::uint64_t steps) {
    using Clock = std::chrono::steady_clock;
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
        const std::size_t n = s.forest().numLocalBlocks();
        std::vector<lbm::BoundaryHandling<lbm::D3Q19>> boundaries;
        for (std::size_t b = 0; b < n; ++b) {
            boundaries.emplace_back(s.flagField(b), s.masks(), s.pdfField(b));
            boundaries.back().setWallVelocity(inlet);
        }
        std::vector<double> boundary(n, 0.0);
        s.resetBlockSweepSeconds();
        for (std::uint64_t i = 0; i < steps; ++i) {
            for (std::size_t b = 0; b < n; ++b) {
                const auto t0 = Clock::now();
                boundaries[b].apply(s.pdfField(b), lbm::Region::All, s.stepPattern());
                boundary[b] += std::chrono::duration<double>(Clock::now() - t0).count();
            }
            s.run(1, op);
        }
        SendBuffer mine;
        for (std::size_t b = 0; b < n; ++b) {
            const Cell& p = s.forest().blocks()[b].gridPos;
            const bf::SetupBlock& sb = setup.blocks()[*setup.blockAt(p.x, p.y, p.z)];
            mine << double(sb.workload) << double(sb.fluidRuns) << double(sb.fluidLinks)
                 << s.blockSweepSeconds()[b] / double(steps) << boundary[b] / double(steps);
        }
        // walb-lint: allow(blocking): measurement collective, reached by every rank
        auto gathered = comm.allgatherv(std::span<const std::uint8_t>(mine.data(), mine.size()));
        if (comm.rank() != 0) return;
        for (auto& bytes : gathered) {
            RecvBuffer rb(std::move(bytes));
            while (!rb.atEnd()) {
                BlockSample x;
                rb >> x.cells >> x.runs >> x.links >> x.sweep >> x.boundary;
                all.push_back(x);
            }
        }
    });
    return all;
}

/// Least-squares fit t = sum_k coef_k * x_k over the samples, by the
/// normal equations; returns the coefficients and R^2 (last).
template <std::size_t K>
std::array<double, K + 1> fit(const std::vector<BlockSample>& s,
                              std::array<double, K> (*features)(const BlockSample&),
                              double (*seconds)(const BlockSample&)) {
    std::array<std::array<double, K + 1>, K> m{}; // [X^T X | X^T t]
    double t = 0;
    for (const BlockSample& x : s) {
        const auto f = features(x);
        for (std::size_t i = 0; i < K; ++i) {
            for (std::size_t j = 0; j < K; ++j) m[i][j] += f[i] * f[j];
            m[i][K] += f[i] * seconds(x);
        }
        t += seconds(x);
    }
    for (std::size_t i = 0; i < K; ++i) // Gauss-Jordan; X^T X is positive definite
        for (std::size_t r = 0; r < K; ++r) {
            if (r == i) continue;
            const double q = m[r][i] / m[i][i];
            for (std::size_t j = i; j <= K; ++j) m[r][j] -= q * m[i][j];
        }
    std::array<double, K + 1> c{};
    for (std::size_t i = 0; i < K; ++i) c[i] = m[i][K] / m[i][i];
    const double mean = t / double(s.size());
    double res = 0, tt = 0;
    for (const BlockSample& x : s) {
        const auto f = features(x);
        double e = seconds(x);
        for (std::size_t i = 0; i < K; ++i) e -= c[i] * f[i];
        res += e * e;
        tt += (seconds(x) - mean) * (seconds(x) - mean);
    }
    c[K] = tt > 0 ? 1.0 - res / tt : 0.0;
    return c;
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
        double cells = 0, runs = 0, links = 0, sweep = 0, boundary = 0;
        for (const BlockSample& x : samples) {
            cells += x.cells;
            runs += x.runs;
            links += x.links;
            sweep += x.sweep;
            boundary += x.boundary;
        }
        const auto [a, b, r2] = fit<2>(
            samples, [](const BlockSample& x) { return std::array{x.cells, x.runs}; },
            [](const BlockSample& x) { return x.sweep; });
        const auto [ta, tb, tc, tr2] = fit<3>(
            samples, [](const BlockSample& x) { return std::array{x.cells, x.runs, x.links}; },
            [](const BlockSample& x) { return x.sweep + x.boundary; });
        const char* name = tier == KernelTier::Simd ? "Simd" : "AaSimd";
        std::printf("%-6s blocks %zu fluid_cells %.0f runs %.0f mean_run %.2f "
                    "links_per_fluid_cell %.2f sweep_ms_per_step %.3f ns_per_cell %.1f "
                    "ns_per_run %.1f run_share %.2f r2 %.3f\n",
                    name, samples.size(), cells, runs, cells / runs, links / cells, sweep * 1e3,
                    a * 1e9, b * 1e9, b * runs / sweep, r2);
        std::printf("%-6s sweep+boundary boundary_ms_per_step %.3f ns_per_cell %.1f "
                    "ns_per_run %.1f ns_per_link %.2f run_cells %.1f link_cells %.2f r2 %.3f\n",
                    name, boundary * 1e3, ta * 1e9, tb * 1e9, tc * 1e9, tb / ta, tc / ta, tr2);
    }
    return 0;
}
