/// Hybrid-parallelism tests: with OpenMP enabled, every phase a rank runs
/// on its team — sweeps, boundary links, same-rank ghost copies, PDF
/// initialization — must produce bitwise-identical results regardless of
/// the team size (each work item writes its own slots and performs
/// identical arithmetic).

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "lbm/KernelD3Q19Simd.h"
#include "lbm/Boundary.h"
#include "lbm/Sparse.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/ThreadComm.h"

namespace walb::lbm {
namespace {

void fillState(PdfField& f) {
    f.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        const Vec3 u(0.02 * std::sin(0.2 * real_c(x + z)), -0.01 * std::cos(0.3 * real_c(y)),
                     0.015);
        for (uint_t a = 0; a < D3Q19::Q; ++a)
            f.get(x, y, z, cell_idx_c(a)) =
                equilibrium<D3Q19>(a, 1.0 + 0.01 * std::sin(real_c(x * y % 7)), u);
    });
}

#ifdef _OPENMP

TEST(OpenMP, DenseSweepIsThreadCountInvariant) {
    const cell_idx_t N = 20;
    PdfField src = makePdfField<D3Q19>(N, N, N);
    fillState(src);
    const TRT op = TRT::fromOmegaAndMagic(1.3);
    KernelD3Q19Simd<> kernel;

    const int maxThreads = omp_get_max_threads();
    omp_set_num_threads(1);
    PdfField dst1 = makePdfField<D3Q19>(N, N, N);
    kernel.sweep(src, dst1, op);

    omp_set_num_threads(std::max(4, maxThreads));
    PdfField dst4 = makePdfField<D3Q19>(N, N, N);
    kernel.sweep(src, dst4, op);
    omp_set_num_threads(maxThreads);

    dst1.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        for (uint_t a = 0; a < D3Q19::Q; ++a)
            ASSERT_EQ(dst1.get(x, y, z, cell_idx_c(a)), dst4.get(x, y, z, cell_idx_c(a)))
                << "thread-count-dependent result at " << x << ',' << y << ',' << z;
    });
}

TEST(OpenMP, IntervalSweepIsThreadCountInvariant) {
    const cell_idx_t N = 20;
    field::FlagField flags(N, N, N, 1);
    const auto fluid = flags.registerFlag(kFluidFlag);
    flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if ((x + 2 * y + 3 * z) % 5 != 0) flags.addFlag(x, y, z, fluid); // ragged runs
    });
    const FluidRunList runs = buildFluidRuns(flags, fluid);

    PdfField src = makePdfField<D3Q19>(N, N, N);
    fillState(src);
    const SRT op(1.6);
    KernelD3Q19Simd<> kernel;

    const int maxThreads = omp_get_max_threads();
    omp_set_num_threads(1);
    PdfField dst1 = makePdfField<D3Q19>(N, N, N);
    streamCollideIntervals(src, dst1, runs, op, kernel);

    omp_set_num_threads(std::max(4, maxThreads));
    PdfField dst4 = makePdfField<D3Q19>(N, N, N);
    streamCollideIntervals(src, dst4, runs, op, kernel);
    omp_set_num_threads(maxThreads);

    flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (!flags.isFlagSet(x, y, z, fluid)) return;
        for (uint_t a = 0; a < D3Q19::Q; ++a)
            ASSERT_EQ(dst1.get(x, y, z, cell_idx_c(a)), dst4.get(x, y, z, cell_idx_c(a)));
    });
}

bool bytesEqual(const PdfField& a, const PdfField& b) {
    return a.allocCells() == b.allocCells() &&
           std::memcmp(a.data(), b.data(), a.allocCells() * sizeof(real_t)) == 0;
}

/// Runs fn() on a team of `threads`, restoring the caller's team size.
template <typename Fn>
auto onTeam(int threads, Fn&& fn) {
    const int before = omp_get_max_threads();
    omp_set_num_threads(threads);
    auto result = fn();
    omp_set_num_threads(before);
    return result;
}

TEST(OpenMP, OnePassPdfInitIsByteEqualToFillThenEquilibrium) {
    const real_t rho = 1.02;
    const Vec3 u(0.03, -0.01, 0.02);
    std::array<real_t, D3Q19::Q> eq{};
    setEquilibrium<D3Q19>(eq, rho, u);
    for (const auto layout : {field::Layout::fzyx, field::Layout::zyxf}) {
        // Reference: zero fill, then every slot of every cell (ghosts
        // included) set cell by cell.
        PdfField ref = makePdfField<D3Q19>(9, 7, 11, layout);
        ref.forAllIncludingGhost(
            [&](cell_idx_t x, cell_idx_t y, cell_idx_t z) { setPdfs<D3Q19>(ref, x, y, z, eq); });
        for (const int threads : {1, 4}) {
            const PdfField onePass =
                onTeam(threads, [&] { return makePdfField<D3Q19>(9, 7, 11, rho, u, layout); });
            const PdfField twoPass = onTeam(threads, [&] {
                PdfField f = makePdfField<D3Q19>(9, 7, 11, layout);
                initEquilibrium<D3Q19>(f, rho, u);
                return f;
            });
            EXPECT_TRUE(bytesEqual(onePass, ref))
                << field::layoutName(layout) << ", one pass, " << threads << " threads";
            EXPECT_TRUE(bytesEqual(twoPass, ref))
                << field::layoutName(layout) << ", fill + equilibrium, " << threads << " threads";
        }
    }
}

/// One block with all three link kinds, interior and ghost boundary cells,
/// and a core/shell split in which both partitions hold every kind.
struct BoundaryFixture {
    static constexpr cell_idx_t nx = 12, ny = 10, nz = 9;
    field::FlagField flags{nx, ny, nz, 1};
    BoundaryFlags masks = BoundaryFlags::registerOn(flags);
    PdfField start = makePdfField<D3Q19>(nx, ny, nz);

    BoundaryFixture() {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const bool ghost = !flags.interior().contains(Cell{x, y, z});
            const bool obstacle = x >= 4 && x <= 6 && y >= 3 && y <= 5 && z >= 2 && z <= 4;
            if (ghost && z >= nz) flags.addFlag(x, y, z, masks.ubb);
            else if (ghost && x >= nx) flags.addFlag(x, y, z, masks.pressure);
            else if (ghost || obstacle) flags.addFlag(x, y, z, masks.noSlip);
            else flags.addFlag(x, y, z, masks.fluid);
        });
        start.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 v(0.02 * std::sin(0.7 * real_c(x + 2 * z)), 0.01 * std::cos(real_c(y)),
                         -0.015 * std::sin(real_c(x * y % 5)));
            for (uint_t a = 0; a < D3Q19::Q; ++a)
                start.get(x, y, z, cell_idx_c(a)) =
                    equilibrium<D3Q19>(a, 1.0 + 0.02 * std::cos(real_c(x + y + z)), v) +
                    1e-4 * real_c((x * 7 + y * 5 + z * 3 + cell_idx_c(a)) % 11);
        });
    }

    /// Applies `op` to a copy of the start state, called by every thread of
    /// a team of `threads`, or outside any parallel region for threads == 0.
    template <typename Op>
    PdfField run(int threads, Op&& op) const {
        BoundaryHandling<D3Q19> bh(flags, masks);
        bh.setWallVelocityProfile([](const Cell& c) {
            return Vec3(0.05 + 0.001 * real_c(c.x), 0.002 * real_c(c.y), 0);
        });
        bh.setPressureDensity(real_c(1.01));
        bh.partitionForOverlap([](const Cell& c) { return c.x < 0 || c.x >= nx || c.z >= nz; });
        EXPECT_GT(bh.numCoreLinks(), 0u);
        EXPECT_GT(bh.numShellLinks(), 0u);
        PdfField f = start;
        if (threads == 0) {
            op(bh, f);
            return f;
        }
#pragma omp parallel num_threads(threads)
        op(bh, f);
        return f;
    }
};

TEST(OpenMP, BoundaryEntryPointsAreTeamSizeInvariant) {
    const BoundaryFixture fx;
    {
        BoundaryHandling<D3Q19> bh(fx.flags, fx.masks);
        ASSERT_GT(bh.noSlipLinks().size(), 0u);
        ASSERT_GT(bh.ubbLinks().size(), 0u);
        ASSERT_GT(bh.pressureLinks().size(), 0u);
    }
    using BH = BoundaryHandling<D3Q19>;
    const auto apply = [](const BH& bh, PdfField& f) { bh.apply(f); };
    const auto coreShell = [](const BH& bh, PdfField& f) {
        bh.applyCore(f);
        bh.applyShell(f);
    };
    const PdfField ref = fx.run(0, apply);
    EXPECT_FALSE(bytesEqual(ref, fx.start));
    EXPECT_TRUE(bytesEqual(fx.run(1, apply), ref)) << "apply, 1 thread";
    EXPECT_TRUE(bytesEqual(fx.run(4, apply), ref)) << "apply, 4 threads";
    EXPECT_TRUE(bytesEqual(fx.run(1, coreShell), ref)) << "applyCore + applyShell, 1 thread";
    EXPECT_TRUE(bytesEqual(fx.run(4, coreShell), ref)) << "applyCore + applyShell, 4 threads";

    for (const auto parity : {AaParity::Even, AaParity::Odd}) {
        const std::string name = parity == AaParity::Even ? "even" : "odd";
        const auto applyAa = [parity](const BH& bh, PdfField& f) { bh.applyAa(f, parity); };
        const auto aaCoreShell = [parity](const BH& bh, PdfField& f) {
            bh.precomputeAaShellPressure(f, parity);
            bh.applyAaCore(f, parity);
            bh.applyAaShell(f, parity);
        };
        const PdfField aaRef = fx.run(0, applyAa);
        EXPECT_FALSE(bytesEqual(aaRef, fx.start)) << name;
        EXPECT_TRUE(bytesEqual(fx.run(1, applyAa), aaRef)) << "applyAa, 1 thread, " << name;
        EXPECT_TRUE(bytesEqual(fx.run(4, applyAa), aaRef)) << "applyAa, 4 threads, " << name;
        EXPECT_TRUE(bytesEqual(fx.run(1, aaCoreShell), aaRef))
            << "precompute + applyAaCore + applyAaShell, 1 thread, " << name;
        EXPECT_TRUE(bytesEqual(fx.run(4, aaCoreShell), aaRef))
            << "precompute + applyAaCore + applyAaShell, 4 threads, " << name;
    }
}

TEST(OpenMP, LocalCopyPlanIsTeamSizeInvariant) {
    const BoundaryFixture fx;
    using Add = void (*)(LocalCopyPlan&, const PdfField&, PdfField&, const std::array<int, 3>&);
    using Copy = void (*)(const PdfField&, PdfField&, const std::array<int, 3>&);
    const std::array<std::pair<Add, Copy>, 3> modes = {
        std::pair<Add, Copy>{&addLocalCopy<D3Q19>, &copyPdfsLocal<D3Q19>},
        {&addLocalCopyAaForward<D3Q19>, &aaCopyPdfsLocalForward<D3Q19>},
        {&addLocalCopyAaReverse<D3Q19>, &aaCopyPdfsLocalReverse<D3Q19>}};
    for (std::size_t m = 0; m < modes.size(); ++m) {
        // Reference: one direction at a time, serially (the periodic wrap of
        // a single block, so every copy reads and writes the same field).
        PdfField ref = fx.start;
        for (const auto& d : neighborhood26) modes[m].second(ref, ref, d);
        EXPECT_FALSE(bytesEqual(ref, fx.start)) << "mode " << m;
        for (const int threads : {0, 1, 4}) {
            PdfField f = fx.start;
            LocalCopyPlan plan;
            for (const auto& d : neighborhood26) modes[m].first(plan, f, f, d);
            if (threads == 0) {
                plan.run();
            } else {
#pragma omp parallel num_threads(threads)
                plan.run();
            }
            EXPECT_TRUE(bytesEqual(f, ref)) << "mode " << m << ", " << threads << " threads";
        }
    }
}

/// 4 x 1 x 1 blocks of 8^3 cells: a cavity with no-slip walls, a UBB lid
/// and a pressure face at x = max, so every link kind runs.
std::uint64_t cavityDigest(sim::KernelTier tier, bool overlap, int ranks, int threads) {
    constexpr cell_idx_t E = 8, NX = 4 * E;
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, real_c(NX), real_c(E), real_c(E));
    cfg.rootBlocksX = 4;
    cfg.rootBlocksY = cfg.rootBlocksZ = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = std::uint32_t(E);
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(std::uint32_t(ranks));
    const auto initFlags = [](field::FlagField& flags, const BoundaryFlags& masks,
                              const bf::BlockForest::Block&, const geometry::CellMapping& m) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 c = m.cellCenter(x, y, z);
            const auto inside = [](real_t v, cell_idx_t n) { return v > 1 && v < real_c(n - 1); };
            if (inside(c[0], NX) && inside(c[1], E) && inside(c[2], E))
                flags.addFlag(x, y, z, masks.fluid);
            else if (c[2] > real_c(E - 1))
                flags.addFlag(x, y, z, masks.ubb);
            else if (c[0] > real_c(NX - 1))
                flags.addFlag(x, y, z, masks.pressure);
            else
                flags.addFlag(x, y, z, masks.noSlip);
        });
    };
    std::uint64_t digest = 0;
    vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& comm) {
        omp_set_num_threads(threads);
        sim::DistributedSimulation simulation(comm, setup, initFlags, tier);
        simulation.setWallVelocity({0.05, 0, 0});
        simulation.setPressureDensity(real_c(0.99));
        simulation.setOverlapCommunication(overlap);
        simulation.run(20, TRT::fromOmegaAndMagic(1.6));
        const std::uint64_t d = simulation.stateDigest();
        if (comm.rank() == 0) digest = d;
    });
    return digest;
}

TEST(OpenMP, DistributedDigestIsTeamAndDecompositionInvariant) {
    using sim::KernelTier;
    for (const auto tier : {KernelTier::Generic, KernelTier::D3Q19, KernelTier::Simd,
                            KernelTier::Aa, KernelTier::AaSimd}) {
        for (const bool overlap : {false, true}) {
            const std::uint64_t ref = cavityDigest(tier, overlap, 4, 1);
            for (const auto& [ranks, threads] : {std::pair{1, 1}, {1, 4}, {2, 2}})
                EXPECT_EQ(cavityDigest(tier, overlap, ranks, threads), ref)
                    << "tier " << int(tier) << (overlap ? " overlap " : " sync ") << ranks
                    << "P" << threads << "T";
        }
    }
}

#else

TEST(OpenMP, CompiledWithoutOpenMP) {
    GTEST_SKIP() << "build has no OpenMP support; threaded-sweep invariance not testable";
}

#endif

} // namespace
} // namespace walb::lbm
