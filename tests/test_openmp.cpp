/// Hybrid-parallelism tests: with OpenMP enabled, every phase a rank runs
/// on its team — sweeps, boundary links, same-rank ghost copies, PDF
/// initialization — and the set-up before launch (mesh, octree, forest
/// classification and workload) must produce bitwise-identical results
/// regardless of the team size (each work item writes its own slots and
/// performs identical arithmetic).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "blockforest/ScalingSetup.h"
#include "geometry/CoronaryTree.h"
#include "lbm/KernelD3Q19Simd.h"
#include "lbm/Boundary.h"
#include "lbm/Sparse.h"
#include "sim/DistributedSimulation.h"
#include "support/Oracles.h"
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
    const auto sweep = [&](PdfField& dst) {
        collideRuns(src, dst, StepPattern::TwoGrid, runs.runs.data(), runs.runs.size(), op);
    };

    const int maxThreads = omp_get_max_threads();
    omp_set_num_threads(1);
    PdfField dst1 = makePdfField<D3Q19>(N, N, N);
    sweep(dst1);

    omp_set_num_threads(std::max(4, maxThreads));
    PdfField dst4 = makePdfField<D3Q19>(N, N, N);
    sweep(dst4);
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
/// and a core/shell split in which both partitions hold every kind. With
/// `pressureOnYFace` the y = ny ghost face (core) is a pressure face too,
/// so the fluid cells of the x = nx - 1, y = ny - 1 edge have pressure
/// links in both parts.
struct BoundaryFixture {
    static constexpr cell_idx_t nx = 12, ny = 10, nz = 9;
    field::FlagField flags{nx, ny, nz, 1};
    BoundaryFlags masks = BoundaryFlags::registerOn(flags);
    PdfField start = makePdfField<D3Q19>(nx, ny, nz);

    explicit BoundaryFixture(bool pressureOnYFace = false) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const bool ghost = !flags.interior().contains(Cell{x, y, z});
            const bool obstacle = x >= 4 && x <= 6 && y >= 3 && y <= 5 && z >= 2 && z <= 4;
            if (ghost && z >= nz) flags.addFlag(x, y, z, masks.ubb);
            else if (ghost && (x >= nx || (pressureOnYFace && y >= ny)))
                flags.addFlag(x, y, z, masks.pressure);
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

    static Vec3 wallVelocity(const Cell& c) {
        return Vec3(0.05 + 0.001 * real_c(c.x), 0.002 * real_c(c.y), 0);
    }
    static constexpr real_t rhoWall = 1.01;
    /// The core/shell split of run(): the x ghost faces and the z = nz face.
    static bool isShell(const Cell& c) { return c.x < 0 || c.x >= nx || c.z >= nz; }

    /// Applies `op` to a copy of the start state, called by every thread of
    /// a team of `threads`, or outside any parallel region for threads == 0.
    template <typename Op>
    PdfField run(int threads, Op&& op) const {
        BoundaryHandling<D3Q19> bh(flags, masks);
        bh.setWallVelocityProfile(wallVelocity);
        bh.setPressureDensity(rhoWall);
        bh.partitionForOverlap(isShell);
        EXPECT_GT(bh.numLinks(Region::Core), 0u);
        EXPECT_GT(bh.numLinks(Region::Shell), 0u);
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
    for (const auto pattern : {StepPattern::TwoGrid, StepPattern::AaEven, StepPattern::AaOdd}) {
        const std::string name = pattern == StepPattern::TwoGrid ? "two-grid"
                                 : pattern == StepPattern::AaEven ? "AA even"
                                                                  : "AA odd";
        const auto all = [pattern](const BH& bh, PdfField& f) {
            bh.apply(f, Region::All, pattern);
        };
        const auto coreShell = [pattern](const BH& bh, PdfField& f) {
            bh.apply(f, Region::Core, pattern);
            bh.apply(f, Region::Shell, pattern);
        };
        const PdfField ref = fx.run(0, all);
        EXPECT_FALSE(bytesEqual(ref, fx.start)) << name;
        EXPECT_TRUE(bytesEqual(fx.run(1, all), ref)) << "all, 1 thread, " << name;
        EXPECT_TRUE(bytesEqual(fx.run(4, all), ref)) << "all, 4 threads, " << name;
        EXPECT_TRUE(bytesEqual(fx.run(0, coreShell), ref)) << "core + shell, serial, " << name;
        EXPECT_TRUE(bytesEqual(fx.run(1, coreShell), ref)) << "core + shell, 1 thread, " << name;
        EXPECT_TRUE(bytesEqual(fx.run(4, coreShell), ref)) << "core + shell, 4 threads, " << name;
    }
}

/// The fixture's boundary values for one pattern, written through cell
/// coordinates by the rule of lbm/Boundary.h: per link (xb, d), xf = xb +
/// e_d, the two-grid step writes (xb, d) from (xf, dbar), the even AA step
/// (xf, d) from (xb, dbar) and the odd AA step (xb, dbar) from (xf, d).
/// Every value is read from the start state, since no link reads a slot
/// that a link writes.
PdfField cellAddressedBoundary(const BoundaryFixture& fx, StepPattern pattern) {
    using M = D3Q19;
    const PdfField& in = fx.start;
    PdfField out = fx.start;
    fx.flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        const field::flag_t fl = fx.flags.get(x, y, z);
        if (!(fl & fx.masks.boundaryMask())) return;
        const Cell xb{x, y, z};
        for (uint_t d = 1; d < M::Q; ++d) {
            const Cell xf{x + M::c[d][0], y + M::c[d][1], z + M::c[d][2]};
            if (!fx.flags.interior().contains(xf) || !(fx.flags.get(xf) & fx.masks.fluid))
                continue;
            const cell_idx_t dd = cell_idx_c(d), db = cell_idx_c(M::inv[d]);
            Cell wc = xb, rc = xf;
            cell_idx_t ws = dd, rs = db;
            if (pattern == StepPattern::AaEven) std::swap(wc, rc);
            if (pattern == StepPattern::AaOdd) std::swap(ws, rs);
            const real_t read = in.get(rc, rs);
            real_t& slot = out.get(wc, ws);
            if (fl & fx.masks.noSlip) {
                slot = read;
            } else if (fl & fx.masks.ubb) {
                const Vec3 uw = BoundaryFixture::wallVelocity(xb);
                const real_t eu = real_c(M::c[d][0]) * uw[0] + real_c(M::c[d][1]) * uw[1] +
                                  real_c(M::c[d][2]) * uw[2];
                slot = read + real_c(6) * M::w[d] * real_c(1) * eu;
            } else {
                std::array<real_t, M::Q> pdfs;
                for (uint_t a = 0; a < M::Q; ++a) {
                    const auto& e = M::c[a];
                    pdfs[a] = pattern == StepPattern::TwoGrid
                                  ? in.get(xf, cell_idx_c(a))
                              : pattern == StepPattern::AaEven
                                  ? in.get(xf.x + e[0], xf.y + e[1], xf.z + e[2], cell_idx_c(a))
                                  : in.get(xf, cell_idx_c(M::inv[a]));
                }
                const Vec3 u = momentum<M>(pdfs) / density<M>(pdfs);
                const real_t eu = real_c(M::c[d][0]) * u[0] + real_c(M::c[d][1]) * u[1] +
                                  real_c(M::c[d][2]) * u[2];
                slot = -read + real_c(2) * M::w[d] * BoundaryFixture::rhoWall *
                                   (real_c(1) + real_c(4.5) * eu * eu - real_c(1.5) * u.dot(u));
            }
        }
    });
    return out;
}

/// apply() of every region split and pattern, serially and on a team of 4,
/// is byte-equal to cellAddressedBoundary.
void expectMatchesCellAddressing(const BoundaryFixture& fx) {
    using BH = BoundaryHandling<D3Q19>;
    for (const auto pattern : {StepPattern::TwoGrid, StepPattern::AaEven, StepPattern::AaOdd}) {
        const PdfField ref = cellAddressedBoundary(fx, pattern);
        EXPECT_FALSE(bytesEqual(ref, fx.start)) << int(pattern);
        for (const int threads : {0, 4}) {
            EXPECT_TRUE(bytesEqual(fx.run(threads,
                                          [pattern](const BH& bh, PdfField& f) {
                                              bh.apply(f, Region::All, pattern);
                                          }),
                                   ref))
                << "all, pattern " << int(pattern) << ", " << threads << " threads";
            EXPECT_TRUE(bytesEqual(fx.run(threads,
                                          [pattern](const BH& bh, PdfField& f) {
                                              bh.apply(f, Region::Core, pattern);
                                              bh.apply(f, Region::Shell, pattern);
                                          }),
                                   ref))
                << "core + shell, pattern " << int(pattern) << ", " << threads << " threads";
        }
    }
}

TEST(OpenMP, BoundaryIndexTablesMatchCellAddressing) { expectMatchesCellAddressing(BoundaryFixture()); }

TEST(OpenMP, PressureLinksStraddlingTheCoreShellSplitMatchCellAddressing) {
    const BoundaryFixture fx(/*pressureOnYFace=*/true);
    BoundaryHandling<D3Q19> bh(fx.flags, fx.masks);
    bh.partitionForOverlap(BoundaryFixture::isShell);
    // Fluid cells (flat index) with a pressure link in the core / the shell;
    // within each part, a cell's links are adjacent in list order.
    std::set<cell_idx_t> core, shell;
    cell_idx_t previous = -1;
    for (const auto& l : bh.pressureLinks()) {
        const Cell xf{l.boundary.x + D3Q19::c[l.dir][0], l.boundary.y + D3Q19::c[l.dir][1],
                      l.boundary.z + D3Q19::c[l.dir][2]};
        const cell_idx_t i = (xf.z * BoundaryFixture::ny + xf.y) * BoundaryFixture::nx + xf.x;
        auto& part = BoundaryFixture::isShell(l.boundary) ? shell : core;
        EXPECT_TRUE(i == previous || !part.count(i)) << "links of cell " << xf << " not grouped";
        part.insert(i);
        previous = i;
    }
    std::vector<cell_idx_t> both;
    std::set_intersection(core.begin(), core.end(), shell.begin(), shell.end(),
                          std::back_inserter(both));
    EXPECT_GE(both.size(), 4u) << "no fluid cell has pressure links in both parts";
    expectMatchesCellAddressing(fx);
}

TEST(OpenMP, BoundaryRejectsPdfFieldsItIsNotBoundTo) {
    using F = BoundaryFixture;
    const F fx;
    const BoundaryHandling<D3Q19> bh(fx.flags, fx.masks);
    const std::string bound = "fzyx(SoA) 12x10x9, 1 ghost, Q=19";
    const std::pair<PdfField, std::string> foreign[] = {
        {makePdfField<D3Q19>(F::nx + 1, F::ny, F::nz), "fzyx(SoA) 13x10x9, 1 ghost, Q=19"},
        {makePdfField<D3Q19>(F::nx, F::ny, F::nz, field::Layout::zyxf),
         "zyxf(AoS) 12x10x9, 1 ghost, Q=19"},
        {makePdfField<D3Q19>(F::nx, F::ny, F::nz, field::Layout::fzyx, 2),
         "fzyx(SoA) 12x10x9, 2 ghost, Q=19"}};
    for (const auto& [field, shape] : foreign) {
        PdfField f = field;
        try {
            bh.apply(f, Region::All, StepPattern::AaEven);
            ADD_FAILURE() << shape << ": no error";
        } catch (const BoundaryFieldError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("expected a PDF field " + bound), std::string::npos) << what;
            EXPECT_NE(what.find("got " + shape), std::string::npos) << what;
        }
        EXPECT_TRUE(bytesEqual(f, field)) << shape << ": written before the check";
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
std::uint64_t cavityDigest(walb::KernelTier tier, bool overlap, int ranks, int threads) {
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
    for (const auto tier : {KernelTier::Simd, KernelTier::AaSimd}) {
        const std::uint64_t syncRef = cavityDigest(tier, false, 4, 1);
        for (const bool overlap : {false, true}) {
            const std::uint64_t ref = overlap ? cavityDigest(tier, true, 4, 1) : syncRef;
            EXPECT_EQ(ref, syncRef) << "tier " << int(tier) << " overlap vs sync";
            for (const auto& [ranks, threads] : {std::pair{1, 1}, {1, 4}, {2, 2}})
                EXPECT_EQ(cavityDigest(tier, overlap, ranks, threads), ref)
                    << "tier " << int(tier) << (overlap ? " overlap " : " sync ") << ranks
                    << "P" << threads << "T";
        }
    }
}

/// What the set-up before launch builds for the fig7 tree at the
/// benchmark's smoke size (12^3 blocks, <= 24 blocks, mesh resolution 48).
struct Fig7Setup {
    std::unique_ptr<geometry::DistanceFunction> phi;
    std::unique_ptr<geometry::TriangleMesh> mesh;
    std::unique_ptr<geometry::MeshDistance> dist;
    bf::SetupBlockForest forest;
};

Fig7Setup buildFig7Setup(int threads) {
    const int maxThreads = omp_get_max_threads();
    omp_set_num_threads(threads);
    geometry::CoronaryTreeParams params;
    params.seed = 2013;
    params.rootRadius = 0.04;
    params.minRadius = 0.006;
    params.maxDepth = 11;
    const auto tree = geometry::CoronaryTree::generate(params);
    Fig7Setup s;
    s.phi = tree.implicitDistance();
    s.mesh = std::make_unique<geometry::TriangleMesh>(tree.surfaceMesh(48));
    s.mesh->computeNormals();
    s.dist = std::make_unique<geometry::MeshDistance>(*s.mesh);
    s.forest = bf::findWeakScalingPartition(*s.phi, params.bounds, 12, 24).forest;
    s.forest.assignFluidCellWorkload(*s.phi);
    omp_set_num_threads(maxThreads);
    return s;
}

template <typename T>
bool sameBytes(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool sameBytes(const Vec3& a, const Vec3& b) { return std::memcmp(&a, &b, sizeof(Vec3)) == 0; }

TEST(OpenMP, SetupIsTeamSizeInvariant) {
    const Fig7Setup one = buildFig7Setup(1);
    const Fig7Setup four = buildFig7Setup(std::max(4, omp_get_max_threads()));

    // Mesh: vertices, triangles, colors and every normal, bitwise.
    const geometry::TriangleMesh& m1 = *one.mesh;
    const geometry::TriangleMesh& m4 = *four.mesh;
    ASSERT_GT(m1.numTriangles(), 1000u);
    EXPECT_TRUE(sameBytes(m1.vertices(), m4.vertices()));
    EXPECT_TRUE(sameBytes(m1.triangles(), m4.triangles()));
    EXPECT_TRUE(sameBytes(m1.colors(), m4.colors()));
    ASSERT_EQ(m1.numTriangles(), m4.numTriangles());
    for (std::size_t t = 0; t < m1.numTriangles(); ++t) {
        EXPECT_TRUE(sameBytes(m1.faceNormal(t), m4.faceNormal(t))) << "triangle " << t;
        for (unsigned e = 0; e < 3; ++e)
            EXPECT_TRUE(sameBytes(m1.edgeNormal(t, e), m4.edgeNormal(t, e)))
                << "triangle " << t << " edge " << e;
    }
    for (std::size_t v = 0; v < m1.numVertices(); ++v)
        EXPECT_TRUE(sameBytes(m1.vertexNormal(v), m4.vertexNormal(v))) << "vertex " << v;

    // Forest: every block's id, counts and coverage.
    const auto& b1 = one.forest.blocks();
    const auto& b4 = four.forest.blocks();
    ASSERT_EQ(b1.size(), b4.size());
    ASSERT_GT(b1.size(), 0u);
    for (std::size_t i = 0; i < b1.size(); ++i) {
        EXPECT_EQ(b1[i].id, b4[i].id) << "block " << i;
        EXPECT_EQ(b1[i].workload, b4[i].workload) << "block " << i;
        EXPECT_EQ(b1[i].fluidRuns, b4[i].fluidRuns) << "block " << i;
        EXPECT_EQ(b1[i].fluidLinks, b4[i].fluidLinks) << "block " << i;
        EXPECT_EQ(b1[i].fullyInside, b4[i].fullyInside) << "block " << i;
    }

    // Octree: node count, and the closest triangle of every hull-cell center.
    EXPECT_EQ(one.dist->octree().numNodes(), four.dist->octree().numNodes());
    std::size_t hullCells = 0;
    for (const bf::SetupBlock& b : b1) {
        field::FlagField flags(12, 12, 12, 1);
        const auto masks = BoundaryFlags::registerOn(flags);
        const field::flag_t hull = flags.registerFlag("hull");
        const geometry::CellMapping mapping{b.aabb, one.forest.config().dx()};
        geometry::voxelize(*one.phi, flags, mapping, masks.fluid);
        markBoundaryHull<D3Q19>(flags, masks.fluid, 0, hull);
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            if (!flags.isFlagSet(x, y, z, hull)) return;
            ++hullCells;
            const Vec3 p = mapping.cellCenter(x, y, z);
            EXPECT_EQ(one.dist->closestTriangle(p).triangle,
                      four.dist->closestTriangle(p).triangle);
        });
    }
    EXPECT_GT(hullCells, 1000u);
}

#else

TEST(OpenMP, CompiledWithoutOpenMP) {
    GTEST_SKIP() << "build has no OpenMP support; threaded-sweep invariance not testable";
}

#endif

} // namespace
} // namespace walb::lbm
