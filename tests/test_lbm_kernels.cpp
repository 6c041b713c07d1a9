/// Kernel equivalence tests: the D3Q19-specialized and SIMD kernels (and the
/// three sparse strategies) must reproduce the generic textbook kernel.
/// This is the correctness backbone behind the paper's Figure 3 claim that
/// all optimization tiers compute the same method.

#include <gtest/gtest.h>

#include <cstring>

#include "core/Random.h"
#include "lbm/Boundary.h"
#include "lbm/KernelAaSimd.h"
#include "lbm/KernelD3Q19.h"
#include "lbm/KernelD3Q19Simd.h"
#include "lbm/KernelGeneric.h"
#include "lbm/Sparse.h"
#include "support/Oracles.h"

namespace walb::lbm {
namespace {

using field::Layout;

/// Fills a PDF field (including ghost layers) with a smooth + noisy state
/// that is positive and near equilibrium, so collisions stay in range.
void fillRandomState(PdfField& f, std::uint64_t seed) {
    Random rng(seed);
    f.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        const Vec3 u(0.02 * std::sin(0.3 * real_c(x)), 0.015 * std::cos(0.2 * real_c(y)),
                     -0.01 * std::sin(0.25 * real_c(z)));
        const real_t rho = real_c(1) + real_c(0.02) * std::sin(0.1 * real_c(x + y + z));
        for (uint_t a = 0; a < D3Q19::Q; ++a)
            f.get(x, y, z, cell_idx_c(a)) =
                equilibrium<D3Q19>(a, rho, u) * (real_c(1) + real_c(0.01) * rng.uniform(-1, 1));
    });
}

void expectFieldsNear(const PdfField& a, const PdfField& b, real_t tol) {
    real_t maxDiff = 0;
    a.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        for (uint_t q = 0; q < D3Q19::Q; ++q)
            maxDiff = std::max(maxDiff, std::abs(a.get(x, y, z, cell_idx_c(q)) -
                                                 b.get(x, y, z, cell_idx_c(q))));
    });
    EXPECT_LE(maxDiff, tol);
}

struct KernelCase {
    real_t omega;
    bool trt;
};

class KernelEquivalence : public ::testing::TestWithParam<KernelCase> {
protected:
    static constexpr cell_idx_t N = 11; // odd, not SIMD-width aligned: tests tails

    template <typename RunRef, typename RunOpt>
    void compare(RunRef&& reference, RunOpt&& optimized, real_t tol) {
        PdfField src = makePdfField<D3Q19>(N, N + 2, N - 2, Layout::fzyx);
        fillRandomState(src, 5);
        PdfField dstRef = makePdfField<D3Q19>(N, N + 2, N - 2, Layout::fzyx);
        PdfField dstOpt = makePdfField<D3Q19>(N, N + 2, N - 2, Layout::fzyx);
        reference(src, dstRef);
        optimized(src, dstOpt);
        expectFieldsNear(dstRef, dstOpt, tol);
    }
};

TEST_P(KernelEquivalence, D3Q19SpecializedMatchesGeneric) {
    const auto p = GetParam();
    compare(
        [&](const PdfField& s, PdfField& d) {
            if (p.trt) streamCollideGeneric<D3Q19>(s, d, TRT::fromOmegaAndMagic(p.omega));
            else streamCollideGeneric<D3Q19>(s, d, SRT(p.omega));
        },
        [&](const PdfField& s, PdfField& d) {
            if (p.trt) streamCollideD3Q19(s, d, TRT::fromOmegaAndMagic(p.omega));
            else streamCollideD3Q19(s, d, SRT(p.omega));
        },
        1e-13);
}

TEST_P(KernelEquivalence, SimdMatchesGeneric) {
    const auto p = GetParam();
    KernelD3Q19Simd<> kernel;
    compare(
        [&](const PdfField& s, PdfField& d) {
            if (p.trt) streamCollideGeneric<D3Q19>(s, d, TRT::fromOmegaAndMagic(p.omega));
            else streamCollideGeneric<D3Q19>(s, d, SRT(p.omega));
        },
        [&](const PdfField& s, PdfField& d) {
            if (p.trt) kernel.sweep(s, d, TRT::fromOmegaAndMagic(p.omega));
            else kernel.sweep(s, d, SRT(p.omega));
        },
        1e-13);
}

TEST_P(KernelEquivalence, ScalarBackendSimdMatchesGeneric) {
    const auto p = GetParam();
    KernelD3Q19Simd<simd::ScalarD> kernel;
    compare(
        [&](const PdfField& s, PdfField& d) {
            if (p.trt) streamCollideGeneric<D3Q19>(s, d, TRT::fromOmegaAndMagic(p.omega));
            else streamCollideGeneric<D3Q19>(s, d, SRT(p.omega));
        },
        [&](const PdfField& s, PdfField& d) {
            if (p.trt) kernel.sweep(s, d, TRT::fromOmegaAndMagic(p.omega));
            else kernel.sweep(s, d, SRT(p.omega));
        },
        1e-13);
}

#if defined(__SSE2__)
TEST_P(KernelEquivalence, SseBackendSimdMatchesGeneric) {
    const auto p = GetParam();
    KernelD3Q19Simd<simd::SseD> kernel;
    compare(
        [&](const PdfField& s, PdfField& d) {
            if (p.trt) streamCollideGeneric<D3Q19>(s, d, TRT::fromOmegaAndMagic(p.omega));
            else streamCollideGeneric<D3Q19>(s, d, SRT(p.omega));
        },
        [&](const PdfField& s, PdfField& d) {
            if (p.trt) kernel.sweep(s, d, TRT::fromOmegaAndMagic(p.omega));
            else kernel.sweep(s, d, SRT(p.omega));
        },
        1e-13);
}

TEST_P(KernelEquivalence, SseBackendMatchesAvxBackend) {
    const auto p = GetParam();
    KernelD3Q19Simd<simd::SseD> sse;
    KernelD3Q19Simd<simd::BestD> best;
    compare(
        [&](const PdfField& s, PdfField& d) {
            if (p.trt) sse.sweep(s, d, TRT::fromOmegaAndMagic(p.omega));
            else sse.sweep(s, d, SRT(p.omega));
        },
        [&](const PdfField& s, PdfField& d) {
            if (p.trt) best.sweep(s, d, TRT::fromOmegaAndMagic(p.omega));
            else best.sweep(s, d, SRT(p.omega));
        },
        1e-14);
}
#endif

/// The AA tier on backend V against the scalar AA kernels (bit-exact with
/// the scalar two-grid tier): an even step, then an odd one, comparing the
/// interior storage after each.
template <typename V>
void expectAaSimdMatchesScalar(const KernelCase& p, cell_idx_t n) {
    PdfField ref = makePdfField<D3Q19>(n, n + 2, n - 2, Layout::fzyx);
    fillRandomState(ref, 5);
    PdfField opt(ref);
    const KernelAaSimd<V> kernel;
    for (const AaParity parity : {AaParity::Even, AaParity::Odd}) {
        if (p.trt) {
            aaStreamCollide(ref, parity, TRT::fromOmegaAndMagic(p.omega));
            kernel.sweep(opt, parity, TRT::fromOmegaAndMagic(p.omega));
        } else {
            aaStreamCollide(ref, parity, SRT(p.omega));
            kernel.sweep(opt, parity, SRT(p.omega));
        }
        expectFieldsNear(ref, opt, 1e-13);
    }
}

TEST_P(KernelEquivalence, AaSimdMatchesAaScalarOnEveryBackend) {
    expectAaSimdMatchesScalar<simd::ScalarD>(GetParam(), N);
#if defined(__SSE2__)
    expectAaSimdMatchesScalar<simd::SseD>(GetParam(), N);
#endif
#if defined(__AVX__)
    expectAaSimdMatchesScalar<simd::AvxD>(GetParam(), N);
#endif
}

TEST_P(KernelEquivalence, GenericKernelWorksOnAoSLayout) {
    const auto p = GetParam();
    PdfField srcSoA = makePdfField<D3Q19>(N, N, N, Layout::fzyx);
    PdfField srcAoS = makePdfField<D3Q19>(N, N, N, Layout::zyxf);
    fillRandomState(srcSoA, 5);
    fillRandomState(srcAoS, 5);
    PdfField dstSoA = makePdfField<D3Q19>(N, N, N, Layout::fzyx);
    PdfField dstAoS = makePdfField<D3Q19>(N, N, N, Layout::zyxf);
    if (p.trt) {
        streamCollideGeneric<D3Q19>(srcSoA, dstSoA, TRT::fromOmegaAndMagic(p.omega));
        streamCollideGeneric<D3Q19>(srcAoS, dstAoS, TRT::fromOmegaAndMagic(p.omega));
    } else {
        streamCollideGeneric<D3Q19>(srcSoA, dstSoA, SRT(p.omega));
        streamCollideGeneric<D3Q19>(srcAoS, dstAoS, SRT(p.omega));
    }
    expectFieldsNear(dstSoA, dstAoS, 0.0); // identical arithmetic => bitwise equal
}

INSTANTIATE_TEST_SUITE_P(Operators, KernelEquivalence,
                         ::testing::Values(KernelCase{0.6, false}, KernelCase{1.2, false},
                                           KernelCase{1.9, false}, KernelCase{0.6, true},
                                           KernelCase{1.2, true}, KernelCase{1.9, true}),
                         [](const auto& tinfo) {
                             return std::string(tinfo.param.trt ? "TRT" : "SRT") + "_omega" +
                                    std::to_string(int(tinfo.param.omega * 10));
                         });

// ---- fused SIMD body: lane grouping ---------------------------------------

template <typename V>
class LaneGrouping : public ::testing::Test {};

#if defined(__AVX__)
using SimdBackends = ::testing::Types<simd::ScalarD, simd::SseD, simd::AvxD>;
#elif defined(__SSE2__)
using SimdBackends = ::testing::Types<simd::ScalarD, simd::SseD>;
#else
using SimdBackends = ::testing::Types<simd::ScalarD>;
#endif
TYPED_TEST_SUITE(LaneGrouping, SimdBackends);

/// Every interior row of f cut into consecutive runs of `len` cells (the
/// last one shorter); len >= xSize gives one run per row.
std::vector<FluidRun> rowRuns(const PdfField& f, cell_idx_t len) {
    std::vector<FluidRun> runs;
    for (cell_idx_t z = 0; z < f.zSize(); ++z)
        for (cell_idx_t y = 0; y < f.ySize(); ++y)
            for (cell_idx_t x = 0; x < f.xSize(); x += len)
                runs.push_back({y, z, x, std::min(x + len, f.xSize()) - 1});
    return runs;
}

bool sameBits(const PdfField& a, const PdfField& b) {
    return std::memcmp(a.data(), b.data(), a.allocCells() * sizeof(real_t)) == 0;
}

/// A row updated as one run equals, bit for bit, the same row updated as
/// sub-runs of every length 1 .. 2 width + 1: a cell's arithmetic does not
/// depend on its lane or on whether its group is masked. Every row spans
/// x = 0 .. N-1, so masked groups border the ghost layer on both sides, and
/// the whole allocation is compared (the AA odd step stores into ghosts).
template <typename V, typename Op>
void expectLaneGroupingInvariance(StepPattern p, const Op& op) {
    constexpr cell_idx_t N = 13;
    PdfField init = makePdfField<D3Q19>(N, 4, 3, Layout::fzyx);
    fillRandomState(init, 11);
    const bool inPlace = p != StepPattern::TwoGrid;
    const auto run = [&](PdfField& src, PdfField& dst, cell_idx_t len) {
        const std::vector<FluidRun> runs = rowRuns(src, len);
        collideRuns<V>(src, inPlace ? src : dst, p, runs.data(), runs.size(), op);
    };
    PdfField wholeSrc(init), wholeDst(init);
    run(wholeSrc, wholeDst, N);
    for (cell_idx_t len = 1; len <= cell_idx_c(2 * V::width + 1); ++len) {
        PdfField src(init), dst(init);
        run(src, dst, len);
        EXPECT_TRUE(sameBits(src, wholeSrc) && sameBits(dst, wholeDst))
            << "pattern " << int(p) << ", sub-runs of " << len << " cells";
    }
}

TYPED_TEST(LaneGrouping, RowEqualsItsSubRunsBitForBit) {
    for (const StepPattern p : {StepPattern::TwoGrid, StepPattern::AaEven, StepPattern::AaOdd}) {
        expectLaneGroupingInvariance<TypeParam>(p, SRT(1.3));
        expectLaneGroupingInvariance<TypeParam>(p, TRT::fromOmegaAndMagic(1.7));
    }
}

// ---- sparse kernels --------------------------------------------------------

class SparseKernels : public ::testing::Test {
protected:
    static constexpr cell_idx_t N = 14;

    void SetUp() override {
        flags_ = std::make_unique<field::FlagField>(N, N, N, 1);
        fluid_ = flags_->registerFlag(kFluidFlag);
        // A sparse pattern: a cylinder-ish tube of fluid through the block,
        // mimicking a vessel crossing a block.
        flags_->forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const real_t dy = real_c(y) - real_c(N) / 2;
            const real_t dz = real_c(z) - real_c(N) / 2;
            if (dy * dy + dz * dz < 16.0 + 3.0 * std::sin(0.7 * real_c(x)))
                flags_->addFlag(x, y, z, fluid_);
        });
    }

    std::unique_ptr<field::FlagField> flags_;
    field::flag_t fluid_ = 0;
};

TEST_F(SparseKernels, RunListCoversExactlyTheFluidCells) {
    const FluidRunList list = buildFluidRuns(*flags_, fluid_);
    EXPECT_EQ(list.fluidCells, flags_->count(fluid_));
    field::FlagField seen(N, N, N, 1);
    const auto mark = seen.registerFlag("seen");
    for (const auto& r : list.runs) {
        EXPECT_LE(r.xBegin, r.xEnd);
        for (cell_idx_t x = r.xBegin; x <= r.xEnd; ++x) {
            EXPECT_TRUE(flags_->isFlagSet(x, r.y, r.z, fluid_));
            EXPECT_FALSE(seen.isFlagSet(x, r.y, r.z, mark)) << "cell covered twice";
            seen.addFlag(x, r.y, r.z, mark);
        }
    }
    EXPECT_EQ(seen.count(mark), list.fluidCells);
}

TEST_F(SparseKernels, RunsAreMaximal) {
    const FluidRunList list = buildFluidRuns(*flags_, fluid_);
    for (const auto& r : list.runs) {
        if (r.xBegin > 0) { EXPECT_FALSE(flags_->isFlagSet(r.xBegin - 1, r.y, r.z, fluid_)); }
        if (r.xEnd < N - 1) { EXPECT_FALSE(flags_->isFlagSet(r.xEnd + 1, r.y, r.z, fluid_)); }
    }
}

TEST_F(SparseKernels, CellListMatchesFlagCount) {
    const auto cells = buildFluidCellList(*flags_, fluid_);
    EXPECT_EQ(cells.size(), flags_->count(fluid_));
}

TEST_F(SparseKernels, AllThreeStrategiesMatchConditionalKernel) {
    PdfField src = makePdfField<D3Q19>(N, N, N, Layout::fzyx);
    fillRandomState(src, 77);
    const TRT op = TRT::fromOmegaAndMagic(1.4);

    PdfField dstCond = makePdfField<D3Q19>(N, N, N, Layout::fzyx);
    streamCollideD3Q19(src, dstCond, op, flags_.get(), fluid_); // strategy 1

    PdfField dstList = makePdfField<D3Q19>(N, N, N, Layout::fzyx);
    streamCollideCellList(src, dstList, buildFluidCellList(*flags_, fluid_), op); // strategy 2

    PdfField dstRuns = makePdfField<D3Q19>(N, N, N, Layout::fzyx);
    const FluidRunList runs = buildFluidRuns(*flags_, fluid_);
    collideRuns(src, dstRuns, StepPattern::TwoGrid, runs.runs.data(), runs.runs.size(),
                op); // strategy 3

    // Compare on fluid cells only (non-fluid cells are untouched garbage).
    flags_->forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (!flags_->isFlagSet(x, y, z, fluid_)) return;
        for (uint_t a = 0; a < D3Q19::Q; ++a) {
            EXPECT_NEAR(dstList.get(x, y, z, cell_idx_c(a)),
                        dstCond.get(x, y, z, cell_idx_c(a)), 1e-15);
            EXPECT_NEAR(dstRuns.get(x, y, z, cell_idx_c(a)),
                        dstCond.get(x, y, z, cell_idx_c(a)), 1e-13);
        }
    });
}

TEST_F(SparseKernels, DenseFlagFieldDegeneratesToDenseKernel) {
    field::FlagField dense(N, N, N, 1);
    const auto fl = dense.registerFlag(kFluidFlag);
    dense.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        dense.addFlag(x, y, z, fl);
    });
    const FluidRunList list = buildFluidRuns(dense, fl);
    EXPECT_EQ(list.runs.size(), std::size_t(N * N)); // one run per line
    EXPECT_EQ(list.fluidCells, uint_c(N * N * N));
}

} // namespace
} // namespace walb::lbm
