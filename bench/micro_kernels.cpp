/// Micro-benchmarks (google-benchmark) for the design-choice ablations
/// called out in DESIGN.md:
///   * AoS vs SoA field layout under the generic kernel,
///   * by-cell (tier 2) vs by-direction split-loop SIMD (tier 3) update,
///   * SIMD backend width (scalar / SSE2 / AVX2),
///   * sparse strategies: conditional vs cell-list vs line-interval,
///   * full vs direction-sliced ghost-layer packing,
///   * triangle octree vs brute-force closest-triangle queries,
///   * union-BVH queries and isosurface extraction on the coronary tree,
///   * graph partitioner throughput,
///   * slice-by-16 vs byte-wise CRC-32, the block-record codec and the
///     one-writer checkpoint save (dense and sparse),
///   * boundary links and same-rank ghost copies at team sizes 1 and 4,
///   * the fluid-aware exchange plan: its build cost and its sparse copies.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "blockforest/SetupBlockForest.h"
#include "core/Crc32.h"
#include "core/Random.h"
#include "core/Timer.h"
#include "geometry/CoronaryTree.h"
#include "geometry/Primitives.h"
#include "lbm/Boundary.h"
#include "geometry/SignedDistance.h"
#include "lbm/Communication.h"
#include "lbm/KernelAa.h"
#include "lbm/KernelAaSimd.h"
#include "lbm/KernelD3Q19Simd.h"
#include "lbm/KernelGeneric.h"
#include "lbm/Sparse.h"
#include "perf/Machine.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "partition/Partitioner.h"
#include "sim/Checkpoint.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/BufferSystem.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace {

using namespace walb;
using namespace walb::lbm;

constexpr cell_idx_t kN = 48;

PdfField makeField(field::Layout layout) {
    PdfField f(kN, kN, kN, D3Q19::Q, layout, real_c(0), 1);
    initEquilibrium<D3Q19>(f, 1.0, {0.01, 0.005, -0.01});
    return f;
}

void BM_GenericKernel_SoA(benchmark::State& state) {
    PdfField src = makeField(field::Layout::fzyx), dst = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    for (auto _ : state) {
        streamCollideGeneric<D3Q19>(src, dst, op);
        src.swapDataWith(dst);
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
}
BENCHMARK(BM_GenericKernel_SoA)->Unit(benchmark::kMillisecond);

void BM_GenericKernel_AoS(benchmark::State& state) {
    PdfField src = makeField(field::Layout::zyxf), dst = makeField(field::Layout::zyxf);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    for (auto _ : state) {
        streamCollideGeneric<D3Q19>(src, dst, op);
        src.swapDataWith(dst);
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
}
BENCHMARK(BM_GenericKernel_AoS)->Unit(benchmark::kMillisecond);

void BM_D3Q19Kernel_ByCell(benchmark::State& state) {
    PdfField src = makeField(field::Layout::fzyx), dst = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    for (auto _ : state) {
        streamCollideD3Q19(src, dst, op);
        src.swapDataWith(dst);
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
}
BENCHMARK(BM_D3Q19Kernel_ByCell)->Unit(benchmark::kMillisecond);

template <typename V>
void BM_SimdKernel(benchmark::State& state) {
    PdfField src = makeField(field::Layout::fzyx), dst = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    KernelD3Q19Simd<V> kernel;
    for (auto _ : state) {
        kernel.sweep(src, dst, op);
        src.swapDataWith(dst);
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
}
BENCHMARK(BM_SimdKernel<simd::ScalarD>)->Unit(benchmark::kMillisecond);
#if defined(__SSE2__)
BENCHMARK(BM_SimdKernel<simd::SseD>)->Unit(benchmark::kMillisecond);
#endif
#if defined(__AVX__)
BENCHMARK(BM_SimdKernel<simd::AvxD>)->Unit(benchmark::kMillisecond);
#endif

// ---- AA-pattern in-place streaming (tiers 4/5) -------------------------------
// One grid instead of two: the model traffic drops from 456 B/cell
// (19 reads + 19 writes + 19 write-allocate lines on the shadow grid) to
// 304 B/cell, and there is no swap. The even and odd kernels touch different
// address patterns, so both halves are measured separately as well as the
// alternating pair that makes up one full cycle. `bytes_per_cell` reports
// the model traffic so runs can be compared against the 2/3 expectation.

void BM_AaKernel_EvenScalar(benchmark::State& state) {
    PdfField f = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    for (auto _ : state) aaStreamCollide(f, AaParity::Even, op);
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
    state.counters["bytes_per_cell"] = perf::kAaBytesPerLUP;
}
BENCHMARK(BM_AaKernel_EvenScalar)->Unit(benchmark::kMillisecond);

void BM_AaKernel_OddScalar(benchmark::State& state) {
    PdfField f = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    for (auto _ : state) aaStreamCollide(f, AaParity::Odd, op);
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
    state.counters["bytes_per_cell"] = perf::kAaBytesPerLUP;
}
BENCHMARK(BM_AaKernel_OddScalar)->Unit(benchmark::kMillisecond);

void BM_AaKernel_AlternatingScalar(benchmark::State& state) {
    PdfField f = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    std::uint64_t step = 0;
    for (auto _ : state) aaStreamCollide(f, aaParityOfStep(step++), op);
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
    state.counters["bytes_per_cell"] = perf::kAaBytesPerLUP;
}
BENCHMARK(BM_AaKernel_AlternatingScalar)->Unit(benchmark::kMillisecond);

template <typename V>
void BM_AaSimdKernel(benchmark::State& state) {
    PdfField f = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    KernelAaSimd<V> kernel;
    std::uint64_t step = 0;
    for (auto _ : state) kernel.sweep(f, aaParityOfStep(step++), op);
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
    state.counters["bytes_per_cell"] = perf::kAaBytesPerLUP;
}
BENCHMARK(BM_AaSimdKernel<simd::ScalarD>)->Unit(benchmark::kMillisecond);
#if defined(__SSE2__)
BENCHMARK(BM_AaSimdKernel<simd::SseD>)->Unit(benchmark::kMillisecond);
#endif
#if defined(__AVX__)
BENCHMARK(BM_AaSimdKernel<simd::AvxD>)->Unit(benchmark::kMillisecond);
#endif

template <typename V>
void BM_AaSimdKernel_Even(benchmark::State& state) {
    PdfField f = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    KernelAaSimd<V> kernel;
    for (auto _ : state) kernel.sweep(f, AaParity::Even, op);
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
    state.counters["bytes_per_cell"] = perf::kAaBytesPerLUP;
}
BENCHMARK(BM_AaSimdKernel_Even<simd::BestD>)->Unit(benchmark::kMillisecond);

template <typename V>
void BM_AaSimdKernel_Odd(benchmark::State& state) {
    PdfField f = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    KernelAaSimd<V> kernel;
    for (auto _ : state) kernel.sweep(f, AaParity::Odd, op);
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
    state.counters["bytes_per_cell"] = perf::kAaBytesPerLUP;
}
BENCHMARK(BM_AaSimdKernel_Odd<simd::BestD>)->Unit(benchmark::kMillisecond);

// ---- observability overhead --------------------------------------------------
// The per-step instrumentation of the simulation drivers is one TimingPool
// ScopedTimer + one ScopedTrace per phase plus a few counter increments.
// Comparing this pair quantifies the overhead against the bare SIMD sweep
// (acceptance bar: < 5% per step).

void BM_Sweep_Uninstrumented(benchmark::State& state) {
    PdfField src = makeField(field::Layout::fzyx), dst = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    KernelD3Q19Simd<> kernel;
    for (auto _ : state) {
        kernel.sweep(src, dst, op);
        src.swapDataWith(dst);
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
}
BENCHMARK(BM_Sweep_Uninstrumented)->Unit(benchmark::kMillisecond);

void BM_Sweep_ObsInstrumented(benchmark::State& state) {
    PdfField src = makeField(field::Layout::fzyx), dst = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    KernelD3Q19Simd<> kernel;
    TimingPool timing;
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace(0, /*maxEvents=*/std::size_t(1) << 16);
    obs::Counter& steps = metrics.counter("sim.steps");
    obs::Counter& bytes = metrics.counter("comm.bytesSent");
    for (auto _ : state) {
        {
            ScopedTimer t(timing["collideStream"]);
            obs::ScopedTrace tr(trace, "collideStream");
            kernel.sweep(src, dst, op);
        }
        src.swapDataWith(dst);
        steps.inc();
        bytes.inc(456);
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
    state.counters["trace_events"] = double(trace.events().size() + trace.dropped());
}
BENCHMARK(BM_Sweep_ObsInstrumented)->Unit(benchmark::kMillisecond);

// ---- sparse strategies (tube through the block, ~25% fluid) -----------------

struct SparseFixture {
    SparseFixture() : flags(kN, kN, kN, 1) {
        fluid = flags.registerFlag(lbm::kFluidFlag);
        flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const real_t dy = real_c(y) - real_c(kN) / 2;
            const real_t dz = real_c(z) - real_c(kN) / 2;
            (void)x;
            if (dy * dy + dz * dz < real_c(kN * kN) / 16) flags.addFlag(x, y, z, fluid);
        });
    }
    field::FlagField flags;
    field::flag_t fluid;
};

void BM_Sparse_Conditional(benchmark::State& state) {
    SparseFixture fx;
    PdfField src = makeField(field::Layout::fzyx), dst = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    for (auto _ : state) {
        streamCollideD3Q19(src, dst, op, &fx.flags, fx.fluid);
        src.swapDataWith(dst);
    }
    state.SetItemsProcessed(state.iterations() * fx.flags.count(fx.fluid));
}
BENCHMARK(BM_Sparse_Conditional)->Unit(benchmark::kMillisecond);

void BM_Sparse_CellList(benchmark::State& state) {
    SparseFixture fx;
    PdfField src = makeField(field::Layout::fzyx), dst = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    const auto cells = buildFluidCellList(fx.flags, fx.fluid);
    for (auto _ : state) {
        streamCollideCellList(src, dst, cells, op);
        src.swapDataWith(dst);
    }
    state.SetItemsProcessed(state.iterations() * cells.size());
}
BENCHMARK(BM_Sparse_CellList)->Unit(benchmark::kMillisecond);

void BM_Sparse_LineIntervals(benchmark::State& state) {
    SparseFixture fx;
    PdfField src = makeField(field::Layout::fzyx), dst = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    const auto runs = buildFluidRuns(fx.flags, fx.fluid);
    KernelD3Q19Simd<> kernel;
    for (auto _ : state) {
        streamCollideIntervals(src, dst, runs, op, kernel);
        src.swapDataWith(dst);
    }
    state.SetItemsProcessed(state.iterations() * runs.fluidCells);
}
BENCHMARK(BM_Sparse_LineIntervals)->Unit(benchmark::kMillisecond);

// The in-place analogue of BM_Sparse_LineIntervals: the AA SIMD kernel over
// the same line-interval list, alternating even/odd each iteration.
void BM_AaSparse_LineIntervals(benchmark::State& state) {
    SparseFixture fx;
    PdfField f = makeField(field::Layout::fzyx);
    const TRT op = TRT::fromOmegaAndMagic(1.4);
    const auto runs = buildFluidRuns(fx.flags, fx.fluid);
    KernelAaSimd<> kernel;
    std::uint64_t step = 0;
    for (auto _ : state) aaCollideIntervals(f, aaParityOfStep(step++), runs, op, kernel);
    state.SetItemsProcessed(state.iterations() * runs.fluidCells);
    state.counters["bytes_per_cell"] = perf::kAaBytesPerLUP;
}
BENCHMARK(BM_AaSparse_LineIntervals)->Unit(benchmark::kMillisecond);

// ---- ghost packing -----------------------------------------------------------

void BM_Pack_DirectionSliced(benchmark::State& state) {
    PdfField f = makeField(field::Layout::fzyx);
    for (auto _ : state) {
        std::size_t bytes = 0;
        for (const auto& d : neighborhood26) {
            SendBuffer buf;
            packPdfs<D3Q19>(f, d, buf, false);
            bytes += buf.size();
        }
        benchmark::DoNotOptimize(bytes);
    }
}
BENCHMARK(BM_Pack_DirectionSliced)->Unit(benchmark::kMillisecond);

void BM_Pack_FullPdfSet(benchmark::State& state) {
    PdfField f = makeField(field::Layout::fzyx);
    for (auto _ : state) {
        std::size_t bytes = 0;
        for (const auto& d : neighborhood26) {
            SendBuffer buf;
            packPdfs<D3Q19>(f, d, buf, true);
            bytes += buf.size();
        }
        benchmark::DoNotOptimize(bytes);
    }
}
BENCHMARK(BM_Pack_FullPdfSet)->Unit(benchmark::kMillisecond);

// ---- per-rank phases on the OpenMP team -------------------------------------
// Boundary links and same-rank ghost copies are orphaned worksharing loops
// that the distributed driver runs on the rank's team; Arg = team size, so
// the 1 -> 4 ratio is each phase's team speed-up in isolation.

/// One 128^3 cavity block: fluid interior, no-slip ghost layer except the
/// UBB lid on top (about 490k links).
void BM_BoundaryApply(benchmark::State& state) {
    constexpr cell_idx_t N = 128;
    field::FlagField flags(N, N, N, 1);
    const BoundaryFlags masks = BoundaryFlags::registerOn(flags);
    flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (flags.interior().contains(Cell{x, y, z})) flags.addFlag(x, y, z, masks.fluid);
        else flags.addFlag(x, y, z, z >= N ? masks.ubb : masks.noSlip);
    });
    BoundaryHandling<D3Q19> bh(flags, masks);
    bh.setWallVelocity({0.05, 0, 0});
    PdfField f = makePdfField<D3Q19>(N, N, N, 1.0, {0.01, 0, 0});
    const int threads = int(state.range(0));
    for (auto _ : state) {
#pragma omp parallel num_threads(threads)
        bh.apply(f);
        benchmark::DoNotOptimize(f.data());
        benchmark::ClobberMemory();
    }
    state.counters["threads"] = threads;
    state.SetItemsProcessed(state.iterations() * std::int64_t(bh.numLinks()));
}
BENCHMARK(BM_BoundaryApply)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The ghost fill across one x-face between two 128^3 blocks: 5 slots x 128
/// z-planes, each one run of 128 strided 8-byte elements.
void BM_LocalGhostCopyXFace(benchmark::State& state) {
    constexpr cell_idx_t N = 128;
    const PdfField from = makePdfField<D3Q19>(N, N, N, 1.0, {0.01, 0, 0});
    PdfField to = makePdfField<D3Q19>(N, N, N, 1.0, {0, 0, 0});
    LocalCopyPlan plan;
    addLocalCopy<D3Q19>(plan, from, to, {-1, 0, 0});
    const int threads = int(state.range(0));
    for (auto _ : state) {
#pragma omp parallel num_threads(threads)
        plan.run();
        benchmark::DoNotOptimize(to.data());
        benchmark::ClobberMemory();
    }
    state.counters["threads"] = threads;
    state.SetBytesProcessed(state.iterations() * std::int64_t(plan.numSlots()) *
                            std::int64_t(sizeof(real_t)));
}
BENCHMARK(BM_LocalGhostCopyXFace)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

/// One 32^3 block of a coronary run: a vessel-like tube (radius 5 cells)
/// crosses it diagonally, so it meets faces and edges; ~8% of the cells are
/// fluid.
struct TubeBlock {
    static constexpr cell_idx_t N = 32;
    field::FlagField flags{N, N, N, 1};
    BoundaryFlags masks = BoundaryFlags::registerOn(flags);
    PdfField from = makePdfField<D3Q19>(N, N, N, 1.0, {0.01, 0, 0});
    PdfField to = makePdfField<D3Q19>(N, N, N, 1.0, {0, 0, 0});

    TubeBlock() {
        const Vec3 p0{0, 6, 4}, axis = Vec3{1, 0.6, 0.8} / std::sqrt(real_c(2));
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 r = Vec3{real_c(x), real_c(y), real_c(z)} - p0;
            const Vec3 radial = r - axis * r.dot(axis);
            if (radial.dot(radial) < real_c(25)) flags.addFlag(x, y, z, masks.fluid);
        });
    }
    /// The block's receive mask toward neighbor direction d.
    ReceiveMask mask(const std::array<int, 3>& d) const {
        return ReceiveMask::fromCells(
            flags, d, [&](const Cell& c) { return (flags.get(c) & masks.fluid) != 0; });
    }
};

/// The per-block plan cost every job pays once per block assignment: for
/// each of the 26 neighbors, the block's receive mask plus the two-grid
/// pack and unpack runs of that link.
void BM_ExchangePlanBuild(benchmark::State& state) {
    const TubeBlock block;
    std::vector<StridedRun> runs;
    std::size_t slots = 0;
    for (auto _ : state) {
        runs.clear();
        slots = 0;
        for (const auto& d : neighborhood26) {
            const ReceiveMask m = block.mask(d);
            slots += planExchangeRuns<D3Q19>(ExchangeMode::TwoGrid, block.from, block.to, d, m,
                                             RunEnds::Unpack, runs);
            slots += planExchangeRuns<D3Q19>(ExchangeMode::TwoGrid, block.from, block.to, d, m,
                                             RunEnds::Pack, runs);
        }
        benchmark::DoNotOptimize(runs.data());
    }
    state.counters["runs"] = double(runs.size());
    state.counters["slots"] = double(slots);
}
BENCHMARK(BM_ExchangePlanBuild)->Unit(benchmark::kMicrosecond);

/// Same-rank ghost fill of the tube block from all 26 neighbors, limited to
/// the slots its fluid cells read.
void BM_LocalGhostCopySparse(benchmark::State& state) {
    TubeBlock block;
    LocalCopyPlan plan;
    std::vector<StridedRun> runs;
    for (const auto& d : neighborhood26) {
        runs.clear();
        planExchangeRuns<D3Q19>(ExchangeMode::TwoGrid, block.from, block.to, d, block.mask(d),
                                RunEnds::Copy, runs);
        plan.add(block.from, block.to, runs);
    }
    const int threads = int(state.range(0));
    for (auto _ : state) {
#pragma omp parallel num_threads(threads)
        plan.run();
        benchmark::DoNotOptimize(block.to.data());
        benchmark::ClobberMemory();
    }
    state.counters["threads"] = threads;
    state.counters["runs"] = double(plan.numRuns());
    state.SetBytesProcessed(state.iterations() * std::int64_t(plan.numSlots()) *
                            std::int64_t(sizeof(real_t)));
}
BENCHMARK(BM_LocalGhostCopySparse)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond)->UseRealTime();

// ---- fluid-run construction and the core/shell split ------------------------

void BM_BuildFluidRuns_RowPointer(benchmark::State& state) {
    SparseFixture fx;
    for (auto _ : state) {
        const auto runs = buildFluidRuns(fx.flags, fx.fluid);
        benchmark::DoNotOptimize(runs.fluidCells);
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
}
BENCHMARK(BM_BuildFluidRuns_RowPointer)->Unit(benchmark::kMillisecond);

void BM_BuildFluidRuns_Naive(benchmark::State& state) {
    SparseFixture fx;
    for (auto _ : state) {
        const auto runs = buildFluidRunsNaive(fx.flags, fx.fluid);
        benchmark::DoNotOptimize(runs.fluidCells);
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN);
}
BENCHMARK(BM_BuildFluidRuns_Naive)->Unit(benchmark::kMillisecond);

void BM_SplitFluidRuns_CoreShell(benchmark::State& state) {
    SparseFixture fx;
    const auto runs = buildFluidRuns(fx.flags, fx.fluid);
    // Realistic mask: every ghost region with an x component is backed by a
    // remote neighbor (a block in the middle of an x-pencil decomposition).
    std::array<bool, 26> remote{};
    for (std::size_t i = 0; i < 26; ++i)
        if (neighborhood26[i][0] != 0) remote[i] = true;
    for (auto _ : state) {
        const auto split = splitFluidRuns<D3Q19>(runs, kN, kN, kN, remote);
        benchmark::DoNotOptimize(split.core.fluidCells + split.shell.fluidCells);
    }
    state.SetItemsProcessed(state.iterations() * runs.fluidCells);
}
BENCHMARK(BM_SplitFluidRuns_CoreShell)->Unit(benchmark::kMillisecond);

// ---- buffer recycling --------------------------------------------------------

/// Steady-state neighbor exchange through the BufferSystem on a single-rank
/// comm. After a warmup exchange has sized the send buffer, repacking the
/// same payload every step must recycle the drained receive storage and
/// perform **zero** further send-buffer allocations — the acceptance bar of
/// the buffer-recycling work, enforced here via sendBufferAllocations().
void BM_BufferSystem_SteadyState(benchmark::State& state) {
    vmpi::SerialComm comm;
    vmpi::BufferSystem bs(comm, /*tag=*/9);
    bs.setReceiverInfo({0});
    const std::vector<std::uint8_t> payload(64 * 1024, 0xab);
    auto oneExchange = [&] {
        bs.sendBuffer(0).putBytes(payload.data(), payload.size());
        bs.beginExchange();
        bs.finishExchange([](int, RecvBuffer& buf) { buf.skip(buf.remaining()); });
    };
    oneExchange(); // sizes the buffer; all later rounds reuse its storage
    const std::uint64_t allocsAfterWarmup = bs.sendBufferAllocations();
    for (auto _ : state) {
        oneExchange();
        benchmark::DoNotOptimize(bs.cumulativeRecvBytes());
    }
    if (bs.sendBufferAllocations() != allocsAfterWarmup)
        state.SkipWithError("steady-state exchange allocated send-buffer storage");
    state.SetBytesProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(payload.size()));
}
BENCHMARK(BM_BufferSystem_SteadyState)->Unit(benchmark::kMicrosecond);

// ---- geometry ----------------------------------------------------------------

void BM_ClosestTriangle_Octree(benchmark::State& state) {
    geometry::TriangleMesh mesh = geometry::makeSphereMesh({0, 0, 0}, 1.0, 64, 32);
    geometry::TriangleOctree octree(mesh);
    Random rng(5);
    for (auto _ : state) {
        const Vec3 p(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2));
        benchmark::DoNotOptimize(octree.closestTriangle(p).sqrDistance);
    }
}
BENCHMARK(BM_ClosestTriangle_Octree);

void BM_ClosestTriangle_BruteForce(benchmark::State& state) {
    geometry::TriangleMesh mesh = geometry::makeSphereMesh({0, 0, 0}, 1.0, 64, 32);
    Random rng(5);
    for (auto _ : state) {
        const Vec3 p(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2));
        real_t best = 1e300;
        for (std::size_t t = 0; t < mesh.numTriangles(); ++t)
            best = std::min(best, geometry::closestPointOnTriangle(
                                      p, mesh.triangleVertex(t, 0), mesh.triangleVertex(t, 1),
                                      mesh.triangleVertex(t, 2))
                                      .sqrDistance);
        benchmark::DoNotOptimize(best);
    }
}
BENCHMARK(BM_ClosestTriangle_BruteForce);

/// The fig7 coronary tree (403 segments), as the vascular benchmarks build it.
geometry::CoronaryTree fig7Tree() {
    geometry::CoronaryTreeParams params;
    params.seed = 2013;
    params.bounds = AABB(0, 0, 0, 1, 1, 1);
    params.rootRadius = 0.04;
    params.minRadius = 0.006;
    params.maxDepth = 11;
    return geometry::CoronaryTree::generate(params);
}

/// One union query per iteration on the fig7 tree: arg 0 cycles through
/// the tube midpoints (inside a vessel), arg 1 through random points of the
/// bounding box outside every vessel.
void BM_UnionDistanceQuery(benchmark::State& state) {
    const geometry::CoronaryTree tree = fig7Tree();
    const auto phi = tree.implicitDistance();
    std::vector<Vec3> points;
    if (state.range(0) == 0) {
        for (const auto& s : tree.segments()) {
            const auto [a, b] = geometry::tubeEndpoints(s);
            points.push_back((a + b) * real_c(0.5));
        }
    } else {
        Random rng(5);
        while (points.size() < 4096) {
            const Vec3 p(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1));
            if (phi->signedDistance(p) >= 0) points.push_back(p);
        }
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(phi->signedDistance(points[i]));
        i = (i + 1) % points.size();
    }
    state.SetLabel(state.range(0) == 0 ? "inside" : "outside");
}
BENCHMARK(BM_UnionDistanceQuery)->Arg(0)->Arg(1);

/// The colored watertight surface of the fig7 tree at the given grid
/// resolution (96 is the vascular benchmark's).
void BM_SurfaceMesh(benchmark::State& state) {
    const geometry::CoronaryTree tree = fig7Tree();
    std::size_t triangles = 0;
    for (auto _ : state) triangles = tree.surfaceMesh(unsigned(state.range(0))).numTriangles();
    state.counters["triangles"] = double(triangles);
}
BENCHMARK(BM_SurfaceMesh)->Arg(48)->Arg(96)->Unit(benchmark::kMillisecond);

// ---- partitioner ---------------------------------------------------------------

void BM_GraphPartition(benchmark::State& state) {
    const auto n = std::uint32_t(state.range(0));
    partition::Graph g(std::size_t(n) * n * n);
    auto id = [&](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
        return (z * n + y) * n + x;
    };
    for (std::uint32_t z = 0; z < n; ++z)
        for (std::uint32_t y = 0; y < n; ++y)
            for (std::uint32_t x = 0; x < n; ++x) {
                if (x + 1 < n) g.addEdge(id(x, y, z), id(x + 1, y, z));
                if (y + 1 < n) g.addEdge(id(x, y, z), id(x, y + 1, z));
                if (z + 1 < n) g.addEdge(id(x, y, z), id(x, y, z + 1));
            }
    g.finalize();
    partition::PartitionOptions opt;
    opt.numParts = 16;
    for (auto _ : state) benchmark::DoNotOptimize(partition::partitionGraph(g, opt).cutWeight);
    state.SetItemsProcessed(state.iterations() * g.numVertices());
}
BENCHMARK(BM_GraphPartition)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// ---- checkpoint I/O ------------------------------------------------------------

/// CRC-32 throughput over an in-cache (1 KB) and a memory-bound (64 MB)
/// buffer: the slice-by-16 implementation against the byte-wise reference.
template <bool kSliceBy16>
void BM_Crc32(benchmark::State& state) {
    std::vector<std::uint8_t> data(std::size_t(state.range(0)));
    Random rng(13);
    for (auto& b : data) b = std::uint8_t(rng.uniformInt(256));
    for (auto _ : state)
        benchmark::DoNotOptimize(kSliceBy16 ? crc32(data.data(), data.size())
                                            : crc32Bytewise(data.data(), data.size()));
    state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(data.size()));
}
BENCHMARK(BM_Crc32<true>)->Arg(1 << 10)->Arg(64 << 20);
BENCHMARK(BM_Crc32<false>)->Arg(1 << 10)->Arg(64 << 20)->Unit(benchmark::kMillisecond);

/// Flags of the fig7-like tube block (TubeBlock's vessel) for a
/// DistributedSimulation block: the tube is fluid, its stencil hull
/// no-slip, everything else outside the flow.
void tubeFlags(field::FlagField& flags, const BoundaryFlags& masks, const bf::BlockForest::Block&,
               const geometry::CellMapping&) {
    const Vec3 p0{0, 6, 4}, axis = Vec3{1, 0.6, 0.8} / std::sqrt(real_c(2));
    flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        const Vec3 r = Vec3{real_c(x), real_c(y), real_c(z)} - p0;
        const Vec3 radial = r - axis * r.dot(axis);
        if (radial.dot(radial) < real_c(25)) flags.addFlag(x, y, z, masks.fluid);
    });
    markBoundaryHull<D3Q19>(flags, masks.fluid, 0, masks.noSlip);
}

void allFluidFlags(field::FlagField& flags, const BoundaryFlags& masks,
                   const bf::BlockForest::Block&, const geometry::CellMapping&) {
    flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        flags.addFlag(x, y, z, masks.fluid);
    });
}

/// `ranks` x 1 x 1 blocks of 32^3 cells, one per rank.
bf::SetupBlockForest rowOf32Blocks(std::uint32_t ranks) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 32.0 * ranks, 32, 32);
    cfg.rootBlocksX = ranks;
    cfg.rootBlocksY = cfg.rootBlocksZ = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 32;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    return setup;
}

/// One block record of the tube block, encoded (appendBlockRecord) after a
/// few steps moved its state: the codec cost per checkpoint, buddy refresh
/// and migrated block.
void BM_BlockRecordEncode(benchmark::State& state) {
    const auto setup = rowOf32Blocks(1);
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, tubeFlags);
    simulation.setWallVelocity({0.02, 0, 0});
    simulation.run(4, TRT::fromOmegaAndMagic(1.6));
    SendBuffer buf;
    buf.reserve(sim::blockRecordBytes(simulation, 0));
    for (auto _ : state) {
        buf.clear();
        sim::appendBlockRecord(simulation, 0, buf);
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
    }
    state.counters["record_bytes"] = double(buf.size());
    state.counters["bytes_per_fluid_cell"] =
        double(buf.size()) / double(simulation.localFluidCells());
    state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(buf.size()));
}
BENCHMARK(BM_BlockRecordEncode)->Unit(benchmark::kMicrosecond);

/// The matching verify + restore (applyBlockRecord) of that record.
void BM_BlockRecordDecode(benchmark::State& state) {
    const auto setup = rowOf32Blocks(1);
    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, tubeFlags);
    simulation.setWallVelocity({0.02, 0, 0});
    simulation.run(4, TRT::fromOmegaAndMagic(1.6));
    SendBuffer buf;
    sim::appendBlockRecord(simulation, 0, buf);
    for (auto _ : state) {
        RecvBuffer rb{std::span<const std::uint8_t>(buf.data(), buf.size())};
        if (sim::applyBlockRecord(simulation, rb) != 1) state.SkipWithError("record rejected");
        benchmark::DoNotOptimize(simulation.pdfField(0).data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(buf.size()));
}
BENCHMARK(BM_BlockRecordDecode)->Unit(benchmark::kMicrosecond);

/// One collective checkpoint save of 4 ThreadComm ranks x one 32^3 block:
/// exact-size contribution, gather to rank 0, streamed write and rename.
/// Timed on rank 0 from a barrier to the broadcast outcome. Arg 0: every
/// cell fluid (dense); arg 1: the tube block (sparse, ~8% fluid). Both
/// report the file's bytes per fluid cell.
void BM_CheckpointSave(benchmark::State& state) {
    constexpr std::uint32_t kRanks = 4;
    const auto setup = rowOf32Blocks(kRanks);
    const sim::DistributedSimulation::FlagInitializer flags =
        state.range(0) == 0 ? allFluidFlags : tubeFlags;
    const std::string path =
        (std::filesystem::temp_directory_path() / "walb_bm_checkpoint.wckp").string();
    std::size_t fileBytes = 0;
    double fluidCells = 0;
    for (auto _ : state) {
        double seconds = 0;
        vmpi::ThreadCommWorld::launch(int(kRanks), [&](vmpi::Comm& comm) {
            sim::DistributedSimulation simulation(comm, setup, flags);
            const double fluid = double(simulation.globalFluidCells());
            comm.barrier(); // walb-lint: allow(blocking): benchmark timing rendezvous
            Timer t;
            t.start();
            std::size_t written = 0;
            if (!sim::checkpointSave(simulation, path, 0, &written) && comm.rank() == 0)
                state.SkipWithError("checkpoint save failed");
            t.stop();
            if (comm.rank() != 0) return;
            seconds = t.total();
            fileBytes = written;
            fluidCells = fluid;
        });
        state.SetIterationTime(seconds);
    }
    std::remove(path.c_str());
    state.counters["file_bytes"] = double(fileBytes);
    state.counters["bytes_per_fluid_cell"] = double(fileBytes) / fluidCells;
    state.SetBytesProcessed(std::int64_t(state.iterations()) * std::int64_t(fileBytes));
}
BENCHMARK(BM_CheckpointSave)->Arg(0)->Arg(1)->UseManualTime()->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
