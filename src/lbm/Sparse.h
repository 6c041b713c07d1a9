#pragma once
/// \file Sparse.h
/// Sparse-domain kernel strategies for blocks only partially covered by
/// fluid (paper §4.3):
///
///  1. *Conditional*: a flag test in the innermost loop — available through
///     streamCollideD3Q19(src, dst, op, flags, fluidMask). Major
///     performance penalty, incompatible with vectorization.
///  2. *Cell list*: the coordinates of a block's fluid cells are stored in
///     an array and the kernel loops over that array. No conditional, but
///     still not vectorizable. No driver runs it; it is kept as a test and
///     micro-benchmark reference (tests/support/Oracles.h).
///  3. *Line intervals*: for every line of lattice cells the index range of
///     consecutive fluid cells is stored, "similar to the compressed
///     storage scheme of a sparse matrix". The kernel executes only on the
///     cells inside those intervals — this enables vectorization and fits
///     vascular geometries, which have few but consecutive fluid cells.
///
/// Strategy 3 runs the fused row body of KernelD3Q19Simd over each interval;
/// it is the traversal of the distributed driver.

#include <vector>

#include "field/FlagField.h"
#include "lbm/Communication.h"
#include "lbm/KernelD3Q19Simd.h"

namespace walb::lbm {

/// A maximal run of consecutive fluid cells within one lattice line.
struct FluidRun {
    cell_idx_t y, z;
    cell_idx_t xBegin, xEnd; // inclusive
};

/// Compressed fluid-cell index of a block: one entry per maximal fluid run.
struct FluidRunList {
    std::vector<FluidRun> runs;
    uint_t fluidCells = 0;
};

/// Builds the line-interval structure from a flag field.
///
/// Fast path: in the fzyx (SoA) layout a lattice line is contiguous in
/// memory (xStride == 1), so the scan walks a hoisted row pointer instead
/// of paying the full index computation of FlagField::get per cell. The
/// per-cell get() is kept as the fallback for zyxf.
inline FluidRunList buildFluidRuns(const field::FlagField& flags, field::flag_t fluidMask) {
    FluidRunList list;
    const cell_idx_t xSize = flags.xSize();
    const bool rowContiguous = flags.xStride() == 1;
    for (cell_idx_t z = 0; z < flags.zSize(); ++z)
        for (cell_idx_t y = 0; y < flags.ySize(); ++y) {
            const field::flag_t* row = rowContiguous ? flags.dataAt(0, y, z) : nullptr;
            cell_idx_t runStart = -1;
            for (cell_idx_t x = 0; x < xSize; ++x) {
                const field::flag_t f =
                    row ? row[x] : flags.get(x, y, z);
                const bool fluid = (f & fluidMask) != 0;
                if (fluid && runStart < 0) runStart = x;
                if (!fluid && runStart >= 0) {
                    list.runs.push_back({y, z, runStart, x - 1});
                    list.fluidCells += uint_c(x - runStart);
                    runStart = -1;
                }
            }
            if (runStart >= 0) {
                list.runs.push_back({y, z, runStart, xSize - 1});
                list.fluidCells += uint_c(xSize - runStart);
            }
        }
    return list;
}

/// Result of splitting a block's run list for the communication-hiding
/// schedule: `shell` holds the cells whose stream-pull stencil reads a
/// ghost region marked in the split mask (i.e. backed by a remote
/// neighbor — they must wait for the halo exchange), `core` everything
/// else (safe to sweep while messages are in flight). The two lists are
/// disjoint and together cover the input exactly.
struct CoreShellRuns {
    FluidRunList core;
    FluidRunList shell;
};

/// Splits a run list by the geometric shell predicate of runGhostReach:
/// a run whose row-level (y/z) reach hits a marked region is shell as a
/// whole; otherwise at most its x == 0 / x == xSize-1 endpoint cells are,
/// so every run contributes at most three segments.
template <LatticeModel M>
CoreShellRuns splitFluidRuns(const FluidRunList& all, cell_idx_t xSize, cell_idx_t ySize,
                             cell_idx_t zSize, const std::array<bool, 26>& remoteGhost) {
    CoreShellRuns out;
    auto push = [](FluidRunList& list, cell_idx_t y, cell_idx_t z, cell_idx_t b,
                   cell_idx_t e) {
        if (b > e) return;
        list.runs.push_back({y, z, b, e});
        list.fluidCells += uint_c(e - b + 1);
    };
    for (const FluidRun& r : all.runs) {
        const RunGhostReach reach = runGhostReach<M>(
            r.y == 0, r.y == ySize - 1, r.z == 0, r.z == zSize - 1, remoteGhost);
        if (reach.row) {
            push(out.shell, r.y, r.z, r.xBegin, r.xEnd);
            continue;
        }
        cell_idx_t b = r.xBegin, e = r.xEnd;
        if (reach.xLo && b == 0) {
            push(out.shell, r.y, r.z, b, b);
            ++b;
        }
        if (reach.xHi && e == xSize - 1 && e >= b) {
            push(out.shell, r.y, r.z, e, e);
            --e;
        }
        push(out.core, r.y, r.z, b, e);
    }
    return out;
}

/// Strategy 3: vectorized execution over fluid line intervals, under step
/// pattern p (src == dst for the AA patterns). The load/store offsets are
/// computed once per call, and each run is one row of the fused SIMD body.
/// Runs are independent (disjoint destination slots), so they are
/// distributed over OpenMP threads when available. Sweeping a contiguous
/// slice of a run list, or a run split into sub-runs, gives bit-identical
/// results.
template <typename V = simd::BestD, typename Op>
void collideRuns(const PdfField& src, PdfField& dst, StepPattern p, const FluidRun* runs,
                 std::size_t numRuns, const Op& op) {
    const StepSlots slots = stepSlots(p, src, dst);
    const auto n = std::int64_t(numRuns);
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (std::int64_t i = 0; i < n; ++i) {
        const FluidRun& r = runs[std::size_t(i)];
        d3q19simd::collideRow<V>(src.dataAt(r.xBegin, r.y, r.z), dst.dataAt(r.xBegin, r.y, r.z),
                                 slots, std::size_t(r.xEnd - r.xBegin + 1), op);
    }
}

} // namespace walb::lbm
