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
/// it is the traversal of the distributed driver. The intervals also size
/// the driver's storage: pdfRowTable stores of each row only the stretch
/// the intervals' stencils reach, so a block's PDF memory follows its fluid
/// cells rather than its extent.

#include <cstdlib>
#include <memory>
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
/// pattern p (src == dst for the AA patterns). Each run is one row of the
/// fused SIMD body, with the load/store offsets of the run's (y, z) row
/// (StepStencil; resolved again only when the row changes). Runs are
/// independent (disjoint destination slots), so they are distributed over
/// OpenMP threads when available. Sweeping a contiguous slice of a run
/// list, or a run split into sub-runs, gives bit-identical results.
template <typename V = simd::BestD, typename Op>
void collideRuns(const PdfField& src, PdfField& dst, StepPattern p, const FluidRun* runs,
                 std::size_t numRuns, const Op& op) {
    const StepStencil stencil(p, src, dst);
    const auto n = std::int64_t(numRuns);
#ifdef _OPENMP
#pragma omp parallel
#endif
    {
        StepSlots slots{};
        cell_idx_t y = 0, z = 0;
        bool resolved = false;
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (std::int64_t i = 0; i < n; ++i) {
            const FluidRun& r = runs[std::size_t(i)];
            if (!resolved || r.y != y || r.z != z) {
                slots = stencil.at(r.y, r.z);
                y = r.y;
                z = r.z;
                resolved = true;
            }
            d3q19simd::collideRow<V>(src.dataAt(r.xBegin, r.y, r.z),
                                     dst.dataAt(r.xBegin, r.y, r.z), slots,
                                     std::size_t(r.xEnd - r.xBegin + 1), op);
        }
    }
}

/// The storage rows of a block's PDF field: per (y, z) row of the
/// allocation, the x-interval covering every slot a step of any pattern
/// reads or writes. That is the stencil dilation of the block's fluid
/// cells — the interior ones (`interior`, the block's run list) and the
/// fluid cells of the flags' ghost layer, whose dilation covers the
/// interior slots a neighbor block's exchange reads when the two blocks
/// agree on their shared cells. A run [b, e] of row (y, z) reaches row
/// (y + dy, z + dz) over [b - r, e + r], r the largest |c_x| of the
/// velocities with (c_y, c_z) = (dy, dz); rows no velocity reaches, and
/// rows no fluid cell reaches, are not stored. O(runs x 9), plus one scan
/// of the ghost layer's flags.
///
/// A block at least half fluid, or whose intervals would cover at least
/// 3/4 of the allocation, gets the full table instead: intervals would
/// save little there, and the full layout keeps the dense sweep's memory
/// layout (uniform row pitch, x-face columns merged into strided exchange
/// runs) and the set-up cost of small mostly-fluid blocks exactly as
/// measured with full fields (EXPERIMENTS.md).
template <LatticeModel M>
std::shared_ptr<const field::RowTable> pdfRowTable(const field::FlagField& flags,
                                                   field::flag_t fluidMask,
                                                   const FluidRunList& interior) {
    using Interval = field::RowTable::Interval;
    const cell_idx_t g = flags.ghostLayers(), nx = flags.xSize(), ny = flags.ySize(),
                     nz = flags.zSize();
    if (2 * interior.fluidCells >= uint_c(nx * ny * nz)) return field::RowTable::full(nx, ny, nz, g);
    // reach[(dy + 1) + 3 (dz + 1)]: largest |c_x| reaching that row, -1 if none.
    std::array<cell_idx_t, 9> reach;
    reach.fill(-1);
    for (uint_t a = 0; a < M::Q; ++a) {
        cell_idx_t& r = reach[std::size_t((M::c[a][1] + 1) + 3 * (M::c[a][2] + 1))];
        r = std::max(r, cell_idx_c(std::abs(M::c[a][0])));
    }
    std::vector<Interval> rows(std::size_t((ny + 2 * g) * (nz + 2 * g)));
    const auto cover = [&](cell_idx_t y, cell_idx_t z, cell_idx_t b, cell_idx_t e) {
        for (cell_idx_t k = 0; k < 9; ++k) {
            const cell_idx_t r = reach[std::size_t(k)], ry = y + k % 3 - 1, rz = z + k / 3 - 1;
            if (r < 0 || ry < -g || ry >= ny + g || rz < -g || rz >= nz + g) continue;
            Interval& iv = rows[std::size_t((rz + g) * (ny + 2 * g) + ry + g)];
            const cell_idx_t lo = std::max(b - r, -g), hi = std::min(e + r, nx + g - 1);
            iv = iv.empty() ? Interval{lo, hi} : Interval{std::min(iv.lo, lo), std::max(iv.hi, hi)};
        }
    };
    for (const FluidRun& r : interior.runs) cover(r.y, r.z, r.xBegin, r.xEnd);
    // Fluid runs of the ghost layer: whole ghost rows, and the ghost ends of
    // interior rows.
    for (cell_idx_t z = -g; z < nz + g; ++z)
        for (cell_idx_t y = -g; y < ny + g; ++y) {
            const bool ghostRow = y < 0 || y >= ny || z < 0 || z >= nz;
            const field::flag_t* row = flags.dataAt(-g, y, z) + g;
            cell_idx_t start = -g - 1;
            for (cell_idx_t x = -g; x <= nx + g; ++x) {
                if (!ghostRow && x == 0) {
                    if (start >= -g) cover(y, z, start, -1);
                    start = -g - 1;
                    x = nx;
                }
                const bool fluid = x < nx + g && (row[x] & fluidMask) != 0;
                if (fluid && start < -g) start = x;
                if (!fluid && start >= -g) {
                    cover(y, z, start, x - 1);
                    start = -g - 1;
                }
            }
        }
    auto table = std::make_shared<const field::RowTable>(nx, ny, nz, g, std::move(rows));
    const auto full = std::size_t((nx + 2 * g) * (ny + 2 * g) * (nz + 2 * g));
    return 4 * table->cells() >= 3 * full ? field::RowTable::full(nx, ny, nz, g) : table;
}

} // namespace walb::lbm
