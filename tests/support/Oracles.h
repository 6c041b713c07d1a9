#pragma once
/// \file Oracles.h
/// Test and micro-benchmark references that no driver runs, kept out of the
/// library headers under src/:
///  * buildFluidRunsNaive — the per-cell scan lbm::buildFluidRuns must match;
///  * the cell-list sparse strategy (strategy 2 of lbm/Sparse.h):
///    buildFluidCellList and streamCollideCellList, checked against the
///    flag-conditional and line-interval kernels;
///  * full-slice ghost packing (packPdfs, unpackPdfs, packedBytes): every
///    PDF that crosses a block face, or all Q per cell — the volume the
///    fluid-aware exchange plan of lbm/Communication.h is measured against.
///
/// The tests and bench/micro_kernels include it as "support/Oracles.h".

#include <array>
#include <cstring>
#include <vector>

#include "core/Buffer.h"
#include "field/FlagField.h"
#include "lbm/Communication.h"
#include "lbm/KernelD3Q19.h"
#include "lbm/Sparse.h"

namespace walb::lbm {

// ---- sparse traversal references ------------------------------------------------

/// lbm::buildFluidRuns without the row-pointer fast path: the equivalence
/// test's reference and the micro benchmark's baseline.
inline FluidRunList buildFluidRunsNaive(const field::FlagField& flags,
                                        field::flag_t fluidMask) {
    FluidRunList list;
    for (cell_idx_t z = 0; z < flags.zSize(); ++z)
        for (cell_idx_t y = 0; y < flags.ySize(); ++y) {
            cell_idx_t runStart = -1;
            for (cell_idx_t x = 0; x < flags.xSize(); ++x) {
                const bool fluid = (flags.get(x, y, z) & fluidMask) != 0;
                if (fluid && runStart < 0) runStart = x;
                if (!fluid && runStart >= 0) {
                    list.runs.push_back({y, z, runStart, x - 1});
                    list.fluidCells += uint_c(x - runStart);
                    runStart = -1;
                }
            }
            if (runStart >= 0) {
                list.runs.push_back({y, z, runStart, flags.xSize() - 1});
                list.fluidCells += uint_c(flags.xSize() - runStart);
            }
        }
    return list;
}

/// Builds the explicit fluid-cell coordinate list (strategy 2).
inline std::vector<Cell> buildFluidCellList(const field::FlagField& flags,
                                            field::flag_t fluidMask) {
    std::vector<Cell> cells;
    flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (flags.get(x, y, z) & fluidMask) cells.push_back({x, y, z});
    });
    return cells;
}

/// Strategy 2: loop over the fluid-cell array; scalar per-cell updates.
template <typename Op>
void streamCollideCellList(const PdfField& src, PdfField& dst, const std::vector<Cell>& cells,
                           const Op& op) {
    for (const Cell& c : cells) streamCollideCell(src, dst, c.x, c.y, c.z, op);
}

// ---- full-slice ghost packing ----------------------------------------------------

namespace detail {
template <LatticeModel M>
std::vector<uint_t> allDirections() {
    std::vector<uint_t> all;
    for (uint_t a = 0; a < M::Q; ++a) all.push_back(a);
    return all;
}
} // namespace detail

/// Serializes the PDFs streaming toward neighbor direction d into buf.
///
/// Wire order: PDF direction outermost, then z, y, x — for a fixed PDF
/// index the x-row of an fzyx field is contiguous in memory, so each row is
/// one bulk byte copy instead of per-cell accessor calls. unpackPdfs must
/// mirror this order exactly.
template <LatticeModel M>
void packPdfs(const PdfField& f, const std::array<int, 3>& d, SendBuffer& buf,
              bool fullPdfSet = false) {
    const CellInterval ci = sendInterval(f, d);
    const std::vector<uint_t> dirs =
        fullPdfSet ? detail::allDirections<M>() : commDirections<M>(d);
    if (dirs.empty()) return;
    const std::size_t rowBytes =
        std::size_t(ci.max().x - ci.min().x + 1) * sizeof(real_t);
    if (f.xStride() == 1) {
        // One resize for the whole payload, then row-wise bulk copies.
        const std::size_t rows =
            std::size_t(ci.max().y - ci.min().y + 1) * std::size_t(ci.max().z - ci.min().z + 1);
        std::uint8_t* out = buf.grow(dirs.size() * rows * rowBytes);
        for (uint_t a : dirs)
            for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
                for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y) {
                    std::memcpy(out, f.dataAt(ci.min().x, y, z, cell_idx_c(a)), rowBytes);
                    out += rowBytes;
                }
        return;
    }
    for (uint_t a : dirs)
        for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
            for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y)
                for (cell_idx_t x = ci.min().x; x <= ci.max().x; ++x)
                    buf << f.get(x, y, z, cell_idx_c(a));
}

/// Deserializes PDFs received from the neighbor in direction d into the
/// ghost slice facing that neighbor. Must mirror packPdfs' PDF/cell order.
template <LatticeModel M>
void unpackPdfs(PdfField& f, const std::array<int, 3>& d, RecvBuffer& buf,
                bool fullPdfSet = false) {
    const CellInterval ci = recvInterval(f, d);
    // The sender packed toward direction -d from its perspective; the PDF
    // subset is determined by the *sender's* direction.
    const std::array<int, 3> senderDir = {-d[0], -d[1], -d[2]};
    const std::vector<uint_t> dirs =
        fullPdfSet ? detail::allDirections<M>() : commDirections<M>(senderDir);
    if (dirs.empty()) return;
    const std::size_t rowBytes =
        std::size_t(ci.max().x - ci.min().x + 1) * sizeof(real_t);
    if (f.xStride() == 1) {
        const std::size_t rows =
            std::size_t(ci.max().y - ci.min().y + 1) * std::size_t(ci.max().z - ci.min().z + 1);
        const std::size_t total = dirs.size() * rows * rowBytes;
        const std::uint8_t* in = buf.cursor();
        buf.skip(total); // bounds-checked; throws BufferError on short payload
        for (uint_t a : dirs)
            for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
                for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y) {
                    std::memcpy(f.dataAt(ci.min().x, y, z, cell_idx_c(a)), in, rowBytes);
                    in += rowBytes;
                }
        return;
    }
    for (uint_t a : dirs)
        for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
            for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y)
                for (cell_idx_t x = ci.min().x; x <= ci.max().x; ++x)
                    buf >> f.get(x, y, z, cell_idx_c(a));
}

/// Bytes packPdfs writes toward direction d.
template <LatticeModel M>
std::size_t packedBytes(const PdfField& f, const std::array<int, 3>& d,
                        bool fullPdfSet = false) {
    const CellInterval ci = sendInterval(f, d);
    const std::size_t nd = fullPdfSet ? M::Q : commDirections<M>(d).size();
    return ci.numCells() * nd * sizeof(real_t);
}

} // namespace walb::lbm
