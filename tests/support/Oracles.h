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
///    fluid-aware exchange plan of lbm/Communication.h is measured against;
///  * full-slice local copies (addLocalCopy, addLocalCopyAaForward/Reverse,
///    copyPdfsLocal, aaCopyPdfsLocalForward/Reverse, copySliceLocal): the
///    same slices moved block to block in each exchange mode — the
///    reference of the exchange-plan and team-size tests and the
///    single-field periodic wrap of the D2Q9 tests;
///  * markBoundaryHullPull — the per-cell pull rule lbm::markBoundaryHull's
///    bit rows must match;
///  * geometry::assignBoundaryConditionsPerCell — one closest-triangle
///    query per hull cell, the reference of the color certification;
///  * canonicalPdfs — one cell's canonical PDFs on a full field, the view
///    of the kernel-level AA tests (the driver reads its row-table storage
///    through DistributedSimulation::cellCanonicalPdfs);
///  * geometry::makeTubeMesh — a closed, cap-colored tube surface, the
///    mesh fixture of the geometry and boundary-coloring tests.
///
/// The tests and bench/micro_kernels include it as "support/Oracles.h".

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/Buffer.h"
#include "field/FlagField.h"
#include "geometry/BoundarySetup.h"
#include "lbm/Communication.h"
#include "lbm/KernelAa.h"
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

// ---- full-slice local copies ----------------------------------------------------

namespace detail {
/// lbm::planExchangeRuns as if every cell of `to` read every slot: the
/// full slices of exchange `mode` from `from` into `to` (which receives
/// from direction d), one run per slot.
template <LatticeModel M>
void addFullSliceCopy(LocalCopyPlan& plan, ExchangeMode mode, const PdfField& from,
                      PdfField& to, const std::array<int, 3>& d) {
    const Cell shift{-d[0] * to.xSize(), -d[1] * to.ySize(), -d[2] * to.zSize()};
    const bool reverse = mode == ExchangeMode::AaReverse;
    std::vector<StridedRun> runs;
    for (uint_t a : commDirections<M>({-d[0], -d[1], -d[2]})) {
        const cell_idx_t slot = cell_idx_c(mode == ExchangeMode::AaForward ? M::inv[a] : a);
        const CellInterval ci =
            reverse ? aaReverseTrim<M>(sendInterval(to, d), d, a) : recvInterval(to, d);
        ci.forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            runs.push_back({std::int64_t(from.index(x + shift.x, y + shift.y, z + shift.z, slot)),
                            std::int64_t(to.index(x, y, z, slot)), 1, 1});
        });
    }
    plan.add(from, to, runs);
}
} // namespace detail

/// Plans the full-slice block-to-block copy for neighbors living on the
/// same process ("fast local communication", paper §2.3): the ghost slice
/// of `to` facing direction d is filled from the interior slice of `from`
/// facing -d, every population crossing the interface.
template <LatticeModel M>
void addLocalCopy(LocalCopyPlan& plan, const PdfField& from, PdfField& to,
                  const std::array<int, 3>& d) {
    detail::addFullSliceCopy<M>(plan, ExchangeMode::TwoGrid, from, to, d);
}

/// Runs one addLocalCopy (serially outside a parallel region).
template <LatticeModel M>
void copyPdfsLocal(const PdfField& from, PdfField& to, const std::array<int, 3>& d) {
    LocalCopyPlan plan;
    addLocalCopy<M>(plan, from, to, d);
    plan.run();
}

/// Generic whole-slot slice copy for any field type: the ghost slice of
/// `to` facing direction d is filled from the interior slice of `from`
/// facing -d. Wraps flag fields periodically in the D2Q9 tests.
template <typename T>
void copySliceLocal(const field::Field<T>& from, field::Field<T>& to,
                    const std::array<int, 3>& d) {
    const std::array<int, 3> senderDir = {-d[0], -d[1], -d[2]};
    const CellInterval srcCi = sendInterval(from, senderDir);
    const CellInterval dstCi = recvInterval(to, d);
    WALB_DASSERT(srcCi.numCells() == dstCi.numCells());
    const Cell offset = srcCi.min() - dstCi.min();
    dstCi.forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        for (cell_idx_t ff = 0; ff < cell_idx_c(from.fSize()); ++ff)
            to.get(x, y, z, ff) = from.get(x + offset.x, y + offset.y, z + offset.z, ff);
    });
}

/// AA forward local copy — addLocalCopy with the opposing slot on both
/// sides: the ghost slice of `to` facing d is filled from the interior
/// slice of `from` facing -d.
template <LatticeModel M>
void addLocalCopyAaForward(LocalCopyPlan& plan, const PdfField& from, PdfField& to,
                           const std::array<int, 3>& d) {
    detail::addFullSliceCopy<M>(plan, ExchangeMode::AaForward, from, to, d);
}

/// AA reverse local copy: d is the direction from `from` toward `to`; the
/// trimmed ghost slice of `from` facing d lands on the trimmed interior
/// slice of `to` facing -d, natural slots.
template <LatticeModel M>
void addLocalCopyAaReverse(LocalCopyPlan& plan, const PdfField& from, PdfField& to,
                           const std::array<int, 3>& d) {
    detail::addFullSliceCopy<M>(plan, ExchangeMode::AaReverse, from, to, {-d[0], -d[1], -d[2]});
}

template <LatticeModel M>
void aaCopyPdfsLocalForward(const PdfField& from, PdfField& to, const std::array<int, 3>& d) {
    LocalCopyPlan plan;
    addLocalCopyAaForward<M>(plan, from, to, d);
    plan.run();
}
template <LatticeModel M>
void aaCopyPdfsLocalReverse(const PdfField& from, PdfField& to, const std::array<int, 3>& d) {
    LocalCopyPlan plan;
    addLocalCopyAaReverse<M>(plan, from, to, d);
    plan.run();
}

// ---- geometry set-up references ------------------------------------------------

/// lbm::markBoundaryHull as one stencil scan per non-fluid cell: a free
/// cell (neither fluid nor occupied) with a fluid neighbor becomes hull.
template <LatticeModel M>
void markBoundaryHullPull(field::FlagField& flags, field::flag_t fluidMask,
                          field::flag_t occupiedMask, field::flag_t hullFlag) {
    flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (flags.get(x, y, z) & (fluidMask | occupiedMask)) return;
        for (uint_t a = 1; a < M::Q; ++a) {
            const cell_idx_t nx = x + M::c[a][0];
            const cell_idx_t ny = y + M::c[a][1];
            const cell_idx_t nz = z + M::c[a][2];
            if (!flags.coordinatesValid(nx, ny, nz)) continue;
            if (flags.get(nx, ny, nz) & fluidMask) {
                flags.addFlag(x, y, z, hullFlag);
                return;
            }
        }
    });
}

// ---- AA canonical view ---------------------------------------------------------

/// The canonical PDF set P of one cell under step pattern `p` — the
/// parity-independent view used by macroscopic accessors.
inline std::array<real_t, D3Q19::Q> canonicalPdfs(const PdfField& pdf, StepPattern p,
                                                  cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    std::array<real_t, D3Q19::Q> out{};
    for (uint_t a = 0; a < D3Q19::Q; ++a) out[a] = *canonicalSlot(pdf, p, x, y, z, a);
    return out;
}

} // namespace walb::lbm

namespace walb::geometry {

/// Closed tube (cylinder) from a to b with `segments` facets around the
/// circumference, outward orientation. Side vertices get `sideColor`; the
/// end-cap fans (emitted only if capA/capB) get their own colors — this is
/// how inflow/outflow surfaces are "unambiguously colored" (paper §2.3).
inline TriangleMesh makeTubeMesh(const Vec3& a, const Vec3& b, real_t radiusA, real_t radiusB,
                                 unsigned segments, bool capA, bool capB,
                                 Color sideColor = kColorWall, Color capAColor = kColorWall,
                                 Color capBColor = kColorWall) {
    constexpr real_t kPi = real_c(3.14159265358979323846);
    WALB_ASSERT(segments >= 3);
    TriangleMesh mesh;
    const Vec3 axis = (b - a).normalized();
    const real_t length = (b - a).length();
    // Any two unit vectors orthogonal to the axis (and to each other).
    const Vec3 helper = std::abs(axis[0]) < real_c(0.9) ? Vec3(1, 0, 0) : Vec3(0, 1, 0);
    const Vec3 u = axis.cross(helper).normalized();
    const Vec3 v = axis.cross(u).normalized();

    // Subdivide lengthwise so triangles stay compact — long sliver
    // triangles would be binned into nearly every octree leaf along the
    // tube and defeat the closest-triangle pruning.
    const real_t meanRadius = (radiusA + radiusB) * real_c(0.5);
    const unsigned nRings =
        1 + unsigned(std::min(real_c(64), std::floor(length / (2 * meanRadius))));

    for (unsigned s = 0; s <= nRings; ++s) {
        const real_t t = real_c(s) / real_c(nRings);
        const Vec3 center = a + (b - a) * t;
        const real_t radius = radiusA + (radiusB - radiusA) * t;
        const bool isCapRing = (s == 0 && capA) || (s == nRings && capB);
        const Color ringColor = (s == 0 && capA) ? capAColor
                              : (s == nRings && capB) ? capBColor
                                                      : sideColor;
        for (unsigned l = 0; l < segments; ++l) {
            const real_t theta = 2 * kPi * real_c(l) / real_c(segments);
            const Vec3 dir = std::cos(theta) * u + std::sin(theta) * v;
            mesh.addVertex(center + radius * dir, isCapRing ? ringColor : sideColor);
        }
    }
    auto ring = [&](unsigned s, unsigned l) {
        return std::uint32_t(s * segments + (l % segments));
    };

    // Side quads, outward orientation: with the right-handed (u, v, axis)
    // frame the outward winding is A_l -> B_{l+1} -> B_l.
    for (unsigned s = 0; s < nRings; ++s)
        for (unsigned l = 0; l < segments; ++l) {
            mesh.addTriangle(ring(s, l), ring(s + 1, l + 1), ring(s + 1, l));
            mesh.addTriangle(ring(s, l), ring(s, l + 1), ring(s + 1, l + 1));
        }

    if (capA) {
        const std::uint32_t centerA = mesh.addVertex(a, capAColor);
        for (unsigned l = 0; l < segments; ++l)
            mesh.addTriangle(centerA, ring(0, l + 1), ring(0, l)); // faces -axis
    }
    if (capB) {
        const std::uint32_t centerB = mesh.addVertex(b, capBColor);
        for (unsigned l = 0; l < segments; ++l)
            mesh.addTriangle(centerB, ring(nRings, l), ring(nRings, l + 1)); // faces +axis
    }
    return mesh;
}

/// geometry::assignBoundaryConditionsFromColors without the certification:
/// every hull cell takes the colors of its closest triangle's vertices.
inline BoundaryAssignmentStats assignBoundaryConditionsPerCell(
    field::FlagField& flags, const lbm::BoundaryFlags& masks, field::flag_t hullMask,
    const MeshDistance& mesh, const CellMapping& mapping) {
    BoundaryAssignmentStats stats;
    flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (!(flags.get(x, y, z) & hullMask)) return;
        const auto closest = mesh.closestTriangle(mapping.cellCenter(x, y, z));
        const auto& tri = mesh.mesh().triangle(closest.triangle);
        unsigned inflow = 0, outflow = 0;
        for (unsigned v = 0; v < 3; ++v) {
            if (mesh.mesh().color(tri[v]) == kColorInflow) ++inflow;
            if (mesh.mesh().color(tri[v]) == kColorOutflow) ++outflow;
        }
        flags.removeFlag(x, y, z, hullMask);
        if (inflow >= 2) {
            flags.addFlag(x, y, z, masks.ubb);
            ++stats.inflowCells;
        } else if (outflow >= 2) {
            flags.addFlag(x, y, z, masks.pressure);
            ++stats.outflowCells;
        } else {
            flags.addFlag(x, y, z, masks.noSlip);
            ++stats.noSlipCells;
        }
    });
    return stats;
}

} // namespace walb::geometry
