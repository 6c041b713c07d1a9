#pragma once
/// \file KernelD3Q19Simd.h
/// Optimization tier 3 (paper §4.1): the SIMD-vectorized D3Q19 kernel, and
/// the one fused collision body that both SIMD tiers run — this two-grid
/// tier and the in-place AA tier of KernelAaSimd.h.
///
///  * The PDF fields must use the SoA (fzyx) layout, so that the values of
///    one direction are contiguous in x and V::width neighbouring cells of
///    a row are one vector load per direction.
///  * The update is fused and register-resident: for each group of
///    V::width cells the 19 PDFs are loaded, rho and u are computed, the
///    collision runs per opposite-direction pair (the common subexpression
///    elimination of the D3Q19 tier) and 19 values are stored. A row's last
///    partial group is one masked vector iteration (simd loadn/storen), so
///    a cell's arithmetic never depends on where it falls in a row or run.
///  * The step patterns (two-grid pull, AA even, AA odd) differ only in
///    the 19 load and 19 store offsets of StepSlots, which StepStencil
///    resolves per (y, z) row from the row offsets of the field's stored
///    rows. Both tiers therefore compute bit-identical states.
///  * The code transformation "couldn't be done automatically by any of the
///    compilers" — it is performed manually here via the simd:: backends.
///
/// The paper splits the innermost loop by direction instead, so that the
/// number of concurrent load/store streams stays within what the hardware
/// prefetchers track. A split loop pays its setup once per direction and
/// row, and vascular fluid runs average 8 cells, so on sparse blocks that
/// setup outweighed the arithmetic. On a 4-vCPU AVX-512 Xeon the fused loop
/// is faster on dense blocks too (EXPERIMENTS.md "One fused SIMD collision
/// for both SIMD tiers").
///
/// Rows are independent, so dense sweeps and run sweeps (Sparse.h) are
/// distributed over OpenMP threads — the intra-process half of the paper's
/// hybrid MPI/OpenMP parallelization.

#include <array>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "field/FlagField.h"
#include "lbm/Collision.h"
#include "lbm/KernelAa.h"
#include "lbm/KernelD3Q19.h"
#include "lbm/PdfField.h"
#include "simd/Simd.h"

namespace walb::lbm {

/// Storage offsets, relative to the f = 0 slot of the updated cell, of the
/// 19 loads and 19 stores of one step under pattern p. Direction a loads
/// the canonical slot of P(x - e_a, a) under p and stores P(x, a) to its
/// canonical slot under the pattern the step leaves behind:
///
///   TwoGrid: load src(x - e_a, a),     store dst(x, a)
///   AaEven:  load (x, a),              store (x, abar)
///   AaOdd:   load (x - e_a, abar),     store (x + e_a, a)
///
/// Load offsets are in src's storage, store offsets in dst's. They hold
/// for the cells of one (y, z) row.
struct StepSlots {
    std::array<std::ptrdiff_t, D3Q19::Q> load, store;
};

/// The accesses of a step under pattern p, resolved per row: each of the
/// 38 goes to a fixed slot-and-x offset in one of the 9 rows (y + dy,
/// z + dz), dy, dz in {-1, 0, 1}, so the slots of a row cost 9 row-offset
/// lookups per field. A full field gives every row the same slots.
class StepStencil {
public:
    StepStencil(StepPattern p, const PdfField& src, const PdfField& dst) : src_(src), dst_(dst) {
        using M = D3Q19;
        WALB_ASSERT(src.layout() == field::Layout::fzyx && dst.layout() == field::Layout::fzyx,
                    "SIMD kernel requires SoA (fzyx) layout");
        WALB_ASSERT(src.ghostLayers() >= 1 && src.fSize() == 19 && dst.fSize() == 19);
        const auto resolve = [](const CanonicalLocation& l, const Cell& cell,
                                const PdfField& f, std::ptrdiff_t& fixed, std::uint8_t& row) {
            const Cell c = cell + l.shift;
            fixed = l.slot * f.fStride() + c.x;
            row = std::uint8_t((c.y + 1) + 3 * (c.z + 1));
        };
        for (uint_t a = 0; a < M::Q; ++a) {
            resolve(canonicalLocation(p, a), {-M::c[a][0], -M::c[a][1], -M::c[a][2]}, src,
                    loadFixed_[a], loadRow_[a]);
            resolve(canonicalLocation(patternAfter(p), a), {0, 0, 0}, dst, storeFixed_[a],
                    storeRow_[a]);
        }
    }

    /// The slots of the cells of interior row (y, z).
    StepSlots at(cell_idx_t y, cell_idx_t z) const {
        std::array<std::ptrdiff_t, 9> srcRow{}, dstRow{};
        rowDeltas(src_, y, z, srcRow);
        if (&dst_ == &src_) dstRow = srcRow;
        else rowDeltas(dst_, y, z, dstRow);
        StepSlots s;
        for (uint_t a = 0; a < D3Q19::Q; ++a) {
            s.load[a] = loadFixed_[a] + srcRow[loadRow_[a]];
            s.store[a] = storeFixed_[a] + dstRow[storeRow_[a]];
        }
        return s;
    }

private:
    /// Offset of each of the 9 rows around (y, z) relative to row (y, z).
    static void rowDeltas(const PdfField& f, cell_idx_t y, cell_idx_t z,
                          std::array<std::ptrdiff_t, 9>& out) {
        const field::RowTable& rows = *f.rowTable();
        const std::size_t own = rows.row(y, z);
        const std::ptrdiff_t ownOffset = rows.rowOffsetAt(own);
        for (cell_idx_t k = 0; k < 9; ++k)
            out[std::size_t(k)] =
                rows.rowOffsetAt(std::size_t(std::ptrdiff_t(own) +
                                             rows.rowStep(k % 3 - 1, k / 3 - 1))) -
                ownOffset;
    }

    const PdfField& src_;
    const PdfField& dst_;
    std::array<std::ptrdiff_t, D3Q19::Q> loadFixed_{}, storeFixed_{};
    std::array<std::uint8_t, D3Q19::Q> loadRow_{}, storeRow_{};
};

namespace d3q19simd {

/// rho += f_A and the momentum components += c[A] f_A, emitting only the
/// nonzero components.
template <std::size_t A, typename V>
inline void accumulate(V f, V& rho, V& mx, V& my, V& mz) {
    constexpr int cx = D3Q19::c[A][0], cy = D3Q19::c[A][1], cz = D3Q19::c[A][2];
    rho = rho + f;
    if constexpr (cx == 1) mx = mx + f;
    if constexpr (cx == -1) mx = mx - f;
    if constexpr (cy == 1) my = my + f;
    if constexpr (cy == -1) my = my - f;
    if constexpr (cz == 1) mz = mz + f;
    if constexpr (cz == -1) mz = mz - f;
}

/// Post-collision values {a, b} of pair P from its pre-collision values.
template <std::size_t P, typename V, typename Op>
inline std::pair<V, V> collidePair(V fa, V fb, V rho, V ux, V uy, V uz, V indep, const Op& op) {
    constexpr auto pr = d3q19::pairs[P];
    V eu = V::set1(real_c(0));
    if constexpr (pr.px == 1) eu = eu + ux;
    if constexpr (pr.px == -1) eu = eu - ux;
    if constexpr (pr.py == 1) eu = eu + uy;
    if constexpr (pr.py == -1) eu = eu - uy;
    if constexpr (pr.pz == 1) eu = eu + uz;
    if constexpr (pr.pz == -1) eu = eu - uz;

    const V wrho = V::set1(d3q19::pairWeight(P)) * rho;
    const V eqSym = wrho * fma(V::set1(real_c(4.5)), eu * eu, indep);
    const V eqAsym = wrho * (V::set1(real_c(3)) * eu);
    if constexpr (std::is_same_v<Op, SRT>) {
        const V om = V::set1(op.omega);
        return {fa - om * (fa - (eqSym + eqAsym)), fb - om * (fb - (eqSym - eqAsym))};
    } else {
        const V half = V::set1(real_c(0.5));
        const V even = V::set1(op.lambdaE) * (half * (fa + fb) - eqSym);
        const V odd = V::set1(op.lambdaO) * (half * (fa - fb) - eqAsym);
        return {fa + even + odd, fb + even - odd};
    }
}

/// The fused update of one group of cells: `lanes` == V::width, or fewer
/// on the masked (Partial) last group of a row. All 19 loads precede the
/// first store, and under every pattern the slots a cell stores are slots
/// only that cell loads, so src and dst may be the same field.
template <typename V, bool Partial, typename Op>
inline void collideGroup(const real_t* src, real_t* dst, const StepSlots& s, std::size_t lanes,
                         const Op& op) {
    using M = D3Q19;
    V f[M::Q];
    for (uint_t a = 0; a < M::Q; ++a)
        f[a] = Partial ? V::loadn(src + s.load[a], lanes) : V::loadu(src + s.load[a]);

    // Moments accumulate in direction order 0 .. 18.
    V rho = f[0], ux = V::set1(real_c(0)), uy = ux, uz = ux;
    [&]<std::size_t... A>(std::index_sequence<A...>) {
        (accumulate<A + 1>(f[A + 1], rho, ux, uy, uz), ...);
    }(std::make_index_sequence<M::Q - 1>{});
    const V invRho = V::set1(real_c(1)) / rho;
    ux = ux * invRho;
    uy = uy * invRho;
    uz = uz * invRho;
    const V indep = V::set1(real_c(1)) - V::set1(real_c(1.5)) * (ux * ux + uy * uy + uz * uz);

    const auto store = [&](uint_t a, V v) {
        if constexpr (Partial) v.storen(dst + s.store[a], lanes);
        else v.storeu(dst + s.store[a]);
    };
    // Center direction: purely even part.
    const V eq0 = V::set1(d3q19::wC) * rho * indep;
    if constexpr (std::is_same_v<Op, SRT>) store(0, f[0] - V::set1(op.omega) * (f[0] - eq0));
    else store(0, f[0] + V::set1(op.lambdaE) * (f[0] - eq0));

    [&]<std::size_t... P>(std::index_sequence<P...>) {
        (
            [&] {
                constexpr auto pr = d3q19::pairs[P];
                const auto [outA, outB] =
                    collidePair<P>(f[pr.a], f[pr.b], rho, ux, uy, uz, indep, op);
                store(pr.a, outA);
                store(pr.b, outB);
            }(),
            ...);
    }(std::make_index_sequence<9>{});
}

/// Updates the n cells of a row whose f = 0 slots are src[0..n) and
/// dst[0..n): full groups, then one masked group for the remainder.
template <typename V, typename Op>
inline void collideRow(const real_t* src, real_t* dst, const StepSlots& s, std::size_t n,
                       const Op& op) {
    std::size_t i = 0;
    for (; i + V::width <= n; i += V::width)
        collideGroup<V, false>(src + i, dst + i, s, V::width, op);
    if (i < n) collideGroup<V, true>(src + i, dst + i, s, n - i, op);
}

/// Dense sweep of the whole interior under pattern p (src == dst for the
/// AA patterns). Every (y, z) row is independent, so rows are distributed
/// over OpenMP threads.
template <typename V, typename Op>
void collideDense(const PdfField& src, PdfField& dst, StepPattern p, const Op& op) {
    const StepStencil stencil(p, src, dst);
    const cell_idx_t ny = dst.ySize(), nz = dst.zSize();
    const auto nx = std::size_t(dst.xSize());
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static)
#endif
    for (cell_idx_t z = 0; z < nz; ++z)
        for (cell_idx_t y = 0; y < ny; ++y)
            collideRow<V>(src.dataAt(0, y, z), dst.dataAt(0, y, z), stencil.at(y, z), nx, op);
}

} // namespace d3q19simd

/// The two-grid SIMD tier: stream-pull from src, collide, store to dst.
template <typename V = simd::BestD>
class KernelD3Q19Simd {
public:
    template <typename Op>
    void sweep(const PdfField& src, PdfField& dst, const Op& op) const {
        d3q19simd::collideDense<V>(src, dst, StepPattern::TwoGrid, op);
    }
};

} // namespace walb::lbm
