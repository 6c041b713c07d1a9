#pragma once
/// \file KernelD3Q19.h
/// Optimization tier 2 (paper §4.1): a kernel written specifically for the
/// D3Q19 model. Streaming and collision are fused, and common
/// subexpressions of the macroscopic value and equilibrium calculation are
/// eliminated by processing opposite-direction *pairs*: for a pair (a, abar)
/// the equilibrium splits into a shared symmetric part and an antisymmetric
/// part that differ only in sign, halving the floating point work relative
/// to the generic kernel. Scalar code; the SIMD tier lives in
/// KernelD3Q19Simd.h.
///
/// The per-cell update is exposed (streamCollideCell) so the sparse-domain
/// kernels (the conditional variant, paper §4.3, and the cell-list test
/// reference) reuse it.

#include <type_traits>

#include "field/FlagField.h"
#include "lbm/Collision.h"
#include "lbm/PdfField.h"

namespace walb::lbm {

namespace d3q19 {

/// The nine opposite-direction pairs of D3Q19 (center excluded), together
/// with the components of c[a] for the first member `a` of each pair.
struct DirPair {
    uint_t a, b;      // b == inv[a]
    int px, py, pz;   // components of c[a]
};

inline constexpr std::array<DirPair, 9> pairs = {{
    {4, 3, 1, 0, 0},   // E / W
    {1, 2, 0, 1, 0},   // N / S
    {5, 6, 0, 0, 1},   // T / B
    {8, 9, 1, 1, 0},   // NE / SW
    {7, 10, -1, 1, 0}, // NW / SE
    {14, 17, 1, 0, 1}, // TE / BW
    {13, 18, -1, 0, 1},// TW / BE
    {11, 16, 0, 1, 1}, // TN / BS
    {12, 15, 0, -1, 1} // TS / BN
}};

inline constexpr real_t wC = D3Q19::w[0];   // 1/3
inline constexpr real_t wA = D3Q19::w[1];   // 1/18 (axis)
inline constexpr real_t wD = D3Q19::w[7];   // 1/36 (diagonal)

/// Weight of pair p (axis pairs are the first three, diagonal the rest).
constexpr real_t pairWeight(uint_t p) { return p < 3 ? wA : wD; }

/// Macroscopic moments of an already-gathered PDF set. Shared by the
/// two-grid pull kernels and the in-place AA kernels (KernelAa.h): one
/// expression tree, so every tier that gathers the same values computes
/// bit-identical moments.
inline void moments(const real_t (&f)[19], real_t& rho, real_t& ux, real_t& uy, real_t& uz) {
    rho = f[0];
    for (uint_t a = 1; a < 19; ++a) rho += f[a];
    const real_t invRho = real_c(1) / rho;
    ux = (f[4] - f[3] + f[8] - f[7] + f[10] - f[9] + f[14] - f[13] + f[18] - f[17]) * invRho;
    uy = (f[1] - f[2] + f[8] + f[7] - f[10] - f[9] + f[11] - f[12] + f[15] - f[16]) * invRho;
    uz = (f[5] - f[6] + f[11] + f[12] + f[13] + f[14] - f[15] - f[16] - f[17] - f[18]) * invRho;
}

/// Gathers the 19 pulled PDFs of cell (x,y,z) and computes rho, u.
inline void pullAndMoments(const PdfField& src, cell_idx_t x, cell_idx_t y, cell_idx_t z,
                           real_t (&f)[19], real_t& rho, real_t& ux, real_t& uy, real_t& uz) {
    using M = D3Q19;
    for (uint_t a = 0; a < 19; ++a)
        f[a] = src.get(x - M::c[a][0], y - M::c[a][1], z - M::c[a][2], cell_idx_c(a));
    moments(f, rho, ux, uy, uz);
}

/// Pairwise SRT collision into `out` — the arithmetic core shared by the
/// two-grid kernel (which scatters `out` to the destination grid) and the
/// AA kernels (which scatter it back in place under the parity index map).
inline void collide(const real_t (&f)[19], real_t rho, real_t ux, real_t uy, real_t uz,
                    const SRT& op, real_t (&out)[19]) {
    const real_t omega = op.omega;
    const real_t dirIndep = real_c(1) - real_c(1.5) * (ux * ux + uy * uy + uz * uz);

    out[0] = f[0] - omega * (f[0] - wC * rho * dirIndep);

    for (uint_t p = 0; p < 9; ++p) {
        const auto& pr = pairs[p];
        const real_t eu = real_c(pr.px) * ux + real_c(pr.py) * uy + real_c(pr.pz) * uz;
        const real_t w = pairWeight(p) * rho;
        const real_t sym = w * (dirIndep + real_c(4.5) * eu * eu);
        const real_t asym = w * real_c(3) * eu;
        out[pr.a] = f[pr.a] - omega * (f[pr.a] - (sym + asym));
        out[pr.b] = f[pr.b] - omega * (f[pr.b] - (sym - asym));
    }
}

/// Pairwise TRT collision into `out`.
inline void collide(const real_t (&f)[19], real_t rho, real_t ux, real_t uy, real_t uz,
                    const TRT& op, real_t (&out)[19]) {
    const real_t le = op.lambdaE, lo = op.lambdaO;
    const real_t dirIndep = real_c(1) - real_c(1.5) * (ux * ux + uy * uy + uz * uz);

    // Center: purely even.
    out[0] = f[0] + le * (f[0] - wC * rho * dirIndep);

    for (uint_t p = 0; p < 9; ++p) {
        const auto& pr = pairs[p];
        const real_t eu = real_c(pr.px) * ux + real_c(pr.py) * uy + real_c(pr.pz) * uz;
        const real_t w = pairWeight(p) * rho;
        const real_t eqSym = w * (dirIndep + real_c(4.5) * eu * eu);
        const real_t eqAsym = w * real_c(3) * eu;
        const real_t fSym = real_c(0.5) * (f[pr.a] + f[pr.b]);
        const real_t fAsym = real_c(0.5) * (f[pr.a] - f[pr.b]);
        const real_t even = le * (fSym - eqSym);
        const real_t odd = lo * (fAsym - eqAsym);
        out[pr.a] = f[pr.a] + even + odd;
        out[pr.b] = f[pr.b] + even - odd;
    }
}

} // namespace d3q19

/// Fused stream-pull + SRT/TRT collision of a single cell
/// (D3Q19-specialized). The gather/moments/collide pipeline is shared with
/// the AA kernels; only the scatter target differs.
template <typename Op>
    requires(std::is_same_v<Op, SRT> || std::is_same_v<Op, TRT>)
inline void streamCollideCell(const PdfField& src, PdfField& dst, cell_idx_t x, cell_idx_t y,
                              cell_idx_t z, const Op& op) {
    real_t f[19], out[19], rho, ux, uy, uz;
    d3q19::pullAndMoments(src, x, y, z, f, rho, ux, uy, uz);
    d3q19::collide(f, rho, ux, uy, uz, op, out);
    for (uint_t a = 0; a < 19; ++a) dst.get(x, y, z, cell_idx_c(a)) = out[a];
}

/// Dense-domain D3Q19 kernel over the whole interior. With a flag field this
/// becomes the "conditional statement in the innermost loop" sparse strategy
/// of paper §4.3 (major performance penalty, not vectorizable).
template <typename Op>
void streamCollideD3Q19(const PdfField& src, PdfField& dst, const Op& op,
                        const field::FlagField* flags = nullptr,
                        field::flag_t fluidMask = 0) {
    WALB_ASSERT(src.ghostLayers() >= 1 && src.fSize() == 19 && dst.fSize() == 19);
    dst.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (flags && !(flags->get(x, y, z) & fluidMask)) return;
        streamCollideCell(src, dst, x, y, z, op);
    });
}

} // namespace walb::lbm
