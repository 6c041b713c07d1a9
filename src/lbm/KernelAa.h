#pragma once
/// \file KernelAa.h
/// Optimization tier 4: in-place AA-pattern streaming kernels (Bailey et
/// al.; see the OpenLB user guide). One PdfField, no shadow grid — the PDF
/// memory footprint is halved and the stream step never writes a second
/// allocation, so the per-update memory traffic drops from 3 to 2 accesses
/// per PDF (the write-back hits the just-loaded lines).
///
/// The pattern alternates two kernels; "parity" names which one runs next:
///
///  * even step — every fluid cell reads its *own* 19 slots, collides, and
///    writes each post-collision value back into the opposing-direction
///    slot of the same cell: pdf(x, abar) = P(x, a). Cell-local, trivially
///    parallel.
///  * odd step — a fluid cell pulls f_a from the neighbor slot
///    pdf(x - e_a, abar) (where the even step parked it), collides, and
///    pushes P(x, a) to pdf(x + e_a, a). After the odd step the storage is
///    back in the natural pull layout: pdf(x, a) = P(x - e_a, a).
///
/// In-place safety of the odd step: the slot (w, s) is written only by the
/// cell w - e_s *and* read only by that same cell (its read of f_{sbar}
/// lands exactly there), so distinct cells touch disjoint slots and the
/// gather-before-scatter per cell makes any traversal order — including
/// OpenMP over rows/runs — bit-identical.
///
/// Storage invariants (used by boundary handling, communication, and the
/// checkpoint canonicalization; P = post-collision values of the last
/// completed step):
///
///   parity Even (even kernel next): pdf(x, a)    = P(x - e_a, a)
///   parity Odd  (odd kernel next):  pdf(x, abar) = P(x, a)
///
/// The arithmetic (moments + pairwise collision) is shared verbatim with
/// the two-grid D3Q19 kernel via d3q19::moments / d3q19::collide, so the
/// AA scalar tier is bit-exact against the two-grid scalar tier.

#include <array>
#include <cstdint>
#include <vector>

#include "field/FlagField.h"
#include "lbm/Collision.h"
#include "lbm/KernelD3Q19.h"
#include "lbm/PdfField.h"

namespace walb::lbm {

/// Which AA kernel runs next (equivalently: how the single grid is laid
/// out right now — see the storage invariants above).
enum class AaParity : std::uint8_t { Even = 0, Odd = 1 };

/// Parity of step index `step` (steps are counted from 0; step 0 is even).
constexpr AaParity aaParityOfStep(std::uint64_t step) {
    return (step % 2 == 0) ? AaParity::Even : AaParity::Odd;
}

/// The storage pattern one time step runs under: the two-grid pull scheme,
/// or the single grid of an even or odd AA step. It selects the step's
/// ghost exchange, boundary link slots and kernel.
enum class StepPattern : std::uint8_t { TwoGrid, AaEven, AaOdd };

/// Pattern of step `step` for a two-grid (`inPlace` false) or AA tier.
constexpr StepPattern stepPatternOf(bool inPlace, std::uint64_t step) {
    if (!inPlace) return StepPattern::TwoGrid;
    return aaParityOfStep(step) == AaParity::Even ? StepPattern::AaEven : StepPattern::AaOdd;
}

/// The AA kernel a pattern runs (Even for TwoGrid, which runs none).
constexpr AaParity aaParityOf(StepPattern p) {
    return p == StepPattern::AaOdd ? AaParity::Odd : AaParity::Even;
}

/// The pattern of the AA kernel of parity `parity`.
constexpr StepPattern aaPatternOf(AaParity parity) {
    return parity == AaParity::Odd ? StepPattern::AaOdd : StepPattern::AaEven;
}

/// The pattern the storage is in after a step of pattern p: an AA step
/// flips the parity, a two-grid step keeps its pattern.
constexpr StepPattern patternAfter(StepPattern p) {
    switch (p) {
        case StepPattern::AaEven: return StepPattern::AaOdd;
        case StepPattern::AaOdd: return StepPattern::AaEven;
        case StepPattern::TwoGrid: break;
    }
    return StepPattern::TwoGrid;
}

/// Even-step update of one cell: read local, collide, write back with the
/// opposing-direction swap.
template <typename Op>
inline void aaEvenCell(PdfField& pdf, cell_idx_t x, cell_idx_t y, cell_idx_t z, const Op& op) {
    using M = D3Q19;
    real_t f[19], out[19], rho, ux, uy, uz;
    for (uint_t a = 0; a < 19; ++a) f[a] = pdf.get(x, y, z, cell_idx_c(a));
    d3q19::moments(f, rho, ux, uy, uz);
    d3q19::collide(f, rho, ux, uy, uz, op, out);
    for (uint_t a = 0; a < 19; ++a) pdf.get(x, y, z, cell_idx_c(M::inv[a])) = out[a];
}

/// Odd-step update of one cell: pull from the neighbors' swapped slots,
/// collide, push back into the neighbors' natural slots.
template <typename Op>
inline void aaOddCell(PdfField& pdf, cell_idx_t x, cell_idx_t y, cell_idx_t z, const Op& op) {
    using M = D3Q19;
    real_t f[19], out[19], rho, ux, uy, uz;
    for (uint_t a = 0; a < 19; ++a)
        f[a] = pdf.get(x - M::c[a][0], y - M::c[a][1], z - M::c[a][2],
                       cell_idx_c(M::inv[a]));
    d3q19::moments(f, rho, ux, uy, uz);
    d3q19::collide(f, rho, ux, uy, uz, op, out);
    for (uint_t a = 0; a < 19; ++a)
        pdf.get(x + M::c[a][0], y + M::c[a][1], z + M::c[a][2], cell_idx_c(a)) = out[a];
}

/// Parity-dispatched single-cell update.
template <typename Op>
inline void aaCell(PdfField& pdf, AaParity parity, cell_idx_t x, cell_idx_t y, cell_idx_t z,
                   const Op& op) {
    if (parity == AaParity::Even) aaEvenCell(pdf, x, y, z, op);
    else aaOddCell(pdf, x, y, z, op);
}

/// Storage location of the canonical (physical, post-collision) value P(x, a)
/// under step pattern `p`: the slot itself for the two-grid pattern; at
/// AaOdd slot abar of the same cell; at AaEven slot a of the cell x + e_a,
/// which may be a ghost or boundary cell — x's own odd-step push put P(x, a)
/// there (see the storage invariants above). Along x the map is a shift,
/// so the canonical values of an x-run in one direction are one contiguous
/// stretch of a stored fzyx row starting at this slot: checkpoints, digests and health
/// scans copy or hash them in one piece, and no parity or neighbor ever
/// has to be consulted.
struct CanonicalLocation {
    Cell shift;      ///< the storing cell is x + shift
    cell_idx_t slot; ///< and this its f-slot
};

constexpr CanonicalLocation canonicalLocation(StepPattern p, uint_t a) {
    using M = D3Q19;
    switch (p) {
        case StepPattern::AaOdd: return {{0, 0, 0}, cell_idx_c(M::inv[a])};
        case StepPattern::AaEven: return {{M::c[a][0], M::c[a][1], M::c[a][2]}, cell_idx_c(a)};
        case StepPattern::TwoGrid: break;
    }
    return {{0, 0, 0}, cell_idx_c(a)};
}

/// Pointer to the slot of canonicalLocation(p, a) for cell (x, y, z).
template <typename Pdf>
auto* canonicalSlot(Pdf& pdf, StepPattern p, cell_idx_t x, cell_idx_t y, cell_idx_t z,
                    uint_t a) {
    const CanonicalLocation l = canonicalLocation(p, a);
    return pdf.dataAt(x + l.shift.x, y + l.shift.y, z + l.shift.z, l.slot);
}

/// Dense flag-conditional sweep over the whole interior (the scalar AA
/// tier of the kernel figures and kernel tests). Either parity's cells
/// touch pairwise-disjoint slot sets, so the interior traversal order is
/// irrelevant.
template <typename Op>
void aaStreamCollide(PdfField& pdf, AaParity parity, const Op& op,
                     const field::FlagField* flags = nullptr, field::flag_t fluidMask = 0) {
    WALB_ASSERT(pdf.ghostLayers() >= 1 && pdf.fSize() == 19);
    pdf.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (flags && !(flags->get(x, y, z) & fluidMask)) return;
        aaCell(pdf, parity, x, y, z, op);
    });
}

} // namespace walb::lbm
