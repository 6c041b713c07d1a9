#pragma once
/// \file PdfField.h
/// Convenience helpers around Field<real_t> holding one PDF set per cell.
/// By convention a PDF field stores *post-collision* values; the fused
/// stream-pull kernels read src(x - e_a, a), collide, and write dst(x, a).

#include <algorithm>
#include <array>

#include "core/Vector3.h"
#include "field/Field.h"
#include "lbm/Equilibrium.h"

namespace walb::lbm {

using PdfField = field::Field<real_t>;

/// Creates a PDF field for lattice model M with one ghost layer (the layer
/// that holds copies of neighboring blocks' boundary cells).
template <LatticeModel M>
PdfField makePdfField(cell_idx_t xs, cell_idx_t ys, cell_idx_t zs,
                      field::Layout layout = field::Layout::fzyx, cell_idx_t ghost = 1) {
    return PdfField(xs, ys, zs, M::Q, layout, real_c(0), ghost);
}

/// Reads the full PDF set of one cell.
template <LatticeModel M>
std::array<real_t, M::Q> getPdfs(const PdfField& f, cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    std::array<real_t, M::Q> pdfs{};
    for (uint_t a = 0; a < M::Q; ++a) pdfs[a] = f.get(x, y, z, cell_idx_c(a));
    return pdfs;
}

template <LatticeModel M>
void setPdfs(PdfField& f, cell_idx_t x, cell_idx_t y, cell_idx_t z,
             const std::array<real_t, M::Q>& pdfs) {
    for (uint_t a = 0; a < M::Q; ++a) f.get(x, y, z, cell_idx_c(a)) = pdfs[a];
}

/// Sets every stored slot (ghost layers included) to equilibrium at
/// (rho, u). The allocation's z-planes are shared over the calling thread's
/// OpenMP team with the static schedule the sweeps use for their rows, so
/// on a freshly allocated field each page is first touched by the thread
/// that later sweeps it. Each slot is written exactly once with the same
/// value whatever the team size.
template <LatticeModel M>
void initEquilibrium(PdfField& f, real_t rho, const Vec3& u) {
    std::array<real_t, M::Q> eq{};
    setEquilibrium<M>(eq, rho, u);
    WALB_DASSERT(f.fSize() == M::Q);
    const cell_idx_t g = f.ghostLayers();
    const std::size_t planeCells = std::size_t(f.xAllocSize() * f.yAllocSize());
    const bool soa = f.layout() == field::Layout::fzyx;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (cell_idx_t z = -g; z < f.zSize() + g; ++z) {
        if (soa) {
            // The stored rows of a z-plane are contiguous in each f-slot
            // (the last plane takes the slot's padding along).
            const field::RowTable& rows = *f.rowTable();
            const std::size_t begin = rows.rowStart(-g, z), end = rows.rowStart(-g, z + 1);
            for (uint_t a = 0; a < M::Q; ++a)
                std::fill_n(f.data() + a * rows.slotStride() + begin, end - begin, eq[a]);
        } else {
            real_t* cell = f.dataAt(-g, -g, z);
            for (std::size_t c = 0; c < planeCells; ++c, cell += M::Q)
                std::copy(eq.begin(), eq.end(), cell);
        }
    }
}

/// Creates a PDF field at equilibrium (rho, u) in one pass: the allocation
/// is not zero-filled first, and initEquilibrium's team split makes the
/// sweeping threads the pages' first touchers. Byte-equal to makePdfField
/// followed by initEquilibrium.
template <LatticeModel M>
PdfField makePdfField(cell_idx_t xs, cell_idx_t ys, cell_idx_t zs, real_t rho, const Vec3& u,
                      field::Layout layout = field::Layout::fzyx, cell_idx_t ghost = 1) {
    PdfField f(xs, ys, zs, M::Q, layout, field::noFill, ghost);
    initEquilibrium<M>(f, rho, u);
    return f;
}

/// A PDF field storing the rows of `rows`, at equilibrium (rho, u) like
/// the full-allocation overload above.
template <LatticeModel M>
PdfField makePdfField(const std::shared_ptr<const field::RowTable>& rows, real_t rho,
                      const Vec3& u) {
    PdfField f(rows, M::Q, field::noFill);
    initEquilibrium<M>(f, rho, u);
    return f;
}

template <LatticeModel M>
real_t cellDensity(const PdfField& f, cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    return density<M>(getPdfs<M>(f, x, y, z));
}

template <LatticeModel M>
Vec3 cellVelocity(const PdfField& f, cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    const auto pdfs = getPdfs<M>(f, x, y, z);
    return momentum<M>(pdfs) / density<M>(pdfs);
}

} // namespace walb::lbm
