#pragma once
/// \file Boundary.h
/// Link-wise boundary conditions (paper §2.1): no-slip bounce back, velocity
/// bounce back (UBB) and pressure anti-bounce-back.
///
/// Integration with the fused stream-pull kernels: PDF fields hold
/// post-collision values, and a fluid cell xf pulls direction a from
/// xb = xf - e_a. If xb is a boundary cell, the value the fluid cell must
/// receive is written into the (otherwise unused) PDF slot src(xb, a)
/// *before* the stream-collide sweep:
///
///   no-slip:  src(xb, a) =  src(xf, abar)
///   UBB:      src(xb, a) =  src(xf, abar) + 6 w_a rho0 (e_a . u_wall)
///   pressure: src(xb, a) = -src(xf, abar)
///             + 2 w_a rho_w (1 + 4.5 (e_a . u_f)^2 - 1.5 u_f . u_f)
///
/// so the interior kernel stays branch-free and vectorizable.
///
/// Storage: the flag scan after voxelization turns each link into two pairs
/// of slot indices into the PDF storage (16 bytes; see LinkSlots), so a
/// no-slip link is one load and one store. The indices are those of a
/// storage layout, a field::RowTable: a full fzyx allocation of the flag
/// field's extent, or the stored rows of a given PDF field (a driver block
/// stores only the rows its fluid cells reach). The handling binds to PDF
/// fields with that extent, ghost layers, layout, stored rows and M::Q
/// slots: apply() throws BoundaryFieldError for any other field (outside a
/// parallel region: no exception leaves one), and so does construction for
/// a storage of more than 2^32 PDF slots or a link slot it does not store.
/// The pressure links are kept grouped by fluid cell, in both the core and
/// the shell part, so the 3-5 links of one cell gather its 19 PDFs for the
/// velocity once.
///
/// One entry point, apply(src, region, pattern), serves every storage
/// pattern and both step schedules; the region picks the core or shell
/// part of the links (see partitionForOverlap) or all of them.
///
/// Threading: the link loops are orphaned OpenMP worksharing loops. Called
/// by every thread of a parallel region, apply() shares its links over
/// that team — the distributed driver opens one region per boundary phase
/// for all of a rank's blocks; called outside a parallel region (or on a
/// 1-thread team) it runs serially, in list order. This is bit-exact for
/// any team size and any link order because each link writes its own
/// (cell, slot) and no link writes a slot that any link reads: the
/// two-grid links write boundary cells and read only fluid cells; the AA
/// even map writes (xf, d) and reads boundary slots plus (xf + e_a, a),
/// which would be another link's write only if xf were that link's
/// boundary cell; the AA odd map writes boundary cells and reads fluid
/// cells. The link kinds, and successive calls on the same or other
/// blocks, therefore run without a barrier between them; the enclosing
/// region's closing barrier publishes the writes.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/Vector3.h"
#include "field/FlagField.h"
#include "lbm/KernelAa.h"
#include "lbm/PdfField.h"

namespace walb::lbm {

/// Canonical flag names used across the framework.
inline constexpr const char* kFluidFlag = "fluid";
inline constexpr const char* kNoSlipFlag = "noSlip";
inline constexpr const char* kUbbFlag = "ubb";
inline constexpr const char* kPressureFlag = "pressure";

/// Registers the canonical flags on a flag field and returns their masks.
struct BoundaryFlags {
    field::flag_t fluid, noSlip, ubb, pressure;

    static BoundaryFlags registerOn(field::FlagField& ff) {
        return {ff.registerFlag(kFluidFlag), ff.registerFlag(kNoSlipFlag),
                ff.registerFlag(kUbbFlag), ff.registerFlag(kPressureFlag)};
    }
    field::flag_t boundaryMask() const { return field::flag_t(noSlip | ubb | pressure); }
};

/// The part of a block a step phase covers under the overlapped schedule:
/// `Core` runs while the halos are in flight, `Shell` after they landed;
/// the synchronous schedule covers `All` at once.
enum class Region : std::uint8_t { All, Core, Shell };

/// A PDF field a boundary handling is not bound to, or a block too large
/// for its 32-bit slot indices.
struct BoundaryFieldError : std::invalid_argument {
    using std::invalid_argument::invalid_argument;
};

template <LatticeModel M>
class BoundaryHandling {
public:
    struct Link {
        Cell boundary;
        uint_t dir; // direction a: boundary + e_a is the fluid cell
    };

    /// Scans the flag field (interior plus ghost layers, since boundary
    /// cells of a block may live in its ghost region) and records all
    /// boundary->fluid links whose fluid cell is in the interior, as slots
    /// of a full fzyx PDF allocation of the flags' extent.
    BoundaryHandling(const field::FlagField& flags, const BoundaryFlags& masks)
        : BoundaryHandling(flags, masks,
                           field::RowTable::full(flags.xSize(), flags.ySize(), flags.zSize(),
                                                 flags.ghostLayers())) {}

    /// The same links as slots of the storage of `pdf`, an fzyx field of
    /// the flags' extent and ghost layers with M::Q slots.
    BoundaryHandling(const field::FlagField& flags, const BoundaryFlags& masks,
                     const PdfField& pdf)
        : BoundaryHandling(flags, masks, storageOf(pdf, flags)) {}

    void setWallVelocity(const Vec3& u) { uWall_ = u; }
    void setPressureDensity(real_t rho) { rhoWall_ = rho; }

    /// Per-cell wall velocity (e.g. a parabolic inflow profile), evaluated
    /// at the boundary cell's coordinates; overrides the uniform velocity.
    /// The UBB links run on the OpenMP team, so the profile is called
    /// concurrently from several threads: it must be reentrant (a pure
    /// function of the cell, no unsynchronized mutable captures).
    void setWallVelocityProfile(std::function<Vec3(const Cell&)> profile) {
        uWallProfile_ = std::move(profile);
    }

    /// The links of one kind in list order, decoded from their indices.
    std::vector<Link> noSlipLinks() const { return decodeLinks(kNoSlip); }
    std::vector<Link> ubbLinks() const { return decodeLinks(kUbb); }
    std::vector<Link> pressureLinks() const { return decodeLinks(kPressure); }
    std::size_t numLinks(Region region = Region::All) const {
        std::size_t n = 0;
        for (std::size_t k = 0; k < kKinds; ++k) {
            const auto [lo, hi] = range(k, region);
            n += hi - lo;
        }
        return n;
    }

    /// Splits the links for the overlapped schedule: each link list is
    /// reordered into [core | shell]. `isShell(boundaryCell)` must return
    /// true when the boundary cell lies in a ghost slice that a remote halo
    /// message overwrites (unpack would clobber the written PDF slot):
    /// those links are applied after finishExchange; everything else is
    /// core and can be applied as soon as the local neighbor copies are
    /// done. A shell link's unique reader (the fluid cell pulling through
    /// it) provably reads a remote-backed ghost region, i.e. is itself a
    /// shell cell — so applying shell links late never starves the core
    /// sweep. Before this call every link is core. The pressure links are
    /// split stably, so they stay grouped by fluid cell within each part.
    template <typename Pred>
    void partitionForOverlap(Pred&& isShell) {
        const auto core = [&](const LinkSlots& s) { return !isShell(decode(s).boundary); };
        for (std::size_t k = 0; k < kKinds; ++k) {
            auto& l = links_[k];
            const auto shell = k == kPressure ? std::stable_partition(l.begin(), l.end(), core)
                                              : std::partition(l.begin(), l.end(), core);
            split_[k] = std::size_t(shell - l.begin());
        }
        indexPressureRows();
        pressureStash_.assign(links_[kPressure].size() - split_[kPressure], real_t(0));
    }

    /// Writes the boundary values of the links in `region` into src for a
    /// step of storage pattern `pattern`, after communication and before
    /// the sweep. The core and shell calls of one step together perform
    /// exactly the writes of the all call. Throws BoundaryFieldError if
    /// src is not a field the handling binds to (see the file comment).
    ///
    /// Except for the shell pressure links' velocity gather: the core call
    /// runs it and stashes the values for the shell call, because the
    /// in-place core sweep overwrites the slots it reads. Every such slot
    /// is locally produced, never a halo unpack target (the per-population
    /// trim keeps remote-produced slots disjoint; two-grid unpack writes
    /// only ghost cells, and the two-grid sweep only dst), so the early
    /// gather is bit-identical. Both calls walk the stash with the same
    /// static schedule: each thread reads back only its own entries.
    void apply(PdfField& src, Region region = Region::All,
               StepPattern pattern = StepPattern::TwoGrid) const {
        const std::array<cell_idx_t, 4> got{src.xSize(), src.ySize(), src.zSize(),
                                            src.ghostLayers()};
        if (src.layout() != field::Layout::fzyx || src.fSize() != M::Q || got != size_)
            throw BoundaryFieldError("BoundaryHandling::apply: expected a PDF field " +
                                     shape(field::Layout::fzyx, size_, M::Q) + ", got " +
                                     shape(src.layout(), got, src.fSize()));
        if (src.rowTable() != rows_ && !(*src.rowTable() == *rows_))
            throw BoundaryFieldError("BoundaryHandling::apply: the PDF field stores other rows "
                                     "than the storage the links index");
        switch (pattern) {
            case StepPattern::TwoGrid: return applyLinks<StepPattern::TwoGrid>(src, region);
            case StepPattern::AaEven: return applyLinks<StepPattern::AaEven>(src, region);
            case StepPattern::AaOdd: return applyLinks<StepPattern::AaOdd>(src, region);
        }
    }

private:
    enum Kind : std::size_t { kNoSlip, kUbb, kPressure, kKinds };

    BoundaryHandling(const field::FlagField& flags, const BoundaryFlags& masks,
                     std::shared_ptr<const field::RowTable> rows)
        : size_{flags.xSize(), flags.ySize(), flags.zSize(), flags.ghostLayers()},
          rows_(std::move(rows)), fStride_(std::uint32_t(rows_->slotStride())) {
        if (rows_->slotStride() * M::Q > (std::size_t(1) << 32))
            throw BoundaryFieldError("BoundaryHandling: " + std::to_string(rows_->slotStride()) +
                                     " cells exceed the 2^32 PDF slots of 32-bit link indices");
        const std::size_t F = fStride_;
        std::array<std::ptrdiff_t, M::Q> step{}; // flag-field offset of e_a
        for (uint_t a = 0; a < M::Q; ++a)
            step[a] = M::c[a][0] + M::c[a][1] * flags.yStride() + M::c[a][2] * flags.zStride();
        const CellInterval interior = flags.interior();
        const field::flag_t* fl = flags.data();
        const bool full = rows_->isFull();
        bool allStored = true;
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const std::size_t fb = flags.index(x, y, z);
            const auto kind = field::flag_t(fl[fb] & masks.boundaryMask());
            if (!kind) return;
            auto& to = links_[kind & masks.noSlip ? kNoSlip : kind & masks.ubb ? kUbb : kPressure];
            // A full table's cell offsets are the flag field's (same extent).
            const auto xb = full ? fb : std::size_t(rows_->rowOffset(y, z) + x);
            const bool boundaryStored = full || rows_->stored(x, y, z);
            for (uint_t a = 1; a < M::Q; ++a) {
                const cell_idx_t fx = x + M::c[a][0], fy = y + M::c[a][1], fz = z + M::c[a][2];
                if (!interior.contains(Cell{fx, fy, fz}) ||
                    !(fl[std::ptrdiff_t(fb) + step[a]] & masks.fluid))
                    continue;
                if (!full) allStored = allStored && boundaryStored && rows_->stored(fx, fy, fz);
                const auto xf = full ? std::size_t(std::ptrdiff_t(fb) + step[a])
                                     : std::size_t(rows_->rowOffset(fy, fz) + fx);
                to.push_back({{std::uint32_t(xb + a * F), std::uint32_t(xf + M::inv[a] * F)},
                              {std::uint32_t(xf + a * F), std::uint32_t(xb + M::inv[a] * F)}});
            }
        });
        if (!allStored)
            throw BoundaryFieldError("BoundaryHandling: a link cell is outside the PDF storage");
        std::stable_sort(links_[kPressure].begin(), links_[kPressure].end(),
                         [&](const LinkSlots& a, const LinkSlots& b) {
                             return fluidCell(a) < fluidCell(b);
                         });
        for (std::size_t k = 0; k < kKinds; ++k) split_[k] = links_[k].size();
        indexPressureRows();
    }

    /// pressureRow_ for the current order of the pressure links.
    void indexPressureRows() {
        pressureRow_.clear();
        for (const LinkSlots& s : links_[kPressure]) {
            const Cell c = rows_->cellAt(fluidCell(s));
            pressureRow_.push_back(std::uint32_t(rows_->row(c.y, c.z)));
        }
    }

    /// The stored rows of `pdf`, which must be a field of the flags' shape.
    static std::shared_ptr<const field::RowTable> storageOf(const PdfField& pdf,
                                                            const field::FlagField& flags) {
        const std::array<cell_idx_t, 4> want{flags.xSize(), flags.ySize(), flags.zSize(),
                                             flags.ghostLayers()},
            got{pdf.xSize(), pdf.ySize(), pdf.zSize(), pdf.ghostLayers()};
        if (pdf.layout() != field::Layout::fzyx || pdf.fSize() != M::Q || got != want)
            throw BoundaryFieldError("BoundaryHandling: expected a PDF field " +
                                     shape(field::Layout::fzyx, want, M::Q) + ", got " +
                                     shape(pdf.layout(), got, pdf.fSize()));
        return pdf.rowTable();
    }

    /// A link (xb, d) as slot indices pos(x) + f * fStride_ of the PDF storage,
    /// pos(x) the cell's offset in its f-slot (rows_->rowOffset(y, z) + x;
    /// the indirect addressing of list-based LBM kernels, applied to the
    /// links); a pattern picks a pair and which index is the write. With
    /// xf = xb + e_d and P the post-collision values of the last completed
    /// step (KernelAa.h):
    ///  * two-grid: the pull kernel reads f_d(xf) from (xb, d), the write;
    ///    P(xf, dbar), the read, is at (xf, dbar) and P(xf, a) at (xf, a).
    ///  * EVEN AA step: the kernel reads cell-locally, so f_d(xf) is parked
    ///    at (xf, d). P(xf, dbar) sits at (xb, dbar) — pushed there by the
    ///    preceding odd step through xf itself, so valid even when xb is a
    ///    ghost cell — and P(xf, a) at (xf + e_a, a).
    ///  * ODD AA step: the kernel pulls f_d(xf) from (xb, dbar); P(xf, dbar)
    ///    sits at (xf, d), P(xf, a) at (xf, abar).
    /// Every slot the AA maps read is produced by xf itself or its own push
    /// targets, never by communication.
    struct LinkSlots {
        std::array<std::uint32_t, 2> twoGrid; ///< write (xb, d), read (xf, dbar)
        std::array<std::uint32_t, 2> aa;      ///< even: write (xf, d), read (xb, dbar)
    };

    /// (write, read) slots of a link under pattern P.
    template <StepPattern P>
    static std::pair<std::uint32_t, std::uint32_t> writeRead(const LinkSlots& s) {
        if constexpr (P == StepPattern::TwoGrid) return {s.twoGrid[0], s.twoGrid[1]};
        else if constexpr (P == StepPattern::AaEven) return {s.aa[0], s.aa[1]};
        else return {s.aa[1], s.aa[0]};
    }

    /// apply() for one pattern.
    template <StepPattern P>
    void applyLinks(PdfField& src, Region region) const {
        real_t* const data = src.data();
        forEachLink(kNoSlip, region, [&](std::size_t, const LinkSlots& s) {
            const auto [w, r] = writeRead<P>(s);
            data[w] = data[r];
        });
        forEachLink(kUbb, region, [&](std::size_t, const LinkSlots& s) {
            const auto [w, r] = writeRead<P>(s);
            const uint_t d = s.twoGrid[0] / fStride_;
            const Vec3 uw = uWallProfile_ ? uWallProfile_(decode(s).boundary) : uWall_;
            const real_t eu = real_c(M::c[d][0]) * uw[0] + real_c(M::c[d][1]) * uw[1] +
                              real_c(M::c[d][2]) * uw[2];
            data[w] = data[r] + real_c(6) * M::w[d] * rho0_ * eu;
        });
        const std::uint32_t* rows = pressureRow_.data() + range(kPressure, region).first;
        forEachLink(kPressure, region,
                    [&, last = FluidVelocity{}](std::size_t i, const LinkSlots& s) mutable {
                        data[writeRead<P>(s).first] =
                            region == Region::Shell ? pressureStash_[i]
                                                    : pressureValue<P>(data, s, rows[i], last);
                    });
        if (region == Region::Core) {
            const std::uint32_t* shellRows =
                pressureRow_.data() + range(kPressure, Region::Shell).first;
            forEachLink(kPressure, Region::Shell,
                        [&, last = FluidVelocity{}](std::size_t i, const LinkSlots& s) mutable {
                            pressureStash_[i] = pressureValue<P>(data, s, shellRows[i], last);
                        });
        }
    }

    /// [lo, hi) of the links of `kind` in `region`.
    std::pair<std::size_t, std::size_t> range(std::size_t kind, Region region) const {
        return {region == Region::Shell ? split_[kind] : 0,
                region == Region::Core ? split_[kind] : links_[kind].size()};
    }

    /// Runs fn(i, link) for the links of `kind` in `region`, i counting
    /// from the region's first link, as an orphaned worksharing loop
    /// without a closing barrier (see the file comment).
    template <typename Fn>
    void forEachLink(std::size_t kind, Region region, Fn&& fn) const {
        const auto [lo, hi] = range(kind, region);
        const LinkSlots* links = links_[kind].data() + lo;
        const auto n = std::int64_t(hi - lo);
#ifdef _OPENMP
#pragma omp for schedule(static) nowait
#endif
        for (std::int64_t i = 0; i < n; ++i) fn(std::size_t(i), links[i]);
    }

    /// A link's fluid cell xf as its offset in an f-slot, from (xf, d).
    std::uint32_t fluidCell(const LinkSlots& s) const { return s.aa[0] % fStride_; }

    /// The velocity of the fluid cell of a thread's last pressure link. The
    /// links of one cell are adjacent, and a link writes no slot that any
    /// link reads (file comment), so reusing it is bit-identical.
    struct FluidVelocity {
        std::uint32_t xf = ~std::uint32_t(0);
        Vec3 u;
    };

    /// Anti-bounce-back value of a pressure link, with the velocity
    /// extrapolated from the adjacent fluid cell, whose row index is `row`
    /// (gathered unless `last` already holds that cell's).
    template <StepPattern P>
    real_t pressureValue(const real_t* data, const LinkSlots& s, std::uint32_t row,
                         FluidVelocity& last) const {
        const uint_t d = s.twoGrid[0] / fStride_;
        if (const std::uint32_t xf = fluidCell(s); xf != last.xf) {
            std::array<real_t, M::Q> pdfs;
            const std::ptrdiff_t own = rows_->rowOffsetAt(row);
            for (uint_t a = 0; a < M::Q; ++a) {
                std::ptrdiff_t at = std::ptrdiff_t(xf);
                if constexpr (P == StepPattern::AaOdd) {
                    at += std::ptrdiff_t(M::inv[a] * fStride_);
                } else {
                    at += std::ptrdiff_t(a * fStride_);
                    // At AA Even P(xf, a) sits at (xf + e_a, a), in a neighbor row.
                    if constexpr (P == StepPattern::AaEven)
                        at += rows_->rowOffsetAt(std::size_t(
                                  std::ptrdiff_t(row) + rows_->rowStep(M::c[a][1], M::c[a][2]))) -
                              own + M::c[a][0];
                }
                pdfs[a] = data[at];
            }
            last = {xf, momentum<M>(pdfs) / density<M>(pdfs)};
        }
        const Vec3& u = last.u;
        const real_t eu = real_c(M::c[d][0]) * u[0] + real_c(M::c[d][1]) * u[1] +
                          real_c(M::c[d][2]) * u[2];
        return -data[writeRead<P>(s).second] +
               real_c(2) * M::w[d] * rhoWall_ *
                   (real_c(1) + real_c(4.5) * eu * eu - real_c(1.5) * u.dot(u));
    }

    /// A link's boundary cell and direction, from its two-grid write (xb, d).
    Link decode(const LinkSlots& s) const {
        return {rows_->cellAt(s.twoGrid[0] % fStride_), s.twoGrid[0] / fStride_};
    }

    std::vector<Link> decodeLinks(std::size_t kind) const {
        std::vector<Link> links;
        for (const LinkSlots& s : links_[kind]) links.push_back(decode(s));
        return links;
    }

    /// "fzyx(SoA) 12x10x9, 1 ghost, Q=19".
    static std::string shape(field::Layout layout, const std::array<cell_idx_t, 4>& s, uint_t q) {
        return std::string(field::layoutName(layout)) + ' ' + std::to_string(s[0]) + 'x' +
               std::to_string(s[1]) + 'x' + std::to_string(s[2]) + ", " + std::to_string(s[3]) +
               " ghost, Q=" + std::to_string(q);
    }

    std::array<cell_idx_t, 4> size_;     ///< bound extent x, y, z and ghost layers
    std::shared_ptr<const field::RowTable> rows_; ///< the storage the slots index
    std::uint32_t fStride_;              ///< slots per direction: the slot stride
    std::array<std::vector<LinkSlots>, kKinds> links_; ///< per kind: [core | shell]
    std::array<std::size_t, kKinds> split_{};          ///< first shell link per kind
    std::vector<std::uint32_t> pressureRow_; ///< per pressure link: its fluid cell's row
    mutable std::vector<real_t> pressureStash_;        ///< shell pressure values
    std::function<Vec3(const Cell&)> uWallProfile_;
    Vec3 uWall_{0, 0, 0};
    real_t rhoWall_ = real_c(1);
    real_t rho0_ = real_c(1);
};

/// Marks as boundary every non-fluid cell (interior or ghost) that touches a
/// fluid cell through the stencil — the "hull of the fluid cells computed
/// using a morphological dilation operator w.r.t. the LBM stencil"
/// (paper §2.3). Cells already flagged (e.g. colored inflow/outflow) keep
/// their flag; the rest receive `hullFlag`, which shares no bit with
/// `fluidMask`.
///
/// Bit rows, as geometry::countFluid: one pass over the allocation sets a
/// fluid bit and a free (neither fluid nor occupied) bit per cell, ceil(x
/// extent / 64) words per (y, z) row. A row's hull is its free bits AND the
/// stencil's neighbor rows' fluid bits shifted by c_x, so a mostly empty
/// block costs one read per cell, and a mostly fluid one skips every row
/// without a free cell.
template <LatticeModel M>
void markBoundaryHull(field::FlagField& flags, field::flag_t fluidMask,
                      field::flag_t occupiedMask, field::flag_t hullFlag) {
    const CellInterval all = flags.allocRegion();
    const auto nx = std::size_t(flags.xAllocSize());
    const cell_idx_t ny = flags.yAllocSize(), nz = flags.zAllocSize();
    const std::size_t words = (nx + 63) / 64;
    const auto rowAt = [&](cell_idx_t y, cell_idx_t z) {
        return (std::size_t(z) * std::size_t(ny) + std::size_t(y)) * words;
    };
    std::vector<std::uint64_t> fluidBits(rowAt(0, nz), 0), freeBits(rowAt(0, nz), 0);
    std::vector<char> rowHasFluid(std::size_t(ny) * std::size_t(nz), 0);
    for (cell_idx_t z = 0; z < nz; ++z)
        for (cell_idx_t y = 0; y < ny; ++y) {
            const field::flag_t* cell = flags.dataAt(all.min().x, all.min().y + y, all.min().z + z);
            std::uint64_t* f = fluidBits.data() + rowAt(y, z);
            std::uint64_t* o = freeBits.data() + rowAt(y, z);
            for (std::size_t x = 0; x < nx; ++x) {
                const std::uint64_t bit = std::uint64_t(1) << (x % 64);
                if (cell[x] & fluidMask) f[x / 64] |= bit;
                else if (!(cell[x] & occupiedMask)) o[x / 64] |= bit;
            }
            for (std::size_t i = 0; i < words; ++i)
                if (f[i]) rowHasFluid[std::size_t(z) * std::size_t(ny) + std::size_t(y)] = 1;
        }

    std::vector<std::uint64_t> reach(words);
    for (cell_idx_t z = 0; z < nz; ++z)
        for (cell_idx_t y = 0; y < ny; ++y) {
            const std::uint64_t* o = freeBits.data() + rowAt(y, z);
            if (std::all_of(o, o + words, [](std::uint64_t w) { return w == 0; })) continue;
            std::fill(reach.begin(), reach.end(), 0);
            for (uint_t a = 1; a < M::Q; ++a) {
                const cell_idx_t by = y + M::c[a][1], bz = z + M::c[a][2];
                if (by < 0 || by >= ny || bz < 0 || bz >= nz) continue;
                if (!rowHasFluid[std::size_t(bz) * std::size_t(ny) + std::size_t(by)]) continue;
                const std::uint64_t* nb = fluidBits.data() + rowAt(by, bz);
                const auto word = [&](std::ptrdiff_t i) {
                    return i < 0 || std::size_t(i) >= words ? 0 : nb[i];
                };
                for (std::size_t i = 0; i < words; ++i) {
                    const auto j = std::ptrdiff_t(i);
                    // Bit x of the shifted row is cell (x + c_x, by, bz).
                    reach[i] |= M::c[a][0] == 0 ? nb[i]
                                : M::c[a][0] > 0 ? (nb[i] >> 1) | (word(j + 1) << 63)
                                                 : (nb[i] << 1) | (word(j - 1) >> 63);
                }
            }
            for (std::size_t i = 0; i < words; ++i)
                for (std::uint64_t hull = o[i] & reach[i]; hull != 0; hull &= hull - 1) {
                    const auto x = cell_idx_c(i * 64 + std::size_t(std::countr_zero(hull)));
                    flags.addFlag(all.min().x + x, all.min().y + y, all.min().z + z, hullFlag);
                }
        }
}

} // namespace walb::lbm
