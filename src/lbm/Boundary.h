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
/// so the interior kernel stays branch-free and vectorizable. Link lists
/// are precomputed from the flag field once after voxelization.
///
/// One entry point, apply(src, region, pattern), serves every storage
/// pattern and both step schedules. The pattern (lbm::StepPattern) fixes
/// where a link's boundary value is written and where its wall-leaving
/// population is read; the region picks the core or shell part of the
/// links (see partitionForOverlap) or all of them.
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
#include <cstdint>
#include <functional>
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

template <LatticeModel M>
class BoundaryHandling {
public:
    struct Link {
        Cell boundary;
        uint_t dir; // direction a: boundary + e_a is the fluid cell
    };

    /// Scans the flag field (interior plus ghost layers, since boundary
    /// cells of a block may live in its ghost region) and records all
    /// boundary->fluid links whose fluid cell is in the interior.
    BoundaryHandling(const field::FlagField& flags, const BoundaryFlags& masks)
        : masks_(masks) {
        const CellInterval interior = flags.interior();
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const field::flag_t fl = flags.get(x, y, z);
            if (!(fl & masks_.boundaryMask())) return;
            for (uint_t a = 1; a < M::Q; ++a) {
                const Cell nb{x + M::c[a][0], y + M::c[a][1], z + M::c[a][2]};
                if (!interior.contains(nb)) continue;
                if (!(flags.get(nb) & masks_.fluid)) continue;
                Link link{{x, y, z}, a};
                if (fl & masks_.noSlip) links_[kNoSlip].push_back(link);
                else if (fl & masks_.ubb) links_[kUbb].push_back(link);
                else if (fl & masks_.pressure) links_[kPressure].push_back(link);
            }
        });
        for (std::size_t k = 0; k < kKinds; ++k) split_[k] = links_[k].size();
    }

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

    const std::vector<Link>& noSlipLinks() const { return links_[kNoSlip]; }
    const std::vector<Link>& ubbLinks() const { return links_[kUbb]; }
    const std::vector<Link>& pressureLinks() const { return links_[kPressure]; }
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
    /// sweep. Before this call every link is core.
    template <typename Pred>
    void partitionForOverlap(Pred&& isShell) {
        for (std::size_t k = 0; k < kKinds; ++k)
            split_[k] = std::size_t(std::partition(links_[k].begin(), links_[k].end(),
                                                   [&](const Link& l) {
                                                       return !isShell(l.boundary);
                                                   }) -
                                    links_[k].begin());
        pressureStash_.assign(links_[kPressure].size() - split_[kPressure], real_t(0));
    }

    /// Writes the boundary values of the links in `region` into src for a
    /// step of storage pattern `pattern`, after communication and before
    /// the sweep. The core and shell calls of one step together perform
    /// exactly the writes of the all call.
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
        switch (pattern) {
            case StepPattern::TwoGrid: return applyLinks<StepPattern::TwoGrid>(src, region);
            case StepPattern::AaEven: return applyLinks<StepPattern::AaEven>(src, region);
            case StepPattern::AaOdd: return applyLinks<StepPattern::AaOdd>(src, region);
        }
    }

private:
    enum Kind : std::size_t { kNoSlip, kUbb, kPressure, kKinds };

    /// Where a pattern keeps one slot of a link (x, d): in cell
    /// x + cellStep * e_d, at slot d itself or, if `inverse`, at dbar.
    struct SlotRef {
        cell_idx_t cellStep;
        bool inverse;
    };

    /// A pattern's link map, applied to a link (xb, d): the slot a boundary
    /// value is written to and the slot holding the reflected (wall-leaving)
    /// population; `gather`, applied to (xf, a), is where the pressure
    /// condition finds P(xf, a).
    struct LinkMap {
        SlotRef write, read, gather;
    };

    // With xb = l.boundary, d = l.dir, xf = xb + e_d and P the
    // post-collision values of the last completed step (KernelAa.h):
    //  * two-grid: the pull kernel reads f_d(xf) from (xb, d); P(xf, dbar)
    //    is at (xf, dbar), P(xf, a) at (xf, a).
    //  * EVEN AA step: the kernel reads cell-locally, so f_d(xf) is parked
    //    at (xf, d). P(xf, dbar) sits at (xb, dbar) — pushed there by the
    //    preceding odd step through xf itself, so valid even when xb is a
    //    ghost cell — and P(xf, a) at (xf + e_a, a).
    //  * ODD AA step: the kernel pulls f_d(xf) from (xb, dbar); P(xf, dbar)
    //    sits at (xf, d), P(xf, a) at (xf, abar).
    // Every slot the AA maps read is produced by xf itself or its own push
    // targets, never by communication.
    static constexpr LinkMap linkMap(StepPattern pattern) {
        switch (pattern) {
            case StepPattern::AaEven: return {{1, false}, {0, true}, {1, false}};
            case StepPattern::AaOdd: return {{0, true}, {1, false}, {0, true}};
            case StepPattern::TwoGrid: break;
        }
        return {{0, false}, {1, true}, {0, false}};
    }

    static real_t& at(PdfField& f, SlotRef r, const Cell& x, uint_t d) {
        return f.get(x.x + r.cellStep * M::c[d][0], x.y + r.cellStep * M::c[d][1],
                     x.z + r.cellStep * M::c[d][2], cell_idx_c(r.inverse ? M::inv[d] : d));
    }

    /// apply() for one pattern, whose map is a compile-time constant.
    template <StepPattern P>
    void applyLinks(PdfField& src, Region region) const {
        static constexpr LinkMap m = linkMap(P);
        forEachLink(kNoSlip, region, [&](std::size_t, const Link& l) {
            at(src, m.write, l.boundary, l.dir) = at(src, m.read, l.boundary, l.dir);
        });
        forEachLink(kUbb, region, [&](std::size_t, const Link& l) {
            const Vec3 uw = uWallProfile_ ? uWallProfile_(l.boundary) : uWall_;
            const real_t eu = real_c(M::c[l.dir][0]) * uw[0] +
                              real_c(M::c[l.dir][1]) * uw[1] +
                              real_c(M::c[l.dir][2]) * uw[2];
            at(src, m.write, l.boundary, l.dir) =
                at(src, m.read, l.boundary, l.dir) + real_c(6) * M::w[l.dir] * rho0_ * eu;
        });
        forEachLink(kPressure, region, [&](std::size_t i, const Link& l) {
            at(src, m.write, l.boundary, l.dir) =
                region == Region::Shell ? pressureStash_[i] : pressureValue<P>(src, l);
        });
        if (region == Region::Core)
            forEachLink(kPressure, Region::Shell, [&](std::size_t i, const Link& l) {
                pressureStash_[i] = pressureValue<P>(src, l);
            });
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
        const Link* links = links_[kind].data() + lo;
        const auto n = std::int64_t(hi - lo);
#ifdef _OPENMP
#pragma omp for schedule(static) nowait
#endif
        for (std::int64_t i = 0; i < n; ++i) fn(std::size_t(i), links[i]);
    }

    /// Anti-bounce-back value of a pressure link, with the velocity
    /// extrapolated from the adjacent fluid cell.
    template <StepPattern P>
    real_t pressureValue(PdfField& src, const Link& l) const {
        static constexpr LinkMap m = linkMap(P);
        const Cell f{l.boundary.x + M::c[l.dir][0], l.boundary.y + M::c[l.dir][1],
                     l.boundary.z + M::c[l.dir][2]};
        std::array<real_t, M::Q> pdfs;
        for (uint_t a = 0; a < M::Q; ++a) pdfs[a] = at(src, m.gather, f, a);
        const Vec3 u = momentum<M>(pdfs) / density<M>(pdfs);
        const real_t eu = real_c(M::c[l.dir][0]) * u[0] + real_c(M::c[l.dir][1]) * u[1] +
                          real_c(M::c[l.dir][2]) * u[2];
        return -at(src, m.read, l.boundary, l.dir) +
               real_c(2) * M::w[l.dir] * rhoWall_ *
                   (real_c(1) + real_c(4.5) * eu * eu - real_c(1.5) * u.dot(u));
    }

    BoundaryFlags masks_;
    std::array<std::vector<Link>, kKinds> links_; ///< per kind: [core | shell]
    std::array<std::size_t, kKinds> split_{};     ///< first shell link per kind
    mutable std::vector<real_t> pressureStash_;   ///< shell pressure values
    std::function<Vec3(const Cell&)> uWallProfile_;
    Vec3 uWall_{0, 0, 0};
    real_t rhoWall_ = real_c(1);
    real_t rho0_ = real_c(1);
};

/// Marks as boundary every non-fluid cell (interior or ghost) that touches a
/// fluid cell through the stencil — the "hull of the fluid cells computed
/// using a morphological dilation operator w.r.t. the LBM stencil"
/// (paper §2.3). Cells already flagged (e.g. colored inflow/outflow) keep
/// their flag; the rest receive `hullFlag`.
template <LatticeModel M>
void markBoundaryHull(field::FlagField& flags, field::flag_t fluidMask,
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

} // namespace walb::lbm
