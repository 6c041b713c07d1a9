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
/// Threading: the link loops of every entry point are orphaned OpenMP
/// worksharing loops. Called by every thread of a parallel region, an
/// entry point shares its links over that team — the distributed driver
/// opens one region per boundary phase for all of a rank's blocks; called
/// outside a parallel region (or on a 1-thread team) it runs serially, in
/// list order. This is bit-exact for any team size because each link
/// writes its own (cell, slot) and no link writes a slot that any link
/// reads: the two-grid links write boundary cells and read only fluid
/// cells; the AA even map writes (xf, d) and reads boundary slots plus
/// (xf + e_a, a), which would be another link's write only if xf were that
/// link's boundary cell; the AA odd map writes boundary cells and reads
/// fluid cells. The link kinds, and successive entry points on the same or
/// other blocks, therefore run without a barrier between them; the
/// enclosing region's closing barrier publishes the writes.

#include <array>
#include <cstdint>
#include <functional>
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
        : flags_(flags), masks_(masks) {
        const CellInterval interior = flags.interior();
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const field::flag_t fl = flags.get(x, y, z);
            if (!(fl & masks_.boundaryMask())) return;
            for (uint_t a = 1; a < M::Q; ++a) {
                const Cell nb{x + M::c[a][0], y + M::c[a][1], z + M::c[a][2]};
                if (!interior.contains(nb)) continue;
                if (!(flags.get(nb) & masks_.fluid)) continue;
                Link link{{x, y, z}, a};
                if (fl & masks_.noSlip) noSlipLinks_.push_back(link);
                else if (fl & masks_.ubb) ubbLinks_.push_back(link);
                else if (fl & masks_.pressure) pressureLinks_.push_back(link);
            }
        });
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

    const std::vector<Link>& noSlipLinks() const { return noSlipLinks_; }
    const std::vector<Link>& ubbLinks() const { return ubbLinks_; }
    const std::vector<Link>& pressureLinks() const { return pressureLinks_; }
    std::size_t numLinks() const {
        return noSlipLinks_.size() + ubbLinks_.size() + pressureLinks_.size();
    }

    /// Splits the link lists for the overlapped communication schedule.
    /// `isShell(boundaryCell)` must return true when the boundary cell lies
    /// in a ghost slice that a remote halo message overwrites (unpack would
    /// clobber the written PDF slot): those links form the *shell* set and
    /// are applied after finishExchange; everything else is *core* and can
    /// be applied as soon as the local neighbor copies are done. A shell
    /// link's unique reader (the fluid cell pulling through it) provably
    /// reads a remote-backed ghost region, i.e. is itself a shell cell —
    /// so applying shell links late never starves the core sweep.
    template <typename Pred>
    void partitionForOverlap(Pred&& isShell) {
        auto split = [&](const std::vector<Link>& all, std::vector<Link>& core,
                         std::vector<Link>& shell) {
            core.clear();
            shell.clear();
            for (const Link& l : all) (isShell(l.boundary) ? shell : core).push_back(l);
        };
        split(noSlipLinks_, coreNoSlip_, shellNoSlip_);
        split(ubbLinks_, coreUbb_, shellUbb_);
        split(pressureLinks_, corePressure_, shellPressure_);
        aaShellPressureStash_.assign(shellPressure_.size(), real_t(0));
        partitioned_ = true;
    }

    bool partitioned() const { return partitioned_; }
    std::size_t numShellLinks() const {
        return shellNoSlip_.size() + shellUbb_.size() + shellPressure_.size();
    }
    std::size_t numCoreLinks() const {
        return coreNoSlip_.size() + coreUbb_.size() + corePressure_.size();
    }

    /// Applies only the core (resp. shell) partition; together they perform
    /// exactly the writes of apply(), each link exactly once.
    void applyCore(PdfField& src) const {
        WALB_DASSERT(partitioned_);
        applyLinks(src, coreNoSlip_, coreUbb_, corePressure_);
    }
    void applyShell(PdfField& src) const {
        WALB_DASSERT(partitioned_);
        applyLinks(src, shellNoSlip_, shellUbb_, shellPressure_);
    }

    /// Writes boundary values into the boundary-cell PDF slots of src.
    /// Must run after communication and before the stream-collide sweep.
    void apply(PdfField& src) const {
        applyLinks(src, noSlipLinks_, ubbLinks_, pressureLinks_);
    }

    // ---- AA-pattern (in-place) variants -----------------------------------
    //
    // The AA kernels (KernelAa.h) keep a single grid whose layout alternates
    // with step parity, so the slot a boundary value must land in — and the
    // slots the wall-leaving populations are read from — move with it. With
    // xb = l.boundary, d = l.dir, xf = xb + e_d and P the post-collision
    // values of the last completed step:
    //
    //  * before an EVEN step the storage satisfies pdf(x, a) = P(x - e_a, a)
    //    for fluid-produced slots, and the even kernel reads cell-locally —
    //    the value f_d(xf) must be parked at pdf(xf, d). The reflected
    //    population P(xf, dbar) sits at pdf(xb, dbar) (pushed there by the
    //    preceding odd step through the wall-adjacent fluid cell itself, so
    //    it is valid even when xb lives in a ghost layer).
    //  * before an ODD step the storage satisfies pdf(x, abar) = P(x, a) and
    //    the odd kernel pulls f_d(xf) from pdf(xb, dbar) — the reflected
    //    population P(xf, dbar) sits cell-locally at pdf(xf, d).
    //
    // The pressure condition extrapolates the velocity from the full PDF set
    // of xf, gathered under the same parity map; all gathered slots are
    // produced by xf itself or its own push targets, never by communication.

    void applyAa(PdfField& src, AaParity parity) const {
        applyLinksAa(src, parity, noSlipLinks_, ubbLinks_, pressureLinks_);
    }
    void applyAaCore(PdfField& src, AaParity parity) const {
        WALB_DASSERT(partitioned_);
        applyLinksAa(src, parity, coreNoSlip_, coreUbb_, corePressure_);
    }
    /// Computes the shell-partition pressure boundary values from the
    /// pre-sweep state and stashes them for applyAaShell(). The in-place
    /// kernels overwrite the very neighbor slots the pressure velocity
    /// gather reads (the even kernel rewrites each core cell's own slots,
    /// the odd kernel pushes through them), so in the overlapped schedule
    /// the *gather* must run before the core sweep. Every slot it reads is
    /// locally produced — never a halo unpack target (the per-population
    /// trim keeps remote-produced slots disjoint) — so hoisting it is
    /// bit-identical to the synchronous exchange-then-apply order. The
    /// *write* target can coincide with a halo unpack slot and therefore
    /// stays in applyAaShell(), after finishExchange.
    void precomputeAaShellPressure(const PdfField& src, AaParity parity) const {
        WALB_DASSERT(partitioned_);
        forEachShellPressure([&](std::size_t i, const Link& l) {
            aaShellPressureStash_[i] = parity == AaParity::Even ? aaPressureValueEven(src, l)
                                                                : aaPressureValueOdd(src, l);
        });
    }

    /// Requires a matching precomputeAaShellPressure() call earlier in the
    /// same step whenever shell pressure links exist: by the time this runs
    /// the core sweep has already rewritten the slots their gather reads.
    /// Both loop over the stash with the same static schedule, so within
    /// one parallel region each thread reads back only its own stash
    /// entries and no barrier is needed between the two.
    void applyAaShell(PdfField& src, AaParity parity) const {
        WALB_DASSERT(partitioned_);
        applyLinksAa(src, parity, shellNoSlip_, shellUbb_, kNoLinks_);
        forEachShellPressure([&](std::size_t i, const Link& l) {
            if (parity == AaParity::Even)
                src.get(fluidCell(l), cell_idx_c(l.dir)) = aaShellPressureStash_[i];
            else
                src.get(l.boundary, cell_idx_c(M::inv[l.dir])) = aaShellPressureStash_[i];
        });
    }

private:
    /// Runs fn(link) for every link of `links` as an orphaned worksharing
    /// loop without a closing barrier (see the file comment).
    template <typename Fn>
    static void forEachLink(const std::vector<Link>& links, Fn&& fn) {
        const auto n = std::int64_t(links.size());
#ifdef _OPENMP
#pragma omp for schedule(static) nowait
#endif
        for (std::int64_t i = 0; i < n; ++i) fn(links[std::size_t(i)]);
    }

    /// forEachLink over the shell pressure links, also passing the index.
    template <typename Fn>
    void forEachShellPressure(Fn&& fn) const {
        const auto n = std::int64_t(shellPressure_.size());
#ifdef _OPENMP
#pragma omp for schedule(static) nowait
#endif
        for (std::int64_t i = 0; i < n; ++i) fn(std::size_t(i), shellPressure_[std::size_t(i)]);
    }

    void applyLinksAa(PdfField& src, AaParity parity, const std::vector<Link>& noSlipLinks,
                      const std::vector<Link>& ubbLinks,
                      const std::vector<Link>& pressureLinks) const {
        if (parity == AaParity::Even)
            applyLinksAaEven(src, noSlipLinks, ubbLinks, pressureLinks);
        else
            applyLinksAaOdd(src, noSlipLinks, ubbLinks, pressureLinks);
    }

    /// Even-step prep: write the boundary value into the *fluid* cell's own
    /// slot (xf, d), reading the reflected population from (xb, dbar).
    void applyLinksAaEven(PdfField& src, const std::vector<Link>& noSlipLinks,
                          const std::vector<Link>& ubbLinks,
                          const std::vector<Link>& pressureLinks) const {
        forEachLink(noSlipLinks, [&](const Link& l) {
            const Cell f = fluidCell(l);
            src.get(f, cell_idx_c(l.dir)) = src.get(l.boundary, cell_idx_c(M::inv[l.dir]));
        });
        forEachLink(ubbLinks, [&](const Link& l) {
            const Cell f = fluidCell(l);
            const Vec3 uw = uWallProfile_ ? uWallProfile_(l.boundary) : uWall_;
            const real_t eu = real_c(M::c[l.dir][0]) * uw[0] +
                              real_c(M::c[l.dir][1]) * uw[1] +
                              real_c(M::c[l.dir][2]) * uw[2];
            src.get(f, cell_idx_c(l.dir)) =
                src.get(l.boundary, cell_idx_c(M::inv[l.dir])) +
                real_c(6) * M::w[l.dir] * rho0_ * eu;
        });
        forEachLink(pressureLinks, [&](const Link& l) {
            src.get(fluidCell(l), cell_idx_c(l.dir)) = aaPressureValueEven(src, l);
        });
    }

    /// Anti-bounce-back value for an even-step pressure link, computed from
    /// the pre-sweep state. Every slot read here is produced by the fluid
    /// cell xf itself (its own odd-step pushes) or by the never-swept
    /// boundary cell — no halo unpack ever targets them — so the value may
    /// be computed before communication finishes and before any in-place
    /// sweep has touched the neighborhood.
    real_t aaPressureValueEven(const PdfField& src, const Link& l) const {
        const Cell f = fluidCell(l);
        // P(xf, a) is parked at (xf + e_a, a) before an even step.
        std::array<real_t, M::Q> pdfs;
        for (uint_t a = 0; a < M::Q; ++a)
            pdfs[a] = src.get(f.x + M::c[a][0], f.y + M::c[a][1], f.z + M::c[a][2],
                              cell_idx_c(a));
        const Vec3 u = momentum<M>(pdfs) / density<M>(pdfs);
        const real_t eu = real_c(M::c[l.dir][0]) * u[0] + real_c(M::c[l.dir][1]) * u[1] +
                          real_c(M::c[l.dir][2]) * u[2];
        return -src.get(l.boundary, cell_idx_c(M::inv[l.dir])) +
               real_c(2) * M::w[l.dir] * rhoWall_ *
                   (real_c(1) + real_c(4.5) * eu * eu - real_c(1.5) * u.dot(u));
    }

    /// Odd-step prep: write the boundary value into the pull slot
    /// (xb, dbar), reading the reflected population from (xf, d).
    void applyLinksAaOdd(PdfField& src, const std::vector<Link>& noSlipLinks,
                         const std::vector<Link>& ubbLinks,
                         const std::vector<Link>& pressureLinks) const {
        forEachLink(noSlipLinks, [&](const Link& l) {
            const Cell f = fluidCell(l);
            src.get(l.boundary, cell_idx_c(M::inv[l.dir])) = src.get(f, cell_idx_c(l.dir));
        });
        forEachLink(ubbLinks, [&](const Link& l) {
            const Cell f = fluidCell(l);
            const Vec3 uw = uWallProfile_ ? uWallProfile_(l.boundary) : uWall_;
            const real_t eu = real_c(M::c[l.dir][0]) * uw[0] +
                              real_c(M::c[l.dir][1]) * uw[1] +
                              real_c(M::c[l.dir][2]) * uw[2];
            src.get(l.boundary, cell_idx_c(M::inv[l.dir])) =
                src.get(f, cell_idx_c(l.dir)) + real_c(6) * M::w[l.dir] * rho0_ * eu;
        });
        forEachLink(pressureLinks, [&](const Link& l) {
            src.get(l.boundary, cell_idx_c(M::inv[l.dir])) = aaPressureValueOdd(src, l);
        });
    }

    /// Anti-bounce-back value for an odd-step pressure link; same pre-sweep
    /// reasoning as aaPressureValueEven (all reads are slots the even kernel
    /// wrote cell-locally at xf, plus the never-swept boundary pull slot).
    real_t aaPressureValueOdd(const PdfField& src, const Link& l) const {
        const Cell f = fluidCell(l);
        // P(xf, a) is parked cell-locally at (xf, abar) before an odd step.
        std::array<real_t, M::Q> pdfs;
        for (uint_t a = 0; a < M::Q; ++a)
            pdfs[a] = src.get(f, cell_idx_c(M::inv[a]));
        const Vec3 u = momentum<M>(pdfs) / density<M>(pdfs);
        const real_t eu = real_c(M::c[l.dir][0]) * u[0] + real_c(M::c[l.dir][1]) * u[1] +
                          real_c(M::c[l.dir][2]) * u[2];
        return -src.get(f, cell_idx_c(l.dir)) +
               real_c(2) * M::w[l.dir] * rhoWall_ *
                   (real_c(1) + real_c(4.5) * eu * eu - real_c(1.5) * u.dot(u));
    }

    void applyLinks(PdfField& src, const std::vector<Link>& noSlipLinks,
                    const std::vector<Link>& ubbLinks,
                    const std::vector<Link>& pressureLinks) const {
        forEachLink(noSlipLinks, [&](const Link& l) {
            const Cell f = fluidCell(l);
            src.get(l.boundary, cell_idx_c(l.dir)) = src.get(f, cell_idx_c(M::inv[l.dir]));
        });
        forEachLink(ubbLinks, [&](const Link& l) {
            const Cell f = fluidCell(l);
            const Vec3 uw = uWallProfile_ ? uWallProfile_(l.boundary) : uWall_;
            const real_t eu = real_c(M::c[l.dir][0]) * uw[0] +
                              real_c(M::c[l.dir][1]) * uw[1] +
                              real_c(M::c[l.dir][2]) * uw[2];
            src.get(l.boundary, cell_idx_c(l.dir)) =
                src.get(f, cell_idx_c(M::inv[l.dir])) + real_c(6) * M::w[l.dir] * rho0_ * eu;
        });
        forEachLink(pressureLinks, [&](const Link& l) {
            const Cell f = fluidCell(l);
            // Velocity extrapolated from the adjacent fluid cell.
            const auto pdfs = getPdfs<M>(src, f.x, f.y, f.z);
            const Vec3 u = momentum<M>(pdfs) / density<M>(pdfs);
            const real_t eu = real_c(M::c[l.dir][0]) * u[0] + real_c(M::c[l.dir][1]) * u[1] +
                              real_c(M::c[l.dir][2]) * u[2];
            src.get(l.boundary, cell_idx_c(l.dir)) =
                -src.get(f, cell_idx_c(M::inv[l.dir])) +
                real_c(2) * M::w[l.dir] * rhoWall_ *
                    (real_c(1) + real_c(4.5) * eu * eu - real_c(1.5) * u.dot(u));
        });
    }

    Cell fluidCell(const Link& l) const {
        return {l.boundary.x + M::c[l.dir][0], l.boundary.y + M::c[l.dir][1],
                l.boundary.z + M::c[l.dir][2]};
    }

    const field::FlagField& flags_;
    BoundaryFlags masks_;
    std::vector<Link> noSlipLinks_, ubbLinks_, pressureLinks_;
    std::vector<Link> coreNoSlip_, coreUbb_, corePressure_;
    std::vector<Link> shellNoSlip_, shellUbb_, shellPressure_;
    const std::vector<Link> kNoLinks_;
    mutable std::vector<real_t> aaShellPressureStash_;
    bool partitioned_ = false;
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
