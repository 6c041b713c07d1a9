#pragma once
/// \file Communication.h
/// Ghost-layer PDF exchange between neighboring blocks.
///
/// A block receives, from each of its (up to) 26 neighbors, post-collision
/// PDFs of the neighbor's interior slice adjacent to it, stored in its
/// ghost layer where the next stream-pull sweep picks them up. Two layers
/// of selection decide which slots move:
///  * direction slicing: only the PDFs that stream across the interface —
///    5 of 19 per face cell, 1 per edge cell, none for corner neighbors
///    (D3Q19 has no corner links). The free packPdfs/unpackPdfs and the
///    addLocalCopy* functions move these full slices; packPdfs can also
///    ship all Q PDFs per cell (the communication-volume ablation).
///  * the reader rule (planExchangeRuns): of those, only the slots a fluid
///    cell of the *receiver* reads before the next exchange — a ghost slot
///    is read by exactly one pull, and in a sparse block most pullers are
///    solid. The distributed exchange (sim::PdfCommScheme) moves exactly
///    these slots, as strided runs planned once per block assignment from
///    the receiver's flags (ReceiveMask).
///
/// Invariant of the fluid-aware exchange: every slot a fluid cell reads is
/// delivered, and boundary links still overwrite theirs afterwards (after
/// the exchange in the synchronous schedule, after finishExchange for the
/// overlap shell), because a link's slot is read by its fluid cell and
/// therefore delivered first, as with full slices. Ghost slots no fluid
/// cell reads keep stale values. Nothing reads them: the sweeps touch
/// fluid cells only, and the state digest, checkpoint canonicalization and
/// migration read interior cells (the AA tiers only fluid cells, through
/// the canonical view).

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/Buffer.h"
#include "lbm/PdfField.h"

namespace walb::lbm {

/// The 26 neighbor offsets of a block (all nonzero vectors in {-1,0,1}^3).
inline constexpr std::array<std::array<int, 3>, 26> neighborhood26 = [] {
    std::array<std::array<int, 3>, 26> r{};
    std::size_t i = 0;
    for (int z = -1; z <= 1; ++z)
        for (int y = -1; y <= 1; ++y)
            for (int x = -1; x <= 1; ++x)
                if (x != 0 || y != 0 || z != 0) r[i++] = {x, y, z};
    return r;
}();

/// Index of the opposite neighbor direction.
inline constexpr std::array<std::size_t, 26> neighborhood26Inv = [] {
    std::array<std::size_t, 26> r{};
    for (std::size_t a = 0; a < 26; ++a)
        for (std::size_t b = 0; b < 26; ++b)
            if (neighborhood26[b][0] == -neighborhood26[a][0] &&
                neighborhood26[b][1] == -neighborhood26[a][1] &&
                neighborhood26[b][2] == -neighborhood26[a][2])
                r[a] = b;
    return r;
}();

/// O(1) index of direction d in neighborhood26. The table enumerates x
/// fastest, skipping the center, so the index is a base-3 digit expansion
/// with the center's slot (13) removed.
inline constexpr std::size_t dirIndex26(const std::array<int, 3>& d) {
    const int linear = (d[0] + 1) + 3 * (d[1] + 1) + 9 * (d[2] + 1);
    // linear == 13 is the center — not a neighbor direction; callers only
    // pass unit block offsets.
    return std::size_t(linear > 13 ? linear - 1 : linear);
}

/// Which cells of a fluid run at fixed (y, z) read a *marked* ghost region
/// under a stream-pull sweep of model M — the geometric core/shell
/// predicate of the communication-hiding schedule.
///
/// A pull update of cell (x, y, z) reads f_a from (x, y, z) - c_a. That
/// source lands in the ghost region toward block direction g exactly when,
/// on every axis, the cell sits at the matching boundary and c_a points
/// *into* the block (c_a[axis] == -g[axis]) — on g's zero axes the source
/// stays interior. Given the run's y/z boundary situation this classifies
/// every cell of the run with three bits:
///
///   * row — the region reached by the y/z components alone is marked:
///           every cell of the run reads it (any x);
///   * xLo / xHi — additionally, the run's x == 0 (resp. x == xSize-1)
///           endpoint cell reads a marked region through a velocity with
///           c_x == +1 (resp. -1).
///
/// So a run splits into at most three segments: the two endpoint cells and
/// the middle. `marked` is indexed by dirIndex26 (typically: ghost regions
/// backed by a remote neighbor).
struct RunGhostReach {
    bool row = false;
    bool xLo = false;
    bool xHi = false;
};

template <LatticeModel M>
RunGhostReach runGhostReach(bool yLo, bool yHi, bool zLo, bool zHi,
                            const std::array<bool, 26>& marked) {
    RunGhostReach r;
    for (uint_t a = 0; a < M::Q; ++a) {
        const int cx = M::c[a][0], cy = M::c[a][1], cz = M::c[a][2];
        const int gy = (cy == 1 && yLo) ? -1 : (cy == -1 && yHi) ? 1 : 0;
        const int gz = (cz == 1 && zLo) ? -1 : (cz == -1 && zHi) ? 1 : 0;
        if ((gy != 0 || gz != 0) && marked[dirIndex26({0, gy, gz})]) r.row = true;
        if (cx == 1 && marked[dirIndex26({-1, gy, gz})]) r.xLo = true;
        if (cx == -1 && marked[dirIndex26({1, gy, gz})]) r.xHi = true;
    }
    return r;
}

/// PDFs of model M that stream across an interface with normal direction d:
/// every axis on which d is nonzero must match the PDF velocity component.
template <LatticeModel M>
std::vector<uint_t> commDirections(const std::array<int, 3>& d) {
    std::vector<uint_t> result;
    for (uint_t a = 0; a < M::Q; ++a) {
        bool ok = true;
        for (int i = 0; i < 3; ++i)
            if (d[std::size_t(i)] != 0 && M::c[a][std::size_t(i)] != d[std::size_t(i)]) ok = false;
        if (ok && !(M::c[a][0] == 0 && M::c[a][1] == 0 && M::c[a][2] == 0)) result.push_back(a);
    }
    return result;
}

/// Interior slice a block sends toward neighbor direction d.
template <typename T>
CellInterval sendInterval(const field::Field<T>& f, const std::array<int, 3>& d) {
    const cell_idx_t sx = f.xSize(), sy = f.ySize(), sz = f.zSize();
    auto range = [](int dir, cell_idx_t size, cell_idx_t& lo, cell_idx_t& hi) {
        lo = (dir == 1) ? size - 1 : 0;
        hi = (dir == -1) ? 0 : size - 1;
    };
    CellInterval ci;
    range(d[0], sx, ci.min().x, ci.max().x);
    range(d[1], sy, ci.min().y, ci.max().y);
    range(d[2], sz, ci.min().z, ci.max().z);
    return ci;
}

/// Ghost slice of this block facing the neighbor in direction d.
template <typename T>
CellInterval recvInterval(const field::Field<T>& f, const std::array<int, 3>& d) {
    const cell_idx_t sx = f.xSize(), sy = f.ySize(), sz = f.zSize();
    auto range = [](int dir, cell_idx_t size, cell_idx_t& lo, cell_idx_t& hi) {
        if (dir == 1) { lo = size; hi = size; }
        else if (dir == -1) { lo = -1; hi = -1; }
        else { lo = 0; hi = size - 1; }
    };
    CellInterval ci;
    range(d[0], sx, ci.min().x, ci.max().x);
    range(d[1], sy, ci.min().y, ci.max().y);
    range(d[2], sz, ci.min().z, ci.max().z);
    return ci;
}

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

// ---- exchange modes ----------------------------------------------------------
//
// The AA kernels (KernelAa.h) keep one grid whose slot layout alternates
// with step parity, so the ghost exchange needs two parity-specific modes
// next to the classic two-grid ghost fill. All of them ship physical
// post-collision populations P that cross the block interface — the wire
// format stays layout-independent and, for the forward mode,
// byte-identical to the two-grid exchange.
//
//  * FORWARD (before an odd step; storage pdf(x, abar) = P(x, a)): same
//    intervals and population sets as the two-grid exchange, but both the
//    sender's reads and the receiver's ghost writes use the opposing slot.
//    The next odd sweep pulls f_a from (x - e_a, abar), so a ghost cell g
//    must carry P(g, a) at slot abar.
//  * REVERSE (before an even step; storage pdf(x, a) = P(x - e_a, a)): the
//    preceding odd step *pushed* boundary-crossing populations into the
//    sender's own ghost layer — the reverse exchange ships those ghost
//    slots back to the interior cells of the block that owns them. Natural
//    slots on both sides. Per population a the shipped slice is *trimmed*
//    on every zero axis of the exchange direction: the slot (g, a) is
//    valid only if its producer g - e_a is sender-interior, and the trim
//    makes each (cell, slot) arrive from exactly one neighbor — so the
//    unpack is deterministic under any message arrival order. Slots whose
//    producer is a wall cell carry garbage either way; the even-step
//    boundary prep overwrites them before any kernel read.

/// What one ghost exchange moves: the two-grid ghost fill, or one of the
/// two parity-specific exchanges of the in-place tiers.
enum class ExchangeMode : std::uint8_t { TwoGrid = 0, AaForward = 1, AaReverse = 2 };

/// Trims `base` (a one-cell-thick slice toward direction d) to the cells
/// whose producing cell g - e_a stays inside the slice's span on every
/// zero axis of d. May produce an empty interval (min > max).
template <LatticeModel M>
CellInterval aaReverseTrim(CellInterval base, const std::array<int, 3>& d, uint_t a) {
    auto adjust = [](int dj, int cj, cell_idx_t& lo, cell_idx_t& hi) {
        if (dj != 0) return;
        if (cj == 1) ++lo;
        if (cj == -1) --hi;
    };
    adjust(d[0], M::c[a][0], base.min().x, base.max().x);
    adjust(d[1], M::c[a][1], base.min().y, base.max().y);
    adjust(d[2], M::c[a][2], base.min().z, base.max().z);
    return base;
}

// ---- fluid-aware exchange plans ------------------------------------------------

/// One run of an exchange plan: `count` PDF values from element offset
/// `src` to element offset `dst`. A field end steps `stride` elements per
/// value (1 along an fzyx x-row, yStride down an x-face column); a payload
/// end (the message of a remote exchange) is contiguous.
struct StridedRun {
    std::int64_t src = 0;
    std::int64_t dst = 0;
    std::uint32_t count = 0;
    std::int32_t stride = 1;
};

/// Which ends of a run are field offsets and which are payload positions:
/// a same-process copy (field to field), a pack (field to payload) or an
/// unpack (payload to field).
enum class RunEnds : std::uint8_t { Copy, Pack, Unpack };

namespace detail {

inline void copyRun(const real_t* from, real_t* to, const StridedRun& r) {
    const real_t* s = from + r.src;
    real_t* d = to + r.dst;
    if (r.stride == 1) {
        std::memcpy(d, s, std::size_t(r.count) * sizeof(real_t));
        return;
    }
    for (std::uint32_t i = 0; i < r.count; ++i)
        d[std::ptrdiff_t(i) * r.stride] = s[std::ptrdiff_t(i) * r.stride];
}

/// Payload ends are byte-addressed: a message payload need not be aligned.
inline void packRun(const real_t* field, std::uint8_t* payload, const StridedRun& r) {
    const real_t* s = field + r.src;
    std::uint8_t* d = payload + std::size_t(r.dst) * sizeof(real_t);
    if (r.stride == 1) {
        std::memcpy(d, s, std::size_t(r.count) * sizeof(real_t));
        return;
    }
    for (std::uint32_t i = 0; i < r.count; ++i)
        std::memcpy(d + std::size_t(i) * sizeof(real_t), s + std::ptrdiff_t(i) * r.stride,
                    sizeof(real_t));
}

inline void unpackRun(const std::uint8_t* payload, real_t* field, const StridedRun& r) {
    const std::uint8_t* s = payload + std::size_t(r.src) * sizeof(real_t);
    real_t* d = field + r.dst;
    if (r.stride == 1) {
        std::memcpy(d, s, std::size_t(r.count) * sizeof(real_t));
        return;
    }
    for (std::uint32_t i = 0; i < r.count; ++i)
        std::memcpy(d + std::ptrdiff_t(i) * r.stride, s + std::size_t(i) * sizeof(real_t),
                    sizeof(real_t));
}

} // namespace detail

/// The fluid cells of a receiving block's boundary slab facing one
/// neighbor — the only cells that can read what that neighbor sends (see
/// planExchangeRuns). The receiver builds it from its own flags; a remote
/// sender gets it over the wire once per block assignment. all() is the
/// full-slice exchange: every slot counts as read.
class ReceiveMask {
public:
    static ReceiveMask all() {
        ReceiveMask m;
        m.all_ = m.any_ = true;
        return m;
    }

    /// One bit per cell of the slab of `layout` facing d (z, y, x order),
    /// set where isFluid(cell).
    template <typename T, typename IsFluid>
    static ReceiveMask fromCells(const field::Field<T>& layout, const std::array<int, 3>& d,
                                 IsFluid&& isFluid) {
        ReceiveMask m;
        m.slab_ = sendInterval(layout, d);
        m.bits_.assign(numBytes(m.slab_), 0);
        std::size_t i = 0;
        for (cell_idx_t z = m.slab_.min().z; z <= m.slab_.max().z; ++z)
            for (cell_idx_t y = m.slab_.min().y; y <= m.slab_.max().y; ++y)
                for (cell_idx_t x = m.slab_.min().x; x <= m.slab_.max().x; ++x, ++i)
                    if (isFluid(Cell{x, y, z})) m.bits_[i >> 3] |= std::uint8_t(1u << (i & 7));
        m.any_ = std::any_of(m.bits_.begin(), m.bits_.end(), [](std::uint8_t v) { return v != 0; });
        return m;
    }

    /// Reads the bits toWire wrote for the slab of `layout` facing d
    /// (throws BufferError on a short buffer).
    template <typename T>
    static ReceiveMask fromWire(const field::Field<T>& layout, const std::array<int, 3>& d,
                                RecvBuffer& buf) {
        ReceiveMask m;
        m.slab_ = sendInterval(layout, d);
        m.bits_.resize(numBytes(m.slab_));
        buf.getBytes(m.bits_.data(), m.bits_.size());
        m.any_ = std::any_of(m.bits_.begin(), m.bits_.end(), [](std::uint8_t v) { return v != 0; });
        return m;
    }
    void toWire(SendBuffer& buf) const { buf.putBytes(bits_.data(), bits_.size()); }

    /// False for a default-constructed mask (none received yet).
    bool valid() const { return all_ || !bits_.empty(); }
    /// False when no cell of the slab is fluid: nothing crosses the link.
    bool any() const { return any_; }

    /// True when the cell c (receiver frame) is a fluid cell of the slab.
    bool isReader(const Cell& c) const {
        if (all_) return true;
        if (!slab_.contains(c)) return false;
        const std::size_t i =
            (std::size_t(c.z - slab_.min().z) * std::size_t(slab_.ySize()) +
             std::size_t(c.y - slab_.min().y)) *
                std::size_t(slab_.xSize()) +
            std::size_t(c.x - slab_.min().x);
        return (bits_[i >> 3] >> (i & 7)) & 1u;
    }

private:
    static std::size_t numBytes(const CellInterval& slab) { return (slab.numCells() + 7) / 8; }

    CellInterval slab_;
    std::vector<std::uint8_t> bits_;
    bool all_ = false;
    bool any_ = false;
};

/// Plans the exchange `mode` from block `from` into block `to`, which
/// receives from direction d (its direction toward `from`; both fields have
/// the same shape and layout). The slots are those of the full-slice
/// exchange, in wire order (population, z, y, x in `to`'s frame), minus
/// every slot that no reader of `mask` reads before the next exchange:
///
///   TwoGrid:   ghost slot (g, a) is read only by the pull of g + c_a;
///   AaForward: the same cells, at slot abar;
///   AaReverse: interior slot (g, a) is read only by g itself (the even
///              step reads a cell's own slots).
///
/// Consecutive slots along the innermost axis the slice extends along
/// merge into one StridedRun appended to `out`; `ends` selects field
/// offsets or payload positions for each end. Returns the number of
/// planned slots — the payload length of a remote exchange.
template <LatticeModel M>
std::size_t planExchangeRuns(ExchangeMode mode, const PdfField& from, const PdfField& to,
                             const std::array<int, 3>& d, const ReceiveMask& mask,
                             RunEnds ends, std::vector<StridedRun>& out) {
    WALB_DASSERT(from.xSize() == to.xSize() && from.ySize() == to.ySize() &&
                 from.zSize() == to.zSize() && from.layout() == to.layout());
    if (!mask.any()) return 0;
    const std::array<int, 3> senderDir = {-d[0], -d[1], -d[2]};
    // Cell g of `to` is cell g + shift of `from`.
    const Cell shift{-d[0] * to.xSize(), -d[1] * to.ySize(), -d[2] * to.zSize()};
    const bool reverse = mode == ExchangeMode::AaReverse;
    const std::size_t first = out.size();
    std::int64_t k = 0; // payload position of the next planned slot
    for (uint_t a : commDirections<M>(senderDir)) {
        const CellInterval ci =
            reverse ? aaReverseTrim<M>(sendInterval(to, d), d, a) : recvInterval(to, d);
        if (ci.empty()) continue;
        const cell_idx_t slot = cell_idx_c(mode == ExchangeMode::AaForward ? M::inv[a] : a);
        const Cell reach = reverse ? Cell{0, 0, 0} : Cell{M::c[a][0], M::c[a][1], M::c[a][2]};
        const auto stride = std::int32_t(ci.xSize() > 1   ? to.xStride()
                                         : ci.ySize() > 1 ? to.yStride()
                                                          : to.zStride());
        for (cell_idx_t z = ci.min().z; z <= ci.max().z; ++z)
            for (cell_idx_t y = ci.min().y; y <= ci.max().y; ++y)
                for (cell_idx_t x = ci.min().x; x <= ci.max().x; ++x) {
                    const Cell g{x, y, z};
                    if (!mask.isReader(g + reach)) continue;
                    const auto s = ends == RunEnds::Unpack
                                       ? k
                                       : std::int64_t(from.index(x + shift.x, y + shift.y,
                                                                 z + shift.z, slot));
                    const auto t = ends == RunEnds::Pack ? k : std::int64_t(to.index(x, y, z, slot));
                    ++k;
                    // A payload end is always the next position; a field end
                    // must be the next element along the run's axis.
                    if (out.size() > first) {
                        StridedRun& r = out.back();
                        const std::int64_t step = std::int64_t(r.count) * r.stride;
                        if (r.stride == stride &&
                            (ends == RunEnds::Unpack || s == r.src + step) &&
                            (ends == RunEnds::Pack || t == r.dst + step)) {
                            ++r.count;
                            continue;
                        }
                    }
                    out.push_back({s, t, 1, stride});
                }
    }
    return std::size_t(k);
}

// ---- same-process ghost copies ---------------------------------------------

/// The runs of one same-process exchange, executed as one job. Every plan
/// built for a single exchange mode writes pairwise-disjoint (cell, slot)s
/// that no run of the plan reads (ghost fills read interiors and write
/// ghosts; the AA reverse copies read ghosts and write trimmed interiors,
/// each slot from exactly one neighbor), so the runs may execute in any
/// order and on any threads.
class LocalCopyPlan {
public:
    /// Adds the runs planExchangeRuns planned with RunEnds::Copy for the
    /// block pair (from, to).
    void add(const PdfField& from, PdfField& to, const std::vector<StridedRun>& runs) {
        if (runs.empty()) return;
        const auto pair = std::uint32_t(pairs_.size());
        pairs_.push_back({&from, &to});
        for (const StridedRun& r : runs) {
            items_.push_back({r, pair});
            slots_ += r.count;
        }
    }

    std::size_t numRuns() const { return items_.size(); }
    /// PDF values one run() copies.
    std::size_t numSlots() const { return slots_; }

    /// Executes every run as one orphaned worksharing loop: called by every
    /// thread of a parallel region it shares the runs over that team
    /// (static schedule, closing barrier); called outside a region it
    /// copies serially, in list order. Strided x-face runs are
    /// latency-bound, so a larger team keeps proportionally more misses in
    /// flight.
    void run() const {
        const auto n = std::int64_t(items_.size());
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (std::int64_t i = 0; i < n; ++i) {
            const Item& it = items_[std::size_t(i)];
            const Pair& p = pairs_[it.pair];
            detail::copyRun(p.from->data(), p.to->data(), it.run);
        }
    }

private:
    struct Pair {
        const PdfField* from;
        PdfField* to;
    };
    struct Item {
        StridedRun run;
        std::uint32_t pair; ///< index into pairs_
    };
    std::vector<Pair> pairs_;
    std::vector<Item> items_;
    std::size_t slots_ = 0;
};

namespace detail {
template <LatticeModel M>
void addFullSliceCopy(LocalCopyPlan& plan, ExchangeMode mode, const PdfField& from,
                      PdfField& to, const std::array<int, 3>& d) {
    std::vector<StridedRun> runs;
    planExchangeRuns<M>(mode, from, to, d, ReceiveMask::all(), RunEnds::Copy, runs);
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
/// facing -d. Used for wrapping flag fields periodically.
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

/// Applies full periodicity to a single block by wrapping every ghost slice
/// onto the opposite interior slice — the communication pattern of a
/// one-block periodic domain. Used by single-block physics tests.
template <LatticeModel M>
void applyPeriodicAll(PdfField& f) {
    LocalCopyPlan plan;
    for (const auto& d : neighborhood26) addLocalCopy<M>(plan, f, f, d);
    plan.run();
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

/// Single-block periodic wrap under AA parity — the AA counterparts of
/// applyPeriodicAll, one per exchange mode.
template <LatticeModel M>
void applyPeriodicAllAaForward(PdfField& f) {
    LocalCopyPlan plan;
    for (const auto& d : neighborhood26) addLocalCopyAaForward<M>(plan, f, f, d);
    plan.run();
}
template <LatticeModel M>
void applyPeriodicAllAaReverse(PdfField& f) {
    LocalCopyPlan plan;
    for (const auto& d : neighborhood26) addLocalCopyAaReverse<M>(plan, f, f, d);
    plan.run();
}

/// Bytes a block sends toward direction d (for communication-graph edge
/// weights and the network model).
template <LatticeModel M>
std::size_t packedBytes(const PdfField& f, const std::array<int, 3>& d,
                        bool fullPdfSet = false) {
    const CellInterval ci = sendInterval(f, d);
    const std::size_t nd = fullPdfSet ? M::Q : commDirections<M>(d).size();
    return ci.numCells() * nd * sizeof(real_t);
}

} // namespace walb::lbm
