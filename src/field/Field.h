#pragma once
/// \file Field.h
/// Four-dimensional lattice field (x, y, z, f) with optional ghost layers
/// and a runtime-selectable memory layout:
///   * Layout::fzyx — structure of arrays (SoA): all values of one f-slot
///     are contiguous. Required by the vectorized LBM kernels (paper §4.1).
///   * Layout::zyxf — array of structures (AoS): all f values of one cell
///     are contiguous. The natural layout for the generic textbook kernel.
///
/// Interior cells are addressed with coordinates in [0, size); ghost cells
/// with negative coordinates / coordinates >= size, down to -ghostLayers.
/// Data is 64-byte aligned (see core/Aligned.h).
///
/// An fzyx field stores the rows of its RowTable: by default every (y, z)
/// row of the allocation at full width, or — for a sparse block's PDFs —
/// only the x-interval of each row that the kernels address. Along x the
/// storage is contiguous either way, so row-wise consumers never see the
/// difference; only cells outside the stored rows cannot be addressed.

#include <algorithm>
#include <memory>
#include <vector>

#include "core/Aligned.h"
#include "core/Cell.h"
#include "core/Debug.h"
#include "core/Types.h"

namespace walb::field {

enum class Layout { fzyx, zyxf };

inline const char* layoutName(Layout l) { return l == Layout::fzyx ? "fzyx(SoA)" : "zyxf(AoS)"; }

/// The stored part of an fzyx allocation of x/y/z size plus ghost layers:
/// per (y, z) row an inclusive x-interval, possibly empty. The stored rows
/// are concatenated in (z, y) order, and each f-slot holds one such
/// concatenation of cells() values, padded to slotStride(), so
///
///   slot (x, y, z, f) = f * slotStride() + rowOffset(y, z) + x.
///
/// A full table stores every row at full width: the plain fzyx allocation,
/// with closed-form offsets and no padding. A sparse table pads each f-slot
/// to one cache line past a multiple of 4 KiB: the kernels stream all 19
/// slots at once, and slots a whole number of pages apart would share
/// cache sets and alias in the load/store unit (a dense 128^3 block with
/// its four wall-side edge rows narrowed to 128 cells stores exactly
/// 4291 pages per slot).
class RowTable {
public:
    struct Interval {
        cell_idx_t lo = 0, hi = -1; ///< inclusive; lo > hi: the row is not stored
        bool empty() const { return lo > hi; }
        cell_idx_t width() const { return empty() ? 0 : hi - lo + 1; }
    };

    /// A table storing rows[row(y, z)] of each row; the intervals must lie
    /// within the allocation's x-range [-ghost, xSize + ghost).
    RowTable(cell_idx_t xSize, cell_idx_t ySize, cell_idx_t zSize, cell_idx_t ghost,
             std::vector<Interval> rows)
        : RowTable(xSize, ySize, zSize, ghost) {
        WALB_ASSERT(rows.size() == numRows(),
                    "got " << rows.size() << " row intervals for " << numRows() << " rows");
        full_ = false;
        rows_ = std::move(rows);
        base_.resize(rows_.size());
        std::ptrdiff_t start = 0;
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            Interval& iv = rows_[r];
            if (iv.empty()) iv = {0, -1};
            WALB_ASSERT(iv.empty() || (iv.lo >= -ghost_ && iv.hi < xSize_ + ghost_),
                        "row interval [" << iv.lo << ", " << iv.hi << "] outside the allocation");
            base_[r] = start - iv.lo;
            if (!iv.empty()) storedRows_.push_back(std::uint32_t(r));
            start += iv.width();
        }
        cells_ = std::size_t(start);
        chunkRow_.resize((cells_ >> kChunkShift) + 1);
        for (std::size_t c = 0, i = 0; c < chunkRow_.size(); ++c) {
            while (i + 1 < storedRows_.size() && startOf(i + 1) <= c << kChunkShift) ++i;
            chunkRow_[c] = std::uint32_t(i);
        }
        constexpr std::size_t kPage = 4096 / sizeof(double), kLine = 64 / sizeof(double);
        stride_ = (cells_ + kPage - 1 - kLine) / kPage * kPage + kLine;
    }

    static std::shared_ptr<const RowTable> full(cell_idx_t xSize, cell_idx_t ySize,
                                                cell_idx_t zSize, cell_idx_t ghost) {
        return std::shared_ptr<const RowTable>(new RowTable(xSize, ySize, zSize, ghost));
    }

    cell_idx_t xSize() const { return xSize_; }
    cell_idx_t ySize() const { return ySize_; }
    cell_idx_t zSize() const { return zSize_; }
    cell_idx_t ghost() const { return ghost_; }
    bool isFull() const { return full_; }
    /// Stored cells: the values of one f-slot.
    std::size_t cells() const { return cells_; }
    /// Distance of successive f-slots: cells() plus the padding.
    std::size_t slotStride() const { return stride_; }
    std::size_t numRows() const { return std::size_t(yAlloc() * (zSize_ + 2 * ghost_)); }

    std::size_t row(cell_idx_t y, cell_idx_t z) const {
        WALB_DASSERT(y >= -ghost_ && y < ySize_ + ghost_ && z >= -ghost_ && z < zSize_ + ghost_,
                     "row (" << y << ',' << z << ") outside the allocation");
        return std::size_t((z + ghost_) * yAlloc() + y + ghost_);
    }
    Interval interval(cell_idx_t y, cell_idx_t z) const {
        return full_ ? Interval{-ghost_, xSize_ + ghost_ - 1} : rows_[row(y, z)];
    }
    /// Offset of (0, y, z, f = 0); defined for every row of the allocation,
    /// but only x inside the row's interval names a stored slot.
    std::ptrdiff_t rowOffset(cell_idx_t y, cell_idx_t z) const { return rowOffsetAt(row(y, z)); }
    /// rowOffset of the row with index r (see row()).
    std::ptrdiff_t rowOffsetAt(std::size_t r) const {
        return full_ ? std::ptrdiff_t(r) * xAlloc() + ghost_ : base_[r];
    }
    /// row(y + dy, z + dz) - row(y, z).
    std::ptrdiff_t rowStep(cell_idx_t dy, cell_idx_t dz) const { return dy + dz * yAlloc(); }
    /// Offset of the row's first stored cell; an empty row starts where
    /// the next stored row does, and the f-slot ends at slotStride(), the
    /// padding included.
    std::size_t rowStart(cell_idx_t y, cell_idx_t z) const {
        if (z == zSize_ + ghost_ && y == -ghost_) return stride_;
        return std::size_t(rowOffset(y, z) + interval(y, z).lo);
    }
    bool stored(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
        if (y < -ghost_ || y >= ySize_ + ghost_ || z < -ghost_ || z >= zSize_ + ghost_)
            return false;
        const Interval iv = interval(y, z);
        return x >= iv.lo && x <= iv.hi;
    }
    /// The cell at offset `pos` < cells() of an f-slot: the inverse of
    /// rowOffset(y, z) + x.
    Cell cellAt(std::size_t pos) const {
        std::size_t r = 0;
        if (full_) {
            // 32-bit division where it fits: BoundaryHandling decodes every
            // link this way at construction.
            r = pos >> 32 ? pos / std::size_t(xAlloc())
                          : std::uint32_t(pos) / std::uint32_t(xAlloc());
        } else {
            // The last stored row starting at or before pos, found from the
            // first one of pos's chunk.
            std::size_t i = chunkRow_[pos >> kChunkShift];
            while (i + 1 < storedRows_.size() && startOf(i + 1) <= pos) ++i;
            r = storedRows_[i];
        }
        const auto ya = std::uint32_t(yAlloc()), r32 = std::uint32_t(r);
        return {cell_idx_t(pos) - rowOffsetAt(r), cell_idx_t(r32 % ya) - ghost_,
                cell_idx_t(r32 / ya) - ghost_};
    }

    /// This table with each row's interval widened to cover the row's
    /// cells in `extra` as well.
    std::shared_ptr<const RowTable> including(const std::vector<Cell>& extra) const {
        std::vector<Interval> rows(numRows());
        for (cell_idx_t z = -ghost_; z < zSize_ + ghost_; ++z)
            for (cell_idx_t y = -ghost_; y < ySize_ + ghost_; ++y) rows[row(y, z)] = interval(y, z);
        for (const Cell& c : extra) {
            Interval& iv = rows[row(c.y, c.z)];
            iv = iv.empty() ? Interval{c.x, c.x} : Interval{std::min(iv.lo, c.x), std::max(iv.hi, c.x)};
        }
        return std::make_shared<const RowTable>(xSize_, ySize_, zSize_, ghost_, std::move(rows));
    }

    bool operator==(const RowTable& o) const {
        if (xSize_ != o.xSize_ || ySize_ != o.ySize_ || zSize_ != o.zSize_ || ghost_ != o.ghost_)
            return false;
        if (full_ || o.full_) return full_ == o.full_;
        return std::equal(rows_.begin(), rows_.end(), o.rows_.begin(), o.rows_.end(),
                          [](const Interval& a, const Interval& b) {
                              return a.lo == b.lo && a.hi == b.hi;
                          });
    }

private:
    RowTable(cell_idx_t xSize, cell_idx_t ySize, cell_idx_t zSize, cell_idx_t ghost)
        : xSize_(xSize), ySize_(ySize), zSize_(zSize), ghost_(ghost),
          cells_(std::size_t(xAlloc() * yAlloc() * (zSize + 2 * ghost))), stride_(cells_) {}

    /// Offset of the i-th stored row's first cell.
    std::size_t startOf(std::size_t i) const {
        return std::size_t(base_[storedRows_[i]] + rows_[storedRows_[i]].lo);
    }

    cell_idx_t xAlloc() const { return xSize_ + 2 * ghost_; }
    cell_idx_t yAlloc() const { return ySize_ + 2 * ghost_; }

    cell_idx_t xSize_, ySize_, zSize_, ghost_;
    bool full_ = true;
    std::size_t cells_;
    std::size_t stride_;
    std::vector<Interval> rows_;      ///< by row(y, z); empty when full
    std::vector<std::ptrdiff_t> base_; ///< by row(y, z): rowOffset; empty when full
    /// cellAt's index (sparse tables): the stored rows in order, and per
    /// chunk of 2^kChunkShift cells the stored row holding its first cell.
    static constexpr unsigned kChunkShift = 6;
    std::vector<std::uint32_t> storedRows_, chunkRow_;
};

/// Constructor tag: allocate without writing a single value. The caller
/// must write every slot itself before reading any — e.g. from the OpenMP
/// thread that later works on each page, so first touch places the page on
/// that thread's NUMA node.
struct NoFill {};
inline constexpr NoFill noFill{};

template <typename T>
class Field {
public:
    Field(cell_idx_t xSize, cell_idx_t ySize, cell_idx_t zSize, uint_t fSize, Layout layout,
          T initValue = T{}, cell_idx_t ghostLayers = 0)
        : Field(xSize, ySize, zSize, fSize, layout, noFill, ghostLayers) {
        fill(initValue);
    }

    Field(cell_idx_t xSize, cell_idx_t ySize, cell_idx_t zSize, uint_t fSize, Layout layout,
          NoFill, cell_idx_t ghostLayers = 0)
        : Field(xSize, ySize, zSize, fSize, layout, ghostLayers,
                layout == Layout::fzyx ? RowTable::full(xSize, ySize, zSize, ghostLayers)
                                       : nullptr) {}

    /// An fzyx field of the extent and ghost width of `rows` that stores
    /// its rows, without writing a value (see NoFill).
    Field(const std::shared_ptr<const RowTable>& rows, uint_t fSize, NoFill)
        : Field(rows->xSize(), rows->ySize(), rows->zSize(), fSize, Layout::fzyx, rows->ghost(),
                rows) {}

    Field(const Field& o)
        : Field(o.xSize_, o.ySize_, o.zSize_, uint_c(o.fSize_), o.layout_, o.ghost_, o.rows_) {
        std::copy(o.data_.get(), o.data_.get() + allocCells(), data_.get());
    }
    Field& operator=(const Field&) = delete;
    Field(Field&&) noexcept = default;
    Field& operator=(Field&&) noexcept = default;

    cell_idx_t xSize() const { return xSize_; }
    cell_idx_t ySize() const { return ySize_; }
    cell_idx_t zSize() const { return zSize_; }
    uint_t fSize() const { return uint_c(fSize_); }
    cell_idx_t ghostLayers() const { return ghost_; }
    Layout layout() const { return layout_; }

    cell_idx_t xAllocSize() const { return xAlloc_; }
    cell_idx_t yAllocSize() const { return yAlloc_; }
    cell_idx_t zAllocSize() const { return zAlloc_; }
    /// Values in storage: every slot of the allocation, or f-size times the
    /// row table's slot stride.
    std::size_t allocCells() const {
        return rows_ ? rows_->slotStride() * std::size_t(fSize_)
                     : std::size_t(xAlloc_ * yAlloc_ * zAlloc_ * fSize_);
    }

    /// The strides of the full allocation. A sparse field's rows follow
    /// one another at these strides only where they are stored at full
    /// width; its fStride is the row table's slot stride.
    cell_idx_t xStride() const { return xStride_; }
    cell_idx_t yStride() const { return yStride_; }
    cell_idx_t zStride() const { return zStride_; }
    cell_idx_t fStride() const { return fStride_; }

    /// The stored rows (fzyx; null for zyxf).
    const std::shared_ptr<const RowTable>& rowTable() const { return rows_; }
    /// True unless the row table leaves the cell out.
    bool isStored(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
        return coordinatesValid(x, y, z) && (!sparse_ || rows_->stored(x, y, z));
    }

    /// Interior region [0, size) as a cell interval.
    CellInterval interior() const { return {0, 0, 0, xSize_ - 1, ySize_ - 1, zSize_ - 1}; }
    /// Interior plus all ghost layers.
    CellInterval allocRegion() const { return interior().expanded(ghost_); }

    bool coordinatesValid(cell_idx_t x, cell_idx_t y, cell_idx_t z, cell_idx_t f = 0) const {
        return x >= -ghost_ && x < xSize_ + ghost_ && y >= -ghost_ && y < ySize_ + ghost_ &&
               z >= -ghost_ && z < zSize_ + ghost_ && f >= 0 && f < fSize_;
    }

    std::size_t index(cell_idx_t x, cell_idx_t y, cell_idx_t z, cell_idx_t f = 0) const {
        WALB_DASSERT(coordinatesValid(x, y, z, f),
                     "(" << x << ',' << y << ',' << z << ',' << f << ") out of bounds");
        if (sparse_) {
            WALB_DASSERT(rows_->stored(x, y, z),
                         "(" << x << ',' << y << ',' << z << ") outside the stored rows");
            return std::size_t(rows_->rowOffset(y, z) + x + f * fStride_);
        }
        return std::size_t((z + ghost_) * zStride_ + (y + ghost_) * yStride_ +
                           (x + ghost_) * xStride_ + f * fStride_);
    }

    T& get(cell_idx_t x, cell_idx_t y, cell_idx_t z, cell_idx_t f = 0) {
        return data_[index(x, y, z, f)];
    }
    const T& get(cell_idx_t x, cell_idx_t y, cell_idx_t z, cell_idx_t f = 0) const {
        return data_[index(x, y, z, f)];
    }
    T& get(const Cell& c, cell_idx_t f = 0) { return get(c.x, c.y, c.z, f); }
    const T& get(const Cell& c, cell_idx_t f = 0) const { return get(c.x, c.y, c.z, f); }

    T* dataAt(cell_idx_t x, cell_idx_t y, cell_idx_t z, cell_idx_t f = 0) {
        return data_.get() + index(x, y, z, f);
    }
    const T* dataAt(cell_idx_t x, cell_idx_t y, cell_idx_t z, cell_idx_t f = 0) const {
        return data_.get() + index(x, y, z, f);
    }

    T* data() { return data_.get(); }
    const T* data() const { return data_.get(); }

    void fill(T v) { std::fill(data_.get(), data_.get() + allocCells(), v); }

    /// O(1) exchange of the underlying storage — the src/dst swap at the end
    /// of each LBM time step. Dimensions, layout and stored rows must match.
    void swapDataWith(Field& o) {
        WALB_ASSERT(xSize_ == o.xSize_ && ySize_ == o.ySize_ && zSize_ == o.zSize_ &&
                    fSize_ == o.fSize_ && ghost_ == o.ghost_ && layout_ == o.layout_ &&
                    (rows_ == o.rows_ || (rows_ && o.rows_ && *rows_ == *o.rows_)));
        data_.swap(o.data_);
    }

    /// Copies every stored slot of `o`, whose stored rows this field's
    /// contain, into this field.
    void copyStoredRowsFrom(const Field& o) {
        WALB_ASSERT(rows_ && o.rows_ && fSize_ == o.fSize_ && xSize_ == o.xSize_ &&
                    ySize_ == o.ySize_ && zSize_ == o.zSize_ && ghost_ == o.ghost_);
        for (cell_idx_t z = -ghost_; z < zSize_ + ghost_; ++z)
            for (cell_idx_t y = -ghost_; y < ySize_ + ghost_; ++y) {
                const RowTable::Interval iv = o.rows_->interval(y, z);
                if (iv.empty()) continue;
                WALB_ASSERT(rows_->stored(iv.lo, y, z) && rows_->stored(iv.hi, y, z));
                for (cell_idx_t f = 0; f < fSize_; ++f)
                    std::copy_n(o.dataAt(iv.lo, y, z, f), iv.width(), dataAt(iv.lo, y, z, f));
            }
    }

    /// Applies f(x, y, z) over the interior in memory order.
    template <typename F>
    void forAllInterior(F&& f) const {
        interior().forEach(std::forward<F>(f));
    }

    /// Applies f(x, y, z) over interior plus ghost layers.
    template <typename F>
    void forAllIncludingGhost(F&& f) const {
        allocRegion().forEach(std::forward<F>(f));
    }

private:
    Field(cell_idx_t xSize, cell_idx_t ySize, cell_idx_t zSize, uint_t fSize, Layout layout,
          cell_idx_t ghostLayers, std::shared_ptr<const RowTable> rows)
        : xSize_(xSize),
          ySize_(ySize),
          zSize_(zSize),
          fSize_(cell_idx_c(fSize)),
          ghost_(ghostLayers),
          layout_(layout),
          rows_(std::move(rows)),
          sparse_(rows_ && !rows_->isFull()) {
        WALB_ASSERT(xSize > 0 && ySize > 0 && zSize > 0 && fSize > 0 && ghostLayers >= 0);
        WALB_ASSERT((layout_ == Layout::fzyx) == bool(rows_), "row tables are fzyx only");
        xAlloc_ = xSize_ + 2 * ghost_;
        yAlloc_ = ySize_ + 2 * ghost_;
        zAlloc_ = zSize_ + 2 * ghost_;
        if (layout_ == Layout::fzyx) {
            xStride_ = 1;
            yStride_ = xAlloc_;
            zStride_ = xAlloc_ * yAlloc_;
            fStride_ = cell_idx_c(rows_->slotStride());
        } else {
            fStride_ = 1;
            xStride_ = fSize_;
            yStride_ = xAlloc_ * fSize_;
            zStride_ = xAlloc_ * yAlloc_ * fSize_;
        }
        data_ = allocateAligned<T>(allocCells());
    }

    cell_idx_t xSize_, ySize_, zSize_, fSize_;
    cell_idx_t ghost_;
    Layout layout_;
    std::shared_ptr<const RowTable> rows_; ///< fzyx only
    bool sparse_ = false;                  ///< rows_ leaves cells out
    cell_idx_t xAlloc_ = 0, yAlloc_ = 0, zAlloc_ = 0;
    cell_idx_t xStride_ = 0, yStride_ = 0, zStride_ = 0, fStride_ = 0;
    AlignedArray<T> data_;
};

} // namespace walb::field
