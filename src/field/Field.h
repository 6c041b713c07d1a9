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

#include <algorithm>

#include "core/Aligned.h"
#include "core/Cell.h"
#include "core/Debug.h"
#include "core/Types.h"

namespace walb::field {

enum class Layout { fzyx, zyxf };

inline const char* layoutName(Layout l) { return l == Layout::fzyx ? "fzyx(SoA)" : "zyxf(AoS)"; }

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
        : xSize_(xSize),
          ySize_(ySize),
          zSize_(zSize),
          fSize_(cell_idx_c(fSize)),
          ghost_(ghostLayers),
          layout_(layout) {
        WALB_ASSERT(xSize > 0 && ySize > 0 && zSize > 0 && fSize > 0 && ghostLayers >= 0);
        xAlloc_ = xSize_ + 2 * ghost_;
        yAlloc_ = ySize_ + 2 * ghost_;
        zAlloc_ = zSize_ + 2 * ghost_;
        if (layout_ == Layout::fzyx) {
            xStride_ = 1;
            yStride_ = xAlloc_;
            zStride_ = xAlloc_ * yAlloc_;
            fStride_ = xAlloc_ * yAlloc_ * zAlloc_;
        } else {
            fStride_ = 1;
            xStride_ = fSize_;
            yStride_ = xAlloc_ * fSize_;
            zStride_ = xAlloc_ * yAlloc_ * fSize_;
        }
        data_ = allocateAligned<T>(allocCells());
    }

    Field(const Field& o)
        : Field(o.xSize_, o.ySize_, o.zSize_, uint_c(o.fSize_), o.layout_, noFill, o.ghost_) {
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
    std::size_t allocCells() const {
        return std::size_t(xAlloc_ * yAlloc_ * zAlloc_ * fSize_);
    }

    cell_idx_t xStride() const { return xStride_; }
    cell_idx_t yStride() const { return yStride_; }
    cell_idx_t zStride() const { return zStride_; }
    cell_idx_t fStride() const { return fStride_; }

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
    /// of each LBM time step. Dimensions and layout must match.
    void swapDataWith(Field& o) {
        WALB_ASSERT(xSize_ == o.xSize_ && ySize_ == o.ySize_ && zSize_ == o.zSize_ &&
                    fSize_ == o.fSize_ && ghost_ == o.ghost_ && layout_ == o.layout_);
        data_.swap(o.data_);
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
    cell_idx_t xSize_, ySize_, zSize_, fSize_;
    cell_idx_t ghost_;
    Layout layout_;
    cell_idx_t xAlloc_ = 0, yAlloc_ = 0, zAlloc_ = 0;
    cell_idx_t xStride_ = 0, yStride_ = 0, zStride_ = 0, fStride_ = 0;
    AlignedArray<T> data_;
};

} // namespace walb::field
