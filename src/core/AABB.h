#pragma once
/// \file AABB.h
/// Axis-aligned bounding box in physical (real-valued) coordinates.
/// Used for block bounding boxes in the block forest and for the geometry
/// module (triangle octrees, intersection early-outs).

#include <algorithm>
#include <ostream>

#include "core/Debug.h"
#include "core/Vector3.h"

namespace walb {

class AABB {
public:
    constexpr AABB() : min_(real_c(0)), max_(real_c(0)) {}
    constexpr AABB(const Vec3& mn, const Vec3& mx) : min_(mn), max_(mx) {}
    constexpr AABB(real_t x0, real_t y0, real_t z0, real_t x1, real_t y1, real_t z1)
        : min_(x0, y0, z0), max_(x1, y1, z1) {}

    constexpr const Vec3& min() const { return min_; }
    constexpr const Vec3& max() const { return max_; }

    constexpr Vec3 sizes() const { return max_ - min_; }
    constexpr real_t xSize() const { return max_[0] - min_[0]; }
    constexpr real_t ySize() const { return max_[1] - min_[1]; }
    constexpr real_t zSize() const { return max_[2] - min_[2]; }
    constexpr real_t volume() const { return xSize() * ySize() * zSize(); }
    constexpr Vec3 center() const { return (min_ + max_) * real_c(0.5); }

    constexpr bool empty() const {
        return max_[0] <= min_[0] || max_[1] <= min_[1] || max_[2] <= min_[2];
    }

    /// Half-open containment [min, max) — matches cell-center conventions so
    /// that adjacent blocks never both claim a point on the shared face.
    constexpr bool contains(const Vec3& p) const {
        return p[0] >= min_[0] && p[0] < max_[0] && p[1] >= min_[1] && p[1] < max_[1] &&
               p[2] >= min_[2] && p[2] < max_[2];
    }
    /// Closed containment — used for triangle binning where triangles on the
    /// boundary must land in some node.
    constexpr bool containsClosed(const Vec3& p) const {
        return p[0] >= min_[0] && p[0] <= max_[0] && p[1] >= min_[1] && p[1] <= max_[1] &&
               p[2] >= min_[2] && p[2] <= max_[2];
    }

    constexpr bool intersects(const AABB& o) const {
        return min_[0] < o.max_[0] && max_[0] > o.min_[0] && min_[1] < o.max_[1] &&
               max_[1] > o.min_[1] && min_[2] < o.max_[2] && max_[2] > o.min_[2];
    }

    constexpr AABB merged(const AABB& o) const {
        return {Vec3{std::min(min_[0], o.min_[0]), std::min(min_[1], o.min_[1]),
                     std::min(min_[2], o.min_[2])},
                Vec3{std::max(max_[0], o.max_[0]), std::max(max_[1], o.max_[1]),
                     std::max(max_[2], o.max_[2])}};
    }

    constexpr AABB expanded(real_t e) const {
        return {min_ - Vec3(e), max_ + Vec3(e)};
    }

    void merge(const Vec3& p) {
        for (int i = 0; i < 3; ++i) {
            min_[uint_c(i)] = std::min(min_[uint_c(i)], p[uint_c(i)]);
            max_[uint_c(i)] = std::max(max_[uint_c(i)], p[uint_c(i)]);
        }
    }

    /// Squared distance from p to this box (0 if inside).
    constexpr real_t sqrDistance(const Vec3& p) const {
        real_t d = 0;
        for (std::size_t i = 0; i < 3; ++i) {
            const real_t lo = min_[i] - p[i];
            const real_t hi = p[i] - max_[i];
            if (lo > 0) d += lo * lo;
            if (hi > 0) d += hi * hi;
        }
        return d;
    }

    /// Squared distance between this box and o (0 if they touch): a lower
    /// bound of sqrDistance(p) for every p in o.
    constexpr real_t sqrDistance(const AABB& o) const {
        real_t d = 0;
        for (std::size_t i = 0; i < 3; ++i) {
            const real_t lo = min_[i] - o.max_[i];
            const real_t hi = o.min_[i] - max_[i];
            if (lo > 0) d += lo * lo;
            if (hi > 0) d += hi * hi;
        }
        return d;
    }

    /// Radius of the circumsphere around the box center. Together with the
    /// insphere radius this drives the block/domain intersection early-outs
    /// of Section 2.3 of the paper.
    real_t circumsphereRadius() const { return (max_ - center()).length(); }
    constexpr real_t insphereRadius() const {
        return std::min({xSize(), ySize(), zSize()}) * real_c(0.5);
    }

    /// The octant subbox c in {0..7}; bit 0 = upper x half, bit 1 = y, bit 2 = z.
    constexpr AABB octant(unsigned c) const {
        const Vec3 ctr = center();
        Vec3 mn = min_, mx = max_;
        for (unsigned i = 0; i < 3; ++i) {
            if (c >> i & 1u)
                mn[i] = ctr[i];
            else
                mx[i] = ctr[i];
        }
        return {mn, mx};
    }

    constexpr bool operator==(const AABB&) const = default;

private:
    Vec3 min_, max_;
};

inline std::ostream& operator<<(std::ostream& os, const AABB& b) {
    return os << '[' << b.min() << ".." << b.max() << ']';
}

} // namespace walb
