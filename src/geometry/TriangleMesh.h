#pragma once
/// \file TriangleMesh.h
/// Indexed triangle surface mesh with optional per-vertex colors (used to
/// mark inflow/outflow surfaces, paper §2.3) and precomputed angle-weighted
/// pseudonormals for numerically robust inside/outside classification
/// (Baerentzen & Aanaes 2005).

#include <array>
#include <cstdint>
#include <vector>

#include "core/AABB.h"
#include "core/Types.h"
#include "core/Vector3.h"

namespace walb::geometry {

/// 8-bit RGB vertex color.
struct Color {
    std::uint8_t r = 200, g = 200, b = 200;
    constexpr bool operator==(const Color&) const = default;
};

inline constexpr Color kColorWall{200, 200, 200};
inline constexpr Color kColorInflow{255, 0, 0};
inline constexpr Color kColorOutflow{0, 255, 0};

class TriangleMesh {
public:
    using Triangle = std::array<std::uint32_t, 3>;

    std::uint32_t addVertex(const Vec3& p, Color c = kColorWall) {
        vertices_.push_back(p);
        colors_.push_back(c);
        return std::uint32_t(vertices_.size() - 1);
    }

    void addTriangle(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
        triangles_.push_back({a, b, c});
    }

    std::size_t numVertices() const { return vertices_.size(); }
    std::size_t numTriangles() const { return triangles_.size(); }

    const Vec3& vertex(std::size_t i) const { return vertices_[i]; }
    const Color& color(std::size_t i) const { return colors_[i]; }
    void setColor(std::size_t i, Color c) { colors_[i] = c; }
    const Triangle& triangle(std::size_t t) const { return triangles_[t]; }

    const std::vector<Vec3>& vertices() const { return vertices_; }
    const std::vector<Triangle>& triangles() const { return triangles_; }
    const std::vector<Color>& colors() const { return colors_; }

    Vec3 triangleVertex(std::size_t t, unsigned corner) const {
        return vertices_[triangles_[t][corner]];
    }

    /// Geometric (non-normalized) face normal; its length is twice the area.
    Vec3 faceNormalRaw(std::size_t t) const {
        const Vec3 a = triangleVertex(t, 0);
        return (triangleVertex(t, 1) - a).cross(triangleVertex(t, 2) - a);
    }

    AABB boundingBox() const {
        if (vertices_.empty()) return {};
        AABB box(vertices_[0], vertices_[0]);
        for (const Vec3& v : vertices_) box.merge(v);
        return box;
    }

    AABB triangleBox(std::size_t t) const {
        AABB box(triangleVertex(t, 0), triangleVertex(t, 0));
        box.merge(triangleVertex(t, 1));
        box.merge(triangleVertex(t, 2));
        return box;
    }

    /// Total surface area (for sanity tests).
    real_t surfaceArea() const {
        real_t a = 0;
        for (std::size_t t = 0; t < numTriangles(); ++t) a += faceNormalRaw(t).length() / 2;
        return a;
    }

    /// Precomputes unit face normals plus angle-weighted vertex and edge
    /// pseudonormals. Must be called (again) after the mesh was modified and
    /// before signed-distance queries. Runs on the caller's OpenMP team (call
    /// it outside a parallel region); each normal sums its incident faces in
    /// ascending triangle order, so the result is the same at any team size.
    void computeNormals();
    bool normalsComputed() const { return !faceNormals_.empty(); }

    const Vec3& faceNormal(std::size_t t) const { return faceNormals_[t]; }
    const Vec3& vertexNormal(std::size_t v) const { return vertexNormals_[v]; }
    /// Pseudonormal of edge e of triangle t, the edge from corner e to
    /// corner (e + 1) % 3; both triangles of an edge hold the same value.
    const Vec3& edgeNormal(std::size_t t, unsigned e) const { return edgeNormals_[3 * t + e]; }

    /// Appends all geometry of another mesh (vertices re-indexed).
    void append(const TriangleMesh& other);

private:
    std::vector<Vec3> vertices_;
    std::vector<Color> colors_;
    std::vector<Triangle> triangles_;

    std::vector<Vec3> faceNormals_;
    std::vector<Vec3> vertexNormals_;
    std::vector<Vec3> edgeNormals_; ///< 3 per triangle, see edgeNormal()
};

} // namespace walb::geometry
