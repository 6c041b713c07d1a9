#include "geometry/Primitives.h"

#include <cmath>

#include "core/Debug.h"

namespace walb::geometry {

namespace {
constexpr real_t kPi = real_c(3.14159265358979323846);
} // namespace

TriangleMesh makeSphereMesh(const Vec3& center, real_t radius, unsigned slices,
                            unsigned stacks) {
    WALB_ASSERT(slices >= 3 && stacks >= 2);
    TriangleMesh mesh;
    const std::uint32_t north = mesh.addVertex(center + Vec3(0, 0, radius));
    // Interior rings.
    for (unsigned s = 1; s < stacks; ++s) {
        const real_t phi = kPi * real_c(s) / real_c(stacks);
        for (unsigned l = 0; l < slices; ++l) {
            const real_t theta = 2 * kPi * real_c(l) / real_c(slices);
            mesh.addVertex(center + Vec3(radius * std::sin(phi) * std::cos(theta),
                                         radius * std::sin(phi) * std::sin(theta),
                                         radius * std::cos(phi)));
        }
    }
    const std::uint32_t south = mesh.addVertex(center - Vec3(0, 0, radius));

    auto ring = [&](unsigned s, unsigned l) {
        return std::uint32_t(1 + (s - 1) * slices + (l % slices));
    };
    for (unsigned l = 0; l < slices; ++l) {
        mesh.addTriangle(north, ring(1, l), ring(1, l + 1));
        mesh.addTriangle(south, ring(stacks - 1, l + 1), ring(stacks - 1, l));
    }
    for (unsigned s = 1; s + 1 < stacks; ++s)
        for (unsigned l = 0; l < slices; ++l) {
            mesh.addTriangle(ring(s, l), ring(s + 1, l), ring(s + 1, l + 1));
            mesh.addTriangle(ring(s, l), ring(s + 1, l + 1), ring(s, l + 1));
        }
    return mesh;
}

TriangleMesh makeBoxMesh(const AABB& box) {
    TriangleMesh mesh;
    const Vec3 mn = box.min(), mx = box.max();
    // 8 corners; bit i of the index selects max on axis i.
    for (unsigned c = 0; c < 8; ++c)
        mesh.addVertex(Vec3(c & 1 ? mx[0] : mn[0], c & 2 ? mx[1] : mn[1],
                            c & 4 ? mx[2] : mn[2]));
    // Each face as two triangles, outward orientation.
    const std::uint32_t f[6][4] = {
        {0, 4, 6, 2}, // x min
        {1, 3, 7, 5}, // x max
        {0, 1, 5, 4}, // y min
        {2, 6, 7, 3}, // y max
        {0, 2, 3, 1}, // z min
        {4, 5, 7, 6}, // z max
    };
    for (const auto& q : f) {
        mesh.addTriangle(q[0], q[1], q[2]);
        mesh.addTriangle(q[0], q[2], q[3]);
    }
    return mesh;
}

} // namespace walb::geometry
