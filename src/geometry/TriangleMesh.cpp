#include "geometry/TriangleMesh.h"

#include <algorithm>
#include <cmath>

#include "core/Debug.h"

namespace walb::geometry {

void TriangleMesh::computeNormals() {
    const auto numTris = std::ptrdiff_t(numTriangles());
    const auto numVerts = std::ptrdiff_t(numVertices());
    faceNormals_.assign(numTriangles(), Vec3(0, 0, 0));
    vertexNormals_.assign(numVertices(), Vec3(0, 0, 0));
    edgeNormals_.assign(3 * numTriangles(), Vec3(0, 0, 0));

    // Incident corners of each vertex, (triangle, corner) in ascending
    // order: every normal below sums its faces in that order.
    std::vector<std::uint32_t> first(numVertices() + 1, 0);
    for (const Triangle& tri : triangles_)
        for (const std::uint32_t v : tri) ++first[v + 1];
    for (std::size_t v = 0; v < numVertices(); ++v) first[v + 1] += first[v];
    std::vector<std::uint32_t> corners(first.back());
    {
        std::vector<std::uint32_t> fill(first.begin(), first.end() - 1);
        for (std::size_t t = 0; t < numTriangles(); ++t)
            for (unsigned k = 0; k < 3; ++k)
                corners[fill[triangles_[t][k]]++] = std::uint32_t(3 * t + k);
    }
    // A degenerate triangle has a zero face normal and contributes nothing.
    const auto contributes = [&](std::size_t t) { return faceNormals_[t] != Vec3(0, 0, 0); };

#ifdef _OPENMP
#pragma omp parallel
#endif
    {
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (std::ptrdiff_t t = 0; t < numTris; ++t) {
            const Vec3 raw = faceNormalRaw(std::size_t(t));
            const real_t len = raw.length();
            if (len > real_c(0)) faceNormals_[std::size_t(t)] = raw / len;
        }

        // Vertex pseudonormals: face normal weighted by the interior angle
        // at the vertex (Baerentzen & Aanaes).
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (std::ptrdiff_t v = 0; v < numVerts; ++v) {
            Vec3 sum(0, 0, 0);
            for (std::uint32_t i = first[std::size_t(v)]; i < first[std::size_t(v) + 1]; ++i) {
                const std::size_t t = corners[i] / 3;
                if (!contributes(t)) continue;
                const unsigned k = corners[i] % 3;
                const Triangle& tri = triangles_[t];
                const Vec3 p = vertices_[tri[k]];
                const Vec3 e1 = (vertices_[tri[(k + 1) % 3]] - p).normalized();
                const Vec3 e2 = (vertices_[tri[(k + 2) % 3]] - p).normalized();
                const real_t cosA = std::clamp(e1.dot(e2), real_c(-1), real_c(1));
                sum += std::acos(cosA) * faceNormals_[t];
            }
            vertexNormals_[std::size_t(v)] = sum.normalized();
        }

        // Edge pseudonormals: sum of the unit normals of the incident faces.
        // (Each face contributes an angle of pi around the edge, so equal
        // weighting realizes the angle-weighted definition.)
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (std::ptrdiff_t t = 0; t < numTris; ++t) {
            const Triangle& tri = triangles_[std::size_t(t)];
            for (unsigned e = 0; e < 3; ++e) {
                const std::uint32_t a = tri[e], b = tri[(e + 1) % 3];
                Vec3 sum(0, 0, 0);
                std::size_t last = ~std::size_t(0);
                for (std::uint32_t i = first[a]; i < first[a + 1]; ++i) {
                    const std::size_t u = corners[i] / 3;
                    if (u == last || !contributes(u)) continue; // a twice in u: once
                    last = u;
                    const Triangle& other = triangles_[u];
                    for (unsigned f = 0; f < 3; ++f) {
                        const std::uint32_t p = other[f], q = other[(f + 1) % 3];
                        if ((p == a && q == b) || (p == b && q == a)) sum += faceNormals_[u];
                    }
                }
                edgeNormals_[3 * std::size_t(t) + e] = sum.normalized();
            }
        }
    }
}

void TriangleMesh::append(const TriangleMesh& other) {
    const auto offset = std::uint32_t(numVertices());
    for (std::size_t v = 0; v < other.numVertices(); ++v)
        addVertex(other.vertex(v), other.color(v));
    for (const Triangle& t : other.triangles())
        addTriangle(t[0] + offset, t[1] + offset, t[2] + offset);
    faceNormals_.clear(); // invalidated
    vertexNormals_.clear();
    edgeNormals_.clear();
}

} // namespace walb::geometry
