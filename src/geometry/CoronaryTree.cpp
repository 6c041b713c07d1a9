#include "geometry/CoronaryTree.h"

#include <cmath>

#include "core/Debug.h"
#include "geometry/MarchingTetrahedra.h"

namespace walb::geometry {

namespace {
constexpr real_t kPi = real_c(3.14159265358979323846);

Vec3 randomPerpendicular(Random& rng, const Vec3& dir) {
    // Rejection-free: pick a random direction, remove the parallel part.
    for (int attempt = 0; attempt < 8; ++attempt) {
        const Vec3 r(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1));
        const Vec3 perp = r - dir * r.dot(dir);
        if (perp.sqrLength() > real_c(1e-6)) return perp.normalized();
    }
    // dir is degenerate enough that any axis works.
    return std::abs(dir[0]) < real_c(0.9) ? Vec3(1, 0, 0) : Vec3(0, 1, 0);
}

/// Keeps a vessel inside the bounding box by bending it toward the center
/// when it approaches a wall.
Vec3 steerInside(const Vec3& pos, const Vec3& dir, const AABB& bounds, real_t margin) {
    Vec3 result = dir;
    const Vec3 c = bounds.center();
    for (std::size_t i = 0; i < 3; ++i) {
        if (pos[i] - bounds.min()[i] < margin && result[i] < 0) result[i] *= real_c(-0.5);
        if (bounds.max()[i] - pos[i] < margin && result[i] > 0) result[i] *= real_c(-0.5);
    }
    // Gentle attraction to the center keeps long branches from hugging walls.
    result += (c - pos).normalized() * real_c(0.1);
    return result.normalized();
}

} // namespace

CoronaryTree CoronaryTree::generate(const CoronaryTreeParams& params) {
    WALB_ASSERT(params.rootRadius > params.minRadius);
    CoronaryTree tree;
    tree.params_ = params;
    Random rng(params.seed);

    struct Todo {
        Vec3 start, dir;
        real_t radius;
        std::int32_t parent;
        unsigned depth;
    };

    // The inlet enters through the center of the x-min face.
    const Vec3 inlet(params.bounds.min()[0] + params.rootRadius,
                     params.bounds.center()[1], params.bounds.center()[2]);
    std::vector<Todo> stack{{inlet, Vec3(1, 0, 0), params.rootRadius, -1, 0}};

    while (!stack.empty()) {
        Todo todo = stack.back();
        stack.pop_back();

        const real_t len =
            params.lengthToRadius * todo.radius * rng.uniform(real_c(0.8), real_c(1.2));
        Vec3 dir = steerInside(todo.start, todo.dir, params.bounds,
                               real_c(4) * todo.radius + len * real_c(0.5));
        // Random wobble.
        const Vec3 wob = randomPerpendicular(rng, dir);
        dir = (dir + wob * (params.directionJitter * rng.uniform(-1, 1))).normalized();

        Vec3 end = todo.start + dir * len;
        // Clamp hard against the bounds (safety net after steering).
        bool clipped = false;
        for (std::size_t i = 0; i < 3; ++i) {
            const real_t lo = params.bounds.min()[i] + todo.radius;
            const real_t hi = params.bounds.max()[i] - todo.radius;
            if (end[i] < lo) { end[i] = lo; clipped = true; }
            if (end[i] > hi) { end[i] = hi; clipped = true; }
        }

        const bool terminal = clipped || todo.depth + 1 >= params.maxDepth ||
                              todo.radius * real_c(0.8) < params.minRadius;
        const auto myIndex = std::int32_t(tree.segments_.size());
        tree.segments_.push_back(
            {todo.start, end, todo.radius, todo.parent, todo.depth, terminal});
        if (terminal) continue;

        // Murray's law bifurcation: r0^3 = r1^3 + r2^3 with a random flow
        // split s; the larger branch deviates less from the parent course.
        const real_t s = rng.uniform(params.splitMin, params.splitMax);
        const real_t r1 = todo.radius * std::cbrt(s);
        const real_t r2 = todo.radius * std::cbrt(real_c(1) - s);
        const Vec3 perp = randomPerpendicular(rng, dir);
        const real_t a1 = params.branchAngle * (real_c(1) - s) *
                          rng.uniform(real_c(0.7), real_c(1.3));
        const real_t a2 = params.branchAngle * s * rng.uniform(real_c(0.7), real_c(1.3));
        const Vec3 dir1 = (dir * std::cos(a1) + perp * std::sin(a1)).normalized();
        const Vec3 dir2 = (dir * std::cos(a2) - perp * std::sin(a2)).normalized();

        // Children start slightly inside the parent so the surface tubes
        // overlap and the union stays watertight at the joints.
        const Vec3 childStart = end - dir * (todo.radius * real_c(0.5));
        if (r1 >= params.minRadius)
            stack.push_back({childStart, dir1, r1, myIndex, todo.depth + 1});
        if (r2 >= params.minRadius)
            stack.push_back({childStart, dir2, r2, myIndex, todo.depth + 1});
        if (r1 < params.minRadius && r2 < params.minRadius)
            tree.segments_.back().leaf = true;
    }
    return tree;
}

std::pair<Vec3, Vec3> tubeEndpoints(const CoronarySegment& s) {
    const Vec3 dir = (s.b - s.a).normalized();
    const Vec3 a = (s.parent < 0) ? s.a : s.a - dir * (s.radius * real_c(0.5));
    const Vec3 b = s.leaf ? s.b + dir * (s.radius * real_c(0.5)) : s.b;
    return {a, b};
}

std::unique_ptr<DistanceFunction> CoronaryTree::implicitDistance() const {
    auto u = std::make_unique<UnionDistance>();
    for (const CoronarySegment& s : segments_) {
        const auto [a, b] = tubeEndpoints(s);
        AABB box(a, a);
        box.merge(b);
        u->add(std::make_unique<CylinderDistance>(a, b, s.radius),
               box.expanded(s.radius));
    }
    return u;
}

TriangleMesh CoronaryTree::surfaceMesh(unsigned gridResolution) const {
    const auto phi = implicitDistance();
    const AABB& bounds = params_.bounds;
    const real_t longest = std::max({bounds.xSize(), bounds.ySize(), bounds.zSize()});
    const real_t h = longest / real_c(gridResolution);
    // Expand the sampling box so the surface never touches the grid border
    // (which would leave the extracted mesh open there).
    const AABB sampleBox = bounds.expanded(2 * h);
    const auto n = [&](real_t size) { return std::max(1u, unsigned(std::ceil(size / h))); };
    TriangleMesh mesh = extractIsosurface(*phi, sampleBox, n(sampleBox.xSize()),
                                          n(sampleBox.ySize()), n(sampleBox.zSize()));

    // Color the inlet and outlet caps: every vertex close to the root start
    // point or to a leaf end point. The cap extraction sits at most ~h off
    // the analytic cap plane, so 1.5 radii catch the full disk.
    const auto [rootA, rootB] = tubeEndpoints(segments_.front());
    std::vector<std::pair<Vec3, real_t>> outletCaps; // leaf end point, radius
    for (const CoronarySegment& s : segments_)
        if (s.leaf) outletCaps.emplace_back(tubeEndpoints(s).second, s.radius);
    const auto numVertices = std::ptrdiff_t(mesh.numVertices());
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (std::ptrdiff_t v = 0; v < numVertices; ++v) {
        const Vec3& p = mesh.vertex(std::size_t(v));
        if ((p - rootA).length() < real_c(1.5) * segments_.front().radius) {
            mesh.setColor(std::size_t(v), kColorInflow);
            continue;
        }
        for (const auto& [b, radius] : outletCaps) {
            if ((p - b).length() < real_c(1.5) * radius) {
                mesh.setColor(std::size_t(v), kColorOutflow);
                break;
            }
        }
    }
    return mesh;
}

real_t CoronaryTree::vesselVolume() const {
    real_t v = 0;
    for (const CoronarySegment& s : segments_)
        v += kPi * s.radius * s.radius * (s.b - s.a).length();
    return v;
}

std::size_t CoronaryTree::numLeaves() const {
    std::size_t n = 0;
    for (const CoronarySegment& s : segments_)
        if (s.leaf) ++n;
    return n;
}

} // namespace walb::geometry
