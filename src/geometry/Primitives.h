#pragma once
/// \file Primitives.h
/// Closed triangle-mesh builders for spheres and boxes. Spheres serve as
/// analytic ground truth for the mesh signed-distance pipeline tests.

#include "geometry/TriangleMesh.h"

namespace walb::geometry {

/// UV sphere with `slices` longitudes and `stacks` latitudes; outward
/// orientation.
TriangleMesh makeSphereMesh(const Vec3& center, real_t radius, unsigned slices = 24,
                            unsigned stacks = 12);

/// Axis-aligned box surface mesh (12 triangles), outward orientation.
TriangleMesh makeBoxMesh(const AABB& box);

} // namespace walb::geometry
