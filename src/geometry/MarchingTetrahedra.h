#pragma once
/// \file MarchingTetrahedra.h
/// Watertight isosurface extraction from a signed distance function via
/// marching tetrahedra on a uniform grid (Kuhn 6-tetrahedra cube split,
/// which is translation-consistent so neighboring cubes share face
/// diagonals and the output is closed).
///
/// Used to turn the synthetic coronary tree's implicit SDF into a single
/// watertight triangle surface — the analog of a segmented CTA surface —
/// so that the mesh signed-distance pipeline (octree + pseudonormals)
/// operates on the same kind of input the paper's pipeline sees: one
/// closed surface without internal walls.

#include "core/AABB.h"
#include "geometry/SignedDistance.h"
#include "geometry/TriangleMesh.h"

namespace walb::geometry {

/// Extracts the phi = 0 isosurface of `phi` sampled on an (nx+1, ny+1,
/// nz+1) grid of points spanning `box`. Triangles are oriented with normals
/// pointing toward positive phi (outward for our inside-negative
/// convention). Vertices are indexed/deduplicated; the mesh is watertight
/// wherever the surface does not leave the box.
///
/// Cost follows the surface, not the grid: the voxelizer's hierarchical
/// sphere test decides the sign of whole regions of grid points at once
/// (relying on phi being 1-Lipschitz), and exact values are computed only
/// at the corners of sign-crossing edges. The output is bit-identical to
/// sampling phi at every grid point.
TriangleMesh extractIsosurface(const DistanceFunction& phi, const AABB& box, unsigned nx,
                               unsigned ny, unsigned nz);

} // namespace walb::geometry
