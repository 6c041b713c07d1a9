#pragma once
/// \file BoundarySetup.h
/// Boundary-condition assignment for complex geometries (paper §2.3): after
/// voxelization and hull marking, every boundary lattice cell receives a
/// boundary condition "according to the vertex colors of the closest
/// triangle t̂" — inflow surfaces are colored kColorInflow (velocity bounce
/// back), outflow surfaces kColorOutflow (pressure anti bounce back),
/// everything else is a no-slip wall.

#include "field/FlagField.h"
#include "geometry/SignedDistance.h"
#include "geometry/Voxelizer.h"
#include "lbm/Boundary.h"

namespace walb::geometry {

struct BoundaryAssignmentStats {
    uint_t noSlipCells = 0;
    uint_t inflowCells = 0;
    uint_t outflowCells = 0;
};

/// Classifies every cell of `flags` carrying `hullMask` (interior and ghost
/// layers) by the dominant vertex color of the closest triangle: the hull
/// flag is replaced by the matching boundary flag from `masks`.
///
/// Only whether the closest triangle is *colored* (>= 2 inflow or >= 2
/// outflow vertices) matters for a wall, so most cells skip the octree
/// search: a cell is certified no-slip if some triangle — the closest one
/// of an already classified neighbor or of the last search — is nearer,
/// by a margin far above rounding, than every colored triangle. Then the
/// closest triangle, ties included, is uncolored. Every other cell gets the
/// full closest-triangle query, so the flags are those of one query per
/// cell. Single-threaded (a flag initializer runs it per block).
BoundaryAssignmentStats assignBoundaryConditionsFromColors(field::FlagField& flags,
                                                           const lbm::BoundaryFlags& masks,
                                                           field::flag_t hullMask,
                                                           const MeshDistance& mesh,
                                                           const CellMapping& mapping);

} // namespace walb::geometry
