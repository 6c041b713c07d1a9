/// walb_voxelize — voxelize a triangle surface mesh to a VTK image.
///
/// Usage: walb_voxelize <mesh.off|mesh.stl> <resolution> <out.vti>
///
/// Runs the paper's geometry pipeline on a single block: load the surface,
/// build the triangle octree, evaluate the pseudonormal signed distance at
/// every cell center of an axis-aligned grid around the mesh, mark fluid
/// cells and the boundary hull, and write the flags for inspection in
/// ParaView.

#include <cstdio>
#include <cstring>

#include "geometry/MeshIO.h"
#include "geometry/Voxelizer.h"
#include "io/VtkOutput.h"
#include "lbm/Boundary.h"
#include "sim/Checkpoint.h"

int main(int argc, char** argv) {
    using namespace walb;
    if (argc != 4) {
        std::fprintf(stderr, "usage: %s <mesh.off|mesh.stl> <resolution> <out.vti>\n",
                     argv[0]);
        return 2;
    }
    const std::string meshPath = argv[1];
    cell_idx_t resolution = 0;
    try {
        resolution = sim::parseFlagValue<cell_idx_t>("resolution", argv[2]);
    } catch (const sim::OptionError& e) {
        std::fprintf(stderr, "walb_voxelize: %s\n", e.what());
        return 2;
    }
    if (resolution < 4 || resolution > 1024) {
        std::fprintf(stderr, "error: resolution must be in [4, 1024]\n");
        return 2;
    }

    geometry::TriangleMesh mesh;
    const bool ok = meshPath.size() > 4 && meshPath.substr(meshPath.size() - 4) == ".stl"
                        ? geometry::readStlBinary(meshPath, mesh)
                        : geometry::readOff(meshPath, mesh);
    if (!ok || mesh.numTriangles() == 0) {
        std::fprintf(stderr, "error: cannot read mesh '%s'\n", meshPath.c_str());
        return 1;
    }
    std::printf("mesh: %zu vertices, %zu triangles, area %.4g\n", mesh.numVertices(),
                mesh.numTriangles(), mesh.surfaceArea());

    geometry::MeshDistance distance(mesh);
    const AABB bounds = mesh.boundingBox();
    const real_t longest = std::max({bounds.xSize(), bounds.ySize(), bounds.zSize()});
    const real_t dx = longest / real_c(resolution);
    const AABB domain = bounds.expanded(2 * dx);

    const auto n = [&](real_t s) { return std::max<cell_idx_t>(1, cell_idx_t(s / dx)); };
    const cell_idx_t nx = n(domain.xSize()), ny = n(domain.ySize()), nz = n(domain.zSize());
    std::printf("grid: %lld x %lld x %lld cells, dx = %g\n", (long long)nx, (long long)ny,
                (long long)nz, dx);

    field::FlagField flags(nx, ny, nz, 1);
    const auto masks = lbm::BoundaryFlags::registerOn(flags);
    const auto hull = flags.registerFlag("hull");
    const geometry::CellMapping mapping{domain, dx};
    const auto stats = geometry::voxelize(distance, flags, mapping, masks.fluid);
    lbm::markBoundaryHull<lbm::D3Q19>(flags, masks.fluid, 0, hull);

    std::printf("fluid cells: %llu (%.2f%% of the grid; %llu per-cell distance "
                "evaluations, %llu regions pruned)\n",
                (unsigned long long)stats.fluidCells,
                100.0 * double(stats.fluidCells) / (double(nx) * double(ny) * double(nz)),
                (unsigned long long)stats.cellsEvaluated,
                (unsigned long long)stats.regionsPruned);

    io::VtkImageWriter writer(nx, ny, nz, dx, domain.min());
    writer.addFlagField(flags);
    writer.addScalar("signedDistance", [&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        return distance.signedDistance(mapping.cellCenter(x, y, z));
    });
    if (!writer.write(argv[3])) {
        std::fprintf(stderr, "error: cannot write '%s'\n", argv[3]);
        return 1;
    }
    std::printf("wrote %s\n", argv[3]);
    return 0;
}
