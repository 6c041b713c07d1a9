#pragma once
/// \file VtkOutput.h
/// ParaView-compatible output: lattice fields as VTK ImageData (.vti) and
/// triangle meshes as legacy VTK PolyData (.vtk). Used by the examples to
/// dump velocity/density/flag snapshots and by downstream users to inspect
/// geometries and flow fields. ASCII encoding — portable and diffable;
/// simulation snapshots at the paper's scales would use the block
/// structure's binary format instead.

#include <functional>
#include <string>
#include <vector>

#include "field/FlagField.h"
#include "geometry/TriangleMesh.h"
#include "geometry/Voxelizer.h"
#include "lbm/PdfField.h"

namespace walb::io {

/// Collects per-cell datasets of one uniform grid and writes a .vti file.
class VtkImageWriter {
public:
    /// The written grid covers the interior of fields sized (nx, ny, nz)
    /// with physical spacing dx and origin at `origin`.
    VtkImageWriter(cell_idx_t nx, cell_idx_t ny, cell_idx_t nz, real_t dx = 1.0,
                   const Vec3& origin = {0, 0, 0})
        : nx_(nx), ny_(ny), nz_(nz), dx_(dx), origin_(origin) {}

    /// Scalar dataset from a callback over interior cells.
    void addScalar(const std::string& name,
                   const std::function<real_t(cell_idx_t, cell_idx_t, cell_idx_t)>& f);

    /// Vector dataset from a callback over interior cells.
    void addVector(const std::string& name,
                   const std::function<Vec3(cell_idx_t, cell_idx_t, cell_idx_t)>& f);

    /// Density and velocity of a PDF field (post-collision convention)
    /// that stores every interior cell, e.g. a full field (a driver block's
    /// field stores only the rows its fluid cells reach).
    template <lbm::LatticeModel M>
    void addPdfField(const lbm::PdfField& pdfs) {
        addScalar("density", [&pdfs](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            return lbm::cellDensity<M>(pdfs, x, y, z);
        });
        addVector("velocity", [&pdfs](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            return lbm::cellVelocity<M>(pdfs, x, y, z);
        });
    }

    /// Raw flag values (useful for inspecting voxelizations).
    void addFlagField(const field::FlagField& flags) {
        addScalar("flags", [&flags](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            return real_c(flags.get(x, y, z));
        });
    }

    bool write(const std::string& path) const;

private:
    struct DataSet {
        std::string name;
        unsigned components;
        std::vector<real_t> values; ///< cell-major, components interleaved
    };

    cell_idx_t nx_, ny_, nz_;
    real_t dx_;
    Vec3 origin_;
    std::vector<DataSet> data_;
};

/// Writes a triangle mesh as legacy VTK PolyData with per-vertex colors.
bool writeVtkMesh(const std::string& path, const geometry::TriangleMesh& mesh);

} // namespace walb::io
