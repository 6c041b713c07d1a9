/// walb_treegen — generate a synthetic coronary artery tree (the repo's
/// CTA stand-in) and export its surface mesh and metadata.
///
/// Usage: walb_treegen <seed> <out-prefix> [meshResolution=96]
///
/// Writes <prefix>.off (colored surface mesh: red inlet, green outlets)
/// and <prefix>.vtk (ParaView PolyData) and prints the tree statistics.

#include <cstdio>
#include <string>

#include "geometry/CoronaryTree.h"
#include "geometry/MeshIO.h"
#include "io/VtkOutput.h"
#include "sim/Checkpoint.h"

int main(int argc, char** argv) {
    using namespace walb;
    if (argc < 3 || argc > 4) {
        std::fprintf(stderr, "usage: %s <seed> <out-prefix> [meshResolution=96]\n", argv[0]);
        return 2;
    }
    geometry::CoronaryTreeParams params;
    unsigned resolution = 96;
    try {
        params.seed = sim::parseFlagValue<std::uint64_t>("seed", argv[1]);
        if (argc == 4) resolution = sim::parseFlagValue<unsigned>("meshResolution", argv[3]);
    } catch (const sim::OptionError& e) {
        std::fprintf(stderr, "walb_treegen: %s\n", e.what());
        return 2;
    }
    params.bounds = AABB(0, 0, 0, 1, 1, 1);

    const auto tree = geometry::CoronaryTree::generate(params);
    std::printf("tree (seed %llu): %zu segments, %zu outlets\n",
                (unsigned long long)params.seed, tree.segments().size(), tree.numLeaves());
    std::printf("  inlet radius %.4f at (%.3f, %.3f, %.3f)\n", tree.inletRadius(),
                tree.inletCenter()[0], tree.inletCenter()[1], tree.inletCenter()[2]);
    std::printf("  vessel volume %.5f = %.2f%% of the bounding box\n", tree.vesselVolume(),
                100.0 * tree.boundingBoxFluidFraction());

    unsigned maxDepth = 0;
    real_t minRadius = params.rootRadius;
    for (const auto& s : tree.segments()) {
        maxDepth = std::max(maxDepth, s.depth);
        minRadius = std::min(minRadius, s.radius);
    }
    std::printf("  %u bifurcation generations, finest vessel radius %.4f\n", maxDepth,
                minRadius);

    const auto mesh = tree.surfaceMesh(resolution);
    std::printf("surface mesh at resolution %u: %zu vertices, %zu triangles, area %.4f\n",
                resolution, mesh.numVertices(), mesh.numTriangles(), mesh.surfaceArea());

    const std::string prefix = argv[2];
    if (!geometry::writeOff(prefix + ".off", mesh)) {
        std::fprintf(stderr, "error: cannot write %s.off\n", prefix.c_str());
        return 1;
    }
    if (!io::writeVtkMesh(prefix + ".vtk", mesh)) {
        std::fprintf(stderr, "error: cannot write %s.vtk\n", prefix.c_str());
        return 1;
    }
    std::printf("wrote %s.off and %s.vtk\n", prefix.c_str(), prefix.c_str());
    return 0;
}
