/// Figure 1 — domain partitioning of the coronary tree with a target of
/// one block per process.
///
/// Paper: (a) one JUQUEEN nodeboard: 512 processes, 485 blocks;
/// (b) the whole machine: 458,752 processes, 458,184 blocks. The achieved
/// block count always falls slightly short of the target because the
/// binary search must not exceed it and block counts move in discrete
/// jumps (paper §2.3).
///
/// Reproduction: the same binary search runs on the synthetic coronary
/// tree at a sweep of process counts; we report target vs achieved blocks
/// and the shortfall ratio (paper: 485/512 = 94.7%, 458184/458752 =
/// 99.88%). Pass a process count as argv[1] to add a custom (e.g.
/// full-JUQUEEN 458752) run.

#include <cstdio>

#include "blockforest/ScalingSetup.h"
#include "core/Timer.h"
#include "geometry/CoronaryTree.h"
#include "sim/Checkpoint.h"

using namespace walb;

int main(int argc, char** argv) {
    std::printf("=== Figure 1: one-block-per-process partitioning of the coronary tree "
                "===\n");
    std::vector<uint_t> targets = {512, 4096, 32768};
    // Larger scales (e.g. full-JUQUEEN 458752, ~minutes of search) opt-in:
    if (argc > 1) {
        try {
            targets.push_back(uint_t(sim::parseFlagValue<std::uint64_t>("target", argv[1])));
        } catch (const sim::OptionError& e) {
            std::fprintf(stderr, "fig1_partitioning: %s\n", e.what());
            return 2;
        }
    }

    geometry::CoronaryTreeParams params;
    params.seed = 2013;
    params.bounds = AABB(0, 0, 0, 1, 1, 1);
    params.rootRadius = 0.035;
    params.minRadius = 0.004;
    params.maxDepth = 13;
    const auto tree = geometry::CoronaryTree::generate(params);
    const auto phi = tree.implicitDistance();
    std::printf("synthetic tree: %zu segments, %zu outlets, fluid fraction of bbox "
                "%.2f%% (paper's CTA geometry: ~0.3%%)\n\n",
                tree.segments().size(), tree.numLeaves(),
                100.0 * tree.boundingBoxFluidFraction());

    std::printf("%10s %10s %10s %9s %10s\n", "processes", "blocks", "dx", "achieved",
                "search[s]");
    for (uint_t target : targets) {
        Timer t;
        t.start();
        const auto result = bf::findWeakScalingPartition(*phi, params.bounds, 16, target);
        t.stop();
        std::printf("%10llu %10llu %10.5f %8.1f%% %10.1f\n", (unsigned long long)target,
                    (unsigned long long)result.blocks, result.dx,
                    100.0 * double(result.blocks) / double(target), t.total());
    }
    std::printf("\npaper anchors: 512 -> 485 blocks (94.7%%); 458,752 -> 458,184 blocks "
                "(99.88%%).\nThe shortfall shrinks with scale because the discrete block-"
                "count jumps become\nrelatively smaller — the same trend as above.\n");
    return 0;
}
