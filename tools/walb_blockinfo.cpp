/// walb_blockinfo — inspect a block-structure file (paper §2.2 format).
///
/// Usage: walb_blockinfo [--loads] [--json] [--wfr <dump.wfr>] <forest.walb>
///
/// Prints the domain, grid configuration, per-process workload statistics
/// and the level histogram, without loading any cell data — the file holds
/// only the metadata needed to reconstruct the distributed forest.
///
/// --loads switches to the per-rank load table: block count and weight sum
/// of every process plus the imbalance factor max/avg — the offline view
/// of the assignment the rebalance subsystem acts on at runtime.
///
/// --json emits the same information (summary AND per-rank loads) as one
/// machine-readable JSON document, so CI gates and the serve drill can
/// assert on placement without screen-scraping the tables above.
///
/// --wfr <dump.wfr> additionally reads a flight-recorder dump of a run on
/// this structure and reports the active kernel tier and — for the in-place
/// AA-pattern tiers — the step parity the run stopped at (text and JSON).

#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <vector>

#include "blockforest/SetupBlockForest.h"
#include "core/KernelTier.h"
#include "obs/FlightRecorder.h"
#include "obs/Json.h"

namespace {

struct RankLoads {
    std::vector<std::uint64_t> work;
    std::vector<walb::uint_t> count;
    std::uint64_t maxWork = 0;
    double avg = 0;
};

RankLoads computeLoads(const walb::bf::SetupBlockForest& forest) {
    RankLoads loads;
    const std::uint32_t ranks = forest.numProcesses();
    loads.work.assign(ranks, 0);
    loads.count.assign(ranks, 0);
    // SetupBlockForest::load rejects a block on a process outside the forest.
    for (const auto& b : forest.blocks()) {
        loads.work[b.process] += b.workload;
        ++loads.count[b.process];
    }
    for (const std::uint64_t w : loads.work) loads.maxWork = std::max(loads.maxWork, w);
    loads.avg = ranks > 0 ? double(forest.totalWorkload()) / double(ranks) : 0.0;
    return loads;
}

/// Per-rank block counts, workload sums and the max/avg imbalance factor.
int printLoads(const walb::bf::SetupBlockForest& forest, const char* path) {
    using namespace walb;
    const std::uint32_t ranks = forest.numProcesses();
    const RankLoads loads = computeLoads(forest);
    const double total = double(forest.totalWorkload());

    std::printf("per-rank loads: %s\n", path);
    std::printf("%8s %10s %16s %10s\n", "rank", "blocks", "weight", "share");
    for (std::uint32_t r = 0; r < ranks; ++r)
        std::printf("%8u %10llu %16llu %9.2f%%\n", r,
                    (unsigned long long)loads.count[r], (unsigned long long)loads.work[r],
                    total > 0 ? 100.0 * double(loads.work[r]) / total : 0.0);
    std::printf("total workload   %llu over %u rank(s)\n",
                (unsigned long long)forest.totalWorkload(), ranks);
    std::printf("imbalance factor %.4f (max/avg)\n",
                loads.avg > 0 ? double(loads.maxWork) / loads.avg : 1.0);
    return 0;
}

/// Runtime state extracted from an optional flight-recorder dump.
struct FlightInfo {
    bool present = false;
    std::uint32_t rank = 0;
    std::uint64_t lastStep = 0;
    std::uint8_t kernelTier = 0;
    std::uint8_t aaParity = 0;
};

bool loadFlightInfo(const char* wfrPath, FlightInfo& out) {
    walb::obs::FlightRecorder::Dump dump;
    std::string err;
    if (!walb::obs::FlightRecorder::read(wfrPath, dump, &err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return false;
    }
    if (dump.samples.empty()) {
        std::fprintf(stderr, "error: '%s' holds no samples\n", wfrPath);
        return false;
    }
    out.present = true;
    out.rank = dump.rank;
    out.lastStep = dump.samples.back().step;
    out.kernelTier = dump.samples.back().kernelTier;
    out.aaParity = dump.samples.back().aaParity;
    return true;
}

/// Machine-readable dump: summary, balance statistics and the per-rank
/// load table in one JSON object.
int printJson(const walb::bf::SetupBlockForest& forest, const char* path,
              const FlightInfo& flight) {
    using namespace walb;
    const auto& cfg = forest.config();
    const RankLoads loads = computeLoads(forest);
    const auto stats = forest.balanceStats();
    const double total = double(forest.totalWorkload());

    obs::json::Writer w(std::cout);
    w.beginObject();
    w.kv("path", path);
    w.key("domain").beginObject();
    w.key("min").beginArray();
    for (int i = 0; i < 3; ++i) w.value(double(cfg.domain.min()[std::size_t(i)]));
    w.endArray();
    w.key("max").beginArray();
    for (int i = 0; i < 3; ++i) w.value(double(cfg.domain.max()[std::size_t(i)]));
    w.endArray();
    w.endObject();
    w.key("root_grid").beginArray();
    w.value(cfg.rootBlocksX).value(cfg.rootBlocksY).value(cfg.rootBlocksZ);
    w.endArray();
    w.kv("refinement_level", std::uint64_t(cfg.refinementLevel));
    w.key("cells_per_block").beginArray();
    w.value(cfg.cellsPerBlockX).value(cfg.cellsPerBlockY).value(cfg.cellsPerBlockZ);
    w.endArray();
    w.kv("dx", double(cfg.dx()));
    w.kv("blocks", std::uint64_t(forest.numBlocks()));
    w.kv("blocks_possible",
         std::uint64_t(cfg.blocksX()) * cfg.blocksY() * cfg.blocksZ());
    w.kv("processes", forest.numProcesses());
    w.kv("total_workload", forest.totalWorkload());
    w.kv("imbalance", stats.imbalance);
    w.kv("max_blocks_per_process", stats.maxBlocksPerProcess);
    w.kv("empty_processes", stats.emptyProcesses);
    w.key("ranks").beginArray();
    for (std::uint32_t r = 0; r < forest.numProcesses(); ++r) {
        w.beginObject();
        w.kv("rank", r);
        w.kv("blocks", std::uint64_t(loads.count[r]));
        w.kv("weight", loads.work[r]);
        w.kv("share", total > 0 ? double(loads.work[r]) / total : 0.0);
        w.endObject();
    }
    w.endArray();
    if (flight.present) {
        w.key("flight").beginObject();
        w.kv("rank", flight.rank);
        w.kv("last_step", flight.lastStep);
        w.kv("kernel_tier", kernelTierName(KernelTier(flight.kernelTier)));
        w.kv("aa_parity", std::uint64_t(flight.aaParity));
        w.endObject();
    }
    w.endObject();
    std::cout << "\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    using namespace walb;
    bool loads = false;
    bool json = false;
    const char* path = nullptr;
    const char* wfrPath = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--loads") == 0)
            loads = true;
        else if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else if (std::strcmp(argv[i], "--wfr") == 0 && i + 1 < argc)
            wfrPath = argv[++i];
        else if (!path)
            path = argv[i];
        else
            path = ""; // more than one positional argument -> usage error
    }
    if (!path || path[0] == '\0') {
        std::fprintf(stderr, "usage: %s [--loads] [--json] [--wfr <dump.wfr>] "
                             "<forest.walb>\n",
                     argv[0]);
        return 2;
    }
    const auto forest = bf::SetupBlockForest::loadFromFile(path);
    if (!forest) {
        std::fprintf(stderr, "error: cannot read '%s'\n", path);
        return 1;
    }
    FlightInfo flight;
    if (wfrPath && !loadFlightInfo(wfrPath, flight)) return 1;
    if (json) return printJson(*forest, path, flight);
    if (loads) return printLoads(*forest, path);

    const auto& cfg = forest->config();
    std::printf("walb block structure: %s\n", path);
    std::printf("  domain           [%g %g %g] .. [%g %g %g]\n", cfg.domain.min()[0],
                cfg.domain.min()[1], cfg.domain.min()[2], cfg.domain.max()[0],
                cfg.domain.max()[1], cfg.domain.max()[2]);
    std::printf("  root grid        %u x %u x %u, refinement level %u\n", cfg.rootBlocksX,
                cfg.rootBlocksY, cfg.rootBlocksZ, cfg.refinementLevel);
    std::printf("  cells per block  %u x %u x %u  (dx = %g)\n", cfg.cellsPerBlockX,
                cfg.cellsPerBlockY, cfg.cellsPerBlockZ, cfg.dx());
    std::printf("  blocks           %zu of %u possible (%.2f%% occupied)\n",
                forest->numBlocks(),
                cfg.blocksX() * cfg.blocksY() * cfg.blocksZ(),
                100.0 * double(forest->numBlocks()) /
                    double(cfg.blocksX()) / cfg.blocksY() / cfg.blocksZ());
    std::printf("  processes        %u\n", forest->numProcesses());
    std::printf("  total workload   %llu fluid cells (%.1f%% of block cells)\n",
                (unsigned long long)forest->totalWorkload(),
                100.0 * double(forest->totalWorkload()) /
                    (double(forest->numBlocks()) * double(cfg.cellsPerBlock())));

    const auto stats = forest->balanceStats();
    std::printf("  balance          imbalance %.3f, max %u blocks/process, %u empty "
                "processes\n",
                stats.imbalance, stats.maxBlocksPerProcess, stats.emptyProcesses);

    std::map<std::uint32_t, uint_t> blocksPerProcessHisto;
    {
        std::map<std::uint32_t, uint_t> count;
        for (const auto& b : forest->blocks()) ++count[b.process];
        for (const auto& [proc, n] : count) ++blocksPerProcessHisto[std::uint32_t(n)];
    }
    std::printf("  blocks/process histogram:\n");
    for (const auto& [n, procs] : blocksPerProcessHisto)
        std::printf("    %3u block(s): %llu process(es)\n", n, (unsigned long long)procs);
    if (flight.present) {
        std::printf("  kernel tier      %s (rank %u flight dump, last step %llu%s)\n",
                    kernelTierName(KernelTier(flight.kernelTier)), flight.rank,
                    (unsigned long long)flight.lastStep,
                    isAaTier(KernelTier(flight.kernelTier))
                        ? (flight.aaParity ? ", parity odd" : ", parity even")
                        : "");
    }
    return 0;
}
