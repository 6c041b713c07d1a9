#include "blockforest/SetupBlockForest.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "core/BinaryIO.h"
#include "core/Random.h"
#include "lbm/Communication.h"
#include "lbm/LatticeModel.h"
#include "partition/Partitioner.h"

namespace walb::bf {

namespace {

/// Spreads the lower 21 bits of v so consecutive bits are 3 apart.
std::uint64_t spreadBits3(std::uint64_t v) {
    v &= 0x1fffff;
    v = (v | (v << 32)) & 0x1f00000000ffffull;
    v = (v | (v << 16)) & 0x1f0000ff0000ffull;
    v = (v | (v << 8)) & 0x100f00f00f00f00full;
    v = (v | (v << 4)) & 0x10c30c30c30c30c3ull;
    v = (v | (v << 2)) & 0x1249249249249249ull;
    return v;
}

} // namespace

std::uint64_t mortonCode3D(const Cell& c) {
    return spreadBits3(uint_c(c.x)) | (spreadBits3(uint_c(c.y)) << 1) |
           (spreadBits3(uint_c(c.z)) << 2);
}

namespace {

std::uint64_t mortonCode(const Cell& c) { return mortonCode3D(c); }

/// Evaluates whether the block at the given box is part of the simulation:
/// fast sphere-based classification first, per-cell check only for blocks
/// straddling the boundary (paper §2.3).
struct BlockClass {
    bool keep;
    bool fullyInside;
};

BlockClass classify(const geometry::DistanceFunction& phi, const AABB& box,
                    const SetupConfig& config) {
    switch (geometry::classifyBlock(phi, box)) {
        case geometry::BlockCoverage::Outside: return {false, false};
        case geometry::BlockCoverage::Inside: return {true, true};
        case geometry::BlockCoverage::Mixed: break;
    }
    const geometry::CellMapping mapping{box, config.dx()};
    const bool keep = geometry::anyFluidCell(phi, mapping, cell_idx_c(config.cellsPerBlockX),
                                             cell_idx_c(config.cellsPerBlockY),
                                             cell_idx_c(config.cellsPerBlockZ));
    return {keep, false};
}

} // namespace

AABB SetupBlockForest::blockBox(cell_idx_t x, cell_idx_t y, cell_idx_t z) const {
    const Vec3 size(config_.domain.xSize() / real_c(config_.blocksX()),
                    config_.domain.ySize() / real_c(config_.blocksY()),
                    config_.domain.zSize() / real_c(config_.blocksZ()));
    const Vec3 lo = config_.domain.min() +
                    Vec3(real_c(x) * size[0], real_c(y) * size[1], real_c(z) * size[2]);
    return {lo, lo + size};
}

BlockID SetupBlockForest::idForGridPos(const SetupConfig& config, cell_idx_t x, cell_idx_t y,
                                       cell_idx_t z) {
    const unsigned level = config.refinementLevel;
    const std::uint32_t rx = std::uint32_t(x) >> level;
    const std::uint32_t ry = std::uint32_t(y) >> level;
    const std::uint32_t rz = std::uint32_t(z) >> level;
    BlockID id = BlockID::root((rz * config.rootBlocksY + ry) * config.rootBlocksX + rx);
    for (unsigned l = level; l > 0; --l) {
        const unsigned bit = l - 1;
        const unsigned octant = ((std::uint32_t(x) >> bit) & 1u) |
                                (((std::uint32_t(y) >> bit) & 1u) << 1) |
                                (((std::uint32_t(z) >> bit) & 1u) << 2);
        id = id.child(octant);
    }
    return id;
}

SetupBlockForest SetupBlockForest::create(const SetupConfig& config,
                                          const geometry::DistanceFunction* phi) {
    SetupBlockForest forest;
    forest.config_ = config;
    const std::uint32_t gx = config.blocksX(), gy = config.blocksY(), gz = config.blocksZ();
    const auto total = std::ptrdiff_t(std::size_t(gx) * gy * gz);

    // Each grid position classifies into its own slot on the caller's team;
    // the forest is assembled in grid order afterwards.
    std::vector<BlockClass> classOf;
    if (phi) {
        classOf.resize(std::size_t(total));
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
        for (std::ptrdiff_t g = 0; g < total; ++g) {
            const auto x = cell_idx_c(std::size_t(g) % gx);
            const auto y = cell_idx_c(std::size_t(g) / gx % gy);
            const auto z = cell_idx_c(std::size_t(g) / (std::size_t(gx) * gy));
            classOf[std::size_t(g)] = classify(*phi, forest.blockBox(x, y, z), config);
        }
    }
    for (cell_idx_t z = 0; z < cell_idx_c(gz); ++z)
        for (cell_idx_t y = 0; y < cell_idx_c(gy); ++y)
            for (cell_idx_t x = 0; x < cell_idx_c(gx); ++x) {
                const BlockClass cls =
                    phi ? classOf[forest.gridIndex(x, y, z)] : BlockClass{true, true};
                if (!cls.keep) continue;
                forest.blocks_.push_back({idForGridPos(config, x, y, z),
                                          Cell{x, y, z},
                                          forest.blockBox(x, y, z),
                                          config.cellsPerBlock(),
                                          0,
                                          cls.fullyInside});
            }
    forest.indexBlocks();
    return forest;
}

SetupBlockForest SetupBlockForest::createDistributed(vmpi::Comm& comm,
                                                     const SetupConfig& config,
                                                     const geometry::DistanceFunction* phi) {
    const std::uint32_t gx = config.blocksX(), gy = config.blocksY(), gz = config.blocksZ();
    const std::size_t total = std::size_t(gx) * gy * gz;

    // Random scatter of candidate blocks over the processes: a deterministic
    // shuffle (same seed everywhere) assigns block g to rank perm[g] % size.
    std::vector<std::uint32_t> perm(total);
    std::iota(perm.begin(), perm.end(), 0u);
    Random rng(0xb10cf03e57ull);
    for (std::size_t i = total; i > 1; --i) std::swap(perm[i - 1], perm[rng.uniformInt(i)]);

    // Each rank classifies its share: 2 bits per block (keep, fullyInside).
    std::vector<std::uint8_t> myResults;
    std::vector<std::uint32_t> myBlocks;
    const auto ranks = std::uint32_t(comm.size());
    for (std::size_t i = uint_c(comm.rank()); i < total; i += ranks) {
        const std::uint32_t g = perm[i];
        const cell_idx_t x = cell_idx_c(g % gx);
        const cell_idx_t y = cell_idx_c((g / gx) % gy);
        const cell_idx_t z = cell_idx_c(g / (std::size_t(gx) * gy));

        SetupBlockForest probe;
        probe.config_ = config;
        const AABB box = probe.blockBox(x, y, z);
        BlockClass cls{true, true};
        if (phi) cls = classify(*phi, box, config);
        myBlocks.push_back(g);
        myResults.push_back(std::uint8_t((cls.keep ? 1 : 0) | (cls.fullyInside ? 2 : 0)));
    }

    // Gather the classification on all processes.
    SendBuffer sb;
    sb << myBlocks << myResults;
    // walb-lint: allow(blocking): setup-phase collective, runs once before timestepping — no deadline installed yet
    const auto all = comm.allgatherv(std::span<const std::uint8_t>(sb.data(), sb.size()));

    std::vector<std::uint8_t> classOf(total, 0);
    for (const auto& bytes : all) {
        RecvBuffer rb(bytes);
        std::vector<std::uint32_t> blocks;
        std::vector<std::uint8_t> results;
        rb >> blocks >> results;
        for (std::size_t i = 0; i < blocks.size(); ++i) classOf[blocks[i]] = results[i];
    }

    // Assemble the forest in canonical (serial) order on every rank.
    SetupBlockForest forest;
    forest.config_ = config;
    for (cell_idx_t z = 0; z < cell_idx_c(gz); ++z)
        for (cell_idx_t y = 0; y < cell_idx_c(gy); ++y)
            for (cell_idx_t x = 0; x < cell_idx_c(gx); ++x) {
                const std::uint8_t cls = classOf[forest.gridIndex(x, y, z)];
                if (!(cls & 1)) continue;
                forest.blocks_.push_back({idForGridPos(config, x, y, z),
                                          Cell{x, y, z},
                                          forest.blockBox(x, y, z),
                                          config.cellsPerBlock(),
                                          0,
                                          (cls & 2) != 0});
            }
    forest.indexBlocks();
    return forest;
}

bool SetupBlockForest::indexBlocks() {
    gridToBlock_.clear();
    gridToBlock_.reserve(blocks_.size());
    for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
        const Cell& p = blocks_[b].gridPos;
        gridToBlock_.emplace_back(gridIndex(p.x, p.y, p.z), b);
    }
    std::sort(gridToBlock_.begin(), gridToBlock_.end());
    return std::adjacent_find(gridToBlock_.begin(), gridToBlock_.end(),
                              [](const auto& a, const auto& b) { return a.first == b.first; }) ==
           gridToBlock_.end();
}

std::optional<std::uint32_t> SetupBlockForest::blockAt(cell_idx_t x, cell_idx_t y,
                                                       cell_idx_t z) const {
    // Wraps c onto [0, n) on a periodic axis; false if it stays outside.
    const auto onGrid = [](cell_idx_t& c, std::uint32_t n, bool periodic) {
        const auto size = cell_idx_c(n);
        if (periodic) c = (c % size + size) % size;
        return c >= 0 && c < size;
    };
    if (!onGrid(x, config_.blocksX(), config_.periodicX) ||
        !onGrid(y, config_.blocksY(), config_.periodicY) ||
        !onGrid(z, config_.blocksZ(), config_.periodicZ))
        return std::nullopt;
    const std::uint64_t g = gridIndex(x, y, z);
    const auto it = std::lower_bound(gridToBlock_.begin(), gridToBlock_.end(),
                                     std::pair<std::uint64_t, std::uint32_t>(g, 0));
    if (it == gridToBlock_.end() || it->first != g) return std::nullopt;
    return it->second;
}

std::vector<std::uint32_t> SetupBlockForest::neighborsOf(std::uint32_t i) const {
    std::vector<std::uint32_t> result;
    const Cell& p = blocks_[i].gridPos;
    for (const auto& d : lbm::neighborhood26)
        if (const auto n = blockAt(p.x + d[0], p.y + d[1], p.z + d[2])) result.push_back(*n);
    return result;
}

void SetupBlockForest::assignFluidCellWorkload(const geometry::DistanceFunction& phi) {
    const auto& c = lbm::D3Q19::c;
    const std::span<const std::array<int, 3>> links(c.begin() + 1, c.end());
    const auto numBlocks = std::ptrdiff_t(blocks_.size());
    // One block per iteration, each writing only its own counts.
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
    for (std::ptrdiff_t i = 0; i < numBlocks; ++i) {
        SetupBlock& b = blocks_[std::size_t(i)];
        if (b.fullyInside) {
            b.workload = config_.cellsPerBlock();
            b.fluidRuns = std::uint64_t(config_.cellsPerBlockY) * config_.cellsPerBlockZ;
            b.fluidLinks = 0;
            continue;
        }
        const geometry::CellMapping mapping{b.aabb, config_.dx()};
        const geometry::FluidCounts n = geometry::countFluid(
            phi, mapping, cell_idx_c(config_.cellsPerBlockX), cell_idx_c(config_.cellsPerBlockY),
            cell_idx_c(config_.cellsPerBlockZ), links);
        b.workload = n.cells;
        b.fluidRuns = n.runs;
        b.fluidLinks = n.links;
    }
}

std::uint64_t SetupBlockForest::totalWorkload() const {
    std::uint64_t t = 0;
    for (const SetupBlock& b : blocks_) t += b.workload;
    return t;
}

void SetupBlockForest::shuffleBlocks(std::uint64_t seed) {
    Random rng(seed);
    // Fisher-Yates over the block storage; the grid map must follow
    // the permutation or blockAt()/neighborsOf() would dangle.
    for (std::size_t i = blocks_.size(); i > 1; --i) {
        const std::size_t j = std::size_t(rng.uniformInt(i));
        std::swap(blocks_[i - 1], blocks_[j]);
    }
    indexBlocks();
}

void SetupBlockForest::balanceMorton(std::uint32_t numProcesses) {
    WALB_ASSERT(numProcesses >= 1);
    numProcesses_ = numProcesses;
    std::vector<std::uint32_t> order(blocks_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return mortonCode(blocks_[a].gridPos) < mortonCode(blocks_[b].gridPos);
    });

    // Walk the curve, cutting whenever the running total passes the next
    // ideal boundary. Every block ends up on some process < numProcesses.
    const std::uint64_t total = std::max<std::uint64_t>(1, totalWorkload());
    std::uint64_t acc = 0;
    for (std::uint32_t idx : order) {
        acc += blocks_[idx].workload;
        // ceil-like assignment: process p covers (p/P, (p+1)/P] of workload.
        std::uint32_t p = std::uint32_t(((acc - 1) * numProcesses) / total);
        blocks_[idx].process = std::min(p, numProcesses - 1);
    }
}

void SetupBlockForest::balanceGraph(std::uint32_t numProcesses, std::uint64_t seed) {
    WALB_ASSERT(numProcesses >= 1);
    numProcesses_ = numProcesses;
    if (blocks_.empty()) return;

    // Canonical vertex numbering, sorted by BlockID: the partition result
    // must be a function of the logical forest, not of the storage order of
    // blocks_ (which differs e.g. between create() and loadFromFile() after
    // editing, or under the shuffleBlocks() test seam).
    std::vector<std::uint32_t> canon(blocks_.size());
    std::iota(canon.begin(), canon.end(), 0u);
    std::sort(canon.begin(), canon.end(), [&](std::uint32_t a, std::uint32_t b) {
        return blocks_[a].id < blocks_[b].id;
    });
    std::vector<std::uint32_t> vertexOf(blocks_.size());
    for (std::uint32_t v = 0; v < canon.size(); ++v) vertexOf[canon[v]] = v;

    partition::Graph graph(blocks_.size());
    for (std::uint32_t v = 0; v < blocks_.size(); ++v)
        graph.setVertexWeight(
            v, std::max<std::uint64_t>(1, std::uint64_t(std::llround(blocks_[canon[v]].cost()))));

    // Communication volume between face neighbors: 5 of 19 PDFs per
    // interface cell; edge neighbors: 1 PDF per cell; corners: none (D3Q19).
    const std::uint64_t cx = config_.cellsPerBlockX, cy = config_.cellsPerBlockY,
                        cz = config_.cellsPerBlockZ;
    auto commWeight = [&](const std::array<int, 3>& d) -> std::uint64_t {
        const int axes = std::abs(d[0]) + std::abs(d[1]) + std::abs(d[2]);
        if (axes == 1) {
            const std::uint64_t faceCells = d[0] != 0 ? cy * cz : (d[1] != 0 ? cx * cz : cx * cy);
            return faceCells * 5;
        }
        if (axes == 2) {
            const std::uint64_t edgeCells = d[0] == 0 ? cx : (d[1] == 0 ? cy : cz);
            return edgeCells * 1;
        }
        return 0; // D3Q19 has no corner links
    };

    // (u, weight) of v's edges in first-link order. Across a periodic wrap
    // a pair can be linked in several directions: it gets one edge, of its
    // largest weight; a block linked to itself gets none.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> edges;
    for (std::uint32_t v = 0; v < blocks_.size(); ++v) {
        const Cell& p = blocks_[canon[v]].gridPos;
        edges.clear();
        for (const auto& d : lbm::neighborhood26) {
            const auto n = blockAt(p.x + d[0], p.y + d[1], p.z + d[2]);
            if (!n) continue;
            const std::uint32_t u = vertexOf[*n];
            if (u <= v) continue; // each undirected edge once
            const auto e = std::find_if(edges.begin(), edges.end(),
                                        [u](const auto& x) { return x.first == u; });
            if (e == edges.end()) edges.emplace_back(u, commWeight(d));
            else e->second = std::max(e->second, commWeight(d));
        }
        for (const auto& [u, w] : edges)
            if (w > 0) graph.addEdge(v, u, w);
    }
    graph.finalize();

    partition::PartitionOptions options;
    options.numParts = numProcesses;
    options.seed = seed;
    const auto result = partition::partitionGraph(graph, options);
    for (std::uint32_t v = 0; v < blocks_.size(); ++v)
        blocks_[canon[v]].process = result.part[v];
}

SetupBlockForest::BalanceStats SetupBlockForest::balanceStats() const {
    BalanceStats stats;
    std::vector<std::uint64_t> workload(numProcesses_, 0);
    std::vector<std::uint32_t> count(numProcesses_, 0);
    std::vector<double> cost(numProcesses_, 0);
    double totalCost = 0;
    for (const SetupBlock& b : blocks_) {
        workload[b.process] += b.workload;
        ++count[b.process];
        cost[b.process] += b.cost();
        totalCost += b.cost();
    }
    stats.totalWorkload = totalWorkload();
    stats.minWorkload = blocks_.empty() ? 0 : *std::min_element(workload.begin(), workload.end());
    stats.maxWorkload = blocks_.empty() ? 0 : *std::max_element(workload.begin(), workload.end());
    stats.maxBlocksPerProcess =
        count.empty() ? 0 : *std::max_element(count.begin(), count.end());
    for (auto c : count)
        if (c == 0) ++stats.emptyProcesses;
    const double ideal = double(stats.totalWorkload) / double(numProcesses_);
    stats.imbalance = ideal > 0 ? double(stats.maxWorkload) / ideal : 1.0;
    const double idealCost = totalCost / double(numProcesses_);
    stats.costImbalance =
        idealCost > 0 ? *std::max_element(cost.begin(), cost.end()) / idealCost : 1.0;
    return stats;
}

void SetupBlockForest::save(SendBuffer& buf) const {
    buf << std::uint32_t(0x57414c42); // "WALB"
    buf << config_.domain.min()[0] << config_.domain.min()[1] << config_.domain.min()[2]
        << config_.domain.max()[0] << config_.domain.max()[1] << config_.domain.max()[2];
    buf << config_.rootBlocksX << config_.rootBlocksY << config_.rootBlocksZ
        << std::uint8_t(config_.refinementLevel)
        << std::uint8_t(config_.periodicX | config_.periodicY << 1 | config_.periodicZ << 2)
        << config_.cellsPerBlockX << config_.cellsPerBlockY << config_.cellsPerBlockZ;
    buf << numProcesses_ << std::uint64_t(blocks_.size());

    // Low-byte compaction (paper §2.2): widths derived from the maxima and
    // stored once in the header.
    std::uint64_t maxWorkload = 0;
    for (const SetupBlock& b : blocks_) maxWorkload = std::max(maxWorkload, b.workload);
    const unsigned posBytesX = bytesNeeded(config_.blocksX() - 1);
    const unsigned posBytesY = bytesNeeded(config_.blocksY() - 1);
    const unsigned posBytesZ = bytesNeeded(config_.blocksZ() - 1);
    const unsigned procBytes = bytesNeeded(numProcesses_ - 1); // 2 B below 65,536 procs
    const unsigned workBytes = bytesNeeded(maxWorkload);
    buf << std::uint8_t(workBytes);

    // Block IDs and AABBs are derivable from the grid position + config,
    // so only position, process and workload are stored per block.
    for (const SetupBlock& b : blocks_) {
        buf.putCompact(uint_c(b.gridPos.x), posBytesX);
        buf.putCompact(uint_c(b.gridPos.y), posBytesY);
        buf.putCompact(uint_c(b.gridPos.z), posBytesZ);
        buf.putCompact(b.process, procBytes);
        buf.putCompact(b.workload, workBytes);
        buf.putCompact(b.fullyInside ? 1 : 0, 1);
    }
}

SetupBlockForest SetupBlockForest::load(RecvBuffer& buf) {
    std::uint32_t magic = 0;
    buf >> magic;
    if (magic != 0x57414c42) throw ForestFileError("not a walb block-structure stream");

    SetupConfig config;
    Vec3 lo, hi;
    buf >> lo[0] >> lo[1] >> lo[2] >> hi[0] >> hi[1] >> hi[2];
    config.domain = AABB(lo, hi);
    std::uint8_t level = 0, periodic = 0;
    buf >> config.rootBlocksX >> config.rootBlocksY >> config.rootBlocksZ >> level >>
        periodic >> config.cellsPerBlockX >> config.cellsPerBlockY >> config.cellsPerBlockZ;
    // Grid limits of the in-memory forest: BlockID paths hold 20 levels and
    // Morton codes 21 bits per axis, which keeps every grid index in 64 bits.
    for (const std::uint32_t r : {config.rootBlocksX, config.rootBlocksY, config.rootBlocksZ})
        if (level > 20 || r == 0 || (std::uint64_t(r) << level) > (1u << 21))
            throw ForestFileError("block grid out of range");
    if (periodic > 7)
        throw ForestFileError("unknown periodic bits " + std::to_string(int(periodic)));
    config.refinementLevel = level;
    config.periodicX = periodic & 1;
    config.periodicY = periodic & 2;
    config.periodicZ = periodic & 4;

    SetupBlockForest forest;
    forest.config_ = config;
    std::uint64_t numBlocks = 0;
    buf >> forest.numProcesses_ >> numBlocks;
    std::uint8_t workBytes = 0;
    buf >> workBytes;
    if (forest.numProcesses_ == 0) throw ForestFileError("forest assigned to 0 processes");
    if (workBytes > 8)
        throw ForestFileError("workload width of " + std::to_string(int(workBytes)) + " bytes");

    const unsigned posBytesX = bytesNeeded(config.blocksX() - 1);
    const unsigned posBytesY = bytesNeeded(config.blocksY() - 1);
    const unsigned posBytesZ = bytesNeeded(config.blocksZ() - 1);
    const unsigned procBytes = bytesNeeded(forest.numProcesses_ - 1);

    // Every record takes at least one byte: a count beyond the stream is a
    // truncation, reported before anything is reserved for it.
    if (numBlocks > buf.remaining()) throw BufferError(numBlocks, buf.remaining());
    forest.blocks_.reserve(numBlocks);
    for (std::uint64_t i = 0; i < numBlocks; ++i) {
        const std::uint64_t x = buf.getCompact(posBytesX);
        const std::uint64_t y = buf.getCompact(posBytesY);
        const std::uint64_t z = buf.getCompact(posBytesZ);
        const std::uint64_t process = buf.getCompact(procBytes);
        const std::uint64_t workload = buf.getCompact(workBytes);
        const bool fullyInside = buf.getCompact(1) != 0;
        if (x >= config.blocksX() || y >= config.blocksY() || z >= config.blocksZ())
            throw ForestFileError("block " + std::to_string(i) + " outside the grid");
        if (process >= forest.numProcesses_)
            throw ForestFileError("block " + std::to_string(i) + " on process " +
                                  std::to_string(process) + " of " +
                                  std::to_string(forest.numProcesses_));
        const Cell pos{cell_idx_c(x), cell_idx_c(y), cell_idx_c(z)};
        forest.blocks_.push_back({idForGridPos(config, pos.x, pos.y, pos.z), pos,
                                  forest.blockBox(pos.x, pos.y, pos.z), workload,
                                  std::uint32_t(process), fullyInside});
    }
    if (!forest.indexBlocks()) throw ForestFileError("two blocks at one grid position");
    return forest;
}

bool SetupBlockForest::saveToFile(const std::string& path) const {
    SendBuffer buf;
    save(buf);
    return writeFile(path, buf);
}

std::optional<SetupBlockForest> SetupBlockForest::loadFromFile(const std::string& path) {
    std::vector<std::uint8_t> bytes;
    if (!readFile(path, bytes)) return std::nullopt;
    RecvBuffer buf(std::move(bytes));
    try {
        return load(buf);
    } catch (const BufferError&) {
        return std::nullopt; // truncated stream must read as "cannot load"
    } catch (const ForestFileError&) {
        return std::nullopt;
    }
}

} // namespace walb::bf
