/// Tests for the communication-hiding overlap schedule: core/shell split
/// invariants on random flag fields, fast-vs-naive fluid-run construction,
/// layout independence of the ghost wire format (contiguous fast path vs
/// per-cell fallback), the BufferSystem split exchange and its steady-state
/// buffer recycling, FIFO + serialization of the FaultyComm slow-link model,
/// and the headline property: the overlapped schedule is bit-exact with the
/// synchronous one on random voxelized geometries across 1-8 virtual ranks,
/// including across a live migration and under injected message latency.
/// Also checks that both schedules time each phase once, feeding the
/// TimingPool, the trace and the flight recorder from the same clock reads.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/Random.h"
#include "lbm/Communication.h"
#include "lbm/Sparse.h"
#include "rebalance/Migrator.h"
#include "sim/DistributedSimulation.h"
#include "support/Oracles.h"
#include "vmpi/BufferSystem.h"
#include "vmpi/FaultyComm.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

namespace walb {
namespace {

using lbm::TRT;
using namespace std::chrono_literals;

// ---- shared helpers --------------------------------------------------------

/// splitmix64 of the cell coordinates: a pure function of global position,
/// as the flag-initializer contract requires (blocks re-derive their flags
/// after a migration).
std::uint64_t cellHash(std::uint64_t seed, cell_idx_t x, cell_idx_t y, cell_idx_t z) {
    std::uint64_t h = seed ^ (std::uint64_t(std::uint32_t(x)) << 42) ^
                      (std::uint64_t(std::uint32_t(y)) << 21) ^
                      std::uint64_t(std::uint32_t(z));
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

std::set<std::tuple<cell_idx_t, cell_idx_t, cell_idx_t>> runCells(
    const lbm::FluidRunList& list) {
    std::set<std::tuple<cell_idx_t, cell_idx_t, cell_idx_t>> cells;
    for (const auto& r : list.runs)
        for (cell_idx_t x = r.xBegin; x <= r.xEnd; ++x)
            cells.insert({x, r.y, r.z});
    return cells;
}

/// Random porous flag field: every interior cell is fluid with ~70%
/// probability (the rest stays unflagged, i.e. solid).
field::FlagField randomFlags(cell_idx_t n, std::uint64_t seed, field::flag_t& fluid) {
    field::FlagField flags(n, n, n, 1);
    fluid = flags.registerFlag(lbm::kFluidFlag);
    flags.forAllInterior([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        if (cellHash(seed, x, y, z) % 10 < 7) flags.addFlag(x, y, z, fluid);
    });
    return flags;
}

// ---- core/shell split invariants -------------------------------------------

TEST(CoreShellSplitTest, RunsAreDisjointAndCoverInputOnRandomFields) {
    constexpr cell_idx_t n = 12;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        field::flag_t fluid = 0;
        const auto flags = randomFlags(n, seed, fluid);
        const auto all = lbm::buildFluidRuns(flags, fluid);

        // Random remote-ghost mask (each of the 26 regions independently).
        std::array<bool, 26> remote{};
        for (std::size_t i = 0; i < 26; ++i)
            remote[i] = cellHash(seed * 31 + i, 0, 0, 0) & 1;

        const auto split = lbm::splitFluidRuns<lbm::D3Q19>(all, n, n, n, remote);
        EXPECT_EQ(split.core.fluidCells + split.shell.fluidCells, all.fluidCells);

        const auto coreCells = runCells(split.core);
        const auto shellCells = runCells(split.shell);
        const auto allCells = runCells(all);
        EXPECT_EQ(coreCells.size() + shellCells.size(), allCells.size());
        for (const auto& c : coreCells) {
            EXPECT_TRUE(allCells.count(c));
            EXPECT_FALSE(shellCells.count(c));
        }
        for (const auto& c : shellCells) EXPECT_TRUE(allCells.count(c));
    }
}

TEST(CoreShellSplitTest, NoRemoteGhostsMeansEverythingIsCore) {
    field::flag_t fluid = 0;
    const auto flags = randomFlags(10, 7, fluid);
    const auto all = lbm::buildFluidRuns(flags, fluid);
    const auto split = lbm::splitFluidRuns<lbm::D3Q19>(all, 10, 10, 10, {});
    EXPECT_EQ(split.shell.fluidCells, 0u);
    EXPECT_EQ(split.core.fluidCells, all.fluidCells);
}

// ---- fluid-run construction fast path --------------------------------------

TEST(BuildFluidRunsTest, RowPointerFastPathMatchesNaive) {
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
        field::flag_t fluid = 0;
        const auto flags = randomFlags(14, seed, fluid);
        const auto fast = lbm::buildFluidRuns(flags, fluid);
        const auto naive = lbm::buildFluidRunsNaive(flags, fluid);
        ASSERT_EQ(fast.runs.size(), naive.runs.size());
        EXPECT_EQ(fast.fluidCells, naive.fluidCells);
        for (std::size_t i = 0; i < fast.runs.size(); ++i) {
            EXPECT_EQ(fast.runs[i].y, naive.runs[i].y);
            EXPECT_EQ(fast.runs[i].z, naive.runs[i].z);
            EXPECT_EQ(fast.runs[i].xBegin, naive.runs[i].xBegin);
            EXPECT_EQ(fast.runs[i].xEnd, naive.runs[i].xEnd);
        }
    }
}

// ---- ghost wire format: layout independence --------------------------------

/// The packed byte stream must not depend on the field's memory layout:
/// fzyx takes the contiguous-row memcpy fast path, zyxf the per-cell
/// fallback — same wire bytes, and unpacking into either layout produces
/// the same logical ghost values.
TEST(GhostWireFormatTest, PackBytesAndUnpackAreLayoutIndependent) {
    constexpr cell_idx_t n = 6;
    auto fill = [](lbm::PdfField& f) {
        for (cell_idx_t z = -1; z <= n; ++z)
            for (cell_idx_t y = -1; y <= n; ++y)
                for (cell_idx_t x = -1; x <= n; ++x)
                    for (uint_t q = 0; q < lbm::D3Q19::Q; ++q)
                        f.get(x, y, z, cell_idx_c(q)) =
                            real_c(x + 10 * y + 100 * z + 1000 * cell_idx_c(q));
    };
    lbm::PdfField soa(n, n, n, lbm::D3Q19::Q, field::Layout::fzyx, real_c(0), 1);
    lbm::PdfField aos(n, n, n, lbm::D3Q19::Q, field::Layout::zyxf, real_c(0), 1);
    fill(soa);
    fill(aos);

    for (const auto& d : lbm::neighborhood26) {
        for (bool full : {false, true}) {
            SendBuffer sbSoa, sbAos;
            lbm::packPdfs<lbm::D3Q19>(soa, d, sbSoa, full);
            lbm::packPdfs<lbm::D3Q19>(aos, d, sbAos, full);
            ASSERT_EQ(sbSoa.size(), sbAos.size());
            // D3Q19 corner directions pack zero PDFs; memcmp on the empty
            // buffers' null data() would be UB.
            if (sbSoa.size() != 0) {
                EXPECT_EQ(std::memcmp(sbSoa.data(), sbAos.data(), sbSoa.size()), 0)
                    << "dir (" << d[0] << "," << d[1] << "," << d[2]
                    << ") full=" << full;
            }

            // Unpack the same bytes into both layouts; ghost slices must
            // carry identical logical values afterwards.
            const std::array<int, 3> inv = {-d[0], -d[1], -d[2]};
            lbm::PdfField dstSoa(n, n, n, lbm::D3Q19::Q, field::Layout::fzyx,
                                 real_c(-1), 1);
            lbm::PdfField dstAos(n, n, n, lbm::D3Q19::Q, field::Layout::zyxf,
                                 real_c(-1), 1);
            RecvBuffer rb1(std::vector<std::uint8_t>(sbSoa.data(),
                                                     sbSoa.data() + sbSoa.size()));
            RecvBuffer rb2(std::vector<std::uint8_t>(sbSoa.data(),
                                                     sbSoa.data() + sbSoa.size()));
            lbm::unpackPdfs<lbm::D3Q19>(dstSoa, inv, rb1, full);
            lbm::unpackPdfs<lbm::D3Q19>(dstAos, inv, rb2, full);
            for (cell_idx_t z = -1; z <= n; ++z)
                for (cell_idx_t y = -1; y <= n; ++y)
                    for (cell_idx_t x = -1; x <= n; ++x)
                        for (uint_t q = 0; q < lbm::D3Q19::Q; ++q)
                            ASSERT_EQ(dstSoa.get(x, y, z, cell_idx_c(q)),
                                      dstAos.get(x, y, z, cell_idx_c(q)));
        }
    }
}

TEST(GhostWireFormatTest, TruncatedPayloadRaisesBufferError) {
    constexpr cell_idx_t n = 6;
    lbm::PdfField f(n, n, n, lbm::D3Q19::Q, field::Layout::fzyx, real_c(1), 1);
    SendBuffer sb;
    const std::array<int, 3> east = {1, 0, 0};
    lbm::packPdfs<lbm::D3Q19>(f, east, sb, false);
    std::vector<std::uint8_t> bytes(sb.data(), sb.data() + sb.size() / 2);
    RecvBuffer rb(std::move(bytes));
    EXPECT_THROW(lbm::unpackPdfs<lbm::D3Q19>(f, {-1, 0, 0}, rb, false), BufferError);
}

// ---- BufferSystem split exchange and recycling ------------------------------

TEST(BufferSystemTest, SplitExchangeDrainsViaProgressAndFinish) {
    vmpi::SerialComm comm;
    vmpi::BufferSystem bs(comm, /*tag=*/5);
    bs.setReceiverInfo({0});

    bs.sendBuffer(0) << std::uint32_t(0xfeedbeef);
    EXPECT_FALSE(bs.exchangeInProgress());
    bs.beginExchange();
    EXPECT_TRUE(bs.exchangeInProgress());
    EXPECT_EQ(bs.pendingReceives(), 1u);

    std::uint32_t got = 0;
    EXPECT_EQ(bs.progress([&](int, RecvBuffer& buf) { buf >> got; }), 1u);
    EXPECT_EQ(got, 0xfeedbeefu);
    EXPECT_FALSE(bs.exchangeInProgress());
    bs.finishExchange([](int, RecvBuffer&) { FAIL() << "nothing left to drain"; });
}

TEST(BufferSystemTest, SteadyStateExchangePerformsNoAllocations) {
    vmpi::SerialComm comm;
    vmpi::BufferSystem bs(comm, /*tag=*/6);
    bs.setReceiverInfo({0});
    const std::vector<std::uint8_t> payload(4096, 0x5a);
    auto round = [&] {
        bs.sendBuffer(0).putBytes(payload.data(), payload.size());
        bs.beginExchange();
        bs.finishExchange([](int, RecvBuffer& buf) { buf.skip(buf.remaining()); });
    };
    round(); // sizes the buffer
    const std::uint64_t allocs = bs.sendBufferAllocations();
    for (int i = 0; i < 20; ++i) round();
    EXPECT_EQ(bs.sendBufferAllocations(), allocs)
        << "steady-state exchange must recycle buffers, not allocate";
    EXPECT_EQ(bs.cumulativeRecvMessages(), 21u);
}

// ---- FaultyComm slow-link model ---------------------------------------------

TEST(SlowLinkTest, SerialLinkPreservesFifoAndSerializesTransmissions) {
    constexpr int kMessages = 5;
    constexpr auto kLatency = 2ms;
    std::atomic<bool> orderOk{true};
    std::atomic<long> drainMicros{0};

    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        if (comm.rank() == 0) {
            const vmpi::FaultPlan noFaults;
            vmpi::FaultyComm slow(comm, noFaults);
            slow.setMessageLatency(kLatency);
            const auto t0 = std::chrono::steady_clock::now();
            for (int i = 0; i < kMessages; ++i)
                slow.send(1, /*tag=*/3, {std::uint8_t(i)});
            slow.flushLatent();
            drainMicros = long(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
        } else {
            for (int i = 0; i < kMessages; ++i) {
                const auto data = comm.recv(0, /*tag=*/3);
                if (data.size() != 1 || data[0] != std::uint8_t(i)) orderOk = false;
            }
        }
    });
    EXPECT_TRUE(orderOk.load()) << "slow link reordered same-tag messages";
    // Store-and-forward: a burst of N messages occupies the link for at
    // least N x latency (lower bound only — upper bounds are not portable
    // to a loaded CI host).
    EXPECT_GE(drainMicros.load(), kMessages * 2000 - 500);
}

// ---- overlap == synchronous (the headline property) -------------------------

/// Random voxelized geometry: moving lid on top, walls on the remaining
/// domain faces, interior cells solid with ~12% probability. A pure
/// function of global position and the seed.
sim::DistributedSimulation::FlagInitializer voxelFlags(cell_idx_t NX, cell_idx_t NY,
                                                       cell_idx_t NZ,
                                                       std::uint64_t seed) {
    return [=](field::FlagField& flags, const lbm::BoundaryFlags& masks,
               const bf::BlockForest::Block&, const geometry::CellMapping& mapping) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 p = mapping.cellCenter(x, y, z);
            if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[0] > real_c(NX) ||
                p[1] > real_c(NY) || p[2] > real_c(NZ))
                return;
            const Cell g{cell_idx_t(p[0]), cell_idx_t(p[1]), cell_idx_t(p[2])};
            if (g.z == NZ - 1) flags.addFlag(x, y, z, masks.ubb);
            else if (g.x == 0 || g.x == NX - 1 || g.y == 0 || g.y == NY - 1 ||
                     g.z == 0)
                flags.addFlag(x, y, z, masks.noSlip);
            else if (cellHash(seed, g.x, g.y, g.z) % 8 == 0)
                flags.addFlag(x, y, z, masks.noSlip); // random obstacle voxel
            else
                flags.addFlag(x, y, z, masks.fluid);
        });
    };
}

/// Runs `steps` on `ranks` virtual ranks and returns the collective state
/// digest; optionally with the overlapped schedule and a per-message
/// slow-link latency on every rank.
std::uint64_t runDigest(std::uint32_t blocksX, std::uint32_t ranks, uint_t steps,
                        std::uint64_t seed, bool overlap,
                        std::chrono::microseconds latency = 0us) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 8.0 * blocksX, 8, 8);
    cfg.rootBlocksX = blocksX;
    cfg.rootBlocksY = cfg.rootBlocksZ = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    const auto flagInit = voxelFlags(8 * cell_idx_c(blocksX), 8, 8, seed);

    std::atomic<std::uint64_t> digest{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        const vmpi::FaultPlan noFaults;
        vmpi::FaultyComm slowLink(comm, noFaults);
        vmpi::Comm* active = &comm;
        if (latency.count() > 0) {
            slowLink.setMessageLatency(latency);
            active = &slowLink;
        }
        sim::DistributedSimulation simulation(*active, setup, flagInit);
        simulation.setWallVelocity({0.04, 0, 0});
        simulation.setOverlapCommunication(overlap);
        simulation.run(steps, TRT::fromOmegaAndMagic(1.6));
        const std::uint64_t d = simulation.stateDigest();
        if (comm.rank() == 0) digest = d;
    });
    return digest.load();
}

TEST(OverlapScheduleTest, MatchesSynchronousOnRandomGeometries) {
    // (blocksX, ranks) covering 1 rank (no remote neighbors at all), partial
    // and full distribution; a different random geometry for each.
    const struct {
        std::uint32_t blocksX, ranks;
        std::uint64_t seed;
    } cases[] = {{2, 1, 101}, {4, 2, 202}, {4, 4, 303}, {8, 8, 404}};
    for (const auto& c : cases) {
        const std::uint64_t sync = runDigest(c.blocksX, c.ranks, 6, c.seed, false);
        const std::uint64_t over = runDigest(c.blocksX, c.ranks, 6, c.seed, true);
        EXPECT_EQ(over, sync) << "blocksX=" << c.blocksX << " ranks=" << c.ranks;
    }
}

TEST(OverlapScheduleTest, StaysBitExactUnderInjectedLatency) {
    const std::uint64_t sync = runDigest(4, 4, 5, 555, false);
    const std::uint64_t overLatent = runDigest(4, 4, 5, 555, true, 1ms);
    EXPECT_EQ(overLatent, sync)
        << "slow-link latency must shift timing only, never results";
}

TEST(OverlapScheduleTest, SurvivesLiveMigrationMidRun) {
    const std::uint32_t ranks = 4;
    const std::uint64_t seed = 777;
    // Reference: 8 uninterrupted synchronous steps.
    const std::uint64_t want = runDigest(ranks, ranks, 8, seed, false);

    // Overlapped run with every block rotated to the next rank after step 4:
    // the migration must rebuild the core/shell sweep plans on both the
    // shrinking and the growing rank.
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 8.0 * ranks, 8, 8);
    cfg.rootBlocksX = ranks;
    cfg.rootBlocksY = cfg.rootBlocksZ = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    const auto flagInit = voxelFlags(8 * cell_idx_c(ranks), 8, 8, seed);

    std::atomic<std::uint64_t> got{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.04, 0, 0});
        simulation.setOverlapCommunication(true);
        const TRT op = TRT::fromOmegaAndMagic(1.6);
        simulation.run(4, op);

        std::vector<std::uint32_t> rotated;
        for (const auto& b : simulation.setup().blocks())
            rotated.push_back((b.process + 1) % ranks);
        const auto stats = rebalance::migrate(simulation, rotated);
        EXPECT_EQ(stats.blocksMoved, std::size_t(ranks));

        simulation.run(4, op);
        const std::uint64_t d = simulation.stateDigest();
        if (comm.rank() == 0) got = d;
    });
    EXPECT_EQ(got.load(), want);
}

TEST(OverlapScheduleTest, ReportsHiddenAndExposedGauges) {
    const std::uint32_t ranks = 2;
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 16, 8, 8);
    cfg.rootBlocksX = 2;
    cfg.rootBlocksY = cfg.rootBlocksZ = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    const auto flagInit = voxelFlags(16, 8, 8, 999);

    std::atomic<int> ok{0};
    vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        simulation.setWallVelocity({0.04, 0, 0});
        simulation.setOverlapCommunication(true);
        simulation.run(4, TRT::fromOmegaAndMagic(1.6));
        auto& m = simulation.metrics();
        const double exposed = m.gauge("comm.exposed_seconds").value();
        const double hidden = m.gauge("comm.hidden_seconds").value();
        const double fraction = m.gauge("comm.hidden_fraction").value();
        if (exposed > 0.0 && hidden >= 0.0 && fraction >= 0.0 && fraction <= 1.0)
            ++ok;
    });
    EXPECT_EQ(ok.load(), int(ranks));
}

// ---- one measurement per phase ---------------------------------------------

TEST(StepTiming, OneMeasurementFeedsPoolTraceAndRecorder) {
    const std::uint32_t ranks = 2;
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 16, 8, 8);
    cfg.rootBlocksX = 2;
    cfg.rootBlocksY = cfg.rootBlocksZ = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    const auto flagInit = voxelFlags(16, 8, 8, 999);
    constexpr std::size_t kSteps = 6;
    constexpr double kNs = 1e-9;

    for (const auto tier : {walb::KernelTier::Simd, walb::KernelTier::AaSimd}) {
        for (const bool overlap : {false, true}) {
            SCOPED_TRACE(std::string(kernelTierName(tier)) + (overlap ? " overlap" : " sync"));
            vmpi::ThreadCommWorld::launch(int(ranks), [&](vmpi::Comm& comm) {
                sim::DistributedSimulation simulation(comm, setup, flagInit, tier);
                simulation.setWallVelocity({0.04, 0, 0});
                simulation.setOverlapCommunication(overlap);
                simulation.run(uint_t(kSteps), TRT::fromOmegaAndMagic(1.6));

                // Under overlap every step has a core and a shell span of
                // each phase, in that order.
                const std::size_t perStep = overlap ? 2 : 1;
                std::map<std::string, double> traced;
                std::map<std::string, std::size_t> spans;
                std::vector<double> sweepSpans;
                for (const obs::TraceEvent& e : simulation.trace().events()) {
                    traced[e.name] += e.durUs * 1e-6;
                    ++spans[e.name];
                    if (e.name == "collideStream") sweepSpans.push_back(e.durUs * 1e-6);
                }
                std::map<std::string, double> pool;
                for (const char* phase : {"communication", "boundary", "collideStream"}) {
                    const Timer* t = simulation.timing().find(phase);
                    ASSERT_NE(t, nullptr) << phase;
                    pool[phase] = t->total();
                    EXPECT_EQ(spans[phase], kSteps * perStep) << phase;
                    EXPECT_NEAR(traced[phase], pool[phase], kNs * double(spans[phase]))
                        << phase;
                }

                const auto samples = simulation.flightRecorder().samples();
                ASSERT_EQ(samples.size(), kSteps);
                double collide = 0, boundary = 0, packAndWait = 0;
                for (std::size_t i = 0; i < kSteps; ++i) {
                    collide += samples[i].collideSeconds;
                    boundary += samples[i].boundarySeconds;
                    packAndWait += samples[i].packSeconds + samples[i].exchangeSeconds;
                    const double shellSpan = overlap ? sweepSpans[2 * i + 1] : 0.0;
                    EXPECT_NEAR(samples[i].shellSeconds, shellSpan, kNs) << "step " << i;
                }
                EXPECT_NEAR(collide, pool["collideStream"], kNs * double(kSteps));
                EXPECT_NEAR(boundary, pool["boundary"], kNs * double(kSteps));
                EXPECT_LE(packAndWait, pool["communication"] + kNs * double(kSteps));
            });
        }
    }
}

} // namespace
} // namespace walb
