/// Tests for observability v2: the FlightRecorder ring + `.wfr` dump/read
/// round trip (including CRC tamper rejection), the PerfDiag statistics
/// helpers and the StragglerDetector (pure judge() cases, the collective
/// detect(), and the end-to-end throttled-rank drill through a 4-rank
/// DistributedSimulation), the automatic `.wfr` dump on CommError /
/// HealthError, and the trace dropped-events surfacing.

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/FlightRecorder.h"
#include "obs/PerfDiag.h"
#include "obs/Trace.h"
#include "sim/DistributedSimulation.h"
#include "vmpi/FaultyComm.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

using namespace std::chrono_literals;

namespace walb {
namespace {

obs::StepSample sampleAt(std::uint64_t step, double seconds = 1e-3) {
    obs::StepSample s;
    s.step = step;
    s.collideSeconds = 0.7 * seconds;
    s.shellSeconds = 0.1 * seconds;
    s.boundarySeconds = 0.05 * seconds;
    s.packSeconds = 0.05 * seconds;
    s.exchangeSeconds = 0.1 * seconds;
    s.totalSeconds = seconds;
    s.mlups = seconds > 0 ? 1.0 / seconds : 0;
    s.imbalance = 1.25;
    s.bytesMoved = 4096 + step;
    s.messages = 6;
    return s;
}

// ---- FlightRecorder ring ---------------------------------------------------

TEST(FlightRecorder, RingKeepsTheMostRecentSamplesInOrder) {
    obs::FlightRecorder fr(4);
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_EQ(fr.latest(), nullptr);
    for (std::uint64_t step = 0; step < 10; ++step) fr.record(sampleAt(step));
    EXPECT_EQ(fr.capacity(), 4u);
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.totalRecorded(), 10u);
    const auto samples = fr.samples();
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples.front().step, 6u); // oldest retained
    EXPECT_EQ(samples.back().step, 9u);  // newest
    ASSERT_NE(fr.latest(), nullptr);
    EXPECT_EQ(fr.latest()->step, 9u);
    fr.clear();
    EXPECT_EQ(fr.size(), 0u);
}

TEST(FlightRecorder, DisabledRecorderRecordsNothing) {
    obs::FlightRecorder fr(8);
    fr.setEnabled(false);
    fr.record(sampleAt(0));
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_EQ(fr.totalRecorded(), 0u);
    fr.setEnabled(true);
    fr.record(sampleAt(1));
    EXPECT_EQ(fr.size(), 1u);
}

TEST(FlightRecorder, CollideSecondsSinceReportsWindowCompleteness) {
    obs::FlightRecorder fr(4);
    for (std::uint64_t step = 0; step < 3; ++step) fr.record(sampleAt(step, 1e-3));
    bool complete = false;
    // Ring still holds everything since step 0.
    EXPECT_NEAR(fr.collideSecondsSince(0, &complete), 3 * 0.7e-3, 1e-12);
    EXPECT_TRUE(complete);
    for (std::uint64_t step = 3; step < 8; ++step) fr.record(sampleAt(step, 1e-3));
    // Steps 0..3 were evicted: the sum covers only the retained tail.
    const double partial = fr.collideSecondsSince(0, &complete);
    EXPECT_FALSE(complete);
    EXPECT_NEAR(partial, 4 * 0.7e-3, 1e-12);
    // A window starting inside the retained range is complete again.
    EXPECT_NEAR(fr.collideSecondsSince(5, &complete), 3 * 0.7e-3, 1e-12);
    EXPECT_TRUE(complete);
}

TEST(FlightRecorder, MeanStepSecondsOverTheLastN) {
    obs::FlightRecorder fr(8);
    for (std::uint64_t step = 0; step < 4; ++step)
        fr.record(sampleAt(step, double(step + 1) * 1e-3)); // 1,2,3,4 ms
    EXPECT_NEAR(fr.meanStepSeconds(2), 3.5e-3, 1e-12);
    EXPECT_NEAR(fr.meanStepSeconds(0), 2.5e-3, 1e-12);  // 0 = all retained
    EXPECT_NEAR(fr.meanStepSeconds(99), 2.5e-3, 1e-12); // clamped to size
}

// ---- .wfr dump / read ------------------------------------------------------

TEST(WfrFormat, DumpReadRoundTripPreservesEverySample) {
    const std::string path = testing::TempDir() + "/walb_roundtrip.wfr";
    obs::FlightRecorder fr(16);
    for (std::uint64_t step = 0; step < 5; ++step)
        fr.record(sampleAt(step, double(step + 1) * 1e-4));
    std::string err;
    ASSERT_TRUE(fr.dump(path, /*rank=*/3, /*worldSize=*/8, &err)) << err;

    obs::FlightRecorder::Dump dump;
    ASSERT_TRUE(obs::FlightRecorder::read(path, dump, &err)) << err;
    EXPECT_EQ(dump.version, obs::FlightRecorder::kFormatVersion);
    EXPECT_EQ(dump.rank, 3u);
    EXPECT_EQ(dump.worldSize, 8u);
    ASSERT_EQ(dump.samples.size(), 5u);
    for (std::uint64_t step = 0; step < 5; ++step) {
        const obs::StepSample& got = dump.samples[step];
        const obs::StepSample want = sampleAt(step, double(step + 1) * 1e-4);
        EXPECT_EQ(got.step, want.step);
        EXPECT_DOUBLE_EQ(got.collideSeconds, want.collideSeconds);
        EXPECT_DOUBLE_EQ(got.shellSeconds, want.shellSeconds);
        EXPECT_DOUBLE_EQ(got.boundarySeconds, want.boundarySeconds);
        EXPECT_DOUBLE_EQ(got.packSeconds, want.packSeconds);
        EXPECT_DOUBLE_EQ(got.exchangeSeconds, want.exchangeSeconds);
        EXPECT_DOUBLE_EQ(got.totalSeconds, want.totalSeconds);
        EXPECT_DOUBLE_EQ(got.mlups, want.mlups);
        EXPECT_DOUBLE_EQ(got.imbalance, want.imbalance);
        EXPECT_EQ(got.bytesMoved, want.bytesMoved);
        EXPECT_EQ(got.messages, want.messages);
    }
    std::remove(path.c_str());
}

TEST(WfrFormat, CrcRejectsATamperedFile) {
    const std::string path = testing::TempDir() + "/walb_tamper.wfr";
    obs::FlightRecorder fr(8);
    for (std::uint64_t step = 0; step < 3; ++step) fr.record(sampleAt(step));
    ASSERT_TRUE(fr.dump(path, 0, 1));

    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(24); // inside the header/payload, after the magic
        f.put('\x7f');
    }
    obs::FlightRecorder::Dump dump;
    std::string err;
    EXPECT_FALSE(obs::FlightRecorder::read(path, dump, &err));
    EXPECT_NE(err.find("CRC"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(WfrFormat, MissingAndTruncatedFilesAreDiagnosed) {
    obs::FlightRecorder::Dump dump;
    std::string err;
    EXPECT_FALSE(obs::FlightRecorder::read(testing::TempDir() + "/nope.wfr", dump, &err));
    EXPECT_FALSE(err.empty());

    const std::string path = testing::TempDir() + "/walb_trunc.wfr";
    obs::FlightRecorder fr(8);
    fr.record(sampleAt(0));
    ASSERT_TRUE(fr.dump(path, 0, 1));
    // Chop the trailer off.
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size() / 2));
    out.close();
    EXPECT_FALSE(obs::FlightRecorder::read(path, dump, &err));
    EXPECT_FALSE(err.empty());
    std::remove(path.c_str());
}

// ---- PerfDiag statistics helpers -------------------------------------------

TEST(PerfDiagStats, SortedQuantileInterpolatesOrderStatistics) {
    EXPECT_DOUBLE_EQ(obs::sortedQuantile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(obs::sortedQuantile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(obs::sortedQuantile({7.0}, 1.0), 7.0);
    const std::vector<double> v{1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(obs::sortedQuantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(obs::sortedQuantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(obs::sortedQuantile(v, 0.5), 2.5);
}

TEST(PerfDiagStats, MedianAndMad) {
    EXPECT_DOUBLE_EQ(obs::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(obs::medianAbsDeviation({1.0, 1.0, 1.0, 1.0}, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(obs::medianAbsDeviation({1.0, 2.0, 3.0}, 2.0), 1.0);
}

TEST(PerfDiagStats, LogHistogramEdgesSpanTheRange) {
    const auto edges = obs::logHistogramEdges(1e-6, 10.0, 4);
    ASSERT_GE(edges.size(), 2u);
    for (std::size_t i = 1; i < edges.size(); ++i) EXPECT_GT(edges[i], edges[i - 1]);
    EXPECT_LE(edges.front(), 1e-6 * std::pow(10.0, 0.25) + 1e-12);
    EXPECT_GE(edges.back(), 10.0 - 1e-9);
}

// ---- StragglerDetector: pure judge() ---------------------------------------

TEST(StragglerJudge, FlagsTheSlowRankEvenWithZeroMad) {
    const obs::StragglerDetector d;
    // Three identical ranks (MAD = 0) and one 2x rank: the MAD term alone
    // degenerates here, the dual relative condition must still fire.
    const auto v = d.judge({1e-3, 1e-3, 1e-3, 2e-3}, 42);
    EXPECT_EQ(v.step, 42u);
    EXPECT_DOUBLE_EQ(v.median, 1e-3);
    ASSERT_EQ(v.stragglers.size(), 1u);
    EXPECT_EQ(v.stragglers[0], 3);
    EXPECT_TRUE(v.isStraggler(3));
    EXPECT_FALSE(v.isStraggler(0));
}

TEST(StragglerJudge, UniformFleetAndSmallJitterStayClean) {
    const obs::StragglerDetector d;
    EXPECT_TRUE(d.judge({1e-3, 1e-3, 1e-3, 1e-3}, 1).stragglers.empty());
    // 20% jitter is well under the 1.5x relative threshold.
    EXPECT_TRUE(d.judge({1.0e-3, 1.1e-3, 0.9e-3, 1.2e-3}, 2).stragglers.empty());
    // Degenerate worlds cannot have stragglers.
    EXPECT_TRUE(d.judge({}, 3).stragglers.empty());
    EXPECT_TRUE(d.judge({5e-3}, 4).stragglers.empty());
}

TEST(StragglerJudge, NoisyFleetNeedsTheMadTermToo) {
    // Median 1.0, MAD large (0.5): a rank at 1.6 exceeds 1.5x the median
    // but sits inside the fleet's own spread — must NOT be flagged.
    const obs::StragglerDetector d;
    const auto v = d.judge({0.5, 1.0, 1.5, 1.6, 0.4}, 7);
    EXPECT_TRUE(v.stragglers.empty()) << "flagged inside fleet noise";
}

TEST(StragglerDetector, EwmaSeedsOnFirstSampleThenSmooths) {
    obs::StragglerDetector d(0.5);
    EXPECT_FALSE(d.hasSample());
    d.record(4e-3);
    EXPECT_TRUE(d.hasSample());
    EXPECT_DOUBLE_EQ(d.ewma(), 4e-3); // seeded, not scaled by alpha
    d.record(2e-3);
    EXPECT_DOUBLE_EQ(d.ewma(), 3e-3);
    EXPECT_DOUBLE_EQ(d.lastImbalance(), 1.0); // no detection epoch yet
}

// ---- StragglerDetector: collective detect() --------------------------------

TEST(StragglerDetector, DetectAgreesOnEveryRank) {
    std::atomic<int> flaggedVerdicts{0};
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        obs::StragglerDetector d;
        // Rank 2 is 3x slower than the rest.
        d.record(comm.rank() == 2 ? 3e-3 : 1e-3);
        const obs::StragglerVerdict v = d.detect(comm, 5);
        EXPECT_EQ(v.step, 5u);
        ASSERT_EQ(v.ewmaByRank.size(), 4u);
        EXPECT_DOUBLE_EQ(v.median, 1e-3);
        if (v.stragglers == std::vector<int>{2}) ++flaggedVerdicts;
        // After the epoch every rank knows its own fleet-relative factor.
        EXPECT_NEAR(d.lastImbalance(), comm.rank() == 2 ? 3.0 : 1.0, 1e-9);
    });
    EXPECT_EQ(flaggedVerdicts.load(), 4); // the verdict is identical everywhere
}

// ---- end-to-end: throttled rank through DistributedSimulation --------------

bf::SetupBlockForest makeBoxSetup(std::uint32_t ranks) {
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, 8.0 * ranks, 8, 8);
    cfg.rootBlocksX = ranks;
    cfg.rootBlocksY = cfg.rootBlocksZ = 1;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = 8;
    auto setup = bf::SetupBlockForest::create(cfg);
    setup.balanceMorton(ranks);
    return setup;
}

sim::DistributedSimulation::FlagInitializer boxFlags(std::uint32_t ranks) {
    const cell_idx_t NX = 8 * cell_idx_c(ranks);
    return [NX](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                const bf::BlockForest::Block&, const geometry::CellMapping& mapping) {
        flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
            const Vec3 p = mapping.cellCenter(x, y, z);
            if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[0] > real_c(NX) || p[1] > 8 ||
                p[2] > 8)
                return;
            const Cell g{cell_idx_t(p[0]), cell_idx_t(p[1]), cell_idx_t(p[2])};
            if (g.x == 0 || g.x == NX - 1 || g.y == 0 || g.y == 7 || g.z == 0 ||
                g.z == 7)
                flags.addFlag(x, y, z, masks.noSlip);
            else
                flags.addFlag(x, y, z, masks.fluid);
        });
    };
}

TEST(StragglerEndToEnd, ThrottledRankIsFlaggedWithinTwentySteps) {
    auto setup = makeBoxSetup(4);
    auto flagInit = boxFlags(4);
    std::atomic<int> flagged{0};
    std::atomic<long long> latency{-1};
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
#ifdef _OPENMP
        // One OpenMP thread per rank (4P1T): with the default team of nproc
        // threads each, the 4 ranks oversubscribe the host fourfold and the
        // scheduling noise they inflict on each other swamps the throttle.
        omp_set_num_threads(1);
#endif
        sim::DistributedSimulation simulation(comm, setup, flagInit);
        const auto op = lbm::TRT::fromOmegaAndMagic(1.5);
        constexpr uint_t kWarmup = 10, kDrill = 40;
        simulation.run(kWarmup, op);
        const double mean = simulation.flightRecorder().meanStepSeconds(5);
        ASSERT_GT(mean, 0.0);
        if (comm.rank() == 1)
            simulation.setSweepThrottle(
                std::chrono::microseconds(std::int64_t(mean * 1e6)));
        sim::DistributedSimulation::StragglerOptions opt;
        opt.detectEvery = 5;
        simulation.enableStragglerDetection(opt);
        simulation.run(kDrill, op);
        const std::int64_t first = simulation.firstStragglerDetectedStep();
        if (first >= 0 && simulation.lastStragglerVerdict().isStraggler(1)) ++flagged;
        if (comm.rank() == 0) latency = first - std::int64_t(kWarmup);
        // The per-sample imbalance estimate reaches the flight recorder.
        ASSERT_NE(simulation.flightRecorder().latest(), nullptr);
        if (comm.rank() == 1) {
            EXPECT_GT(simulation.flightRecorder().latest()->imbalance, 1.2);
        }
        // perf gauges: reference + efficiency surface after a run.
        simulation.setPerfReference(10.0);
        simulation.run(1, op);
        EXPECT_DOUBLE_EQ(simulation.metrics().gauge("perf.predicted_mlups").value(),
                         10.0);
        EXPECT_GT(simulation.metrics().gauge("perf.efficiency").value(), 0.0);
    });
    EXPECT_EQ(flagged.load(), 4) << "verdict must agree on every rank";
    EXPECT_GE(latency.load(), 0);
    EXPECT_LE(latency.load(), 20) << "straggler flagged too slowly";
}

// ---- automatic .wfr dumps on failure ---------------------------------------

// Dump names embed the step at the dump moment (`<prefix>.r<rank>.s<step>.wfr`),
// which varies per rank in a fault drill — locate by prefix + rank instead of
// an exact path. Returns every match (normally exactly one).
std::vector<std::string> findWfrDumps(const std::string& prefix, int rank) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(prefix).parent_path();
    const std::string stem =
        fs::path(prefix).filename().string() + ".r" + std::to_string(rank) + ".s";
    std::vector<std::string> out;
    for (const auto& e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind(stem, 0) == 0 && name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".wfr") == 0)
            out.push_back(e.path().string());
    }
    return out;
}

TEST(FaultDrill, EveryRankDumpsItsFlightHistoryWhenARankDies) {
    auto setup = makeBoxSetup(4);
    auto flagInit = boxFlags(4);
    const std::string prefix = testing::TempDir() + "/walb_kill_drill";
    for (int rank = 0; rank < 4; ++rank)
        for (const std::string& stale : findWfrDumps(prefix, rank))
            std::remove(stale.c_str());

    vmpi::FaultPlan plan;
    plan.killRank = 2;
    plan.killAtStep = 6;
    std::atomic<int> structured{0};
    vmpi::ThreadCommWorld::launch(4, [&](vmpi::Comm& comm) {
        vmpi::FaultyComm faulty(comm, plan);
        faulty.setRecvDeadline(2000ms);
        sim::DistributedSimulation simulation(faulty, setup, flagInit);
        simulation.setFlightRecorderDumpPrefix(prefix);
        simulation.setPreStepCallback(
            [&](std::uint64_t step) { faulty.beginStep(step); });
        try {
            simulation.run(20, lbm::TRT::fromOmegaAndMagic(1.5));
            ADD_FAILURE() << "rank " << comm.rank() << " finished despite the kill";
        } catch (const vmpi::CommError&) {
            ++structured;
        }
    });
    EXPECT_EQ(structured.load(), 4);

    // Every rank — the killed one included — left a CRC-clean dump with the
    // per-step history that led up to the failure.
    for (int rank = 0; rank < 4; ++rank) {
        const std::vector<std::string> paths = findWfrDumps(prefix, rank);
        ASSERT_EQ(paths.size(), 1u) << "rank " << rank << " left " << paths.size()
                                    << " dumps, expected exactly one";
        obs::FlightRecorder::Dump dump;
        std::string err;
        ASSERT_TRUE(obs::FlightRecorder::read(paths[0], dump, &err))
            << paths[0] << ": " << err;
        EXPECT_EQ(dump.rank, std::uint32_t(rank));
        EXPECT_EQ(dump.worldSize, 4u);
        EXPECT_GE(dump.samples.size(), 5u) << "history too short to diagnose";
        std::remove(paths[0].c_str());
    }
}

TEST(FaultDrill, HealthViolationDumpsTheFlightHistory) {
    auto setup = makeBoxSetup(1);
    const std::string prefix = testing::TempDir() + "/walb_health_drill";
    for (const std::string& stale : findWfrDumps(prefix, 0))
        std::remove(stale.c_str());

    vmpi::SerialComm comm;
    sim::DistributedSimulation simulation(comm, setup, boxFlags(1));
    simulation.setFlightRecorderDumpPrefix(prefix);
    sim::HealthPolicy policy;
    policy.checkEvery = 2;
    policy.emergencyCheckpoint = false;
    simulation.attachHealthMonitor(policy);
    simulation.run(2, lbm::TRT::fromOmegaAndMagic(1.5));
    simulation.pdfField(0).get(4, 4, 4, 0) = std::nan("");
    EXPECT_THROW(simulation.run(2, lbm::TRT::fromOmegaAndMagic(1.5)), sim::HealthError);

    const std::vector<std::string> paths = findWfrDumps(prefix, 0);
    ASSERT_EQ(paths.size(), 1u);
    obs::FlightRecorder::Dump dump;
    std::string err;
    ASSERT_TRUE(obs::FlightRecorder::read(paths[0], dump, &err)) << err;
    EXPECT_EQ(dump.worldSize, 1u);
    EXPECT_GE(dump.samples.size(), 3u);
    std::remove(paths[0].c_str());
}

// ---- trace dropped-events surfacing ----------------------------------------

TEST(TraceDropped, GatherDroppedSumsAllRanks) {
    std::atomic<std::uint64_t> total{0};
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        obs::TraceRecorder rec(comm.rank(), /*maxEvents=*/2);
        for (int i = 0; i < 5; ++i) {
            rec.begin("phase");
            rec.end();
        }
        EXPECT_EQ(rec.dropped(), 3u);
        const std::uint64_t sum = obs::TraceRecorder::gatherDropped(comm, rec);
        EXPECT_EQ(sum, 6u); // identical on both ranks
        if (comm.rank() == 0) total = sum;
    });
    EXPECT_EQ(total.load(), 6u);
}

} // namespace
} // namespace walb
