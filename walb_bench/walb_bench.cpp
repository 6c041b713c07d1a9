/// \file walb_bench.cpp
/// End-to-end and per-layer benchmark program for walb: one workload per
/// process, measured from outside the library.
///
///   walb_bench --workload W [--seed N] [--seconds S] [--trace] [--smoke]
///              [--scratch DIR] [--trace-dir DIR]
///
/// Workloads (see README.md for why each exists):
///   host           4-thread STREAM copy/triad + host profile (the bound)
///   dense_cavity   lid-driven cavity, 4 ranks x 1 OpenMP thread, 4 x 128^3
///   dense_hybrid   the same problem on 1 rank x 4 OpenMP threads
///   vascular_tree  the coronary pipeline: tree, mesh, partition search,
///                  graph balance, voxelize + colour BCs, run, checkpoint
///   serve_sweep    closed batch of parameter-sweep jobs on a 4-rank pool
///
/// Every layer is timed around the public calls this program makes into it
/// (one clock pair per call feeds both the phase totals and, with --trace,
/// a span), or read after the timed loop from the accessors the library
/// already exposes (reduceTiming, reduceMetrics, the flight recorder,
/// ServeReport). The timed work scales with --seconds so that the timed
/// phase lasts about that long on the reference host (README.md); it is a
/// fixed amount of work for given arguments, so state digests repeat.
///
/// Output: diagnostics on stderr, then one JSON object on the last line of
/// stdout with every metric (value + unit), the correctness checks, the
/// thread budget and the host profile. run.py turns it into the benchmark
/// result line.

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "blockforest/ScalingSetup.h"
#include "core/Aligned.h"
#include "core/Logging.h"
#include "core/Random.h"
#include "geometry/BoundarySetup.h"
#include "geometry/CoronaryTree.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "perf/Machine.h"
#include "serve/Scenario.h"
#include "serve/ServeDriver.h"
#include "sim/DistributedSimulation.h"
#include "simd/Simd.h"
#include "vmpi/SerialComm.h"
#include "vmpi/ThreadComm.h"

#ifndef WALB_BENCH_BUILD_TYPE
#define WALB_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef WALB_BENCH_COMPILER
#define WALB_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace walb;
namespace fs = std::filesystem;

// ---- options ----------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 2013;
    double seconds = 15;
    bool trace = false;
    bool smoke = false;
    std::string scratch = ".";
    std::string traceDir;
};

struct UsageError {
    std::string message;
};

std::uint64_t parseU64(const std::string& flag, const std::string& text) {
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || end != text.data() + text.size())
        throw UsageError{flag + " expects a non-negative integer, got '" + text + "'"};
    return v;
}

double parseSeconds(const std::string& text) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(v > 0) || v > 3600)
        throw UsageError{"--seconds expects a number in (0, 3600], got '" + text + "'"};
    return v;
}

Options parseOptions(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw UsageError{a + " needs a value"};
            return argv[++i];
        };
        if (a == "--workload") opt.workload = value();
        else if (a == "--seed") opt.seed = parseU64(a, value());
        else if (a == "--seconds") opt.seconds = parseSeconds(value());
        else if (a == "--trace") opt.trace = true;
        else if (a == "--smoke") opt.smoke = true;
        else if (a == "--scratch") opt.scratch = value();
        else if (a == "--trace-dir") opt.traceDir = value();
        else throw UsageError{"unknown argument '" + a + "'"};
    }
    if (opt.workload.empty()) throw UsageError{"--workload is required"};
    if (opt.traceDir.empty()) opt.traceDir = opt.scratch;
    return opt;
}

// ---- host profile and thread budget ----------------------------------------

int hostProcessors() {
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? int(n) : 1;
}

/// Size of the largest cache level, from sysfs (sysconf as fallback).
std::uint64_t lastLevelCacheBytes() {
    std::uint64_t best = 0;
    int bestLevel = 0;
    for (int idx = 0; idx < 8; ++idx) {
        const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
        std::ifstream levelIn(dir + "/level"), sizeIn(dir + "/size");
        int level = 0;
        std::string size;
        if (!(levelIn >> level) || !(sizeIn >> size) || size.empty()) continue;
        std::uint64_t bytes = 0;
        std::from_chars(size.data(), size.data() + size.size(), bytes);
        const char unit = size.back();
        if (unit == 'K') bytes <<= 10;
        else if (unit == 'M') bytes <<= 20;
        else if (unit == 'G') bytes <<= 30;
        if (level > bestLevel || (level == bestLevel && bytes > best)) {
            best = bytes;
            bestLevel = level;
        }
    }
#ifdef _SC_LEVEL3_CACHE_SIZE
    if (best == 0) {
        const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
        if (l3 > 0) best = std::uint64_t(l3);
    }
#endif
    return best;
}

bool releaseBuild() {
#ifdef NDEBUG
    return std::string(WALB_BENCH_BUILD_TYPE) == "Release";
#else
    return false;
#endif
}

void writeProfile(obs::json::Writer& w) {
    w.key("profile").beginObject();
    w.kv("nproc", std::int64_t(hostProcessors()));
    w.kv("llc_bytes", lastLevelCacheBytes());
    w.kv("compiler", WALB_BENCH_COMPILER);
    w.kv("build_type", WALB_BENCH_BUILD_TYPE);
    w.kv("release", releaseBuild());
    w.kv("simd", simd::backendName<simd::BestD>());
#ifdef _OPENMP
    w.kv("openmp", true);
#else
    w.kv("openmp", false);
#endif
    w.endObject();
}

/// Ranks x OpenMP threads of one workload process. Every rank thread sets
/// its team size explicitly: a rank thread otherwise inherits the default
/// team of nproc threads and oversubscribes the host.
struct Budget {
    int ranks = 1;
    int threadsPerRank = 1;
};

void useOmpThreads(int n) {
#ifdef _OPENMP
    omp_set_num_threads(n);
#else
    (void)n;
#endif
}

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const auto lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

double nowSeconds() { return obs::TraceRecorder::nowUs() * 1e-6; }

/// Brings the host's cores out of idle before anything is timed: on the
/// reference VM the first second of work after an idle spell runs up to
/// 2.7x slower (README.md), which would otherwise land in the first setup
/// trial.
void spinUp(int threads, double seconds) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([seconds] {
            const double end = nowSeconds() + seconds;
            volatile double x = 1.0;
            while (nowSeconds() < end) x = x * 1.0000001 + 1e-9;
        });
    for (auto& t : pool) t.join();
}

// ---- spans and phase clocks -------------------------------------------------

struct Span {
    std::string name;
    std::uint64_t id = 0, parent = 0, seq = 0;
    int rank = -1; ///< virtual rank (or gang for serve jobs); -1 = main thread
    double beginUs = 0, endUs = 0;
    bool synthesized = false;
};

/// Spans of one traced run, kept in memory and written at the end. Rank
/// threads record concurrently, hence the mutex (one lock per span).
class SpanLog {
public:
    SpanLog(bool enabled, std::string traceId) : enabled_(enabled), traceId_(std::move(traceId)) {}
    bool enabled() const { return enabled_; }
    const std::string& traceId() const { return traceId_; }
    std::uint64_t newId() { return enabled_ ? ++lastId_ : 0; }
    void add(Span s) {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(s));
    }
    std::vector<Span> spans() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

private:
    bool enabled_;
    std::string traceId_;
    std::atomic<std::uint64_t> lastId_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

using PhaseSeconds = std::map<std::string, double>;

/// Times one call into a layer. The one clock pair feeds the phase totals
/// (always) and a span (when tracing), so the two cannot disagree.
class Phase {
public:
    Phase(SpanLog& log, const char* name, std::uint64_t parent, PhaseSeconds* acc = nullptr,
          int rank = -1, std::uint64_t seq = 0)
        : log_(log), name_(name), parent_(parent), acc_(acc), rank_(rank), seq_(seq),
          id_(log.newId()), beginUs_(obs::TraceRecorder::nowUs()) {}
    ~Phase() { stop(); }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

    std::uint64_t id() const { return id_; }

    /// Ends the phase (idempotent) and returns its duration in seconds.
    double stop() {
        if (stopped_) return seconds_;
        stopped_ = true;
        const double endUs = obs::TraceRecorder::nowUs();
        seconds_ = (endUs - beginUs_) * 1e-6;
        if (acc_) (*acc_)[name_] += seconds_;
        if (log_.enabled()) log_.add({name_, id_, parent_, seq_, rank_, beginUs_, endUs, false});
        return seconds_;
    }

private:
    SpanLog& log_;
    const char* name_;
    std::uint64_t parent_;
    PhaseSeconds* acc_;
    int rank_;
    std::uint64_t seq_;
    std::uint64_t id_;
    double beginUs_;
    bool stopped_ = false;
    double seconds_ = 0;
};

/// What a flag initializer running inside a DistributedSimulation
/// constructor needs to time itself: the calling rank and its open
/// sim.init span. Set by the rank thread before it constructs.
struct RankContext {
    SpanLog* log = nullptr;
    int rank = -1;
    std::uint64_t initSpan = 0;
    PhaseSeconds phases;
    std::uint64_t evals = 0;
};
thread_local RankContext* tlRank = nullptr;

/// Runs `fn` as a geometry phase of the current rank's sim.init, or
/// untimed outside a benchmarked construction.
template <typename F>
void geometryPhase(const char* name, F&& fn) {
    if (!tlRank || !tlRank->log) {
        fn();
        return;
    }
    Phase p(*tlRank->log, name, tlRank->initSpan, &tlRank->phases, tlRank->rank);
    fn();
}

std::string layerOf(const std::string& name) { return name.substr(0, name.find('.')); }

double sumLayer(const PhaseSeconds& phases, const std::string& layer) {
    double s = 0;
    for (const auto& [name, sec] : phases)
        if (layerOf(name) == layer) s += sec;
    return s;
}

/// Per-layer self time of the span tree under `root`: a span's duration
/// minus the part of it its children cover. Sibling spans of one name and
/// seq recorded by several ranks ran concurrently; they count along the
/// critical path: only the rank whose copy ends last, with its subtrees.
std::map<std::string, double> selfTimeByLayer(const std::vector<Span>& spans,
                                              std::uint64_t root) {
    std::map<std::uint64_t, const Span*> byId;
    std::map<std::uint64_t, std::vector<const Span*>> children;
    for (const Span& s : spans) {
        byId[s.id] = &s;
        children[s.parent].push_back(&s);
    }
    std::map<std::string, double> self;
    std::function<void(const Span&)> visit = [&](const Span& s) {
        std::map<std::pair<std::string, std::uint64_t>, const Span*> last;
        for (const Span* c : children[s.id]) {
            auto [it, inserted] = last.try_emplace({c->name, c->seq}, c);
            if (!inserted && c->endUs > it->second->endUs) it->second = c;
        }
        std::vector<const Span*> kept;
        for (const Span* c : children[s.id])
            if (c->rank == last.at({c->name, c->seq})->rank) kept.push_back(c);
        std::vector<std::pair<double, double>> iv;
        for (const Span* c : kept)
            iv.emplace_back(std::max(c->beginUs, s.beginUs), std::min(c->endUs, s.endUs));
        std::sort(iv.begin(), iv.end());
        double covered = 0, reach = s.beginUs;
        for (const auto& [b, e] : iv) {
            const double lo = std::max(b, reach);
            if (e > lo) covered += e - lo;
            reach = std::max(reach, e);
        }
        self[layerOf(s.name)] += (s.endUs - s.beginUs - covered) * 1e-6;
        for (const Span* c : kept) visit(*c);
    };
    if (byId.count(root)) visit(*byId.at(root));
    return self;
}

bool writeSpanTrace(const std::string& path, const std::vector<Span>& spans,
                    const std::string& traceId) {
    std::ofstream os(path, std::ios::binary);
    if (!os) return false;
    obs::json::Writer w(os, false);
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("otherData").beginObject();
    w.kv("framework", "walb_bench").kv("trace_id", traceId);
    w.endObject();
    w.key("traceEvents").beginArray();
    for (const Span& s : spans) {
        w.beginObject();
        w.kv("name", s.name).kv("cat", layerOf(s.name)).kv("ph", "X");
        w.kv("ts", s.beginUs).kv("dur", s.endUs - s.beginUs);
        // pid 1 keeps the benchmark's tracks apart from the program's
        // writeChromeTrace() output (pid 0); both share the nowUs() epoch.
        w.kv("pid", 1).kv("tid", std::int64_t(s.rank + 1));
        w.key("args").beginObject();
        w.kv("span_id", s.id).kv("parent_id", s.parent).kv("trace_id", traceId);
        w.kv("seq", s.seq).kv("synthesized", s.synthesized);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return bool(os);
}

/// Seconds one enabled span costs to record, from a calibration loop.
double spanCostSeconds() {
    SpanLog scratch(true, "calibration");
    constexpr int kCalls = 20000;
    const double t0 = nowSeconds();
    for (int i = 0; i < kCalls; ++i)
        Phase p(scratch, "obs.calibrate", 0, nullptr, 0, std::uint64_t(i));
    return (nowSeconds() - t0) / kCalls;
}

// ---- result -----------------------------------------------------------------

struct Result {
    struct Metric {
        double value;
        std::string unit;
    };
    std::map<std::string, Metric> metrics;
    std::vector<std::pair<std::string, bool>> checks;
    std::uint64_t operations = 0; ///< timed steps or jobs
    std::uint64_t lost = 0;       ///< jobs that never completed
    std::string digest;           ///< state digest after the timed work (hex)
    Budget budget;
    std::map<std::string, double> setupSelf; ///< traced: layer self time, median trial
    std::map<std::string, double> runSelf;   ///< traced: layer self time, whole workload
    double stepMeanMs = 0, stepPhaseSumMs = 0;

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = {value, unit};
    }
    void check(const std::string& name, bool ok) {
        checks.emplace_back(name, ok);
        if (!ok) std::fprintf(stderr, "walb_bench: check FAILED: %s\n", name.c_str());
    }
    std::uint64_t failedChecks() const {
        return std::uint64_t(std::count_if(checks.begin(), checks.end(),
                                           [](const auto& c) { return !c.second; }));
    }
};

/// Latency of the unit of work a user waits on (a step or a job), in ms.
/// The mean is the end-to-end metric: over 10-run series on the shared
/// reference host the sample p50 and p90 spread up to twice as much as
/// the mean (README.md, Noise). They stay in the result for reading.
void setLatency(Result& res, const std::vector<double>& ms) {
    res.set("latency_ms_mean", mean(ms), "ms");
    res.set("latency_ms_p50", quantile(ms, 0.5), "ms");
    res.set("latency_ms_p90", quantile(ms, 0.9), "ms");
}

std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/// The setup-phase layer metrics of one trial: main-thread phases plus
/// the critical (slowest-to-construct) rank's phases inside sim.init.
struct TrialLayers {
    double seconds = 0;
    double geometry = 0, blockforest = 0, partition = 0, simInit = 0;
};

TrialLayers trialLayers(double seconds, const PhaseSeconds& mainPhases,
                        const std::vector<RankContext>& ranks) {
    // sim.init runs either on the rank threads (simulation workloads) or on
    // the main thread (serve's per-job scenarios).
    const PhaseSeconds* init = &mainPhases;
    double slowest = -1;
    for (const auto& r : ranks) {
        const auto it = r.phases.find("sim.init");
        if (it != r.phases.end() && it->second > slowest) {
            slowest = it->second;
            init = &r.phases;
        }
    }
    TrialLayers t;
    t.seconds = seconds;
    t.geometry = sumLayer(mainPhases, "geometry") +
                 (init != &mainPhases ? sumLayer(*init, "geometry") : 0);
    t.blockforest = sumLayer(mainPhases, "blockforest");
    t.partition = sumLayer(mainPhases, "partition");
    t.simInit = sumLayer(*init, "sim") - sumLayer(*init, "geometry");
    return t;
}

/// Index of the trial whose duration is the median.
std::size_t medianTrial(const std::vector<TrialLayers>& trials) {
    std::vector<double> secs;
    for (const auto& t : trials) secs.push_back(t.seconds);
    const double med = median(secs);
    std::size_t pick = 0;
    for (std::size_t i = 0; i < trials.size(); ++i)
        if (std::abs(trials[i].seconds - med) < std::abs(trials[pick].seconds - med)) pick = i;
    return pick;
}

void setSetupLayers(Result& res, const std::vector<TrialLayers>& trials) {
    std::vector<double> secs;
    for (const auto& t : trials) secs.push_back(t.seconds);
    const TrialLayers& pick = trials[medianTrial(trials)];
    res.set("setup_s", median(secs), "s");
    res.set("geometry.setup_s", pick.geometry, "s");
    res.set("blockforest.setup_s", pick.blockforest, "s");
    res.set("partition.setup_s", pick.partition, "s");
    res.set("sim.init_s", pick.simInit, "s");
}

/// Traced run: self-time summaries, span overhead and the span file.
void finishTrace(const Options& opt, Result& res, const SpanLog& log, std::uint64_t setupTrial,
                 std::uint64_t workload, double workloadSeconds) {
    const std::vector<Span> spans = log.spans();
    res.setupSelf = selfTimeByLayer(spans, setupTrial);
    res.runSelf = selfTimeByLayer(spans, workload);
    // Measured directly: a traced-vs-untraced wall-clock difference of a
    // few hundred spans is far below the run-to-run noise.
    res.set("obs.trace_overhead_frac",
            double(spans.size()) * spanCostSeconds() / workloadSeconds, "1");
    res.set("obs.spans", double(spans.size()), "count");
    res.check("bench trace written",
              writeSpanTrace(opt.traceDir + "/" + opt.workload + ".bench.trace.json", spans,
                             log.traceId()));
}

// ---- per-step layer telemetry of a simulation --------------------------------

/// Per-step phase times and traffic of the timed loop, reduced over ranks.
/// Collective: every rank of the simulation calls it.
struct StepLayers {
    double sweepMs = 0, sweepMsMax = 0, boundaryMs = 0, boundaryMsMax = 0;
    double commMs = 0, commMsMax = 0, packMs = 0, waitMs = 0;
    double bytesPerStep = 0, messagesPerStep = 0;
    double sweepTotalMax = 0; ///< slowest rank's summed sweep seconds

    /// Accumulates another segment: per-step values weighted by the
    /// segment's share of the steps, totals summed.
    void add(const StepLayers& o, double weight) {
        for (auto [mine, theirs] :
             {std::pair{&sweepMs, o.sweepMs}, {&sweepMsMax, o.sweepMsMax},
              {&boundaryMs, o.boundaryMs}, {&boundaryMsMax, o.boundaryMsMax},
              {&commMs, o.commMs}, {&commMsMax, o.commMsMax}, {&packMs, o.packMs},
              {&waitMs, o.waitMs}, {&bytesPerStep, o.bytesPerStep},
              {&messagesPerStep, o.messagesPerStep}})
            *mine += weight * theirs;
        sweepTotalMax += o.sweepTotalMax;
    }
};

StepLayers reduceStepLayers(sim::DistributedSimulation& sim, vmpi::Comm& comm,
                            std::uint64_t steps) {
    const obs::ReducedTimingPool timing = sim.reduceTiming();
    const obs::ReducedMetrics metrics = sim.reduceMetrics();
    double local[2] = {0, 0};
    const auto samples = sim.flightRecorder().samples();
    for (const auto& s : samples) {
        local[0] += s.packSeconds;
        local[1] += s.exchangeSeconds;
    }
    // walb-lint: allow(blocking): report-time collective reached by every rank
    comm.allreduce(std::span<double>(local, 2), vmpi::ReduceOp::Sum);
    const double perStep = 1e3 / double(std::max<std::uint64_t>(steps, 1));
    const auto phase = [&](const char* name, bool max) {
        const obs::ReducedTimer* t = timing.find(name);
        return t ? (max ? t->totalMax : t->totalAvg) * perStep : 0.0;
    };
    const auto counter = [&](const char* name) {
        const auto it = metrics.counters.find(name);
        return it == metrics.counters.end() ? 0.0 : double(it->second.sum);
    };
    StepLayers L;
    L.sweepMs = phase("collideStream", false);
    L.sweepMsMax = phase("collideStream", true);
    L.boundaryMs = phase("boundary", false);
    L.boundaryMsMax = phase("boundary", true);
    L.commMs = phase("communication", false);
    L.commMsMax = phase("communication", true);
    L.packMs = local[0] / comm.size() * perStep;
    L.waitMs = local[1] / comm.size() * perStep;
    L.bytesPerStep = counter("comm.bytesSent") / double(std::max<std::uint64_t>(steps, 1));
    L.messagesPerStep = counter("comm.messagesSent") / double(std::max<std::uint64_t>(steps, 1));
    L.sweepTotalMax = L.sweepMsMax / perStep;
    return L;
}

void setStepLayers(Result& res, const StepLayers& L, double fluidUpdates, double bytesPerLup) {
    res.set("lbm.sweep_ms", L.sweepMs, "ms");
    res.set("lbm.sweep_ms_max", L.sweepMsMax, "ms");
    res.set("lbm.boundary_ms", L.boundaryMs, "ms");
    res.set("lbm.boundary_ms_max", L.boundaryMsMax, "ms");
    // Computed traffic: updates x bytes per update of the active kernel
    // tier (cache misses not included), over the slowest rank's sweep.
    res.set("lbm.sweep_gbps_computed",
            L.sweepTotalMax > 0 ? fluidUpdates * bytesPerLup / L.sweepTotalMax / 1e9 : 0.0,
            "GB/s");
    res.set("vmpi.comm_ms", L.commMs, "ms");
    res.set("vmpi.comm_ms_max", L.commMsMax, "ms");
    res.set("vmpi.pack_ms", L.packMs, "ms");
    res.set("vmpi.wait_ms", L.waitMs, "ms");
    res.set("vmpi.local_copy_ms", std::max(0.0, L.commMs - L.packMs - L.waitMs), "ms");
    res.set("vmpi.bytes_per_step", L.bytesPerStep, "bytes");
    res.set("vmpi.messages_per_step", L.messagesPerStep, "count");
}

void setNoCheckpoint(Result& res) {
    res.set("sim.ckpt_bytes", 0, "bytes");
    res.set("sim.ckpt_save_gbps", 0, "GB/s");
    res.set("sim.ckpt_load_gbps", 0, "GB/s");
    res.set("sim.ckpt_useful_frac", 0, "1");
}

void setNoServe(Result& res) {
    res.set("serve.jobs_per_s", 0, "1/s");
    res.set("serve.gang_busy_frac", 0, "1");
    res.set("serve.preemptions", 0, "count");
    res.set("serve.requeues", 0, "count");
    res.set("serve.ckpt_files_bytes", 0, "bytes");
}

double bytesPerLup(const sim::DistributedSimulation& sim) {
    return sim.usesAaPattern() ? perf::kAaBytesPerLUP : perf::kBytesPerLUP;
}

// ---- simulation workloads (dense_cavity, dense_hybrid, vascular_tree) ------

/// What one setup trial builds on the main thread before the ranks
/// construct their simulations.
struct SimInstance {
    bf::SetupBlockForest setup;
    sim::DistributedSimulation::FlagInitializer flags;
    std::function<void(sim::DistributedSimulation&)> configure;
    /// Vascular: the root-vessel probe cell; the flow there must run
    /// downstream (u . inlet direction > 0).
    std::optional<std::pair<Cell, Vec3>> probe;
    std::shared_ptr<void> keepAlive; ///< geometry the flag initializer references
};

/// Set-up trials per run; setup_s is their median.
constexpr int kSetupTrials = 3;

struct SimPlan {
    Budget budget;
    std::uint64_t warmup = 10, steps = 100;
    lbm::TRT op = lbm::TRT::fromOmegaAndMagic(1.5);
    bool checkMass = false;  ///< closed domain: mass must be conserved
    bool checkpoint = false; ///< save, step, load; digest must round-trip
    std::function<SimInstance(SpanLog&, std::uint64_t parent, PhaseSeconds&)> build;
};

Result runSimWorkload(const Options& opt, const SimPlan& plan) {
    Result res;
    res.budget = plan.budget;
    const int ranks = plan.budget.ranks;
    SpanLog log(opt.trace, opt.workload + ":" + std::to_string(opt.seed));
    Phase workload(log, "workload", 0);

    std::vector<TrialLayers> trials;
    std::vector<RankContext> ctx(static_cast<std::size_t>(ranks));
    std::vector<std::vector<double>> stepSeconds(static_cast<std::size_t>(ranks));
    std::vector<std::uint64_t> trialSpanIds;
    // Filled by rank 0; the timed loop and the layer sums span all trials.
    double loopSeconds = 0, ckptSaveSeconds = 0, ckptLoadSeconds = 0, digestSeconds = 0;
    double fluid = 0, massBefore = 0, massAfter = 0, probeSpeed = 0;
    std::uint64_t digest = 0, digestAfterLoad = 0, ckptBytes = 0;
    std::size_t blocks = 0;
    double cells = 0, imbalance = 1, evals = 0, bplup = perf::kBytesPerLUP;
    StepLayers layers;
    bool traceWritten = true, probed = false;

    for (int trial = 0; trial < kSetupTrials; ++trial) {
        const bool last = trial + 1 == kSetupTrials;
        // The timed steps are split across the trials, so every run samples
        // three allocations and three time windows of a noisy host.
        const std::uint64_t segment =
            plan.steps / kSetupTrials + (last ? plan.steps % kSetupTrials : 0);
        Phase trialSpan(log, "setup.trial", workload.id(), nullptr, -1, std::uint64_t(trial));
        trialSpanIds.push_back(trialSpan.id());
        PhaseSeconds mainPhases;
        SimInstance inst = plan.build(log, trialSpan.id(), mainPhases);
        for (auto& c : ctx) c = RankContext{};
        double trialSeconds = 0;

        vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& comm) {
            useOmpThreads(plan.budget.threadsPerRank);
            const int rank = comm.rank();
            RankContext& me = ctx[std::size_t(rank)];
            me.log = &log;
            me.rank = rank;
            tlRank = &me;
            std::optional<sim::DistributedSimulation> simulation;
            {
                Phase init(log, "sim.init", trialSpan.id(), &me.phases, rank);
                me.initSpan = init.id();
                simulation.emplace(comm, inst.setup, inst.flags);
                inst.configure(*simulation);
            }
            tlRank = nullptr;
            sim::DistributedSimulation& sim = *simulation;
            // walb-lint: allow(blocking): setup rendezvous reached by every rank
            comm.barrier();
            if (rank == 0) trialSeconds = trialSpan.stop();

            {
                Phase warm(log, "sim.warmup", workload.id(), nullptr, rank);
                sim.run(uint_t(plan.warmup), plan.op);
            }
            const double fluidGlobal = double(sim.globalFluidCells());
            const double m0 = plan.checkMass && last ? double(sim.gatherTotalMass()) : 0.0;
            sim.timing().reset();
            sim.metrics().reset();
            sim.flightRecorder().clear();
            std::vector<double>& mine = stepSeconds[std::size_t(rank)];
            const std::uint64_t first = mine.size();
            // walb-lint: allow(blocking): timed-loop rendezvous reached by every rank
            comm.barrier();
            const double loop0 = nowSeconds();
            for (std::uint64_t s = first; s < first + segment; ++s) {
                Phase step(log, "sim.step", workload.id(), nullptr, rank, s);
                sim.run(1, plan.op);
                mine.push_back(step.stop());
            }
            // walb-lint: allow(blocking): timed-loop rendezvous reached by every rank
            comm.barrier();
            const double loop1 = nowSeconds();
            const StepLayers L = reduceStepLayers(sim, comm, segment);
            if (rank == 0) {
                loopSeconds += loop1 - loop0;
                layers.add(L, double(segment) / double(plan.steps));
                fluid = fluidGlobal;
            }
            if (!last) return;

            double dSec = 0;
            std::uint64_t d = 0;
            {
                Phase p(log, "sim.digest", workload.id(), nullptr, rank);
                d = sim.stateDigest();
                dSec = p.stop();
            }
            const double m1 = plan.checkMass ? double(sim.gatherTotalMass()) : 0.0;
            double save = 0, load = 0;
            std::uint64_t dLoad = 0;
            const std::string ckptPath = opt.scratch + "/" + opt.workload + ".wckp";
            if (plan.checkpoint) {
                {
                    Phase p(log, "sim.ckpt_save", workload.id(), nullptr, rank);
                    std::string err;
                    if (!sim.saveCheckpoint(ckptPath, &err) && rank == 0)
                        std::fprintf(stderr, "walb_bench: checkpoint save: %s\n", err.c_str());
                    // walb-lint: allow(blocking): checkpoint timing rendezvous
                    comm.barrier();
                    save = p.stop();
                }
                sim.run(5, plan.op);
                {
                    Phase p(log, "sim.ckpt_load", workload.id(), nullptr, rank);
                    std::string err;
                    if (!sim.loadCheckpoint(ckptPath, &err) && rank == 0)
                        std::fprintf(stderr, "walb_bench: checkpoint load: %s\n", err.c_str());
                    // walb-lint: allow(blocking): checkpoint timing rendezvous
                    comm.barrier();
                    load = p.stop();
                }
                dLoad = sim.stateDigest();
            }
            double speed = 0;
            if (inst.probe)
                speed = double(sim.gatherCellVelocity(inst.probe->first).dot(inst.probe->second));
            bool wrote = true;
            if (opt.trace)
                wrote = sim.writeChromeTrace(opt.traceDir + "/" + opt.workload +
                                             ".program.trace.json");
            if (rank != 0) return;
            digest = d;
            digestSeconds = dSec;
            massBefore = m0;
            massAfter = m1;
            ckptSaveSeconds = save;
            ckptLoadSeconds = load;
            digestAfterLoad = dLoad;
            probeSpeed = speed;
            probed = inst.probe.has_value();
            traceWritten = wrote;
            bplup = bytesPerLup(sim);
            if (plan.checkpoint) {
                std::error_code ec;
                ckptBytes = fs::file_size(ckptPath, ec);
                fs::remove(ckptPath, ec);
            }
        });
        trials.push_back(trialLayers(trialSeconds, mainPhases, ctx));
        if (last) {
            blocks = inst.setup.numBlocks();
            cells = double(blocks) * double(inst.setup.config().cellsPerBlock());
            imbalance = inst.setup.balanceStats().imbalance;
            for (const auto& c : ctx) evals += double(c.evals);
        }
    }
    const double workloadSeconds = workload.stop();

    // ---- end-to-end --------------------------------------------------------
    setSetupLayers(res, trials);
    const double setup = res.metrics.at("setup_s").value;
    std::vector<double> ms;
    for (double s : stepSeconds[0]) ms.push_back(s * 1e3);
    res.operations = plan.steps;
    res.set("mflups", fluid * double(plan.steps) / loopSeconds / 1e6, "MFLUP/s");
    setLatency(res, ms);
    // The solution is the fixed step count plus, where the workload
    // persists its result, the checkpoint write.
    res.set("time_to_solution_s", setup + loopSeconds + ckptSaveSeconds, "s");
    res.set("peak_rss_mb", peakRssMb(), "MB");

    // ---- per layer ---------------------------------------------------------
    res.set("geometry.evals_per_fluid_cell", fluid > 0 ? evals / fluid : 0.0, "1");
    res.set("blockforest.blocks", double(blocks), "count");
    res.set("blockforest.fluid_fraction", cells > 0 ? fluid / cells : 0.0, "1");
    res.set("partition.imbalance", imbalance, "1");
    res.set("sim.digest_s", digestSeconds, "s");
    setStepLayers(res, layers, fluid * double(plan.steps), bplup);
    res.set("vmpi.bytes_per_fluid_update", fluid > 0 ? layers.bytesPerStep / fluid : 0.0,
            "bytes");
    if (plan.checkpoint) {
        res.set("sim.ckpt_bytes", double(ckptBytes), "bytes");
        res.set("sim.ckpt_save_gbps", double(ckptBytes) / ckptSaveSeconds / 1e9, "GB/s");
        res.set("sim.ckpt_load_gbps", double(ckptBytes) / ckptLoadSeconds / 1e9, "GB/s");
        res.set("sim.ckpt_useful_frac",
                ckptBytes ? fluid * 19.0 * sizeof(real_t) / double(ckptBytes) : 0.0, "1");
    } else {
        setNoCheckpoint(res);
    }
    setNoServe(res);

    // ---- correctness -------------------------------------------------------
    res.digest = hex(digest);
    res.check("fluid cells present", fluid > 0);
    if (plan.checkMass) {
        const double drift = std::abs(massAfter - massBefore) / massBefore;
        res.check("mass finite", std::isfinite(massBefore) && std::isfinite(massAfter));
        res.check("mass drift within 1e-9 over the last timed segment", drift <= 1e-9);
        std::fprintf(stderr, "walb_bench: mass %.17g -> %.17g (relative drift %.3g)\n",
                     massBefore, massAfter, drift);
    }
    if (plan.checkpoint)
        res.check("digest after ckpt_load equals digest before ckpt_save",
                  digestAfterLoad == digest && ckptBytes > 0);
    if (probed) {
        res.check("root-vessel probe velocity > 0", probeSpeed > 0);
        std::fprintf(stderr, "walb_bench: root-vessel probe velocity %.6g\n", probeSpeed);
    }

    if (opt.trace) {
        res.check("program trace written", traceWritten);
        res.stepMeanMs = loopSeconds / double(plan.steps) * 1e3;
        res.stepPhaseSumMs = layers.sweepMs + layers.boundaryMs + layers.commMs;
        finishTrace(opt, res, log, trialSpanIds[medianTrial(trials)], workload.id(),
                    workloadSeconds);
    }
    return res;
}

// ---- dense cavity -----------------------------------------------------------

struct CavityParams {
    cell_idx_t edge = 128; ///< cells per block edge; 4 x 1 x 1 blocks
    double lid = 0.05;
    double omega = 1.5;
};

CavityParams cavityParams(const Options& opt) {
    Random rng(opt.seed);
    CavityParams p;
    p.edge = opt.smoke ? 24 : 128;
    p.lid = rng.uniform(0.03, 0.07);
    p.omega = rng.uniform(1.4, 1.9);
    return p;
}

/// Lid-driven cavity: fluid is the interior of the box shrunk by one cell,
/// voxelized through the library's signed-distance path; the hull becomes
/// no-slip walls except the top layer, the moving lid.
SimInstance buildCavity(const CavityParams& p, int ranks, SpanLog& log, std::uint64_t parent,
                        PhaseSeconds& phases) {
    const cell_idx_t NX = 4 * p.edge, NY = p.edge, NZ = p.edge;
    bf::SetupConfig cfg;
    cfg.domain = AABB(0, 0, 0, real_c(NX), real_c(NY), real_c(NZ));
    cfg.rootBlocksX = 4;
    cfg.cellsPerBlockX = cfg.cellsPerBlockY = cfg.cellsPerBlockZ = std::uint32_t(p.edge);
    SimInstance inst;
    {
        Phase ph(log, "blockforest.create", parent, &phases);
        inst.setup = bf::SetupBlockForest::create(cfg);
    }
    {
        Phase ph(log, "partition.balance", parent, &phases);
        inst.setup.balanceMorton(std::uint32_t(ranks));
    }
    auto inner = std::make_shared<geometry::BoxDistance>(
        AABB(1, 1, 1, real_c(NX - 1), real_c(NY - 1), real_c(NZ - 1)));
    inst.keepAlive = inner;
    inst.flags = [inner, NZ](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                             const bf::BlockForest::Block&, const geometry::CellMapping& mapping) {
        geometryPhase("geometry.voxelize", [&] {
            const auto st = geometry::voxelize(*inner, flags, mapping, masks.fluid);
            if (tlRank) tlRank->evals += st.cellsEvaluated;
        });
        geometryPhase("geometry.bc", [&] {
            const field::flag_t hull = flags.registerFlag("hull");
            lbm::markBoundaryHull<lbm::D3Q19>(flags, masks.fluid, 0, hull);
            flags.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
                if (!flags.isFlagSet(x, y, z, hull)) return;
                flags.removeFlag(x, y, z, hull);
                const bool lid = mapping.cellCenter(x, y, z)[2] > real_c(NZ - 1);
                flags.addFlag(x, y, z, lid ? masks.ubb : masks.noSlip);
            });
        });
    };
    const double lid = p.lid;
    inst.configure = [lid](sim::DistributedSimulation& s) { s.setWallVelocity({lid, 0, 0}); };
    return inst;
}

/// State digest of a reduced cavity (same seed, 4 x 24^3) after `steps`
/// steps on the given decomposition — the cross-decomposition check.
std::uint64_t cavityReplicaDigest(CavityParams p, int ranks, int threads, std::uint64_t steps) {
    p.edge = 24;
    SpanLog off(false, "");
    PhaseSeconds unused;
    const SimInstance inst = buildCavity(p, ranks, off, 0, unused);
    std::uint64_t digest = 0;
    vmpi::ThreadCommWorld::launch(ranks, [&](vmpi::Comm& comm) {
        useOmpThreads(threads);
        sim::DistributedSimulation sim(comm, inst.setup, inst.flags);
        inst.configure(sim);
        sim.run(uint_t(steps), lbm::TRT::fromOmegaAndMagic(real_c(p.omega)));
        const std::uint64_t d = sim.stateDigest();
        if (comm.rank() == 0) digest = d;
    });
    return digest;
}

Result runDense(const Options& opt, bool hybrid) {
    const CavityParams p = cavityParams(opt);
    SimPlan plan;
    plan.budget = hybrid ? Budget{1, 4} : Budget{4, 1};
    // The constructor already wrote both PDF fields, so a few steps settle
    // the caches and the exchange buffers.
    plan.warmup = opt.smoke ? 2 : 3;
    // ~7 steps per second of --seconds on the reference host (README.md):
    // at --seconds 15, 105 steps, so latency p90 has ten samples beyond it.
    plan.steps = opt.smoke ? 10 : std::uint64_t(std::llround(7.0 * opt.seconds));
    plan.op = lbm::TRT::fromOmegaAndMagic(real_c(p.omega));
    plan.checkMass = true;
    const int ranks = plan.budget.ranks;
    plan.build = [p, ranks](SpanLog& log, std::uint64_t parent, PhaseSeconds& phases) {
        return buildCavity(p, ranks, log, parent, phases);
    };
    std::fprintf(stderr, "walb_bench: %s: 4 x %lld^3 cells, lid %.5f, omega %.5f, %llu steps\n",
                 hybrid ? "dense_hybrid (1P4T)" : "dense_cavity (4P1T)", (long long)p.edge,
                 p.lid, p.omega, (unsigned long long)plan.steps);
    Result res = runSimWorkload(opt, plan);
    const std::uint64_t replicaSteps = 30;
    const std::uint64_t d4p1t = cavityReplicaDigest(p, 4, 1, replicaSteps);
    const std::uint64_t d1p4t = cavityReplicaDigest(p, 1, 4, replicaSteps);
    res.check("4P1T and 1P4T digests equal (4 x 24^3 replica, 30 steps)", d4p1t == d1p4t);
    return res;
}

// ---- vascular tree ----------------------------------------------------------

struct VascularGeometry {
    geometry::CoronaryTree tree;
    std::unique_ptr<geometry::DistanceFunction> phi;
    std::unique_ptr<geometry::TriangleMesh> mesh;
    std::unique_ptr<geometry::MeshDistance> meshDistance;
};

Result runVascular(const Options& opt) {
    SimPlan plan;
    plan.budget = {4, 1};
    plan.warmup = 10;
    // ~35 steps per second of --seconds on the reference host (README.md).
    plan.steps = opt.smoke ? 60 : std::uint64_t(std::llround(35.0 * opt.seconds));
    plan.checkpoint = true;
    const std::uint32_t blockEdge = opt.smoke ? 12 : 32;
    const uint_t targetBlocks = opt.smoke ? 24 : 128;
    const unsigned meshResolution = opt.smoke ? 48 : 96;
    // The seed draws the flow, not the tree: reseeding the tree moves the
    // block count (94-123) and the step time (2-3x) from run to run, more
    // than any regression bound could absorb (README.md).
    Random rng(opt.seed);
    const real_t inletSpeed = rng.uniform(0.015, 0.025);
    const real_t omega = rng.uniform(1.4, 1.8);
    plan.op = lbm::TRT::fromOmegaAndMagic(omega);
    plan.build = [=](SpanLog& log, std::uint64_t parent, PhaseSeconds& phases) {
        auto g = std::make_shared<VascularGeometry>();
        const AABB bounds(0, 0, 0, 1, 1, 1);
        {
            Phase ph(log, "geometry.tree", parent, &phases);
            geometry::CoronaryTreeParams params; // the fig7 tree
            params.seed = 2013;
            params.bounds = bounds;
            params.rootRadius = 0.04;
            params.minRadius = 0.006;
            params.maxDepth = 11;
            g->tree = geometry::CoronaryTree::generate(params);
            g->phi = g->tree.implicitDistance();
        }
        {
            Phase ph(log, "geometry.mesh", parent, &phases);
            g->mesh = std::make_unique<geometry::TriangleMesh>(g->tree.surfaceMesh(meshResolution));
        }
        {
            Phase ph(log, "geometry.distance", parent, &phases);
            g->meshDistance = std::make_unique<geometry::MeshDistance>(*g->mesh);
        }
        bf::ScalingSearchResult search;
        {
            Phase ph(log, "blockforest.search", parent, &phases);
            search = bf::findWeakScalingPartition(*g->phi, bounds, blockEdge, targetBlocks);
        }
        {
            Phase ph(log, "blockforest.workload", parent, &phases);
            search.forest.assignFluidCellWorkload(*g->phi);
        }
        {
            Phase ph(log, "partition.balance", parent, &phases);
            search.forest.balanceGraph(4);
        }
        SimInstance inst;
        inst.setup = std::move(search.forest);
        inst.keepAlive = g;
        const geometry::DistanceFunction* phi = g->phi.get();
        const geometry::MeshDistance* md = g->meshDistance.get();
        inst.flags = [phi, md](field::FlagField& flags, const lbm::BoundaryFlags& masks,
                               const bf::BlockForest::Block&,
                               const geometry::CellMapping& mapping) {
            geometryPhase("geometry.voxelize", [&] {
                const auto st = geometry::voxelize(*phi, flags, mapping, masks.fluid);
                if (tlRank) tlRank->evals += st.cellsEvaluated;
            });
            geometryPhase("geometry.bc", [&] {
                const field::flag_t hull = flags.registerFlag("hull");
                lbm::markBoundaryHull<lbm::D3Q19>(flags, masks.fluid, 0, hull);
                geometry::assignBoundaryConditionsFromColors(flags, masks, hull, *md, mapping);
            });
        };
        const Vec3 inlet = g->tree.inletDirection() * inletSpeed;
        inst.configure = [inlet](sim::DistributedSimulation& s) {
            s.setWallVelocity(inlet);
            s.setPressureDensity(1.0);
        };
        // A little downstream of the inlet cap, as examples/coronary_flow.
        const Vec3 probePoint =
            g->tree.inletCenter() + g->tree.inletDirection() * (4 * g->tree.inletRadius());
        const auto& cfg = inst.setup.config();
        const real_t dx = cfg.dx();
        inst.probe = std::make_pair(
            Cell{cell_idx_t((probePoint[0] - cfg.domain.min()[0]) / dx),
                 cell_idx_t((probePoint[1] - cfg.domain.min()[1]) / dx),
                 cell_idx_t((probePoint[2] - cfg.domain.min()[2]) / dx)},
            g->tree.inletDirection());
        return inst;
    };
    std::fprintf(stderr, "walb_bench: vascular_tree: fig7 tree, %u^3 blocks, <= %llu blocks, "
                         "inlet %.5f, omega %.5f, %llu steps\n",
                 blockEdge, (unsigned long long)targetBlocks, inletSpeed, omega,
                 (unsigned long long)plan.steps);
    Result res = runSimWorkload(opt, plan);
    res.check("at most the target block count",
              res.metrics.at("blockforest.blocks").value <= double(targetBlocks));
    return res;
}

// ---- serve sweep ------------------------------------------------------------

std::vector<serve::JobSpec> serveJobs(const Options& opt) {
    serve::ServeDriver::SweepConfig sweep;
    sweep.tenants = {"acme", "burgers", "corelab", "dynamo"};
    sweep.kinds = {serve::ScenarioKind::Cavity, serve::ScenarioKind::Voxel,
                   serve::ScenarioKind::Cylinder};
    sweep.omegas = opt.smoke ? std::vector<double>{1.4, 1.7}
                             : std::vector<double>{1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.75, 1.8};
    // ~27 jobs per second on the reference host: one repeat of the 24-point
    // sweep (tenants are round-robined over the points) per ~0.9 s of
    // --seconds (README.md).
    sweep.repeats = opt.smoke ? 1 : std::max(1, int(std::lround(opt.seconds * 27.0 / 24.0)));
    sweep.blocksX = 2;
    sweep.cellsPerBlock = opt.smoke ? 8 : 16;
    sweep.steps = opt.smoke ? 12 : 100;
    sweep.voxelSeedBase = opt.seed;
    std::vector<serve::JobSpec> jobs = serve::ServeDriver::makeParameterSweep(sweep);

    // Eight urgent jobs, released in pairs at seed-chosen completion
    // counts: the first of a pair takes the gang that just freed up, the
    // second can only start by preempting the other gang.
    Random rng(opt.seed ^ 0x5e77e5ull);
    const std::uint64_t n = jobs.size();
    for (int pair = 0; pair < 4; ++pair) {
        const std::uint64_t lo = n * std::uint64_t(pair) / 4 + 1;
        const std::uint64_t release = lo + rng.uniformInt(std::max<std::uint64_t>(n / 4 - 1, 1));
        for (int k = 0; k < 2; ++k) {
            serve::JobSpec urgent;
            urgent.name = "urgent_" + std::to_string(2 * pair + k);
            urgent.tenant = "ops";
            urgent.priority = 10;
            urgent.releaseAfterCompleted = release;
            urgent.kind = serve::ScenarioKind::Cylinder;
            urgent.omega = 1.7;
            urgent.blocksX = sweep.blocksX;
            urgent.cellsPerBlock = sweep.cellsPerBlock;
            urgent.steps = sweep.steps;
            jobs.push_back(std::move(urgent));
        }
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = i + 1; // queue order
    return jobs;
}

std::uint64_t directoryBytes(const std::string& dir) {
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir, ec))
        if (e.is_regular_file(ec)) total += e.file_size(ec);
    return total;
}

/// One job rebuilt outside the service the way a 2-rank gang builds it,
/// run in one go, digested, checkpointed and restored.
struct Replay {
    std::uint64_t digest = 0, digestAfterLoad = 0, ckptBytes = 0;
    double digestSeconds = 0, saveSeconds = 0, loadSeconds = 0, fluid = 0;
    StepLayers layers;
};

Replay replayOnGang(const serve::JobSpec& spec, const std::string& scratch, SpanLog& log,
                    std::uint64_t parent) {
    Replay r;
    const bf::SetupBlockForest setup = serve::makeScenarioSetup(spec, 2);
    const std::string path = scratch + "/replay_job" + std::to_string(spec.id) + ".wckp";
    vmpi::ThreadCommWorld::launch(2, [&](vmpi::Comm& comm) {
        useOmpThreads(1);
        sim::DistributedSimulation sim(comm, setup, serve::scenarioFlags(spec));
        sim.setWallVelocity({real_c(spec.lidVelocity), 0, 0});
        sim.setFlightRecorderDumpPrefix(scratch + "/replay");
        sim.run(uint_t(spec.steps), serve::scenarioCollision(spec));
        const StepLayers L = reduceStepLayers(sim, comm, spec.steps);
        const double fluid = double(sim.globalFluidCells());
        Phase digestPhase(log, "sim.digest", parent, nullptr, comm.rank());
        const std::uint64_t d = sim.stateDigest();
        const double dSec = digestPhase.stop();
        Phase save(log, "sim.ckpt_save", parent, nullptr, comm.rank());
        sim.saveCheckpoint(path);
        // walb-lint: allow(blocking): checkpoint timing rendezvous
        comm.barrier();
        const double saveSec = save.stop();
        Phase load(log, "sim.ckpt_load", parent, nullptr, comm.rank());
        const bool loaded = sim.loadCheckpoint(path);
        // walb-lint: allow(blocking): checkpoint timing rendezvous
        comm.barrier();
        const double loadSec = load.stop();
        const std::uint64_t dLoad = loaded ? sim.stateDigest() : 0;
        if (comm.rank() != 0) return;
        r.digest = d;
        r.digestAfterLoad = dLoad;
        r.digestSeconds = dSec;
        r.saveSeconds = saveSec;
        r.loadSeconds = loadSec;
        r.fluid = fluid;
        r.layers = L;
        std::error_code ec;
        r.ckptBytes = fs::file_size(path, ec);
        fs::remove(path, ec);
    });
    return r;
}

Result runServe(const Options& opt) {
    Result res;
    res.budget = {4, 1};
    SpanLog log(opt.trace, opt.workload + ":" + std::to_string(opt.seed));
    Phase workload(log, "workload", 0);
    const std::vector<serve::JobSpec> jobs = serveJobs(opt);
    constexpr int kPool = 4, kGangSize = 2; // dispatcher + gangs {1,2} and {3}
    std::fprintf(stderr, "walb_bench: serve_sweep: %zu jobs of %u x %u^3 cells, %llu steps\n",
                 jobs.size(), jobs.front().blocksX, jobs.front().cellsPerBlock,
                 (unsigned long long)jobs.front().steps);

    // ---- setup: every job's scenario, as a 1-rank world builds it ----------
    std::vector<TrialLayers> trials;
    std::vector<std::uint64_t> trialSpanIds;
    std::vector<double> fluid(jobs.size(), 0.0);
    double cells = 0;
    std::size_t blocks = 0, gangs = 0;
    for (int trial = 0; trial < kSetupTrials; ++trial) {
        Phase trialSpan(log, "setup.trial", workload.id(), nullptr, -1, std::uint64_t(trial));
        trialSpanIds.push_back(trialSpan.id());
        RankContext me;
        me.log = &log;
        {
            Phase carve(log, "partition.carve", trialSpan.id(), &me.phases);
            gangs = serve::GangLayout::carve(kPool, kGangSize).gangs.size();
        }
        blocks = 0;
        cells = 0;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const serve::JobSpec& spec = jobs[j];
            std::optional<bf::SetupBlockForest> setup;
            {
                Phase p(log, "blockforest.scenario", trialSpan.id(), &me.phases);
                setup.emplace(serve::makeScenarioSetup(spec, 1));
            }
            const auto scenario = serve::scenarioFlags(spec);
            vmpi::SerialComm comm;
            std::optional<sim::DistributedSimulation> sim;
            {
                Phase init(log, "sim.init", trialSpan.id(), &me.phases);
                me.initSpan = init.id();
                tlRank = &me;
                sim.emplace(comm, *setup,
                            [&scenario](field::FlagField& f, const lbm::BoundaryFlags& m,
                                        const bf::BlockForest::Block& b,
                                        const geometry::CellMapping& c) {
                                geometryPhase("geometry.flags", [&] { scenario(f, m, b, c); });
                            });
                sim->setWallVelocity({real_c(spec.lidVelocity), 0, 0});
                tlRank = nullptr;
            }
            fluid[j] = double(sim->localFluidCells());
            blocks += setup->numBlocks();
            cells += double(setup->numBlocks()) * double(setup->config().cellsPerBlock());
        }
        trials.push_back(trialLayers(trialSpan.stop(), me.phases, {}));
    }
    setSetupLayers(res, trials);

    // ---- the timed batch ---------------------------------------------------
    const std::string batchDir = opt.scratch + "/serve_batch";
    std::error_code ec;
    fs::remove_all(batchDir, ec);
    fs::create_directories(batchDir, ec);
    serve::ServeOptions so;
    so.gangSize = kGangSize;
    so.chunkSteps = 4;
    so.checkpointEvery = 20;
    so.checkpointDir = batchDir;
    // The failure detector exists for fault drills; none are injected here,
    // so the deadline only has to outlast scheduling noise on a shared host.
    so.recvDeadline = std::chrono::milliseconds(5000);
    serve::ServeReport report;
    Phase batch(log, "serve.batch", workload.id());
    const double batchBeginUs = obs::TraceRecorder::nowUs();
    vmpi::ThreadCommWorld::launch(kPool, [&](vmpi::Comm& comm) {
        useOmpThreads(1);
        serve::ServeReport rep = serve::ServeDriver::run(comm, so, jobs);
        if (comm.rank() == 0) report = std::move(rep);
    });
    const double wall = batch.stop();
    const std::uint64_t ckptFiles = directoryBytes(batchDir);
    fs::remove_all(batchDir, ec);

    // ---- end-to-end --------------------------------------------------------
    std::vector<double> serviceMs;
    double updates = 0, busy = 0;
    std::vector<double> gangBusy(std::max<std::size_t>(gangs, 1), 0.0);
    for (const serve::JobRecord& rec : report.jobs) {
        const std::size_t j = std::size_t(rec.spec.id - 1);
        serviceMs.push_back((rec.turnaroundSeconds - rec.waitSeconds) * 1e3);
        updates += fluid[j] * double(rec.spec.steps);
        // cellSeconds = fluid cells x wall seconds, summed over attempts.
        const double run = fluid[j] > 0 ? rec.cellSeconds / fluid[j] : 0.0;
        busy += run;
        if (rec.gang >= 0 && std::size_t(rec.gang) < gangBusy.size())
            gangBusy[std::size_t(rec.gang)] += run;
        // Synthesized from the dispatcher's record: grant to completion.
        if (log.enabled())
            log.add({"serve.job", log.newId(), batch.id(), rec.spec.id, rec.gang,
                     batchBeginUs + rec.waitSeconds * 1e6,
                     batchBeginUs + rec.turnaroundSeconds * 1e6, true});
    }
    res.operations = jobs.size();
    res.lost = jobs.size() - report.completed;
    res.set("time_to_solution_s", res.metrics.at("setup_s").value + wall, "s");
    res.set("mflups", updates / wall / 1e6, "MFLUP/s");
    setLatency(res, serviceMs);
    res.set("peak_rss_mb", peakRssMb(), "MB");

    // ---- correctness and per-step layers: seed-chosen jobs -----------------
    Random rng(opt.seed ^ 0xa1011eull);
    std::vector<std::size_t> chosen;
    while (chosen.size() < std::min<std::size_t>(8, jobs.size())) {
        const auto j = std::size_t(rng.uniformInt(jobs.size()));
        if (std::find(chosen.begin(), chosen.end(), j) == chosen.end()) chosen.push_back(j);
    }
    double digestSec = 0, saveSec = 0, loadSec = 0, ckptBytes = 0, replayFluid = 0;
    double replayUpdates = 0, replaySteps = 0;
    for (const std::size_t j : chosen) replaySteps += double(jobs[j].steps);
    StepLayers sum;
    std::size_t aloneMatches = 0, replayMatches = 0, roundTrips = 0;
    for (const std::size_t j : chosen) {
        const serve::JobSpec& spec = jobs[j];
        const serve::JobRecord& rec = report.jobs.at(j);
        const std::uint64_t alone = serve::ServeDriver::runAlone(spec, opt.scratch);
        if (rec.state == serve::JobState::Completed && rec.digest == alone) ++aloneMatches;
        const Replay r = replayOnGang(spec, opt.scratch, log, workload.id());
        if (r.digest == alone) ++replayMatches;
        if (r.digestAfterLoad == r.digest && r.ckptBytes > 0) ++roundTrips;
        digestSec += r.digestSeconds;
        saveSec += r.saveSeconds;
        loadSec += r.loadSeconds;
        ckptBytes += double(r.ckptBytes);
        replayFluid += r.fluid;
        replayUpdates += r.fluid * double(spec.steps);
        sum.add(r.layers, double(spec.steps) / replaySteps);
    }
    res.check("no job lost", res.lost == 0);
    res.check("seed-chosen fleet digests equal their runAlone digests",
              aloneMatches == chosen.size());
    res.check("2-rank gang replays equal runAlone", replayMatches == chosen.size());
    res.check("replay digests survive ckpt save/load", roundTrips == chosen.size());

    // ---- per layer ---------------------------------------------------------
    double fluidSum = 0;
    for (double f : fluid) fluidSum += f;
    const double n = double(chosen.size());
    const double avgBusy = busy / double(gangBusy.size());
    res.set("geometry.evals_per_fluid_cell", 0, "1"); // scenario flags use no SDF
    res.set("blockforest.blocks", double(blocks), "count");
    res.set("blockforest.fluid_fraction", cells > 0 ? fluidSum / cells : 0.0, "1");
    res.set("partition.imbalance",
            avgBusy > 0 ? *std::max_element(gangBusy.begin(), gangBusy.end()) / avgBusy : 1.0,
            "1");
    res.set("sim.digest_s", digestSec / n, "s");
    res.set("sim.ckpt_bytes", ckptBytes / n, "bytes");
    res.set("sim.ckpt_save_gbps", ckptBytes / saveSec / 1e9, "GB/s");
    res.set("sim.ckpt_load_gbps", ckptBytes / loadSec / 1e9, "GB/s");
    res.set("sim.ckpt_useful_frac", replayFluid * 19.0 * sizeof(real_t) / ckptBytes, "1");
    setStepLayers(res, sum, replayUpdates, perf::kBytesPerLUP);
    res.set("vmpi.bytes_per_fluid_update", sum.bytesPerStep / (replayFluid / n), "bytes");
    res.set("serve.jobs_per_s", double(report.completed) / wall, "1/s");
    res.set("serve.gang_busy_frac", busy / (double(gangBusy.size()) * wall), "1");
    res.set("serve.preemptions", double(report.preemptions), "count");
    res.set("serve.requeues", double(report.requeues), "count");
    res.set("serve.ckpt_files_bytes", double(ckptFiles), "bytes");

    const double workloadSeconds = workload.stop();
    if (opt.trace)
        finishTrace(opt, res, log, trialSpanIds[medianTrial(trials)], workload.id(),
                    workloadSeconds);
    return res;
}

// ---- host calibration -------------------------------------------------------

/// 4-thread STREAM copy and triad. Each thread first-touches and streams
/// its own slice; a repetition's rate is the bytes of all threads over the
/// span from the first thread's start to the last thread's end. Traffic
/// includes write-allocate (copy 3 x 8 B, triad 4 x 8 B per element), as
/// perf/Stream.cpp and the 456 B/LUP kernel figure count it.
Result runHost(const Options& opt) {
    Result res;
    constexpr int kThreads = 4, kReps = 6;
    res.budget = {1, kThreads};
    const std::uint64_t llc = lastLevelCacheBytes();
    // Each logical array (all threads' slices) spans at least 4x the LLC;
    // slices are rounded up to 64 MiB.
    const std::size_t sliceBytes =
        opt.smoke ? (std::size_t(16) << 20)
                  : std::max<std::size_t>(std::size_t(64) << 20,
                                          ((4 * llc / kThreads + (64u << 20) - 1) >> 26) << 26);
    const std::size_t n = sliceBytes / sizeof(double);
    // [thread][rep][kernel] = {begin, end} in seconds.
    std::vector<std::array<std::array<std::pair<double, double>, 2>, kReps>> spans(kThreads);
    std::barrier sync(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            auto a = allocateAligned<double>(n);
            auto b = allocateAligned<double>(n);
            auto c = allocateAligned<double>(n);
            for (std::size_t i = 0; i < n; ++i) {
                a[i] = 1.0;
                b[i] = double(i);
                c[i] = double(n - i);
            }
            auto& mine = spans[std::size_t(t)];
            for (int rep = 0; rep < kReps; ++rep) {
                sync.arrive_and_wait();
                mine[std::size_t(rep)][0].first = nowSeconds();
                // "+ 0.0" keeps a plain load/store loop: a literal copy is
                // turned into memcpy, whose non-temporal stores skip the
                // write-allocate counted here.
                for (std::size_t i = 0; i < n; ++i) c[i] = a[i] + 0.0;
                asm volatile("" : : "g"(c.get()) : "memory");
                mine[std::size_t(rep)][0].second = nowSeconds();
                sync.arrive_and_wait();
                mine[std::size_t(rep)][1].first = nowSeconds();
                for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 1.5 * c[i];
                asm volatile("" : : "g"(a.get()) : "memory");
                mine[std::size_t(rep)][1].second = nowSeconds();
            }
        });
    }
    for (auto& t : threads) t.join();
    double best[2] = {0, 0};
    const double bytesPerElement[2] = {3.0 * sizeof(double), 4.0 * sizeof(double)};
    for (std::size_t rep = 0; rep < kReps; ++rep)
        for (std::size_t k = 0; k < 2; ++k) {
            double b0 = 1e300, e1 = 0;
            for (const auto& th : spans) {
                b0 = std::min(b0, th[rep][k].first);
                e1 = std::max(e1, th[rep][k].second);
            }
            const double bytes = bytesPerElement[k] * double(n) * kThreads;
            best[k] = std::max(best[k], bytes / (e1 - b0) / 1e9);
        }
    res.set("perf.stream_copy_gbps", best[0], "GB/s");
    res.set("perf.stream_triad_gbps", best[1], "GB/s");
    res.set("perf.stream_array_bytes", double(sliceBytes) * kThreads, "bytes");
    res.check("STREAM arrays >= 4x LLC",
              opt.smoke || double(sliceBytes) * kThreads >= 4.0 * double(llc));
    res.operations = 2 * kReps;
    std::fprintf(stderr, "walb_bench: host: STREAM %d threads x %zu MiB per array slice, "
                         "copy %.1f GB/s, triad %.1f GB/s\n",
                 kThreads, sliceBytes >> 20, best[0], best[1]);
    return res;
}

// ---- output -----------------------------------------------------------------

void writeResult(const Options& opt, const Result& res) {
    std::ostringstream os;
    obs::json::Writer w(os, false);
    w.beginObject();
    w.kv("workload", opt.workload).kv("seed", opt.seed).kv("seconds", opt.seconds);
    w.kv("trace", opt.trace).kv("smoke", opt.smoke);
    writeProfile(w);
    w.key("budget").beginObject();
    w.kv("ranks", std::int64_t(res.budget.ranks));
    w.kv("threads_per_rank", std::int64_t(res.budget.threadsPerRank));
    w.kv("nproc", std::int64_t(hostProcessors()));
    w.endObject();
    w.key("metrics").beginObject();
    for (const auto& [name, m] : res.metrics)
        w.key(name).beginObject().kv("value", m.value).kv("unit", m.unit).endObject();
    w.endObject();
    w.key("checks").beginArray();
    for (const auto& [name, ok] : res.checks)
        w.beginObject().kv("name", name).kv("ok", ok).endObject();
    w.endArray();
    w.kv("attempted", res.operations + res.checks.size());
    w.kv("failed", res.failedChecks() + res.lost);
    w.kv("digest", res.digest);
    if (opt.trace) {
        w.key("self_time").beginObject();
        w.key("setup_median_trial").beginObject();
        for (const auto& [layer, s] : res.setupSelf) w.kv(layer, s);
        w.endObject();
        w.key("workload").beginObject();
        for (const auto& [layer, s] : res.runSelf) w.kv(layer, s);
        w.endObject();
        w.kv("step_mean_ms", res.stepMeanMs);
        w.kv("step_phase_sum_ms", res.stepPhaseSumMs);
        w.endObject();
    }
    w.endObject();
    std::cout << os.str() << std::endl;
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    try {
        opt = parseOptions(argc, argv);
    } catch (const UsageError& e) {
        std::fprintf(stderr,
                     "walb_bench: %s\nusage: walb_bench --workload "
                     "host|dense_cavity|dense_hybrid|vascular_tree|serve_sweep [--seed N] "
                     "[--seconds S] [--trace] [--smoke] [--scratch DIR] [--trace-dir DIR]\n",
                     e.message.c_str());
        return 2;
    }
    // Library log lines go to stderr: stdout carries only the result.
    Logger::instance().setStream(&std::cerr);
    Logger::instance().setLevel(LogLevel::Warning);

    Budget need;
    if (opt.workload == "dense_hybrid") need = {1, 4};
    else if (opt.workload == "host") need = {1, 4};
    else need = {4, 1};
    const int nproc = hostProcessors();
    if (need.ranks * need.threadsPerRank > nproc) {
        std::fprintf(stderr,
                     "walb_bench: thread budget %d ranks x %d threads exceeds nproc = %d\n",
                     need.ranks, need.threadsPerRank, nproc);
        return 3;
    }
    if (!releaseBuild())
        std::fprintf(stderr, "walb_bench: WARNING: not a Release build (%s); timings are not "
                             "comparable\n",
                     WALB_BENCH_BUILD_TYPE);

    // The main thread itself runs 1-rank worlds (serve's scenario set-up
    // and runAlone baselines): one OpenMP thread, like any other rank.
    useOmpThreads(1);
    if (!opt.smoke) spinUp(need.ranks * need.threadsPerRank, 1.0);
    Result res;
    try {
        if (opt.workload == "host") res = runHost(opt);
        else if (opt.workload == "dense_cavity") res = runDense(opt, false);
        else if (opt.workload == "dense_hybrid") res = runDense(opt, true);
        else if (opt.workload == "vascular_tree") res = runVascular(opt);
        else if (opt.workload == "serve_sweep") res = runServe(opt);
        else {
            std::fprintf(stderr, "walb_bench: unknown workload '%s'\n", opt.workload.c_str());
            return 2;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "walb_bench: %s failed: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }
    writeResult(opt, res);
    return res.failedChecks() + res.lost == 0 ? 0 : 1;
}
