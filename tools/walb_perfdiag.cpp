/// walb_perfdiag — reads flight-recorder `.wfr` dumps and `--metrics-json`
/// artifacts and turns them into per-phase breakdowns, cross-rank straggler
/// timelines and pass/fail gates:
///
///   walb_perfdiag report <a.wfr> [b.wfr ...]
///       per-rank phase breakdown (collide/pack/exchange/boundary/shell),
///       step-time percentiles, and — given several ranks — the
///       reconstructed straggler timeline (EWMA + median/MAD verdicts,
///       printed whenever the flagged set changes).
///
///   walb_perfdiag json <a.wfr> [b.wfr ...]
///       the same summary as one JSON document on stdout.
///
///   walb_perfdiag check <artifact.json> [--require PATH]...
///                       [--min PATH=V]... [--max PATH=V]...
///       gates a metrics/bench JSON artifact: every --require path must
///       exist, every --min/--max bound must hold. Nonzero exit on the
///       first violation — the engine behind bench/perf_gate.sh.
///
///   walb_perfdiag compare <baseline.json> <candidate.json>
///                         [--tol-rel R] [--key PATH[:R]]... [--key-min PATH[:R]]...
///       compares numeric values at the given JSON paths (dotted, e.g.
///       gauges.sim.mlups — longest-key match handles dots inside metric
///       names); a --key fails when |candidate - baseline| exceeds the
///       relative tolerance (default --tol-rel, per-key override via
///       PATH:R). A --key-min is one-sided: it fails only when the
///       candidate lies more than R below the baseline, so a rate that
///       got faster never fails it.
///
///   walb_perfdiag --selftest
///       synthesizes a two-rank run with a 2x straggler, round-trips it
///       through dump/read, and exercises report/check/compare (CI smoke).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/KernelTier.h"
#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "obs/PerfDiag.h"
#include "obs/Report.h"
#include "sim/Checkpoint.h"

using namespace walb;

namespace {

// ---- .wfr loading ----------------------------------------------------------

struct LoadedDump {
    std::string path;
    obs::FlightRecorder::Dump dump;
};

/// Post-shrink tolerance: a self-healing run dumps one `.wfr` per rank *per
/// epoch* (names carry the step), so a kill-and-heal history hands us several
/// files for the same rank, and files whose recorded world size disagrees.
/// Merge everything a rank left behind into one sample stream, sorted by
/// step; on a duplicate step (pre-failure dump overlapping the rewound
/// replay) the later record wins — it is the one the run actually kept.
void mergeByRank(std::vector<LoadedDump>& dumps) {
    std::vector<LoadedDump> merged;
    for (LoadedDump& d : dumps) {
        auto it = std::find_if(merged.begin(), merged.end(), [&](const LoadedDump& m) {
            return m.dump.rank == d.dump.rank;
        });
        if (it == merged.end()) {
            merged.push_back(std::move(d));
            continue;
        }
        it->path += " " + d.path;
        it->dump.worldSize = std::min(it->dump.worldSize, d.dump.worldSize);
        for (const obs::StepSample& s : d.dump.samples) it->dump.samples.push_back(s);
    }
    for (LoadedDump& m : merged) {
        std::stable_sort(m.dump.samples.begin(), m.dump.samples.end(),
                         [](const obs::StepSample& a, const obs::StepSample& b) {
                             return a.step < b.step;
                         });
        std::vector<obs::StepSample> unique;
        unique.reserve(m.dump.samples.size());
        for (const obs::StepSample& s : m.dump.samples) {
            if (!unique.empty() && unique.back().step == s.step) unique.back() = s;
            else unique.push_back(s);
        }
        m.dump.samples = std::move(unique);
    }
    dumps = std::move(merged);
}

bool loadDumps(const std::vector<std::string>& paths, std::vector<LoadedDump>& out) {
    for (const auto& path : paths) {
        LoadedDump d;
        d.path = path;
        std::string err;
        if (!obs::FlightRecorder::read(path, d.dump, &err)) {
            std::fprintf(stderr, "walb_perfdiag: %s\n", err.c_str());
            return false;
        }
        out.push_back(std::move(d));
    }
    std::sort(out.begin(), out.end(), [](const LoadedDump& a, const LoadedDump& b) {
        return a.dump.rank < b.dump.rank;
    });
    mergeByRank(out);
    return true;
}

struct RankSummary {
    std::uint32_t rank = 0;
    std::size_t steps = 0;
    double collide = 0, shell = 0, boundary = 0, pack = 0, exchange = 0, total = 0;
    double meanMlups = 0, maxImbalance = 0;
    double p50 = 0, p95 = 0, p99 = 0;
    std::uint64_t bytes = 0, messages = 0;
    std::uint8_t kernelTier = 0;  ///< from the most recent sample
    std::uint8_t lastAaParity = 0;
};

RankSummary summarizeRank(const LoadedDump& d) {
    RankSummary s;
    s.rank = d.dump.rank;
    s.steps = d.dump.samples.size();
    std::vector<double> stepSeconds;
    stepSeconds.reserve(s.steps);
    double mlupsSum = 0;
    for (const obs::StepSample& x : d.dump.samples) {
        s.collide += x.collideSeconds;
        s.shell += x.shellSeconds;
        s.boundary += x.boundarySeconds;
        s.pack += x.packSeconds;
        s.exchange += x.exchangeSeconds;
        s.total += x.totalSeconds;
        s.bytes += x.bytesMoved;
        s.messages += x.messages;
        mlupsSum += x.mlups;
        s.maxImbalance = std::max(s.maxImbalance, x.imbalance);
        stepSeconds.push_back(x.totalSeconds);
    }
    if (s.steps) {
        s.meanMlups = mlupsSum / double(s.steps);
        std::sort(stepSeconds.begin(), stepSeconds.end());
        s.p50 = obs::sortedQuantile(stepSeconds, 0.50);
        s.p95 = obs::sortedQuantile(stepSeconds, 0.95);
        s.p99 = obs::sortedQuantile(stepSeconds, 0.99);
        s.kernelTier = d.dump.samples.back().kernelTier;
        s.lastAaParity = d.dump.samples.back().aaParity;
    }
    return s;
}

/// One reconstructed detection epoch of the offline straggler timeline.
struct TimelinePoint {
    std::uint64_t step = 0;
    std::size_t participants = 0; ///< ranks that recorded this step
    obs::StragglerVerdict verdict;
};

/// Re-runs the live detector's EWMA + median/MAD judgment over the recorded
/// per-step times of all ranks: the post-mortem equivalent of what
/// enableStragglerDetection computes in-flight. Like the live detector it
/// smooths each rank's *work* share (step minus exchange wait) — bulk
/// synchronization equalizes total step times across ranks, a straggler is
/// only visible in the non-wait share.
std::vector<TimelinePoint> stragglerTimeline(const std::vector<LoadedDump>& dumps) {
    std::vector<TimelinePoint> timeline;
    if (dumps.size() < 2) return timeline;
    // step -> per-dump seconds. A post-shrink history legitimately loses
    // ranks mid-stream, so any step with at least two participants is
    // judged — over exactly the ranks that recorded it.
    std::map<std::uint64_t, std::map<std::size_t, double>> byStep;
    for (std::size_t i = 0; i < dumps.size(); ++i)
        for (const obs::StepSample& s : dumps[i].dump.samples)
            byStep[s.step][i] = std::max(s.totalSeconds - s.exchangeSeconds, 0.0);

    const obs::StragglerDetector judge;
    std::vector<double> ewma(dumps.size(), 0.0);
    std::vector<bool> seeded(dumps.size(), false);
    for (const auto& [step, perRank] : byStep) {
        for (const auto& [i, seconds] : perRank) {
            ewma[i] = seeded[i] ? judge.alpha() * seconds + (1.0 - judge.alpha()) * ewma[i]
                                : seconds;
            seeded[i] = true;
        }
        if (perRank.size() < 2) continue;
        std::vector<double> live;
        std::vector<std::size_t> who;
        live.reserve(perRank.size());
        who.reserve(perRank.size());
        for (const auto& [i, seconds] : perRank) {
            (void)seconds;
            live.push_back(ewma[i]);
            who.push_back(i);
        }
        TimelinePoint p;
        p.step = step;
        p.participants = perRank.size();
        p.verdict = judge.judge(live, step);
        for (int& i : p.verdict.stragglers) i = int(who[std::size_t(i)]);
        timeline.push_back(std::move(p));
    }
    return timeline;
}

std::string rankList(const std::vector<LoadedDump>& dumps, const std::vector<int>& idx) {
    std::string s;
    for (int i : idx)
        s += (s.empty() ? "" : ",") + std::to_string(dumps[std::size_t(i)].dump.rank);
    return s.empty() ? "-" : s;
}

int reportDumps(const std::vector<std::string>& paths) {
    std::vector<LoadedDump> dumps;
    if (!loadDumps(paths, dumps)) return 1;
    std::printf("%-6s %8s %12s %12s %12s %12s %12s %10s %12s %8s %6s\n", "rank",
                "steps", "collide[s]", "pack[s]", "exchange[s]", "boundary[s]",
                "shell[s]", "MLUP/s", "p95step[s]", "tier", "parity");
    for (const LoadedDump& d : dumps) {
        const RankSummary s = summarizeRank(d);
        std::printf("%-6u %8zu %12.4f %12.4f %12.4f %12.4f %12.4f %10.2f %12.3e %8s %6s\n",
                    s.rank, s.steps, s.collide, s.pack, s.exchange, s.boundary, s.shell,
                    s.meanMlups, s.p95, kernelTierName(KernelTier(s.kernelTier)),
                    isAaTier(KernelTier(s.kernelTier)) ? (s.lastAaParity ? "odd" : "even")
                                                      : "-");
    }
    const auto timeline = stragglerTimeline(dumps);
    if (!timeline.empty()) {
        std::printf("straggler timeline (EWMA + median/MAD, %zu ranks):\n", dumps.size());
        std::vector<int> lastFlagged{-1}; // sentinel: force the first line
        std::size_t lastParticipants = timeline.front().participants;
        std::size_t flaggedEpochs = 0;
        for (const TimelinePoint& p : timeline) {
            if (p.participants != lastParticipants) {
                std::printf("  step %8llu: rank count changed %zu -> %zu "
                            "(post-shrink history)\n",
                            (unsigned long long)p.step, lastParticipants,
                            p.participants);
                lastParticipants = p.participants;
            }
            if (!p.verdict.stragglers.empty()) ++flaggedEpochs;
            if (p.verdict.stragglers == lastFlagged) continue;
            lastFlagged = p.verdict.stragglers;
            std::printf("  step %8llu: stragglers {%s}  median %.3e s  mad %.3e s\n",
                        (unsigned long long)p.step,
                        rankList(dumps, p.verdict.stragglers).c_str(), p.verdict.median,
                        p.verdict.mad);
        }
        std::printf("  %zu of %zu judged steps had a flagged rank\n", flaggedEpochs,
                    timeline.size());
    }
    return 0;
}

int jsonDumps(const std::vector<std::string>& paths) {
    std::vector<LoadedDump> dumps;
    if (!loadDumps(paths, dumps)) return 1;
    const auto timeline = stragglerTimeline(dumps);
    std::size_t flaggedEpochs = 0;
    std::set<std::uint32_t> flaggedRanks;
    for (const TimelinePoint& p : timeline) {
        if (p.verdict.stragglers.empty()) continue;
        ++flaggedEpochs;
        for (int i : p.verdict.stragglers)
            flaggedRanks.insert(dumps[std::size_t(i)].dump.rank);
    }
    obs::json::Writer w(std::cout);
    w.beginObject();
    w.key("ranks").beginArray();
    for (const LoadedDump& d : dumps) {
        const RankSummary s = summarizeRank(d);
        w.beginObject();
        w.kv("rank", std::uint64_t(s.rank)).kv("steps", std::uint64_t(s.steps));
        w.kv("collide_seconds", s.collide).kv("pack_seconds", s.pack);
        w.kv("exchange_seconds", s.exchange).kv("boundary_seconds", s.boundary);
        w.kv("shell_seconds", s.shell).kv("total_seconds", s.total);
        w.kv("mean_mlups", s.meanMlups).kv("max_imbalance", s.maxImbalance);
        w.kv("p50_step_seconds", s.p50).kv("p95_step_seconds", s.p95);
        w.kv("p99_step_seconds", s.p99);
        w.kv("bytes_moved", s.bytes).kv("messages", s.messages);
        w.kv("kernel_tier", kernelTierName(KernelTier(s.kernelTier)));
        w.kv("aa_parity", std::uint64_t(s.lastAaParity));
        w.endObject();
    }
    w.endArray();
    std::size_t minJudged = 0, maxJudged = 0;
    for (const TimelinePoint& p : timeline) {
        minJudged = minJudged ? std::min(minJudged, p.participants) : p.participants;
        maxJudged = std::max(maxJudged, p.participants);
    }
    w.kv("judged_steps", std::uint64_t(timeline.size()));
    w.kv("min_judged_ranks", std::uint64_t(minJudged));
    w.kv("max_judged_ranks", std::uint64_t(maxJudged));
    w.kv("flagged_steps", std::uint64_t(flaggedEpochs));
    w.key("flagged_ranks").beginArray();
    for (std::uint32_t r : flaggedRanks) w.value(std::uint64_t(r));
    w.endArray();
    w.endObject();
    std::printf("\n");
    return 0;
}

// ---- artifact gating -------------------------------------------------------

/// Dotted-path lookup tolerant of dots *inside* keys (metric names like
/// "sim.mlups"): at each object, the longest prefix of the remaining path
/// that names an existing member wins.
const obs::json::Value* lookupPath(const obs::json::Value& root, const std::string& path) {
    const obs::json::Value* v = &root;
    std::string rest = path;
    while (!rest.empty()) {
        if (!v->isObject()) return nullptr;
        const obs::json::Value* next = v->find(rest);
        if (next) return next;
        std::size_t dot = rest.rfind('.');
        while (dot != std::string::npos) {
            next = v->find(rest.substr(0, dot));
            if (next) break;
            dot = rest.rfind('.', dot == 0 ? std::string::npos : dot - 1);
        }
        if (!next || dot == std::string::npos) return nullptr;
        v = next;
        rest = rest.substr(dot + 1);
    }
    return v;
}

bool parseArtifact(const std::string& path, obs::json::Value& out) {
    std::string text;
    if (!obs::readFileToString(path, text)) {
        std::fprintf(stderr, "walb_perfdiag: cannot read '%s'\n", path.c_str());
        return false;
    }
    bool ok = false;
    std::string error;
    out = obs::json::parse(text, ok, error);
    if (!ok) {
        std::fprintf(stderr, "walb_perfdiag: '%s': JSON parse error: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

int checkArtifact(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: walb_perfdiag check <artifact.json> [--require P] "
                             "[--min P=V] [--max P=V]...\n");
        return 2;
    }
    obs::json::Value root;
    if (!parseArtifact(argv[2], root)) return 1;

    int failures = 0;
    auto number = [&](const std::string& path, double& out) {
        const obs::json::Value* v = lookupPath(root, path);
        if (!v || !v->isNumber()) return false;
        out = v->number();
        return true;
    };
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if ((arg == "--require" || arg == "--min" || arg == "--max") && i + 1 < argc) {
            const std::string spec = argv[++i];
            if (arg == "--require") {
                if (lookupPath(root, spec)) {
                    std::printf("PASS require %s\n", spec.c_str());
                } else {
                    std::printf("FAIL require %s (missing)\n", spec.c_str());
                    ++failures;
                }
                continue;
            }
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos) {
                std::fprintf(stderr, "walb_perfdiag: %s expects PATH=VALUE, got '%s'\n",
                             arg.c_str(), spec.c_str());
                return 2;
            }
            const std::string path = spec.substr(0, eq);
            const double bound = sim::parseFlagValue<double>(arg, spec.substr(eq + 1));
            double v = 0;
            if (!number(path, v)) {
                std::printf("FAIL %s %s (missing or non-numeric)\n", arg.c_str() + 2,
                            path.c_str());
                ++failures;
                continue;
            }
            const bool ok = arg == "--min" ? v >= bound : v <= bound;
            std::printf("%s %s %s = %g (bound %g)\n", ok ? "PASS" : "FAIL",
                        arg.c_str() + 2, path.c_str(), v, bound);
            if (!ok) ++failures;
        } else {
            std::fprintf(stderr, "walb_perfdiag: unknown check option '%s'\n", arg.c_str());
            return 2;
        }
    }
    if (failures) std::printf("%d constraint(s) failed\n", failures);
    return failures ? 1 : 0;
}

int compareArtifacts(int argc, char** argv) {
    if (argc < 4) {
        std::fprintf(stderr, "usage: walb_perfdiag compare <baseline.json> "
                             "<candidate.json> [--tol-rel R] [--key PATH[:R]]... "
                             "[--key-min PATH[:R]]...\n");
        return 2;
    }
    obs::json::Value base, cand;
    if (!parseArtifact(argv[2], base) || !parseArtifact(argv[3], cand)) return 1;

    double defaultTol = 0.5;
    struct Key {
        std::string path;
        double tol;     ///< < 0: --tol-rel
        bool floorOnly; ///< --key-min: only a drop below the baseline fails
    };
    std::vector<Key> keys;
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tol-rel" && i + 1 < argc) {
            defaultTol = sim::parseFlagValue<double>("--tol-rel", argv[++i]);
        } else if ((arg == "--key" || arg == "--key-min") && i + 1 < argc) {
            std::string spec = argv[++i];
            double tol = -1;
            const std::size_t colon = spec.rfind(':');
            // Metric names never contain ':', so a suffix is a tolerance.
            if (colon != std::string::npos) {
                tol = sim::parseFlagValue<double>(arg, spec.substr(colon + 1));
                spec = spec.substr(0, colon);
            }
            keys.push_back({spec, tol, arg == "--key-min"});
        } else {
            std::fprintf(stderr, "walb_perfdiag: unknown compare option '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    int failures = 0;
    for (const auto& [path, tolOverride, floorOnly] : keys) {
        const double tol = tolOverride >= 0 ? tolOverride : defaultTol;
        const obs::json::Value* b = lookupPath(base, path);
        const obs::json::Value* c = lookupPath(cand, path);
        if (!b || !b->isNumber() || !c || !c->isNumber()) {
            std::printf("FAIL %s (missing or non-numeric in %s)\n", path.c_str(),
                        !b || !b->isNumber() ? "baseline" : "candidate");
            ++failures;
            continue;
        }
        const double bv = b->number(), cv = c->number();
        const double denom = std::max(std::abs(bv), 1e-300);
        const double rel = (floorOnly ? bv - cv : std::abs(cv - bv)) / denom;
        const bool ok = rel <= tol;
        std::printf("%s %s: baseline %g, candidate %g (rel %s %.3f, tol %.3f)\n",
                    ok ? "PASS" : "FAIL", path.c_str(), bv, cv, floorOnly ? "drop" : "dev",
                    rel, tol);
        if (!ok) ++failures;
    }
    if (failures) std::printf("%d key(s) outside tolerance\n", failures);
    return failures ? 1 : 0;
}

// ---- selftest --------------------------------------------------------------

int selftest() {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path();

    // Synthesize a four-rank run: rank 3 turns into a 2x straggler at
    // step 30. (Four ranks, not two — with two the straggler drags the
    // fleet median up with it and no median-relative detector can fire.)
    constexpr int kRanks = 4, kSlowRank = 3;
    std::vector<std::string> wfrPaths;
    for (int rank = 0; rank < kRanks; ++rank) {
        obs::FlightRecorder fr(128);
        for (std::uint64_t step = 0; step < 60; ++step) {
            obs::StepSample s;
            s.step = step;
            s.totalSeconds = (rank == kSlowRank && step >= 30) ? 2e-3 : 1e-3;
            s.collideSeconds = 0.8 * s.totalSeconds;
            s.packSeconds = 0.1 * s.totalSeconds;
            s.exchangeSeconds = 0.1 * s.totalSeconds;
            s.mlups = 1.0 / s.totalSeconds / 1e6;
            s.bytesMoved = 1024;
            s.messages = 2;
            fr.record(s);
        }
        const std::string path =
            (dir / ("walb_perfdiag_selftest.rank" + std::to_string(rank) + ".wfr"))
                .string();
        std::string err;
        if (!fr.dump(path, rank, kRanks, &err)) {
            std::fprintf(stderr, "walb_perfdiag: selftest dump failed: %s\n", err.c_str());
            return 1;
        }
        wfrPaths.push_back(path);
    }

    // Round trip + timeline: the slow rank must be flagged after its
    // slowdown, and nobody else ever.
    std::vector<LoadedDump> dumps;
    if (!loadDumps(wfrPaths, dumps)) return 1;
    if (dumps[0].dump.worldSize != kRanks ||
        dumps[kSlowRank].dump.samples.size() != 60 ||
        dumps[kSlowRank].dump.samples[59].totalSeconds != 2e-3) {
        std::fprintf(stderr, "walb_perfdiag: selftest roundtrip mismatch\n");
        return 1;
    }
    const auto timeline = stragglerTimeline(dumps);
    std::int64_t firstFlag = -1;
    for (const TimelinePoint& p : timeline)
        if (!p.verdict.stragglers.empty()) {
            if (firstFlag < 0) firstFlag = std::int64_t(p.step);
            if (p.verdict.stragglers != std::vector<int>{kSlowRank}) {
                std::fprintf(stderr, "walb_perfdiag: selftest flagged the wrong rank\n");
                return 1;
            }
        }
    if (firstFlag < 30 || firstFlag > 50) {
        std::fprintf(stderr, "walb_perfdiag: selftest straggler onset at %lld, not in "
                             "[30, 50]\n",
                     (long long)firstFlag);
        return 1;
    }
    if (reportDumps(wfrPaths) != 0) return 1;

    // Post-shrink tolerance: after a self-healing recovery the survivors
    // (ranks 0..2, world size 3) dump a *second* file each covering the
    // continued steps. The merged history must still be judged across the
    // rank-count change instead of silently stopping at the failure step.
    {
        std::vector<std::string> allPaths = wfrPaths;
        std::vector<std::string> shrunkPaths;
        for (int rank = 0; rank < kRanks - 1; ++rank) {
            obs::FlightRecorder fr(128);
            for (std::uint64_t step = 60; step < 80; ++step) {
                obs::StepSample s;
                s.step = step;
                s.totalSeconds = 1e-3;
                s.collideSeconds = 0.8 * s.totalSeconds;
                s.packSeconds = 0.1 * s.totalSeconds;
                s.exchangeSeconds = 0.1 * s.totalSeconds;
                s.mlups = 1.0 / s.totalSeconds / 1e6;
                fr.record(s);
            }
            const std::string path =
                (dir /
                 ("walb_perfdiag_selftest_shrunk.rank" + std::to_string(rank) + ".wfr"))
                    .string();
            std::string err2;
            if (!fr.dump(path, rank, kRanks - 1, &err2)) {
                std::fprintf(stderr, "walb_perfdiag: selftest shrink dump failed: %s\n",
                             err2.c_str());
                return 1;
            }
            shrunkPaths.push_back(path);
            allPaths.push_back(path);
        }
        std::vector<LoadedDump> mergedDumps;
        if (!loadDumps(allPaths, mergedDumps)) return 1;
        if (mergedDumps.size() != std::size_t(kRanks)) {
            std::fprintf(stderr,
                         "walb_perfdiag: selftest merge produced %zu rank streams, "
                         "expected %d\n",
                         mergedDumps.size(), kRanks);
            return 1;
        }
        const auto shrunkTimeline = stragglerTimeline(mergedDumps);
        bool judgedPostShrink = false;
        for (const TimelinePoint& p : shrunkTimeline)
            if (p.step >= 60 && p.participants == std::size_t(kRanks - 1))
                judgedPostShrink = true;
        if (!judgedPostShrink) {
            std::fprintf(stderr, "walb_perfdiag: selftest did not judge post-shrink "
                                 "steps with a reduced rank count\n");
            return 1;
        }
        for (const auto& p : shrunkPaths) std::remove(p.c_str());
    }

    // A corrupted dump must be rejected by the CRC, not parsed into garbage.
    {
        std::fstream f(wfrPaths[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(20);
        f.put(char(0x5a));
    }
    obs::FlightRecorder::Dump corrupt;
    std::string err;
    if (obs::FlightRecorder::read(wfrPaths[0], corrupt, &err)) {
        std::fprintf(stderr, "walb_perfdiag: selftest accepted a corrupted .wfr\n");
        return 1;
    }

    // Gate engine: compare must pass on close values and fail on a 2x drop.
    const std::string basePath = (dir / "walb_perfdiag_base.json").string();
    const std::string goodPath = (dir / "walb_perfdiag_good.json").string();
    const std::string badPath = (dir / "walb_perfdiag_bad.json").string();
    auto writeArtifact = [](const std::string& path, double mlups, double stragglers) {
        std::ofstream os(path, std::ios::binary);
        os << "{\"gauges\": {\"sim.mlups\": " << mlups
           << ", \"perf.straggler_ranks\": " << stragglers << "}}\n";
    };
    writeArtifact(basePath, 100.0, 1.0);
    writeArtifact(goodPath, 95.0, 1.0);
    writeArtifact(badPath, 40.0, 0.0);
    {
        char* argvGood[] = {(char*)"walb_perfdiag", (char*)"compare",
                            (char*)basePath.c_str(), (char*)goodPath.c_str(),
                            (char*)"--key", (char*)"gauges.sim.mlups:0.25"};
        if (compareArtifacts(6, argvGood) != 0) {
            std::fprintf(stderr, "walb_perfdiag: selftest compare rejected a good run\n");
            return 1;
        }
        char* argvBad[] = {(char*)"walb_perfdiag", (char*)"compare",
                           (char*)basePath.c_str(), (char*)badPath.c_str(),
                           (char*)"--key", (char*)"gauges.sim.mlups:0.25"};
        if (compareArtifacts(6, argvBad) == 0) {
            std::fprintf(stderr, "walb_perfdiag: selftest compare accepted a 2.5x "
                                 "regression\n");
            return 1;
        }
        // The one-sided form passes a 2.5x gain and still fails the drop.
        char* argvFaster[] = {(char*)"walb_perfdiag", (char*)"compare",
                              (char*)badPath.c_str(), (char*)basePath.c_str(),
                              (char*)"--key-min", (char*)"gauges.sim.mlups:0.25"};
        if (compareArtifacts(6, argvFaster) != 0) {
            std::fprintf(stderr, "walb_perfdiag: selftest --key-min rejected a 2.5x "
                                 "speedup\n");
            return 1;
        }
        argvBad[4] = (char*)"--key-min";
        if (compareArtifacts(6, argvBad) == 0) {
            std::fprintf(stderr, "walb_perfdiag: selftest --key-min accepted a 2.5x "
                                 "regression\n");
            return 1;
        }
        char* argvCheck[] = {(char*)"walb_perfdiag", (char*)"check",
                             (char*)basePath.c_str(), (char*)"--require",
                             (char*)"gauges.perf.straggler_ranks", (char*)"--min",
                             (char*)"gauges.sim.mlups=50"};
        if (checkArtifact(7, argvCheck) != 0) {
            std::fprintf(stderr, "walb_perfdiag: selftest check failed a good artifact\n");
            return 1;
        }
        char* argvCheckBad[] = {(char*)"walb_perfdiag", (char*)"check",
                                (char*)badPath.c_str(), (char*)"--min",
                                (char*)"gauges.sim.mlups=50"};
        if (checkArtifact(5, argvCheckBad) == 0) {
            std::fprintf(stderr, "walb_perfdiag: selftest check passed a bad artifact\n");
            return 1;
        }
    }

    for (const auto& p : wfrPaths) std::remove(p.c_str());
    std::remove(basePath.c_str());
    std::remove(goodPath.c_str());
    std::remove(badPath.c_str());
    std::printf("selftest OK\n");
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc >= 2) {
        const std::string mode = argv[1];
        if (mode == "--selftest") return selftest();
        try {
            if (mode == "check") return checkArtifact(argc, argv);
            if (mode == "compare") return compareArtifacts(argc, argv);
        } catch (const walb::sim::OptionError& e) {
            std::fprintf(stderr, "walb_perfdiag: %s\n", e.what());
            return 2;
        }
        if ((mode == "report" || mode == "json") && argc >= 3) {
            std::vector<std::string> paths(argv + 2, argv + argc);
            return mode == "report" ? reportDumps(paths) : jsonDumps(paths);
        }
    }
    std::fprintf(stderr,
                 "usage: walb_perfdiag report <a.wfr> [b.wfr ...]\n"
                 "       walb_perfdiag json <a.wfr> [b.wfr ...]\n"
                 "       walb_perfdiag check <artifact.json> [--require P] [--min P=V] "
                 "[--max P=V]...\n"
                 "       walb_perfdiag compare <baseline.json> <candidate.json> "
                 "[--tol-rel R] [--key PATH[:R]]... [--key-min PATH[:R]]...\n"
                 "       walb_perfdiag --selftest\n");
    return 2;
}
