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
///       exist, every --min/--max bound must hold. Nonzero exit when any
///       bound fails.
///
///   walb_perfdiag compare <baseline.json> <candidate.json>
///                         [--tol-rel R] [--key PATH[:R]]... [--key-min PATH[:R]]...
///       compares numeric values at the given JSON paths (dotted, e.g.
///       gauges.sim.mlups — longest-key match handles dots inside metric
///       names, a number indexes an array); a --key fails when
///       |candidate - baseline| exceeds the relative tolerance (default
///       --tol-rel, per-key override via PATH:R). A --key-min is one-sided:
///       it fails only when the candidate lies more than R below the
///       baseline, so a rate that got faster never fails it. Integral
///       values compare exactly, so 64-bit digests and bit patterns can be
///       gated with tolerance 0.
///
///   walb_perfdiag gate <gate.json> <source-dir> <build-dir> <scratch-dir>
///       runs one declarative gate (bench/gates/<ctest name>.json, one
///       ctest each): empties <scratch-dir> (only an empty one or one a
///       gate run made), runs the listed commands there, evaluates every
///       bound with the engine of check/compare, then proves each bound
///       can fail: it derives a copy of the artifact that violates just
///       that bound (a required key removed, a value moved past its bound
///       or tolerance, a key-relative operand moved past the value) and
///       requires the evaluation to reject it. Exit 0 when every run
///       succeeded, every bound held and every bound was caught; 1
///       otherwise; 2 on a malformed gate file. The format, and nothing
///       more:
///
///         { "run":     [ {"argv": ["{build}/bench/fig3_kernels", ...],
///                         "stdout": "file"} ],
///           "check":   [ {"artifact": "a.json", "require": ["PATH", ...],
///                         "min": {"PATH": BOUND}, "max": {"PATH": BOUND}} ],
///           "compare": [ {"baseline": "{source}/BENCH_x.json",
///                         "candidate": "a.json", "key": {"PATH": R},
///                         "key_min": {"PATH": R}} ] }
///
///       Each argv is exec'd directly (no shell) in <scratch-dir> and must
///       exit 0; "stdout" (optional) captures its output to a file there.
///       "{build}" and "{source}" expand to the directories given on the
///       command line; nothing else expands. Relative artifact paths name
///       files in <scratch-dir>. A BOUND is a number, or the PATH of
///       another key of the same artifact (min {"completed": "jobs"} reads
///       completed >= jobs). Every field but "argv", "artifact", "baseline"
///       and "candidate" is optional; any other field is an error.
///
///   walb_perfdiag --selftest
///       synthesizes a four-rank run with a 2x straggler, round-trips it
///       through dump/read, and exercises report/check/compare/gate.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
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

// ---- gate engine -----------------------------------------------------------
//
// One engine behind check, compare and gate: their argv parsers and the
// gate-file reader fill the same Bound lists, and holds() evaluates them.

using obs::json::Value;

/// An array element for a number key, else an object member; nullptr when
/// absent.
const Value* member(const Value& v, const std::string& key) {
    if (!v.isArray()) return v.find(key);
    std::size_t i = 0;
    const auto r = std::from_chars(key.data(), key.data() + key.size(), i);
    const bool index = !key.empty() && r.ec == std::errc() && r.ptr == key.data() + key.size();
    return index && i < v.array().size() ? &v.array()[i] : nullptr;
}

/// The member names a dotted path walks, tolerant of dots inside keys
/// (metric names like "sim.mlups"): at each level the longest prefix of the
/// remaining path that names a member wins. nullopt when nothing matches.
std::optional<std::vector<std::string>> resolvePath(const Value& root,
                                                    const std::string& path) {
    std::vector<std::string> keys;
    const Value* v = &root;
    for (std::string rest = path; !rest.empty();) {
        std::size_t end = rest.size();
        const Value* next = nullptr;
        while (!(next = member(*v, rest.substr(0, end)))) {
            end = end == 0 ? std::string::npos : rest.rfind('.', end - 1);
            if (end == std::string::npos) return std::nullopt;
        }
        keys.push_back(rest.substr(0, end));
        rest = end == rest.size() ? "" : rest.substr(end + 1);
        v = next;
    }
    return keys;
}

const Value* lookupPath(const Value& root, const std::string& path) {
    const auto keys = resolvePath(root, path);
    if (!keys) return nullptr;
    const Value* v = &root;
    for (const std::string& k : *keys) v = member(*v, k);
    return v;
}

/// `v` with the member at keys[depth..] set to `value`, or removed when
/// `value` is empty.
Value edited(const Value& v, const std::vector<std::string>& keys, std::size_t depth,
             const std::optional<Value>& value) {
    const bool last = depth + 1 == keys.size();
    if (v.isArray()) {
        std::vector<Value> items = v.array();
        const auto at = items.begin() + std::ptrdiff_t(std::stoul(keys[depth]));
        if (!last) *at = edited(*at, keys, depth + 1, value);
        else if (value) *at = *value;
        else items.erase(at);
        return Value::makeArray(std::move(items));
    }
    std::map<std::string, Value> members = v.object();
    Value& m = members[keys[depth]];
    if (!last) m = edited(m, keys, depth + 1, value);
    else if (value) m = *value;
    else members.erase(keys[depth]);
    return Value::makeObject(std::move(members));
}

/// One gated constraint on a JSON artifact.
struct Bound {
    enum Kind { Require, Min, Max, Key, KeyMin };
    Kind kind;
    std::string path;
    Value limit;    ///< Min/Max: a number, or a string naming a key of the artifact
    double tol = 0; ///< Key/KeyMin: relative tolerance against the baseline
};
constexpr const char* kKindNames[] = {"require", "min", "max", "key", "key_min"};

/// Bounds on one candidate artifact; a baseline only for Key/KeyMin bounds.
struct BoundSet {
    std::string candidate, baseline;
    std::vector<Bound> bounds;
};

/// -1, 0 or 1 as a <, ==, > b; exact when both are integers.
int order(const Value& a, const Value& b) {
    if (a.isInteger() && b.isInteger())
        return a.integer() < b.integer() ? -1 : int(b.integer() < a.integer());
    return a.number() < b.number() ? -1 : int(b.number() < a.number());
}

std::string show(const Value& v) {
    if (v.isInteger())
        return (v.integer().negative ? "-" : "") + std::to_string(v.integer().magnitude);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v.number());
    return buf;
}

/// Whether `b` holds on `cand` (and `base`, for Key/KeyMin); `verdict`
/// gets the one-line reason.
bool holds(const Bound& b, const Value& cand, const Value* base, std::string& verdict) {
    verdict = std::string(kKindNames[b.kind]) + " " + b.path;
    const Value* v = lookupPath(cand, b.path);
    if (b.kind == Bound::Require) {
        if (!v) verdict += " (missing)";
        return v;
    }
    const bool relative = b.limit.isString();
    const Value* ref = b.kind == Bound::Key || b.kind == Bound::KeyMin
                           ? lookupPath(*base, b.path)
                           : (relative ? lookupPath(cand, b.limit.str()) : &b.limit);
    if (!v || !v->isNumber() || !ref || !ref->isNumber()) {
        verdict += !v || !v->isNumber() ? " (missing or non-numeric)"
                   : relative          ? " (bound key " + b.limit.str() + " missing)"
                                       : " (missing or non-numeric in the baseline)";
        return false;
    }
    const int o = order(*v, *ref);
    if (b.kind == Bound::Min || b.kind == Bound::Max) {
        verdict += " = " + show(*v) + " (bound " + show(*ref) +
                   (relative ? " = " + b.limit.str() : "") + ")";
        return b.kind == Bound::Min ? o >= 0 : o <= 0;
    }
    const double bv = ref->number(), cv = v->number();
    const double rel = (b.kind == Bound::KeyMin ? bv - cv : std::abs(cv - bv)) /
                       std::max(std::abs(bv), 1e-300);
    char buf[96];
    std::snprintf(buf, sizeof(buf), " (rel %s %.3f, tol %.3f)",
                  b.kind == Bound::KeyMin ? "drop" : "dev", rel, b.tol);
    verdict += ": baseline " + show(*ref) + ", candidate " + show(*v) + buf;
    if (b.tol == 0) return b.kind == Bound::Key ? o == 0 : o >= 0;
    return rel <= b.tol;
}

/// Prints a PASS/FAIL line per bound; returns the number that failed.
int evaluate(const std::vector<Bound>& bounds, const Value& cand, const Value* base) {
    int failures = 0;
    for (const Bound& b : bounds) {
        std::string verdict;
        const bool ok = holds(b, cand, base, verdict);
        std::printf("%s %s\n", ok ? "PASS" : "FAIL", verdict.c_str());
        failures += ok ? 0 : 1;
    }
    if (failures) std::printf("%d bound(s) failed\n", failures);
    return failures;
}

/// `v` moved past itself in direction `dir` by more than `tol` of itself;
/// by exactly one when it is an integer and `tol` is 0.
Value nudged(const Value& v, int dir, double tol) {
    if (v.isInteger() && tol == 0) {
        obs::json::Integer i = v.integer();
        const bool grow = dir > 0 ? !i.negative : i.negative || i.magnitude == 0;
        if (!grow) {
            if (--i.magnitude == 0) i.negative = false;
            return Value::makeInteger(i);
        }
        if (i.magnitude != std::numeric_limits<std::uint64_t>::max()) {
            ++i.magnitude;
            i.negative = dir < 0;
            return Value::makeInteger(i);
        }
    }
    return Value::makeNumber(v.number() +
                             dir * (tol + 1) * std::max(std::abs(v.number()), 1e-300));
}

/// A copy of `cand` that violates `b` alone, described in `how`: a required
/// key removed, the value moved past its bound or tolerance, or the operand
/// of a key-relative bound moved past the value. nullopt when `b` fails on
/// `cand` as it stands.
std::optional<Value> violate(const Bound& b, const Value& cand, const Value* base,
                             std::string& how) {
    const auto keys = resolvePath(cand, b.path);
    std::string verdict;
    if (!keys || !holds(b, cand, base, verdict)) return std::nullopt;
    if (b.kind == Bound::Require) {
        how = "removed";
        return edited(cand, *keys, 0, std::nullopt);
    }
    const Value& v = *lookupPath(cand, b.path);
    const int dir = b.kind == Bound::Min || b.kind == Bound::KeyMin ? -1 : 1;
    std::vector<std::string> at = *keys;
    Value moved;
    if (b.kind == Bound::Key || b.kind == Bound::KeyMin) {
        moved = nudged(*lookupPath(*base, b.path), dir, b.tol);
    } else if (!b.limit.isString()) {
        moved = nudged(b.limit, dir, 0);
    } else {
        at = *resolvePath(cand, b.limit.str()); // holds() found it
        moved = nudged(v, -dir, 0);
    }
    how = (b.limit.isString() ? b.limit.str() : b.path) + " set to " + show(moved);
    return edited(cand, at, 0, moved);
}

bool parseArtifact(const std::string& path, Value& out) {
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

/// A bound value given on the command line, kept exact when integral.
Value numberLiteral(const std::string& flag, const std::string& text) {
    bool ok = false;
    std::string error;
    const Value v = obs::json::parse(text, ok, error);
    if (!ok || !v.isNumber() || !std::isfinite(v.number()))
        throw sim::OptionError(flag + ": expected a finite number, got '" + text + "'");
    return v;
}

int checkArtifact(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: walb_perfdiag check <artifact.json> [--require P] "
                             "[--min P=V] [--max P=V]...\n");
        return 2;
    }
    std::vector<Bound> bounds;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if ((arg != "--require" && arg != "--min" && arg != "--max") || i + 1 == argc)
            throw sim::OptionError("unknown check option '" + arg + "'");
        const std::string spec = argv[++i];
        const std::size_t eq = spec.find('=');
        if (arg == "--require") bounds.push_back({Bound::Require, spec, {}});
        else if (eq == std::string::npos)
            throw sim::OptionError(arg + " expects PATH=VALUE, got '" + spec + "'");
        else
            bounds.push_back({arg == "--min" ? Bound::Min : Bound::Max, spec.substr(0, eq),
                              numberLiteral(arg, spec.substr(eq + 1))});
    }
    Value root;
    if (!parseArtifact(argv[2], root)) return 1;
    return evaluate(bounds, root, nullptr) ? 1 : 0;
}

int compareArtifacts(int argc, char** argv) {
    if (argc < 4) {
        std::fprintf(stderr, "usage: walb_perfdiag compare <baseline.json> "
                             "<candidate.json> [--tol-rel R] [--key PATH[:R]]... "
                             "[--key-min PATH[:R]]...\n");
        return 2;
    }
    double defaultTol = 0.5;
    std::vector<Bound> bounds;
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tol-rel" && i + 1 < argc) {
            defaultTol = sim::parseFlagValue<double>("--tol-rel", argv[++i]);
        } else if ((arg == "--key" || arg == "--key-min") && i + 1 < argc) {
            std::string spec = argv[++i];
            double tol = -1; // --tol-rel, whatever its position
            const std::size_t colon = spec.rfind(':');
            // Metric names never contain ':', so a suffix is a tolerance.
            if (colon != std::string::npos) {
                tol = sim::parseFlagValue<double>(arg, spec.substr(colon + 1));
                spec = spec.substr(0, colon);
            }
            bounds.push_back({arg == "--key" ? Bound::Key : Bound::KeyMin, spec, {}, tol});
        } else {
            throw sim::OptionError("unknown compare option '" + arg + "'");
        }
    }
    for (Bound& b : bounds)
        if (b.tol < 0) b.tol = defaultTol;
    Value base, cand;
    if (!parseArtifact(argv[2], base) || !parseArtifact(argv[3], cand)) return 1;
    return evaluate(bounds, cand, &base) ? 1 : 0;
}

// ---- gate files ------------------------------------------------------------

/// A parsed gate file; see the header comment for the format.
struct Gate {
    struct Run {
        std::vector<std::string> argv;
        std::string stdoutPath; ///< empty: inherit
    };
    std::vector<Run> runs;
    std::vector<BoundSet> sets;
};

[[noreturn]] void malformed(const std::string& what) {
    throw sim::OptionError("malformed gate file: " + what);
}

/// The members of `v`, which must be an object with no field outside
/// `allowed`.
const std::map<std::string, Value>& fields(const Value& v,
                                           std::initializer_list<std::string> allowed,
                                           const std::string& where) {
    if (!v.isObject()) malformed(where + " is not an object");
    for (const auto& [name, x] : v.object())
        if (std::find(allowed.begin(), allowed.end(), name) == allowed.end())
            malformed("unknown field '" + name + "' in " + where);
    return v.object();
}

const std::vector<Value>& listAt(const Value& v, const std::string& name,
                                 const std::string& where) {
    static const std::vector<Value> none;
    const Value* x = v.find(name);
    if (x && !x->isArray()) malformed(where + "." + name + " is not a list");
    return x ? x->array() : none;
}

Gate readGate(const Value& root, const std::string& source, const std::string& build) {
    const auto expand = [&](std::string s) {
        for (const auto& [token, dir] : {std::pair{"{build}", build}, {"{source}", source}})
            for (std::size_t at; (at = s.find(token)) != std::string::npos;)
                s.replace(at, std::string(token).size(), dir);
        return s;
    };
    const auto text = [&](const Value& v, const std::string& name, const std::string& where,
                          bool required) {
        const Value* x = v.find(name);
        if ((required && !x) || (x && (!x->isString() || x->str().empty())))
            malformed(where + "." + name + " must be a non-empty string");
        return x ? expand(x->str()) : std::string();
    };
    Gate gate;
    fields(root, {"run", "check", "compare"}, "the gate");
    for (const Value& r : listAt(root, "run", "the gate")) {
        fields(r, {"argv", "stdout"}, "run");
        Gate::Run run;
        for (const Value& a : listAt(r, "argv", "run")) {
            if (!a.isString()) malformed("run.argv holds a non-string");
            run.argv.push_back(expand(a.str()));
        }
        if (run.argv.empty()) malformed("run.argv is empty");
        run.stdoutPath = text(r, "stdout", "run", false);
        gate.runs.push_back(std::move(run));
    }
    const auto pairs = [](const Value& v, const std::string& name, const std::string& where) {
        const Value* x = v.find(name);
        if (x && !x->isObject()) malformed(where + "." + name + " is not an object");
        return x ? x->object() : std::map<std::string, Value>{};
    };
    for (const Value& c : listAt(root, "check", "the gate")) {
        fields(c, {"artifact", "require", "min", "max"}, "check");
        BoundSet set{text(c, "artifact", "check", true), "", {}};
        for (const Value& p : listAt(c, "require", "check")) {
            if (!p.isString() || p.str().empty()) malformed("check.require holds a non-path");
            set.bounds.push_back({Bound::Require, p.str(), {}});
        }
        for (const Bound::Kind kind : {Bound::Min, Bound::Max})
            for (const auto& [path, limit] : pairs(c, kKindNames[kind], "check")) {
                if (!limit.isNumber() && !(limit.isString() && !limit.str().empty()))
                    malformed("check." + std::string(kKindNames[kind]) + "." + path +
                              " is neither a number nor a key path");
                set.bounds.push_back({kind, path, limit});
            }
        gate.sets.push_back(std::move(set));
    }
    for (const Value& c : listAt(root, "compare", "the gate")) {
        fields(c, {"baseline", "candidate", "key", "key_min"}, "compare");
        BoundSet set{text(c, "candidate", "compare", true),
                     text(c, "baseline", "compare", true), {}};
        for (const Bound::Kind kind : {Bound::Key, Bound::KeyMin})
            for (const auto& [path, tol] : pairs(c, kKindNames[kind], "compare")) {
                if (!tol.isNumber() || !std::isfinite(tol.number()) || tol.number() < 0)
                    malformed("compare." + std::string(kKindNames[kind]) + "." + path +
                              " is not a tolerance >= 0");
                set.bounds.push_back({kind, path, {}, tol.number()});
            }
        gate.sets.push_back(std::move(set));
    }
    return gate;
}

/// Runs `run` with no shell in the current directory; its exit status, or
/// 128 + the signal that ended it, or -1 when it could not start.
int runCommand(const Gate::Run& run) {
    std::vector<char*> args;
    for (const std::string& a : run.argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    if (!run.stdoutPath.empty())
        posix_spawn_file_actions_addopen(&actions, 1, run.stdoutPath.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::fflush(nullptr);
    pid_t pid = 0;
    const int err = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    int status = 0;
    if (err != 0 || waitpid(pid, &status, 0) != pid) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

/// Creates or empties the scratch dir, refusing a non-empty one that no
/// gate run made (it would lose files that are not the gate's).
bool resetScratch(const std::filesystem::path& dir) {
    namespace fs = std::filesystem;
    const fs::path mark = dir / ".walb_gate";
    fs::create_directories(dir);
    if (!fs::is_empty(dir) && !fs::exists(mark)) {
        std::fprintf(stderr, "walb_perfdiag: refusing to empty '%s': not a gate scratch "
                             "directory\n", dir.c_str());
        return false;
    }
    for (const auto& e : fs::directory_iterator(dir)) fs::remove_all(e.path());
    return bool(std::ofstream(mark));
}

int runGate(const std::string& file, const std::string& source, const std::string& build,
            const std::string& scratch) {
    namespace fs = std::filesystem;
    Value root;
    if (!parseArtifact(file, root)) return 2;
    const Gate gate = readGate(root, fs::absolute(source).string(), fs::absolute(build).string());
    if (!resetScratch(scratch)) return 2;
    fs::current_path(scratch);
    for (const Gate::Run& run : gate.runs) {
        std::string line;
        for (const std::string& a : run.argv) line += " " + a;
        std::printf("== run%s%s\n", line.c_str(),
                    run.stdoutPath.empty() ? "" : (" > " + run.stdoutPath).c_str());
        const int status = runCommand(run);
        if (status != 0) {
            std::printf("FAIL run exited with status %d\n", status);
            return 1;
        }
    }
    // Each bound is evaluated, then proved able to fail on a copy of the
    // artifact that violates it alone.
    int failures = 0, uncaught = 0;
    for (const BoundSet& set : gate.sets) {
        std::printf("== %s %s%s\n", set.baseline.empty() ? "check" : "compare",
                    set.baseline.empty() ? "" : (set.baseline + " -> ").c_str(),
                    set.candidate.c_str());
        Value cand, base;
        if (!parseArtifact(set.candidate, cand) ||
            (!set.baseline.empty() && !parseArtifact(set.baseline, base)))
            return 1;
        failures += evaluate(set.bounds, cand, &base);
        for (const Bound& b : set.bounds) {
            std::string how, verdict;
            const auto bad = violate(b, cand, &base, how);
            if (!bad) continue; // fails as it stands
            const bool caught = !holds(b, *bad, &base, verdict);
            std::printf("self-test %s %s %s: %s\n", caught ? "caught" : "UNCAUGHT",
                        kKindNames[b.kind], b.path.c_str(), how.c_str());
            uncaught += caught ? 0 : 1;
        }
    }
    if (uncaught) std::printf("%d bound(s) cannot fail\n", uncaught);
    return failures || uncaught ? 1 : 0;
}

// ---- selftest --------------------------------------------------------------

/// Dumps a synthetic history of `rank` to `path`: steps [first, last) of
/// 1 ms, 2 ms from step `slowFrom` on.
bool writeSyntheticDump(const std::string& path, int rank, int worldSize, std::uint64_t first,
                        std::uint64_t last, std::uint64_t slowFrom) {
    obs::FlightRecorder fr(128);
    for (std::uint64_t step = first; step < last; ++step) {
        obs::StepSample s;
        s.step = step;
        s.totalSeconds = step >= slowFrom ? 2e-3 : 1e-3;
        s.collideSeconds = 0.8 * s.totalSeconds;
        s.packSeconds = s.exchangeSeconds = 0.1 * s.totalSeconds;
        s.mlups = 1.0 / s.totalSeconds / 1e6;
        s.bytesMoved = 1024;
        s.messages = 2;
        fr.record(s);
    }
    std::string err;
    if (fr.dump(path, rank, worldSize, &err)) return true;
    std::fprintf(stderr, "walb_perfdiag: selftest dump failed: %s\n", err.c_str());
    return false;
}

int selftest() {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path();

    // Synthesize a four-rank run: rank 3 turns into a 2x straggler at
    // step 30. (Four ranks, not two — with two the straggler drags the
    // fleet median up with it and no median-relative detector can fire.)
    constexpr int kRanks = 4, kSlowRank = 3;
    std::vector<std::string> wfrPaths;
    for (int rank = 0; rank < kRanks; ++rank) {
        wfrPaths.push_back(
            (dir / ("walb_perfdiag_selftest.rank" + std::to_string(rank) + ".wfr")).string());
        if (!writeSyntheticDump(wfrPaths.back(), rank, kRanks, 0, 60,
                                rank == kSlowRank ? 30 : 60))
            return 1;
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
            const std::string path =
                (dir / ("walb_perfdiag_selftest_shrunk.rank" + std::to_string(rank) + ".wfr"))
                    .string();
            if (!writeSyntheticDump(path, rank, kRanks - 1, 60, 80, 80)) return 1;
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

    // Gate engine through the CLI parsers: compare passes close values and
    // fails a 2.5x drop, its one-sided form passes the gain, check passes a
    // good artifact and fails a bad one, and 64-bit integers one apart
    // differ.
    const std::string basePath = (dir / "walb_perfdiag_base.json").string();
    const std::string goodPath = (dir / "walb_perfdiag_good.json").string();
    const std::string badPath = (dir / "walb_perfdiag_bad.json").string();
    auto writeArtifact = [](const std::string& path, double mlups, double stragglers,
                            const char* bits) {
        std::ofstream os(path, std::ios::binary);
        os << "{\"gauges\": {\"sim.mlups\": " << mlups << ", \"perf.straggler_ranks\": "
           << stragglers << "}, \"bits\": " << bits << "}\n";
    };
    writeArtifact(basePath, 100.0, 1.0, "4638387860618067968");
    writeArtifact(goodPath, 95.0, 1.0, "4638387860618067968");
    writeArtifact(badPath, 40.0, 0.0, "4638387860618067969");
    struct CliCase {
        std::vector<std::string> args;
        int want;
        const char* what;
    };
    const CliCase cliCases[] = {
        {{"compare", basePath, goodPath, "--key", "gauges.sim.mlups:0.25"}, 0,
         "compare rejected a good run"},
        {{"compare", basePath, badPath, "--key", "gauges.sim.mlups:0.25"}, 1,
         "compare accepted a 2.5x regression"},
        {{"compare", badPath, basePath, "--key-min", "gauges.sim.mlups:0.25"}, 0,
         "--key-min rejected a 2.5x speedup"},
        {{"compare", basePath, badPath, "--key-min", "gauges.sim.mlups:0.25"}, 1,
         "--key-min accepted a 2.5x regression"},
        {{"check", basePath, "--require", "gauges.perf.straggler_ranks", "--min",
          "gauges.sim.mlups=50"},
         0, "check failed a good artifact"},
        {{"check", badPath, "--min", "gauges.sim.mlups=50"}, 1,
         "check passed a bad artifact"},
        {{"compare", basePath, goodPath, "--key", "bits:0"}, 0,
         "compare told equal 64-bit integers apart"},
        {{"compare", basePath, badPath, "--key", "bits:0"}, 1,
         "compare equated 64-bit integers one apart"},
        {{"check", badPath, "--max", "bits=4638387860618067968"}, 1,
         "check --max missed the low bit of a 64-bit integer"},
    };
    for (const CliCase& c : cliCases) {
        std::vector<std::string> args = c.args;
        args.insert(args.begin(), "walb_perfdiag");
        std::vector<char*> cargv;
        for (std::string& a : args) cargv.push_back(a.data());
        const int got = args[1] == "check" ? checkArtifact(int(cargv.size()), cargv.data())
                                           : compareArtifacts(int(cargv.size()), cargv.data());
        if (got != c.want) {
            std::fprintf(stderr, "walb_perfdiag: selftest %s\n", c.what);
            return 1;
        }
    }

    // Gate files: a run whose stdout is the artifact, key-relative and
    // exact-integer bounds, a violated bound, a bound that cannot fail, a
    // failing command and malformed files.
    const fs::path gatePath = dir / "walb_perfdiag_selftest_gate.json";
    const fs::path scratch = dir / "walb_perfdiag_selftest_gate";
    const fs::path cwd = fs::current_path();
    const std::string wfrArgs = "\"" + wfrPaths[0] + "\", \"" + wfrPaths[1] + "\", \"" +
                                wfrPaths[2] + "\", \"" + wfrPaths[3] + "\"";
    const std::string report = R"({"run": [{"argv": ["/proc/self/exe", "json", )" + wfrArgs +
                               R"(], "stdout": "report.json"}], )"
                               R"("check": [{"artifact": "report.json", )";
    const std::string baseVsGood =
        R"("compare": [{"baseline": "{source}/walb_perfdiag_base.json", )"
        R"("candidate": "{build}/walb_perfdiag_good.json", )"
        R"("key": {"bits": 0, "gauges.sim.mlups": 0.25}, )"
        R"("key_min": {"gauges.sim.mlups": 0.1}}])";
    struct GateCase {
        std::string text;
        int want;
        const char* what;
    };
    const GateCase gateCases[] = {
        {report + R"("require": ["flagged_ranks.0"], "min": {"flagged_steps": 1}, )"
                  R"("max": {"flagged_steps": "judged_steps"}}], )" +
             baseVsGood + "}",
         0, "rejected a passing gate"},
        {report + R"("min": {"flagged_steps": "judged_steps"}}]})", 1,
         "passed a violated key-relative bound"},
        {R"({"compare": [{"baseline": "{source}/walb_perfdiag_base.json", )"
         R"("candidate": "{source}/walb_perfdiag_bad.json", "key": {"bits": 0}}]})",
         1, "equated 64-bit integers one apart"},
        {R"({"check": [{"artifact": "{source}/walb_perfdiag_base.json", )"
         R"("min": {"gauges.sim.mlups": "gauges.sim.mlups"}}]})",
         1, "passed a bound that cannot fail"},
        {R"({"run": [{"argv": ["/proc/self/exe", "no-such-mode"]}]})", 1,
         "passed a command that failed"},
        {R"({"run": [], "chek": []})", 2, "accepted an unknown field"},
        {R"({"check": [{"artifact": "a.json", "min": {"x": true}}]})", 2,
         "accepted a malformed bound"},
    };
    for (const GateCase& c : gateCases) {
        std::ofstream(gatePath) << c.text;
        int got = 0;
        try {
            got = runGate(gatePath.string(), dir.string(), dir.string(), scratch.string());
        } catch (const sim::OptionError& e) {
            std::printf("walb_perfdiag: %s\n", e.what());
            got = 2;
        }
        fs::current_path(cwd);
        if (got != c.want) {
            std::fprintf(stderr, "walb_perfdiag: selftest gate %s (exit %d)\n", c.what, got);
            return 1;
        }
    }
    fs::remove(gatePath);
    fs::remove_all(scratch);

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
            if (mode == "gate" && argc == 6) return runGate(argv[2], argv[3], argv[4], argv[5]);
        } catch (const walb::sim::OptionError& e) {
            std::fprintf(stderr, "walb_perfdiag: %s\n", e.what());
            return 2;
        } catch (const std::filesystem::filesystem_error& e) {
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
                 "       walb_perfdiag gate <gate.json> <source-dir> <build-dir> "
                 "<scratch-dir>\n"
                 "       walb_perfdiag --selftest\n");
    return 2;
}
