/// \file test_lint.cpp
/// walb_lint rule engine against the committed fixtures in
/// tests/lint_fixtures/: each rule has a bad fixture (exact violation
/// lines asserted — the falsifiability check: a rule that silently stops
/// firing fails here) and a good fixture (no false positives). The real
/// registries are also loaded and must be self-consistent.

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/Lint.h"

namespace {

using walb::lint::Linter;
using walb::lint::Violation;

std::string readTree(const std::string& rel) {
    const std::string path = std::string(WALB_SOURCE_DIR) + "/" + rel;
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "missing fixture: " << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

std::string fixture(const std::string& name) {
    return readTree("tests/lint_fixtures/" + name);
}

/// Sorted violation lines of one rule (a violation of any *other* rule in
/// the fixture is ignored — fixtures are not compilable C++ and may trip
/// rules they don't target).
std::vector<int> linesOf(const std::vector<Violation>& vs, const std::string& rule) {
    std::vector<int> out;
    for (const auto& v : vs)
        if (v.rule == rule) out.push_back(v.line);
    std::sort(out.begin(), out.end());
    return out;
}

/// A Linter primed with the real project registries; the fixture checks
/// run against exactly what the build gate uses.
Linter realLinter() {
    Linter lint;
    std::vector<Violation> vs;
    lint.loadTagRegistry("src/vmpi/Tags.h", readTree("src/vmpi/Tags.h"), vs);
    lint.loadMetricNames("src/obs/MetricNames.h", readTree("src/obs/MetricNames.h"), vs);
    EXPECT_TRUE(vs.empty()) << "real registries must load clean, got: "
                            << (vs.empty() ? "" : vs.front().message);
    return lint;
}

TEST(Lint, RealRegistriesAreSelfConsistent) {
    Linter lint = realLinter();
    EXPECT_TRUE(lint.hasTagRegistry());
    EXPECT_TRUE(lint.hasMetricNames());
    EXPECT_EQ(lint.tagBands().size(), 5u)
        << "user/reliable/agreement/subcomm/serve";
    EXPECT_GE(lint.tagConstants().size(), 13u);
    EXPECT_TRUE(lint.metricNames().count("sim.steps"));
    EXPECT_TRUE(lint.metricNames().count("sim.step_seconds"));
}

TEST(Lint, BlockingBadFlagsEveryUnguardedCall) {
    auto vs = realLinter().checkFile("f.cpp", fixture("blocking_bad.cpp"));
    EXPECT_EQ(linesOf(vs, "blocking-guard"), (std::vector<int>{7, 8, 9, 10, 18}));
}

TEST(Lint, BlockingGoodIsClean) {
    auto vs = realLinter().checkFile("f.cpp", fixture("blocking_good.cpp"));
    EXPECT_TRUE(vs.empty()) << vs.front().message << " at line " << vs.front().line;
}

TEST(Lint, TagsBadFlagsLiteralsAndStrayConstants) {
    auto vs = realLinter().checkFile("f.cpp", fixture("tags_bad.cpp"));
    EXPECT_EQ(linesOf(vs, "tag-registry"), (std::vector<int>{5, 8, 9, 11}));
}

TEST(Lint, TagsGoodIsClean) {
    auto vs = realLinter().checkFile("f.cpp", fixture("tags_good.cpp"));
    EXPECT_TRUE(linesOf(vs, "tag-registry").empty());
}

TEST(Lint, MetricsBadFlagsUndeclaredNames) {
    auto vs = realLinter().checkFile("f.cpp", fixture("metrics_bad.cpp"));
    EXPECT_EQ(linesOf(vs, "metric-name"), (std::vector<int>{5, 6, 7}));
}

TEST(Lint, MetricsAaBadFlagsUnregisteredFootprintNames) {
    // The AA tier's registered "mem.pdf_bytes" gauge passes; the near-miss
    // typo and an unregistered parity counter must each fire.
    auto vs = realLinter().checkFile("f.cpp", fixture("metrics_aa_bad.cpp"));
    EXPECT_EQ(linesOf(vs, "metric-name"), (std::vector<int>{6, 7}));
}

TEST(Lint, DeterminismBadFlagsRandomClockAndFloat) {
    auto vs = realLinter().checkFile("f.cpp", fixture("determinism_bad.cpp"));
    EXPECT_EQ(linesOf(vs, "determinism"), (std::vector<int>{7, 8, 9}));
}

TEST(Lint, LockBadFlagsCommLoggingAndBareWait) {
    auto vs = realLinter().checkFile("f.cpp", fixture("lock_bad.cpp"));
    EXPECT_EQ(linesOf(vs, "lock-scope"), (std::vector<int>{8, 9, 10, 14}));
}

TEST(Lint, LockGoodIsClean) {
    auto vs = realLinter().checkFile("f.cpp", fixture("lock_good.cpp"));
    EXPECT_TRUE(vs.empty()) << vs.front().message << " at line " << vs.front().line;
}

TEST(Lint, BadRegistryYieldsAllConsistencyViolations) {
    Linter lint;
    std::vector<Violation> vs;
    lint.loadTagRegistry("r.h", fixture("tags_registry_bad.h"), vs);
    // Out-of-band tag (13), duplicate value (12), static band overlap (15),
    // and three epoch-shift collisions: a+1 into b (9), c+1 into a (18),
    // c+2 into b (18).
    EXPECT_EQ(linesOf(vs, "tag-registry"), (std::vector<int>{9, 12, 13, 15, 18, 18}));
}

TEST(Lint, GoodRegistryLoadsClean) {
    Linter lint;
    std::vector<Violation> vs;
    lint.loadTagRegistry("r.h", fixture("tags_registry_good.h"), vs);
    EXPECT_TRUE(vs.empty()) << vs.front().message;
    EXPECT_EQ(lint.tagBands().size(), 2u);
}

TEST(Lint, DuplicateMetricDeclarationIsFlagged) {
    Linter lint;
    std::vector<Violation> vs;
    lint.loadMetricNames("m.h", fixture("metric_names.h"), vs);
    EXPECT_EQ(linesOf(vs, "metric-name"), (std::vector<int>{9}));
    EXPECT_TRUE(lint.metricNames().count("sim.steps"));
    EXPECT_TRUE(lint.metricNames().count("dup.name"));
}

/// The build-gate property the whole PR rests on: the shipping tree itself
/// is violation-free under the shipping registries. (The walb_lint_check
/// ctest runs the CLI over src/bench/tools; this is the in-process spot
/// check that the library agrees on two load-bearing files.)
TEST(Lint, ShippingCommPathsAreClean) {
    Linter lint = realLinter();
    for (const char* rel : {"src/vmpi/ReliableComm.h", "src/sim/Checkpoint.cpp",
                            "src/rebalance/Migrator.cpp", "src/vmpi/ThreadComm.cpp"}) {
        auto vs = lint.checkFile(rel, readTree(rel));
        EXPECT_TRUE(vs.empty()) << rel << ": " << vs.front().rule << " at line "
                                << vs.front().line;
    }
}

} // namespace
