/// Tests for core utilities: Vector3, Cell/CellInterval, AABB, Random,
/// Buffer serialization and the compact low-byte encoding.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <sstream>

#include "core/AABB.h"
#include "core/BinaryIO.h"
#include "core/Buffer.h"
#include "core/Cell.h"
#include "core/KernelTier.h"
#include "core/Logging.h"
#include "core/Random.h"
#include "core/Timer.h"
#include "core/Vector3.h"

namespace walb {
namespace {

TEST(Vector3, Arithmetic) {
    Vec3 a(1, 2, 3), b(4, 5, 6);
    EXPECT_EQ(a + b, Vec3(5, 7, 9));
    EXPECT_EQ(b - a, Vec3(3, 3, 3));
    EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
    EXPECT_EQ(2.0 * a, a * 2.0);
    EXPECT_EQ(-a, Vec3(-1, -2, -3));
    EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(Vector3, CrossProductIsOrthogonal) {
    Vec3 a(1, 2, 3), b(-2, 0.5, 4);
    const Vec3 c = a.cross(b);
    EXPECT_NEAR(c.dot(a), 0.0, 1e-14);
    EXPECT_NEAR(c.dot(b), 0.0, 1e-14);
}

TEST(Vector3, LengthAndNormalize) {
    Vec3 v(3, 4, 0);
    EXPECT_DOUBLE_EQ(v.length(), 5.0);
    EXPECT_NEAR(v.normalized().length(), 1.0, 1e-15);
    EXPECT_EQ(Vec3(0, 0, 0).normalized(), Vec3(0, 0, 0));
}

TEST(CellInterval, SizesAndEmptiness) {
    CellInterval ci(0, 0, 0, 3, 1, 0);
    EXPECT_EQ(ci.xSize(), 4);
    EXPECT_EQ(ci.ySize(), 2);
    EXPECT_EQ(ci.zSize(), 1);
    EXPECT_EQ(ci.numCells(), 8u);
    EXPECT_FALSE(ci.empty());
    EXPECT_TRUE(CellInterval().empty());
    EXPECT_EQ(CellInterval().numCells(), 0u);
}

TEST(CellInterval, ContainsAndIntersect) {
    CellInterval a(0, 0, 0, 9, 9, 9), b(5, 5, 5, 14, 14, 14);
    EXPECT_TRUE(a.contains(Cell{0, 0, 0}));
    EXPECT_TRUE(a.contains(Cell{9, 9, 9}));
    EXPECT_FALSE(a.contains(Cell{10, 0, 0}));
    const CellInterval i = a.intersect(b);
    EXPECT_EQ(i, CellInterval(5, 5, 5, 9, 9, 9));
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_FALSE(a.overlaps(CellInterval(20, 20, 20, 30, 30, 30)));
}

TEST(CellInterval, ForEachVisitsAllCellsInMemoryOrder) {
    CellInterval ci(1, 2, 3, 2, 3, 4);
    std::vector<Cell> visited;
    ci.forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) { visited.push_back({x, y, z}); });
    ASSERT_EQ(visited.size(), ci.numCells());
    EXPECT_EQ(visited.front(), (Cell{1, 2, 3}));
    EXPECT_EQ(visited.back(), (Cell{2, 3, 4}));
    EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}

TEST(CellInterval, ExpandedAndShifted) {
    CellInterval ci(0, 0, 0, 1, 1, 1);
    EXPECT_EQ(ci.expanded(1), CellInterval(-1, -1, -1, 2, 2, 2));
    EXPECT_EQ(ci.shifted(Cell{1, 2, 3}), CellInterval(1, 2, 3, 2, 3, 4));
}

TEST(AABB, BasicGeometry) {
    AABB b(0, 0, 0, 2, 4, 6);
    EXPECT_DOUBLE_EQ(b.volume(), 48.0);
    EXPECT_EQ(b.center(), Vec3(1, 2, 3));
    EXPECT_TRUE(b.contains(Vec3(1, 1, 1)));
    EXPECT_FALSE(b.contains(Vec3(2, 1, 1))); // half-open upper boundary
    EXPECT_TRUE(b.containsClosed(Vec3(2, 4, 6)));
}

TEST(AABB, SqrDistance) {
    AABB b(0, 0, 0, 1, 1, 1);
    EXPECT_DOUBLE_EQ(b.sqrDistance(Vec3(0.5, 0.5, 0.5)), 0.0);
    EXPECT_DOUBLE_EQ(b.sqrDistance(Vec3(2, 0.5, 0.5)), 1.0);
    EXPECT_DOUBLE_EQ(b.sqrDistance(Vec3(2, 2, 0.5)), 2.0);
}

TEST(AABB, SpheresMatchPaperEarlyOutGeometry) {
    AABB b(0, 0, 0, 2, 2, 2);
    EXPECT_NEAR(b.circumsphereRadius(), std::sqrt(3.0), 1e-14);
    EXPECT_DOUBLE_EQ(b.insphereRadius(), 1.0);
    // Insphere radius of a non-cubic box is half the smallest edge.
    EXPECT_DOUBLE_EQ(AABB(0, 0, 0, 4, 2, 8).insphereRadius(), 1.0);
}

TEST(AABB, Octants) {
    AABB b(0, 0, 0, 2, 2, 2);
    EXPECT_EQ(b.octant(0), AABB(0, 0, 0, 1, 1, 1));
    EXPECT_EQ(b.octant(7), AABB(1, 1, 1, 2, 2, 2));
    EXPECT_EQ(b.octant(1), AABB(1, 0, 0, 2, 1, 1));
    double vol = 0;
    for (unsigned c = 0; c < 8; ++c) vol += b.octant(c).volume();
    EXPECT_DOUBLE_EQ(vol, b.volume());
}

TEST(Random, DeterministicAcrossInstances) {
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Random, UniformRange) {
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        const real_t v = r.uniform(2.0, 5.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Random, UniformIntInRangeAndRoughlyUniform) {
    Random r(99);
    std::array<int, 10> histo{};
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.uniformInt(10);
        ASSERT_LT(v, 10u);
        ++histo[v];
    }
    for (int h : histo) EXPECT_GT(h, 700); // expect ~1000 each
}

TEST(Buffer, RoundTripScalars) {
    SendBuffer sb;
    sb << std::int32_t(-42) << std::uint64_t(1ull << 60) << 3.25 << std::uint8_t(7) << true;
    RecvBuffer rb(sb.release());
    std::int32_t i = 0; std::uint64_t u = 0; double d = 0; std::uint8_t b = 0; bool f = false;
    rb >> i >> u >> d >> b >> f;
    EXPECT_EQ(i, -42);
    EXPECT_EQ(u, 1ull << 60);
    EXPECT_DOUBLE_EQ(d, 3.25);
    EXPECT_EQ(b, 7);
    EXPECT_TRUE(f);
    EXPECT_TRUE(rb.atEnd());
}

TEST(Buffer, RoundTripStringsAndVectors) {
    SendBuffer sb;
    sb << std::string("hello walb") << std::vector<double>{1.0, 2.5, -3.0}
       << std::vector<std::uint16_t>{1, 2, 65535};
    RecvBuffer rb(sb.release());
    std::string s; std::vector<double> vd; std::vector<std::uint16_t> vu;
    rb >> s >> vd >> vu;
    EXPECT_EQ(s, "hello walb");
    EXPECT_EQ(vd, (std::vector<double>{1.0, 2.5, -3.0}));
    EXPECT_EQ(vu, (std::vector<std::uint16_t>{1, 2, 65535}));
}

TEST(Buffer, CompactEncodingUsesExactlyRequestedBytes) {
    SendBuffer sb;
    sb.putCompact(65535, 2); // paper: 2-byte ranks for up to 65,536 processes
    EXPECT_EQ(sb.size(), 2u);
    sb.putCompact(1234567, 3);
    EXPECT_EQ(sb.size(), 5u);
    RecvBuffer rb(sb.release());
    EXPECT_EQ(rb.getCompact(2), 65535u);
    EXPECT_EQ(rb.getCompact(3), 1234567u);
}

TEST(Buffer, BytesNeededMatchesPaperRankExample) {
    EXPECT_EQ(bytesNeeded(0), 1u);
    EXPECT_EQ(bytesNeeded(255), 1u);
    EXPECT_EQ(bytesNeeded(256), 2u);
    EXPECT_EQ(bytesNeeded(65535), 2u); // 65,536 processes -> 2-byte ranks
    EXPECT_EQ(bytesNeeded(65536), 3u);
    EXPECT_EQ(bytesNeeded(500000), 3u); // half a million processes
    EXPECT_EQ(bytesNeeded(~0ull), 8u);
}

TEST(BinaryIO, FileRoundTrip) {
    SendBuffer sb;
    sb << std::string("block structure") << std::uint64_t(458752);
    const std::string path = testing::TempDir() + "/walb_binaryio_test.bin";
    ASSERT_TRUE(writeFile(path, sb));
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(readFile(path, bytes));
    RecvBuffer rb(std::move(bytes));
    std::string s; std::uint64_t n = 0;
    rb >> s >> n;
    EXPECT_EQ(s, "block structure");
    EXPECT_EQ(n, 458752u);
    std::remove(path.c_str());
}

// ---- FileWriter: a reader sees the old content or the complete new one ----

std::string fileContent(const std::string& path) {
    std::vector<std::uint8_t> bytes;
    if (!readFile(path, bytes)) return "<unreadable>";
    return {bytes.begin(), bytes.end()};
}

bool writeText(const std::string& path, const std::string& text, bool commit = true) {
    FileWriter w(path);
    w.write(text.data(), text.size());
    return !commit || w.commit();
}

bool exists(const std::string& path) {
    struct stat st{};
    return ::lstat(path.c_str(), &st) == 0;
}

TEST(FileWriter, CommitOverAnExistingFileReplacesItAndLeavesNoTemporary) {
    const std::string path = testing::TempDir() + "/walb_filewriter_replace.bin";
    ASSERT_TRUE(writeText(path, "old content"));
    // A reader that opened the old file keeps reading the old content.
    std::ifstream reader(path, std::ios::binary);
    ASSERT_TRUE(writeText(path, "the complete new content"));
    EXPECT_EQ(fileContent(path), "the complete new content");
    EXPECT_FALSE(exists(path + ".tmp"));
    const std::string before((std::istreambuf_iterator<char>(reader)),
                             std::istreambuf_iterator<char>());
    EXPECT_EQ(before, "old content");
    std::remove(path.c_str());
}

TEST(FileWriter, CommitWithoutATargetCreatesTheFile) {
    const std::string path = testing::TempDir() + "/walb_filewriter_new.bin";
    std::remove(path.c_str());
    ASSERT_TRUE(writeText(path, "first content"));
    EXPECT_EQ(fileContent(path), "first content");
    EXPECT_FALSE(exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(FileWriter, UncommittedWriterLeavesTheOldContentAndNoTemporary) {
    const std::string path = testing::TempDir() + "/walb_filewriter_abandon.bin";
    ASSERT_TRUE(writeText(path, "old content"));
    writeText(path, "half a new", /*commit=*/false);
    EXPECT_EQ(fileContent(path), "old content");
    EXPECT_FALSE(exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(FileWriter, CommitOntoADirectoryFailsAndLeavesTheDirectory) {
    // rename(2) refuses to move a file onto a directory; a bare name swap
    // would move the directory to <path>.tmp instead.
    const std::string path = testing::TempDir() + "/walb_filewriter_dir";
    ::rmdir(path.c_str());
    ASSERT_EQ(::mkdir(path.c_str(), 0700), 0);
    EXPECT_FALSE(writeText(path, "not a directory"));
    struct stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    EXPECT_FALSE(exists(path + ".tmp"));
    ::rmdir(path.c_str());
}

TEST(Timer, MeasuresAndAccumulates) {
    Timer t;
    t.start();
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
    t.stop();
    EXPECT_GT(t.total(), 0.0);
    EXPECT_EQ(t.count(), 1u);
    t.addMeasurement(1.0);
    EXPECT_EQ(t.count(), 2u);
    EXPECT_GE(t.max(), 1.0);
}

TEST(Timer, MergeAggregatePreservesCountAndExtremes) {
    Timer a;
    a.addMeasurement(1.0);
    a.addMeasurement(3.0);
    // Merging pre-aggregated stats must add totals/counts and combine
    // min/max instead of collapsing the remote timer into one
    // pseudo-measurement.
    a.mergeAggregate(/*total=*/6.0, /*count=*/4, /*mn=*/0.5, /*mx=*/2.5);
    EXPECT_DOUBLE_EQ(a.total(), 10.0);
    EXPECT_EQ(a.count(), 6u);
    EXPECT_DOUBLE_EQ(a.average(), 10.0 / 6.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.5);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(Timer, MergeAggregateOfEmptyTimerIsNoOp) {
    Timer a;
    a.addMeasurement(2.0);
    Timer empty;
    a.mergeAggregate(empty.total(), empty.count(), empty.min(), empty.max());
    EXPECT_DOUBLE_EQ(a.total(), 2.0);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 2.0);
}

TEST(TimingPool, MergeIsExactOnMinMaxCountAvg) {
    TimingPool a, b;
    a["comm"].addMeasurement(1.0);
    a["comm"].addMeasurement(5.0);
    b["comm"].addMeasurement(0.25);
    b["comm"].addMeasurement(2.0);
    b["comm"].addMeasurement(2.75);
    b["boundary"].addMeasurement(4.0);

    a.merge(b);

    const Timer* comm = a.find("comm");
    ASSERT_NE(comm, nullptr);
    EXPECT_DOUBLE_EQ(comm->total(), 11.0);
    EXPECT_EQ(comm->count(), 5u); // was 2, not 3: counts add, not replace
    EXPECT_DOUBLE_EQ(comm->average(), 2.2);
    EXPECT_DOUBLE_EQ(comm->min(), 0.25); // true single-measurement minimum
    EXPECT_DOUBLE_EQ(comm->max(), 5.0);  // true single-measurement maximum

    // Phases only present in the merged-in pool appear verbatim.
    const Timer* boundary = a.find("boundary");
    ASSERT_NE(boundary, nullptr);
    EXPECT_DOUBLE_EQ(boundary->total(), 4.0);
    EXPECT_EQ(boundary->count(), 1u);
    EXPECT_DOUBLE_EQ(boundary->min(), 4.0);
    EXPECT_DOUBLE_EQ(boundary->max(), 4.0);
}

TEST(TimingPool, MergeEmptyPoolChangesNothing) {
    TimingPool a, empty;
    a["x"].addMeasurement(1.5);
    a.merge(empty);
    EXPECT_DOUBLE_EQ(a.grandTotal(), 1.5);
    EXPECT_EQ(a.find("x")->count(), 1u);
}

TEST(Logger, SetStreamCapturesOutput) {
    Logger& log = Logger::instance();
    std::ostringstream oss;
    log.setStream(&oss);
    WALB_LOG_INFO("hello " << 42);
    log.setStream(nullptr);
    EXPECT_EQ(oss.str(), "[INFO]  hello 42\n");
}

TEST(Logger, RankTagIsThreadLocalAndRemovable) {
    Logger& log = Logger::instance();
    std::ostringstream oss;
    log.setStream(&oss);
    Logger::setThreadRank(3);
    WALB_LOG_INFO("tagged");
    Logger::setThreadRank(-1);
    WALB_LOG_INFO("untagged");
    log.setStream(nullptr);
    EXPECT_EQ(oss.str(), "[rank 3][INFO]  tagged\n[INFO]  untagged\n");
    EXPECT_EQ(Logger::thisThreadRank(), -1);
}

TEST(Logger, ElapsedPrefixHasFixedWidthFormat) {
    Logger& log = Logger::instance();
    std::ostringstream oss;
    log.setStream(&oss);
    log.setShowElapsed(true);
    WALB_LOG_INFO("timed");
    log.setShowElapsed(false);
    log.setStream(nullptr);
    const std::string line = oss.str();
    // `[  12.345s][INFO]  timed` — 12-char elapsed prefix (`[` + %9.3f +
    // `s]`) in front of the level tag.
    ASSERT_GE(line.size(), 12u);
    EXPECT_EQ(line[0], '[');
    EXPECT_EQ(line.substr(10, 2), "s]");
    EXPECT_NE(line.find("[INFO]  timed"), std::string::npos);
    EXPECT_GE(log.elapsedSeconds(), 0.0);
}

TEST(Logger, ErrorMacroLogsAtErrorLevelEvenWhenQuiet) {
    Logger& log = Logger::instance();
    std::ostringstream oss;
    log.setStream(&oss);
    const LogLevel before = log.level();
    log.setLevel(LogLevel::Error); // suppress everything below Error
    WALB_LOG_INFO("should be dropped");
    WALB_LOG_ERROR("boom " << 7);
    log.setLevel(before);
    log.setStream(nullptr);
    EXPECT_EQ(oss.str(), "[ERROR] boom 7\n");
}

TEST(TimingPool, FractionsSumToOne) {
    TimingPool pool;
    pool["a"].addMeasurement(3.0);
    pool["b"].addMeasurement(1.0);
    EXPECT_DOUBLE_EQ(pool.grandTotal(), 4.0);
    EXPECT_DOUBLE_EQ(pool.fraction("a"), 0.75);
    EXPECT_DOUBLE_EQ(pool.fraction("b"), 0.25);
    EXPECT_DOUBLE_EQ(pool.fraction("missing"), 0.0);
}

TEST(KernelTier, NamesAndAaFlagAreStableForEveryWfrByte) {
    // A .wfr StepSample stores the tier as one byte, and walb_perfdiag and
    // walb_blockinfo print dumps of older builds too: the distributed
    // driver writes only 2 (simd) and 4 (aa-simd), but 0, 1 and 3 stay
    // readable, and any other byte reads as "unknown".
    const struct {
        std::uint8_t byte;
        const char* name;
        bool aa;
    } cases[] = {{0, "generic", false}, {1, "d3q19", false}, {2, "simd", false},
                 {3, "aa", true},       {4, "aa-simd", true}, {5, "unknown", false},
                 {255, "unknown", false}};
    for (const auto& c : cases) {
        const KernelTier t = KernelTier(c.byte);
        EXPECT_STREQ(kernelTierName(t), c.name) << "byte " << int(c.byte);
        EXPECT_EQ(isAaTier(t), c.aa) << "byte " << int(c.byte);
    }
}

} // namespace
} // namespace walb
