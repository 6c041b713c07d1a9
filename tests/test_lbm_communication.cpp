/// Ghost-layer communication tests: direction subsets (5/1/0 PDFs per
/// face/edge/corner in D3Q19), slice geometry, pack/unpack round trips,
/// local block-to-block copies, and communication-volume accounting.

#include <gtest/gtest.h>

#include "lbm/Communication.h"
#include "support/Oracles.h"

namespace walb::lbm {
namespace {

TEST(Neighborhood26, CoversAllOffsetsAndInversesMatch) {
    EXPECT_EQ(neighborhood26.size(), 26u);
    std::set<std::array<int, 3>> seen(neighborhood26.begin(), neighborhood26.end());
    EXPECT_EQ(seen.size(), 26u);
    for (std::size_t i = 0; i < 26; ++i) {
        const auto& d = neighborhood26[i];
        const auto& inv = neighborhood26[neighborhood26Inv[i]];
        EXPECT_EQ(inv[0], -d[0]);
        EXPECT_EQ(inv[1], -d[1]);
        EXPECT_EQ(inv[2], -d[2]);
    }
}

TEST(CommDirections, FaceEdgeCornerCounts) {
    for (const auto& d : neighborhood26) {
        const int axes = std::abs(d[0]) + std::abs(d[1]) + std::abs(d[2]);
        const auto dirs = commDirections<D3Q19>(d);
        if (axes == 1) { EXPECT_EQ(dirs.size(), 5u) << "face"; }
        if (axes == 2) { EXPECT_EQ(dirs.size(), 1u) << "edge"; }
        if (axes == 3) { EXPECT_EQ(dirs.size(), 0u) << "corner (D3Q19 has no corner links)"; }
        // Every selected PDF actually streams across the interface.
        for (uint_t a : dirs)
            for (std::size_t i = 0; i < 3; ++i)
                if (d[i] != 0) { EXPECT_EQ(D3Q19::c[a][i], d[i]); }
    }
}

TEST(CommDirections, D3Q27HasCornerLinks) {
    const std::array<int, 3> corner = {1, 1, 1};
    EXPECT_EQ(commDirections<D3Q27>(corner).size(), 1u);
    const std::array<int, 3> face = {1, 0, 0};
    EXPECT_EQ(commDirections<D3Q27>(face).size(), 9u);
}

TEST(Slices, SendAndRecvIntervalGeometry) {
    PdfField f = makePdfField<D3Q19>(8, 6, 4);
    const std::array<int, 3> east = {1, 0, 0};
    EXPECT_EQ(sendInterval(f, east), CellInterval(7, 0, 0, 7, 5, 3));
    EXPECT_EQ(recvInterval(f, east), CellInterval(8, 0, 0, 8, 5, 3));
    const std::array<int, 3> bottomWest = {-1, 0, -1};
    EXPECT_EQ(sendInterval(f, bottomWest), CellInterval(0, 0, 0, 0, 5, 0));
    EXPECT_EQ(recvInterval(f, bottomWest), CellInterval(-1, 0, -1, -1, 5, -1));
}

TEST(Slices, PackedBytesMatchSliceSizes) {
    PdfField f = makePdfField<D3Q19>(8, 6, 4);
    // East face: 6*4 cells x 5 PDFs x 8 bytes.
    EXPECT_EQ(packedBytes<D3Q19>(f, {1, 0, 0}), 6u * 4 * 5 * 8);
    // Top-north edge: 8 cells x 1 PDF.
    EXPECT_EQ(packedBytes<D3Q19>(f, {0, 1, 1}), 8u * 1 * 8);
    // Corner: nothing.
    EXPECT_EQ(packedBytes<D3Q19>(f, {1, 1, 1}), 0u);
    // Full-set variant ships 19 PDFs for every slice cell.
    EXPECT_EQ(packedBytes<D3Q19>(f, {1, 0, 0}, true), 6u * 4 * 19 * 8);
}

/// Fills the field so every (cell, direction) slot is unique.
void fillUnique(PdfField& f) {
    real_t v = 1;
    f.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        for (uint_t a = 0; a < D3Q19::Q; ++a) f.get(x, y, z, cell_idx_c(a)) = v++;
    });
}

class PackUnpack : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackUnpack, RoundTripReconstructsTheGhostSlice) {
    // Sender block A and receiver block B, neighbors along direction d.
    const auto& d = neighborhood26[GetParam()];
    if (commDirections<D3Q19>(d).empty()) GTEST_SKIP() << "corner: nothing to send";

    PdfField a = makePdfField<D3Q19>(6, 6, 6);
    PdfField b = makePdfField<D3Q19>(6, 6, 6);
    fillUnique(a);
    b.fill(-1);

    SendBuffer sb;
    packPdfs<D3Q19>(a, d, sb);
    RecvBuffer rb(sb.release());
    // B receives from its neighbor in direction -d (A sits on that side).
    const std::array<int, 3> fromA = {-d[0], -d[1], -d[2]};
    unpackPdfs<D3Q19>(b, fromA, rb);
    EXPECT_TRUE(rb.atEnd());

    // Every unpacked value equals the corresponding interior value of A
    // (the ghost slice of B facing -d mirrors A's send slice facing d).
    const CellInterval src = sendInterval(a, d);
    const CellInterval dst = recvInterval(b, fromA);
    ASSERT_EQ(src.numCells(), dst.numCells());
    const Cell offset = src.min() - dst.min();
    const auto dirs = commDirections<D3Q19>(d);
    dst.forEach([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        for (uint_t q : dirs)
            EXPECT_EQ(b.get(x, y, z, cell_idx_c(q)),
                      a.get(x + offset.x, y + offset.y, z + offset.z, cell_idx_c(q)));
        // Directions not in the subset stay untouched.
        bool inSubset[19] = {};
        for (uint_t q : dirs) inSubset[q] = true;
        for (uint_t q = 0; q < 19; ++q)
            if (!inSubset[q]) { EXPECT_EQ(b.get(x, y, z, cell_idx_c(q)), -1.0); }
    });
}

INSTANTIATE_TEST_SUITE_P(AllDirections, PackUnpack,
                         ::testing::Range<std::size_t>(0, 26));

TEST(LocalCopy, MatchesPackUnpack) {
    const std::array<int, 3> d = {1, 0, 0}; // neighbor toward +x
    PdfField a = makePdfField<D3Q19>(5, 5, 5);
    PdfField viaCopy = makePdfField<D3Q19>(5, 5, 5);
    PdfField viaBuffer = makePdfField<D3Q19>(5, 5, 5);
    fillUnique(a);
    viaCopy.fill(-1);
    viaBuffer.fill(-1);

    // Receiver sees the sender in direction -d.
    const std::array<int, 3> fromA = {-d[0], -d[1], -d[2]};
    copyPdfsLocal<D3Q19>(a, viaCopy, fromA);

    SendBuffer sb;
    packPdfs<D3Q19>(a, d, sb);
    RecvBuffer rb(sb.release());
    unpackPdfs<D3Q19>(viaBuffer, fromA, rb);

    viaCopy.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        for (uint_t q = 0; q < D3Q19::Q; ++q)
            EXPECT_EQ(viaCopy.get(x, y, z, cell_idx_c(q)),
                      viaBuffer.get(x, y, z, cell_idx_c(q)));
    });
}

TEST(DirectionSliced, VolumeSavingsVsFullSet) {
    PdfField f = makePdfField<D3Q19>(16, 16, 16);
    std::size_t sliced = 0, full = 0;
    for (const auto& d : neighborhood26) {
        sliced += packedBytes<D3Q19>(f, d);
        full += packedBytes<D3Q19>(f, d, true);
    }
    // Faces: 5/19, edges 1/19, corners 0: the sliced exchange ships well
    // under a third of the naive volume.
    EXPECT_LT(double(sliced), 0.31 * double(full));
}

} // namespace
} // namespace walb::lbm
