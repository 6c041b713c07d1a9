/// Tests for the lattice field data structures: layouts, strides, ghost
/// layers, swapping, and the flag field.

#include <gtest/gtest.h>

#include "field/Field.h"
#include "field/FlagField.h"

namespace walb::field {
namespace {

class FieldLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(FieldLayoutTest, SizesAndGhostLayers) {
    Field<double> f(4, 5, 6, 19, GetParam(), 0.0, 2);
    EXPECT_EQ(f.xSize(), 4);
    EXPECT_EQ(f.ySize(), 5);
    EXPECT_EQ(f.zSize(), 6);
    EXPECT_EQ(f.fSize(), 19u);
    EXPECT_EQ(f.ghostLayers(), 2);
    EXPECT_EQ(f.xAllocSize(), 8);
    EXPECT_EQ(f.allocCells(), std::size_t(8 * 9 * 10 * 19));
}

TEST_P(FieldLayoutTest, GetSetRoundTripIncludingGhost) {
    Field<double> f(3, 3, 3, 2, GetParam(), 0.0, 1);
    double v = 0;
    f.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        f.get(x, y, z, 0) = v;
        f.get(x, y, z, 1) = -v;
        v += 1.0;
    });
    v = 0;
    f.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        EXPECT_DOUBLE_EQ(f.get(x, y, z, 0), v);
        EXPECT_DOUBLE_EQ(f.get(x, y, z, 1), -v);
        v += 1.0;
    });
}

TEST_P(FieldLayoutTest, DistinctAddressesForAllSlots) {
    Field<int> f(3, 2, 2, 3, GetParam(), 0, 1);
    // Write a unique value everywhere; any stride aliasing would clobber.
    int v = 1;
    f.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        for (cell_idx_t ff = 0; ff < 3; ++ff) f.get(x, y, z, ff) = v++;
    });
    v = 1;
    bool ok = true;
    f.forAllIncludingGhost([&](cell_idx_t x, cell_idx_t y, cell_idx_t z) {
        for (cell_idx_t ff = 0; ff < 3; ++ff) ok = ok && (f.get(x, y, z, ff) == v++);
    });
    EXPECT_TRUE(ok);
}

TEST_P(FieldLayoutTest, SwapDataIsO1AndExchangesContents) {
    Field<double> a(4, 4, 4, 2, GetParam(), 1.0, 1);
    Field<double> b(4, 4, 4, 2, GetParam(), 2.0, 1);
    const double* pa = a.data();
    const double* pb = b.data();
    a.swapDataWith(b);
    EXPECT_EQ(a.data(), pb);
    EXPECT_EQ(b.data(), pa);
    EXPECT_DOUBLE_EQ(a.get(0, 0, 0, 0), 2.0);
    EXPECT_DOUBLE_EQ(b.get(0, 0, 0, 0), 1.0);
}

TEST_P(FieldLayoutTest, CopyConstructorDeepCopies) {
    Field<double> a(2, 2, 2, 1, GetParam(), 3.5, 1);
    Field<double> b(a);
    b.get(0, 0, 0, 0) = -1.0;
    EXPECT_DOUBLE_EQ(a.get(0, 0, 0, 0), 3.5);
    EXPECT_DOUBLE_EQ(b.get(1, 1, 1, 0), 3.5);
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, FieldLayoutTest,
                         ::testing::Values(Layout::fzyx, Layout::zyxf),
                         [](const auto& tinfo) {
                             return tinfo.param == Layout::fzyx ? "SoA" : "AoS";
                         });

TEST(Field, SoAHasUnitXStrideAndContiguousDirectionSlabs) {
    Field<double> f(5, 4, 3, 19, Layout::fzyx, 0.0, 1);
    EXPECT_EQ(f.xStride(), 1);
    EXPECT_EQ(f.fStride(), 7 * 6 * 5);
    // Consecutive x cells of one direction are adjacent in memory.
    EXPECT_EQ(f.dataAt(1, 0, 0, 4) - f.dataAt(0, 0, 0, 4), 1);
}

TEST(Field, AoSHasUnitFStride) {
    Field<double> f(5, 4, 3, 19, Layout::zyxf, 0.0, 1);
    EXPECT_EQ(f.fStride(), 1);
    EXPECT_EQ(f.xStride(), 19);
    EXPECT_EQ(f.dataAt(0, 0, 0, 1) - f.dataAt(0, 0, 0, 0), 1);
}

TEST(Field, DataIsCacheLineAligned) {
    Field<double> f(7, 3, 3, 19, Layout::fzyx, 0.0, 1);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(f.data()) % kCacheLineBytes, 0u);
}

TEST(Field, InteriorIntervalMatchesSizes) {
    Field<double> f(4, 5, 6, 1, Layout::fzyx, 0.0, 2);
    EXPECT_EQ(f.interior(), CellInterval(0, 0, 0, 3, 4, 5));
    EXPECT_EQ(f.allocRegion(), CellInterval(-2, -2, -2, 5, 6, 7));
}

TEST(FlagField, RegisterAndQueryFlags) {
    FlagField ff(4, 4, 4, 1);
    const flag_t fluid = ff.registerFlag("fluid");
    const flag_t wall = ff.registerFlag("wall");
    EXPECT_NE(fluid, wall);
    EXPECT_EQ(ff.registerFlag("fluid"), fluid); // idempotent
    EXPECT_EQ(ff.flag("wall"), wall);

    ff.addFlag(1, 1, 1, fluid);
    ff.addFlag(1, 1, 1, wall);
    EXPECT_TRUE(ff.isFlagSet(1, 1, 1, fluid));
    EXPECT_TRUE(ff.isFlagSet(1, 1, 1, wall));
    ff.removeFlag(1, 1, 1, wall);
    EXPECT_FALSE(ff.isFlagSet(1, 1, 1, wall));
    EXPECT_TRUE(ff.isFlagSet(1, 1, 1, fluid));
}

TEST(FlagField, CountCountsInteriorOnly) {
    FlagField ff(3, 3, 3, 1);
    const flag_t fluid = ff.registerFlag("fluid");
    ff.addFlag(0, 0, 0, fluid);
    ff.addFlag(2, 2, 2, fluid);
    ff.addFlag(-1, 0, 0, fluid); // ghost, must not count
    EXPECT_EQ(ff.count(fluid), 2u);
}

TEST(FlagField, EightFlagsFitOneByte) {
    FlagField ff(2, 2, 2);
    for (int i = 0; i < 8; ++i) ff.registerFlag("f" + std::to_string(i));
    EXPECT_EQ(ff.flag("f7"), 128);
}

TEST(RowTable, SparseRowsAddressOnlyTheirCells) {
    // 3x2x1 cells, one ghost layer: 4 x 3 rows of 5 cells.
    std::vector<RowTable::Interval> rows(12);
    rows[1 * 4 + 1] = {0, 2};  // (y, z) = (0, 0)
    rows[1 * 4 + 2] = {-1, 0}; // (1, 0)
    rows[2 * 4 + 2] = {3, 3};  // (1, 1), a ghost row
    const auto table = std::make_shared<const RowTable>(3, 2, 1, 1, rows);
    EXPECT_EQ(table->cells(), 6u);
    EXPECT_EQ(table->slotStride() % 512, 8u); // one line past a 4 KiB multiple
    Field<double> f(table, 2, noFill);
    EXPECT_EQ(f.allocCells(), 2 * table->slotStride());
    EXPECT_EQ(f.fStride(), cell_idx_c(table->slotStride()));
    EXPECT_TRUE(f.isStored(2, 0, 0));
    EXPECT_FALSE(f.isStored(3, 0, 0));
    EXPECT_FALSE(f.isStored(0, -1, 0));
    EXPECT_EQ(f.index(0, 0, 0), 0u);
    EXPECT_EQ(f.index(-1, 1, 0), 3u);
    EXPECT_EQ(f.index(3, 1, 1, 1), table->slotStride() + 5);
    for (std::size_t pos = 0; pos < table->cells(); ++pos) {
        const Cell c = table->cellAt(pos);
        EXPECT_EQ(f.index(c.x, c.y, c.z), pos);
    }
    // Widening keeps the order of the rows and adds the new cells.
    const auto wider = table->including({{2, 1, 0}, {0, -1, -1}});
    EXPECT_EQ(wider->cells(), 9u);
    EXPECT_EQ(wider->interval(1, 0).lo, -1);
    EXPECT_EQ(wider->interval(1, 0).hi, 2);
    Field<double> g(wider, 2, noFill);
    for (cell_idx_t k = 0; k < 2; ++k)
        for (std::size_t pos = 0; pos < table->cells(); ++pos) {
            const Cell c = table->cellAt(pos);
            f.get(c, k) = double(pos) + 10 * double(k);
        }
    g.copyStoredRowsFrom(f);
    for (cell_idx_t k = 0; k < 2; ++k)
        for (std::size_t pos = 0; pos < table->cells(); ++pos)
            EXPECT_EQ(g.get(table->cellAt(pos), k), double(pos) + 10 * double(k));
}

TEST(RowTable, FullTableIsThePlainAllocation) {
    const auto full = RowTable::full(4, 3, 2, 1);
    Field<double> f(4, 3, 2, 19, Layout::fzyx, 0.0, 1);
    EXPECT_EQ(full->slotStride(), std::size_t(f.fStride()));
    EXPECT_TRUE(*full == *f.rowTable());
    for (cell_idx_t z = -1; z <= 2; ++z)
        for (cell_idx_t y = -1; y <= 3; ++y) {
            EXPECT_EQ(std::size_t(full->rowOffset(y, z) - 1), f.index(-1, y, z));
            EXPECT_EQ(full->cellAt(f.index(2, y, z)), (Cell{2, y, z}));
        }
}

} // namespace
} // namespace walb::field
