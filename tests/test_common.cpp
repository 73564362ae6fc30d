/**
 * @file
 * Unit tests for the foundation layer: types and address arithmetic,
 * configuration validation, the deterministic RNG, the histogram, and
 * the table printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hpp"
#include "common/panic.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace plus {
namespace {

// --- types / address arithmetic --------------------------------------------

TEST(Types, PageArithmetic)
{
    EXPECT_EQ(pageOf(0), 0u);
    EXPECT_EQ(pageOf(kPageBytes - 1), 0u);
    EXPECT_EQ(pageOf(kPageBytes), 1u);
    EXPECT_EQ(wordOffsetOf(0), 0u);
    EXPECT_EQ(wordOffsetOf(4), 1u);
    EXPECT_EQ(wordOffsetOf(kPageBytes - 4), kPageWords - 1);
    EXPECT_EQ(pageBase(3), 3 * kPageBytes);
}

TEST(Types, Alignment)
{
    EXPECT_TRUE(wordAligned(0));
    EXPECT_TRUE(wordAligned(4096));
    EXPECT_FALSE(wordAligned(2));
    EXPECT_FALSE(wordAligned(7));
}

TEST(Types, PhysPageFormatting)
{
    EXPECT_EQ(toString(PhysPage{3, 17}), "n3.f17");
    EXPECT_EQ(toString(PhysAddr{{3, 17}, 5}), "n3.f17+o5");
    EXPECT_EQ(toString(PhysPage{}), "<invalid-page>");
}

TEST(Types, FlagMasks)
{
    EXPECT_EQ(kTopBit | kPayloadMask, ~0u);
    EXPECT_EQ(kTopBit & kPayloadMask, 0u);
    EXPECT_EQ(kPageWords * kWordBytes, kPageBytes);
}

// --- configuration -----------------------------------------------------------

TEST(Config, DefaultsValidate)
{
    MachineConfig cfg;
    cfg.validate();
    EXPECT_EQ(cfg.meshWidth(), 4u);
    EXPECT_EQ(cfg.meshHeight(), 4u);
}

TEST(Config, AutomaticMeshIsNearSquare)
{
    MachineConfig cfg;
    cfg.nodes = 7;
    cfg.validate();
    EXPECT_EQ(cfg.meshWidth(), 3u);
    EXPECT_EQ(cfg.meshHeight(), 3u);

    cfg.nodes = 64;
    cfg.validate();
    EXPECT_EQ(cfg.meshWidth(), 8u);
    EXPECT_EQ(cfg.meshHeight(), 8u);
}

TEST(Config, ExplicitMeshWidthRespected)
{
    MachineConfig cfg;
    cfg.nodes = 8;
    cfg.network.meshWidth = 8;
    cfg.validate();
    EXPECT_EQ(cfg.meshWidth(), 8u);
    EXPECT_EQ(cfg.meshHeight(), 1u);
}

TEST(Config, RejectsBadSettings)
{
    {
        MachineConfig cfg;
        cfg.nodes = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg;
        cfg.cost.pendingWriteEntries = 0;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg;
        cfg.network.meshWidth = 99;
        cfg.nodes = 4;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
}

TEST(Config, PaperDefaults)
{
    const CostModel cost;
    EXPECT_EQ(cost.procIssueOp, 25u);
    EXPECT_EQ(cost.procReadResult, 10u);
    EXPECT_EQ(cost.cmRmwSimple, 39u);
    EXPECT_EQ(cost.cmRmwComplex, 52u);
    EXPECT_EQ(cost.pendingWriteEntries, 8u);
    EXPECT_EQ(cost.delayedOpEntries, 8u);
    const NetworkConfig net;
    // 24-cycle adjacent round trip: 2 * (10 + 2).
    EXPECT_EQ(2 * (net.fixedCycles + net.perHopCycles), 24u);
    EXPECT_DOUBLE_EQ(net.bytesPerCycle, 0.8); // 20 MB/s at 40 ns
}

// --- RNG ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Xoshiro256 a(7);
    Xoshiro256 b(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a(), b());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Xoshiro256 a(1);
    Xoshiro256 b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += (a() == b());
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds)
{
    Xoshiro256 rng(3);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(rng.below(1), 0u);
    }
}

TEST(Rng, RangeIsInclusive)
{
    Xoshiro256 rng(4);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        saw_lo |= (v == 5);
        saw_hi |= (v == 8);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformCoversUnitInterval)
{
    Xoshiro256 rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// --- Histogram ----------------------------------------------------------------

TEST(Histogram, BasicMoments)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    for (double v : {1.0, 2.0, 3.0, 4.0}) {
        h.record(v);
    }
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.min(), 1.0);
    EXPECT_EQ(h.max(), 4.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
    EXPECT_DOUBLE_EQ(h.sum(), 10.0);
}

TEST(Histogram, Percentiles)
{
    Histogram h;
    for (int i = 1; i <= 100; ++i) {
        h.record(i);
    }
    EXPECT_EQ(h.percentile(0), 1.0);
    EXPECT_EQ(h.percentile(100), 100.0);
    EXPECT_NEAR(h.median(), 50.0, 1.0);
    EXPECT_NEAR(h.percentile(90), 90.0, 1.0);
}

TEST(Histogram, MergeAndClear)
{
    Histogram a;
    Histogram b;
    a.record(1);
    b.record(3);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    a.clear();
    EXPECT_EQ(a.count(), 0u);
}

TEST(Histogram, RecordAfterPercentileKeepsOrderCorrect)
{
    Histogram h;
    h.record(5);
    EXPECT_EQ(h.median(), 5.0);
    h.record(1); // re-sorts lazily
    EXPECT_EQ(h.percentile(0), 1.0);
}

TEST(Histogram, EmptyIsZeroEverywhere)
{
    const Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0), 0.0);
    EXPECT_EQ(h.median(), 0.0);
    EXPECT_EQ(h.percentile(100), 0.0);
}

TEST(Histogram, SingleSampleAtEveryPercentile)
{
    Histogram h;
    h.record(7);
    EXPECT_EQ(h.percentile(0), 7.0);
    EXPECT_EQ(h.median(), 7.0);
    EXPECT_EQ(h.percentile(100), 7.0);
    EXPECT_EQ(h.min(), 7.0);
    EXPECT_EQ(h.max(), 7.0);
    EXPECT_DOUBLE_EQ(h.mean(), 7.0);
}

TEST(Histogram, NearestRankBoundaries)
{
    Histogram h;
    for (double v : {10.0, 20.0, 30.0, 40.0}) {
        h.record(v);
    }
    // rank(p) = round(p/100 * (n-1)) over the sorted samples.
    EXPECT_EQ(h.percentile(0), 10.0);
    EXPECT_EQ(h.percentile(25), 20.0);  // rank 1.25 -> 1
    EXPECT_EQ(h.percentile(50), 30.0);  // rank 2
    EXPECT_EQ(h.percentile(100), 40.0); // clamped to n-1
}

TEST(Histogram, PercentileOutOfRangePanics)
{
    Histogram h;
    h.record(1);
    EXPECT_THROW(h.percentile(-1), PanicError);
    EXPECT_THROW(h.percentile(101), PanicError);
}

TEST(Histogram, MergeIntoEmptyAndFromEmpty)
{
    Histogram filled;
    filled.record(2);
    filled.record(8);

    Histogram empty;
    empty.merge(filled); // into empty: adopts the samples
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_EQ(empty.min(), 2.0);
    EXPECT_EQ(empty.max(), 8.0);

    const Histogram nothing;
    filled.merge(nothing); // from empty: no-op
    EXPECT_EQ(filled.count(), 2u);
    EXPECT_DOUBLE_EQ(filled.sum(), 10.0);
}

TEST(Histogram, ClearResetsExtremaForReuse)
{
    Histogram h;
    h.record(1000);
    h.record(-1000);
    h.clear();
    h.record(5);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 5.0);
    EXPECT_EQ(h.max(), 5.0);
    EXPECT_DOUBLE_EQ(h.sum(), 5.0);
}

// --- TablePrinter ---------------------------------------------------------------

TEST(Table, AlignsColumns)
{
    TablePrinter t("Title");
    t.setHeader({"a", "long-header", "c"});
    t.addRow({"1", "2", "3"});
    t.addRow({"wide-cell", "4", "5"});
    const std::string out = t.toString();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("wide-cell"), std::string::npos);
    // Separator line present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RowWidthMismatchPanics)
{
    TablePrinter t;
    t.setHeader({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(std::uint64_t{42}), "42");
}

TEST(Stats, SafeRatio)
{
    EXPECT_EQ(safeRatio(4, 2), 2.0);
    EXPECT_EQ(safeRatio(4, 0), 0.0);
    EXPECT_EQ(safeRatio(0, 0), 0.0);
    EXPECT_EQ(safeRatio(-6, 3), -2.0);
    EXPECT_EQ(safeRatio(0, 5), 0.0);
}

} // namespace
} // namespace plus
