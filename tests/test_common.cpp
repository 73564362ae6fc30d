/**
 * @file
 * Unit tests for the foundation layer: types and address arithmetic,
 * configuration validation, the deterministic RNG, the histogram, and
 * the table printer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/id_map.hpp"
#include "common/panic.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/tag_slots.hpp"
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

// --- Histogram against a sorted-sample reference ----------------------------

/**
 * Reference that keeps every sample: count, sum, min and max accumulated
 * per record, percentiles by nearest rank over the sorted samples, merge
 * by recording the other side's samples again.
 */
class SortedReference
{
  public:
    void
    record(double v)
    {
        samples_.push_back(v);
        sum_ += v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    void
    merge(const SortedReference& other)
    {
        for (double v : other.samples_) {
            record(v);
        }
    }

    std::uint64_t count() const { return samples_.size(); }
    double sum() const { return sum_; }
    double min() const { return count() ? min_ : 0.0; }
    double max() const { return count() ? max_ : 0.0; }
    double mean() const { return count() ? sum_ / count() : 0.0; }

    double
    percentile(double p) const
    {
        if (samples_.empty()) {
            return 0.0;
        }
        std::vector<double> sorted = samples_;
        std::sort(sorted.begin(), sorted.end());
        const auto n = sorted.size();
        const auto rank = static_cast<std::size_t>(p / 100.0 * (n - 1) + 0.5);
        return sorted[std::min(rank, n - 1)];
    }

  private:
    std::vector<double> samples_;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Every percentile the metrics registry reports, plus both ends. */
constexpr double kReportedRanks[] = {0.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0};

/** Bit-for-bit equality, so that 0.0 and -0.0 are told apart. */
::testing::AssertionResult
sameBits(double got, double want)
{
    if (std::bit_cast<std::uint64_t>(got) ==
        std::bit_cast<std::uint64_t>(want)) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << got << " != " << want;
}

void
expectMatches(const Histogram& h, const SortedReference& ref)
{
    EXPECT_EQ(h.count(), ref.count());
    EXPECT_TRUE(sameBits(h.sum(), ref.sum()));
    EXPECT_TRUE(sameBits(h.min(), ref.min()));
    EXPECT_TRUE(sameBits(h.max(), ref.max()));
    EXPECT_TRUE(sameBits(h.mean(), ref.mean()));
    double batch[std::size(kReportedRanks)];
    h.percentiles(kReportedRanks, batch, std::size(kReportedRanks));
    for (std::size_t i = 0; i < std::size(kReportedRanks); ++i) {
        const double p = kReportedRanks[i];
        EXPECT_TRUE(sameBits(h.percentile(p), ref.percentile(p))) << "p" << p;
        EXPECT_TRUE(sameBits(batch[i], ref.percentile(p))) << "batch p" << p;
    }
}

/** Kinds of value a trial draws from. */
enum class ValueKind {
    DenseInteger,  ///< small non-negative integer, counted densely
    LargeInteger,  ///< integer at or past the dense range's edge
    Fraction,      ///< arbitrary non-integer
    QuarterStep,   ///< multiple of 0.25: sums stay exact in any order
    Negative,      ///< negative integer or fraction
    Repeat,        ///< one of three values drawn over and over
};

double
draw(Xoshiro256& rng, ValueKind kind)
{
    constexpr auto kEdge = static_cast<std::uint64_t>(Histogram::kDenseLimit);
    switch (kind) {
    case ValueKind::DenseInteger:
        return static_cast<double>(rng.below(2000));
    case ValueKind::LargeInteger:
        return static_cast<double>(rng.range(kEdge - 3, 4 * kEdge));
    case ValueKind::Fraction:
        return rng.uniform() * 1000.0;
    case ValueKind::QuarterStep:
        return static_cast<double>(rng.below(4000)) * 0.25;
    case ValueKind::Negative:
        return rng.chance(0.5) ? -static_cast<double>(rng.range(1, 500))
                               : -rng.uniform() * 500.0;
    case ValueKind::Repeat:
        return std::array<double, 3>{3.0, 40.5, 70000.0}[rng.below(3)];
    }
    return 0.0;
}

/**
 * A random, non-empty subset of the kinds; with @p exact_sums, only the
 * kinds whose sums come out the same in any order of addition.
 */
std::vector<ValueKind>
kindsFor(Xoshiro256& rng, bool exact_sums)
{
    std::vector<ValueKind> kinds;
    for (ValueKind k : {ValueKind::DenseInteger, ValueKind::LargeInteger,
                        ValueKind::Fraction, ValueKind::QuarterStep,
                        ValueKind::Negative, ValueKind::Repeat}) {
        // Merges add sums as totals, so their trials keep to values
        // whose sums are exact whatever the order of addition.
        const bool inexact =
            k == ValueKind::Fraction || k == ValueKind::Negative;
        if ((!exact_sums || !inexact) && rng.chance(0.5)) {
            kinds.push_back(k);
        }
    }
    if (kinds.empty()) {
        kinds.push_back(ValueKind::DenseInteger);
    }
    return kinds;
}

void
fill(Xoshiro256& rng, const std::vector<ValueKind>& kinds, std::size_t n,
     Histogram& h, SortedReference& ref)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double v = draw(rng, kinds[rng.below(kinds.size())]);
        h.record(v);
        ref.record(v);
    }
}

TEST(Histogram, MatchesSortedReferenceOnSeededMixes)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Xoshiro256 rng(seed);
        const auto kinds = kindsFor(rng, false);
        Histogram h;
        SortedReference ref;
        // Some trials stay empty; most see a few hundred samples.
        fill(rng, kinds, rng.below(6) == 0 ? 0 : rng.range(1, 600), h, ref);
        expectMatches(h, ref);
    }
}

TEST(Histogram, MergeMatchesSortedReferenceBothWays)
{
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Xoshiro256 rng(seed * 7919);
        const auto kinds = kindsFor(rng, true);
        Histogram a;
        Histogram b;
        SortedReference refA;
        SortedReference refB;
        fill(rng, kinds, rng.below(4) == 0 ? 0 : rng.range(1, 300), a, refA);
        fill(rng, kinds, rng.below(4) == 0 ? 0 : rng.range(1, 300), b, refB);

        Histogram ab = a;
        SortedReference refAb = refA;
        ab.merge(b);
        refAb.merge(refB);
        expectMatches(ab, refAb);

        Histogram ba = b;
        SortedReference refBa = refB;
        ba.merge(a);
        refBa.merge(refA);
        expectMatches(ba, refBa);
    }
}

TEST(Histogram, ClearThenRefillMatchesSortedReference)
{
    Xoshiro256 rng(42);
    const std::vector<ValueKind> all = {
        ValueKind::DenseInteger, ValueKind::LargeInteger,
        ValueKind::Fraction,     ValueKind::QuarterStep,
        ValueKind::Negative,     ValueKind::Repeat};
    Histogram h;
    SortedReference first;
    fill(rng, all, 500, h, first);
    h.clear();
    expectMatches(h, SortedReference{});
    SortedReference second;
    fill(rng, {ValueKind::DenseInteger}, 50, h, second);
    expectMatches(h, second);
}

TEST(Histogram, NegativeZeroKeepsItsSign)
{
    Histogram h;
    SortedReference ref;
    for (double v : {-0.0, -0.0, 1.0}) {
        h.record(v);
        ref.record(v);
    }
    expectMatches(h, ref);
    EXPECT_TRUE(std::signbit(h.percentile(0)));
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

// --- flat tables ---------------------------------------------------------

TEST(TagSlots, ReusesFreedSlotsAndIteratesInSlotOrder)
{
    TagSlots<int> slots(2);
    slots.insert(7, 70);
    slots.insert(9, 90);
    slots.insert(4, 40); // grows a third slot
    EXPECT_EQ(slots.size(), 3u);
    EXPECT_EQ(slots.take(9), 90);
    EXPECT_FALSE(slots.contains(9));
    slots.insert(12, 120); // reuses the freed middle slot
    std::vector<std::uint32_t> order;
    slots.forEach([&](std::uint32_t tag, int) { order.push_back(tag); });
    EXPECT_EQ(order, (std::vector<std::uint32_t>{7, 12, 4}));
    EXPECT_FALSE(slots.erase(9));
    EXPECT_TRUE(slots.erase(7));
    ASSERT_NE(slots.find(12), nullptr);
    EXPECT_EQ(*slots.find(12), 120);
    EXPECT_EQ(slots.find(0), nullptr); // the free-slot marker is no key
    EXPECT_THROW(slots.insert(0, 1), PanicError);
    slots.clear();
    EXPECT_TRUE(slots.empty());
}

TEST(IdMap, MatchesAnOrderedMapUnderRandomChurn)
{
    // Dense, clustered ids like chain ids (node << 32 | counter) force
    // long probe runs, so erase's backward shift gets exercised.
    IdMap<std::uint64_t> map;
    std::map<std::uint64_t, std::uint64_t> reference;
    Xoshiro256 rng(17);
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t id =
            (rng.below(4) << 32U) | (1 + rng.below(300));
        if (rng.below(3) == 0) {
            EXPECT_EQ(map.erase(id), reference.erase(id) == 1);
        } else if (!reference.count(id)) {
            map.insert(id, id * 3);
            reference[id] = id * 3;
        }
        ASSERT_EQ(map.size(), reference.size());
    }
    for (const auto& [id, value] : reference) {
        ASSERT_NE(map.find(id), nullptr) << id;
        EXPECT_EQ(*map.find(id), value);
    }
    std::size_t visited = 0;
    map.forEach([&](std::uint64_t& value) {
        EXPECT_EQ(reference.at(value / 3), value);
        ++visited;
    });
    EXPECT_EQ(visited, reference.size());
    EXPECT_FALSE(map.contains(0));
    EXPECT_THROW(map.insert(0, 1), PanicError);
}

} // namespace
} // namespace plus
