/**
 * @file
 * Unit tests for the processor cache timing model: hits/misses,
 * associativity, LRU replacement, write-through behaviour, and node-bus
 * snooping in both update and invalidate policies.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "node/cache.hpp"

namespace plus {
namespace node {
namespace {

CostModel
smallCache()
{
    CostModel cost;
    cost.cacheBytes = 256; // 16 lines of 4 words
    cost.cacheLineWords = 4;
    cost.cacheWays = 2; // 8 sets
    return cost;
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.accessRead(0, 0));
    EXPECT_TRUE(cache.accessRead(0, 0));
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Cache, WholeLineHitsAfterOneFill)
{
    Cache cache(smallCache());
    cache.accessRead(0, 4);
    EXPECT_TRUE(cache.accessRead(0, 5));
    EXPECT_TRUE(cache.accessRead(0, 6));
    EXPECT_TRUE(cache.accessRead(0, 7));
    EXPECT_FALSE(cache.accessRead(0, 8)); // next line
}

TEST(Cache, DifferentFramesDoNotAlias)
{
    Cache cache(smallCache());
    cache.accessRead(0, 0);
    // Frame 1's line 0 maps to a different global line number.
    EXPECT_FALSE(cache.accessRead(1, 0));
}

TEST(Cache, TwoWaysHoldConflictingLines)
{
    Cache cache(smallCache());
    // Lines 0 and 8 map to the same set (8 sets): both fit (2 ways).
    cache.accessRead(0, 0);
    cache.accessRead(0, 32); // line 8 -> set 0
    EXPECT_TRUE(cache.accessRead(0, 0));
    EXPECT_TRUE(cache.accessRead(0, 32));
}

TEST(Cache, LruEvictsOldest)
{
    Cache cache(smallCache());
    cache.accessRead(0, 0);  // line 0 -> set 0
    cache.accessRead(0, 32); // line 8 -> set 0
    cache.accessRead(0, 0);  // touch line 0 (now MRU)
    cache.accessRead(0, 64); // line 16 -> set 0: evicts line 8
    EXPECT_TRUE(cache.accessRead(0, 0));
    EXPECT_FALSE(cache.accessRead(0, 32));
    EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(Cache, WriteThroughDoesNotAllocate)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.accessWrite(0, 0));
    EXPECT_FALSE(cache.accessRead(0, 0)); // still a miss
}

TEST(Cache, WriteUpdatesPresentLine)
{
    Cache cache(smallCache());
    cache.accessRead(0, 0);
    EXPECT_TRUE(cache.accessWrite(0, 1));
}

TEST(Cache, SnoopUpdateKeepsLineValid)
{
    Cache cache(smallCache(), SnoopPolicy::Update);
    cache.accessRead(0, 0);
    cache.snoop(0, 2); // coherence manager wrote word 2 of the line
    EXPECT_TRUE(cache.accessRead(0, 0));
    EXPECT_EQ(cache.stats().snoopUpdates, 1u);
}

TEST(Cache, SnoopInvalidateEvictsLine)
{
    Cache cache(smallCache(), SnoopPolicy::Invalidate);
    cache.accessRead(0, 0);
    cache.snoop(0, 2);
    EXPECT_FALSE(cache.accessRead(0, 0));
    EXPECT_EQ(cache.stats().snoopInvalidates, 1u);
}

TEST(Cache, SnoopOfAbsentLineIsIgnored)
{
    Cache cache(smallCache());
    cache.snoop(3, 100);
    EXPECT_EQ(cache.stats().snoopUpdates, 0u);
}

TEST(Cache, FlushDropsEverything)
{
    Cache cache(smallCache());
    cache.accessRead(0, 0);
    cache.accessRead(1, 0);
    cache.flush();
    EXPECT_FALSE(cache.accessRead(0, 0));
    EXPECT_FALSE(cache.accessRead(1, 0));
}

/** 16 lines of 4 words in 4 ways: 4 sets, so lines 0, 4, 8, ... share set 0. */
CostModel
fourWayCache()
{
    CostModel cost = smallCache();
    cost.cacheWays = 4;
    return cost;
}

/** Word offset in frame 0 of global line @p line. */
constexpr Addr
wordOfLine(unsigned line)
{
    return static_cast<Addr>(line) * 4;
}

TEST(Cache, InvalidatedWayRefillsBeforeAnyEviction)
{
    Cache cache(fourWayCache(), SnoopPolicy::Invalidate);
    for (unsigned line : {0u, 4u, 8u, 12u}) {
        EXPECT_FALSE(cache.accessRead(0, wordOfLine(line)));
    }
    cache.snoop(0, wordOfLine(4));
    EXPECT_FALSE(cache.accessRead(0, wordOfLine(16))); // takes line 4's way
    EXPECT_EQ(cache.stats().evictions, 0u);
    for (unsigned line : {0u, 8u, 12u, 16u}) {
        EXPECT_TRUE(cache.accessRead(0, wordOfLine(line))) << line;
    }
    // Full again: the next fill evicts the least recently used, line 0.
    EXPECT_FALSE(cache.accessRead(0, wordOfLine(20)));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.accessRead(0, wordOfLine(0)));
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.stats().snoopInvalidates, 1u);
}

TEST(Cache, ScriptedSequenceCountsHitsMissesEvictions)
{
    Cache cache(fourWayCache());
    // Set 0 sees five distinct lines through four ways; set 1 sees one.
    const unsigned script[] = {0, 4, 8, 12, 0, 16, 4, 1, 1, 8, 12, 0};
    const bool hit[] = {false, false, false, false, true, false,
                        false, false, true,  false, false, false};
    for (std::size_t i = 0; i < std::size(script); ++i) {
        EXPECT_EQ(cache.accessRead(0, wordOfLine(script[i])), hit[i])
            << "access " << i << " to line " << script[i];
    }
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 10u);
    EXPECT_EQ(cache.stats().evictions, 5u);
}

TEST(Cache, FlushedWaysRefillWithoutEvictions)
{
    Cache cache(fourWayCache());
    for (unsigned line : {0u, 4u, 8u, 12u}) {
        cache.accessRead(0, wordOfLine(line));
    }
    cache.flush();
    for (unsigned line : {16u, 20u, 24u, 28u}) {
        EXPECT_FALSE(cache.accessRead(0, wordOfLine(line)));
    }
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(Cache, NeverFilledCacheHoldsNoLinesAndMissesEveryProbe)
{
    Cache cache(CostModel{}, SnoopPolicy::Invalidate);
    EXPECT_EQ(cache.storageBytes(), 0u);
    for (FrameId frame = 0; frame < 4; ++frame) {
        for (Addr word = 0; word < kPageWords; word += 37) {
            EXPECT_FALSE(cache.accessWrite(frame, word));
            cache.snoop(frame, word);
        }
    }
    cache.flush();
    EXPECT_EQ(cache.storageBytes(), 0u);
    const Cache::Stats& stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.evictions, 0u);
    EXPECT_EQ(stats.snoopUpdates + stats.snoopInvalidates, 0u);
}

TEST(Cache, FirstFillAllocatesLinesAndPicksWayZero)
{
    Cache cache(fourWayCache());
    EXPECT_EQ(cache.storageBytes(), 0u);
    EXPECT_FALSE(cache.accessRead(0, wordOfLine(0)));
    EXPECT_GT(cache.storageBytes(), 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    // The first fill took an invalid way; the other three still fill
    // without evicting, and the fifth line evicts the first (LRU).
    for (unsigned line : {4u, 8u, 12u}) {
        EXPECT_FALSE(cache.accessRead(0, wordOfLine(line)));
    }
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_FALSE(cache.accessRead(0, wordOfLine(16)));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.accessRead(0, wordOfLine(0)));
    EXPECT_TRUE(cache.accessRead(0, wordOfLine(12)));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 6u);
}

TEST(Cache, PaperGeometry)
{
    // 32 Kbyte, 4-word lines, 2 ways: 2048 lines, 1024 sets.
    CostModel cost;
    Cache cache(cost);
    EXPECT_EQ(cache.ways(), 2u);
    EXPECT_EQ(cache.sets(), 1024u);
}

} // namespace
} // namespace node
} // namespace plus
