/**
 * @file
 * Timing model of the processor's primary cache (32 Kbyte, 4-word lines
 * in the 1990 implementation).
 *
 * Only *local* physical memory is cached; remote references always go
 * through the coherence manager. Because replicated pages must use a
 * write-through policy (all writes must be visible to the coherence
 * manager, Section 2.3), the cache stores no dirty data: the model tracks
 * line presence for timing, while word values always live in LocalMemory.
 * A snooping protocol on the node bus keeps the cache coherent whenever
 * the coherence manager writes local memory; the paper's write-update
 * snoop keeps the line valid, and an invalidating snoop is provided for
 * ablation.
 */

#ifndef PLUS_NODE_CACHE_HPP_
#define PLUS_NODE_CACHE_HPP_

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace plus {
namespace node {

/** How the node-bus snoop treats a line written by the coherence manager. */
enum class SnoopPolicy {
    Update,     ///< keep the line valid (the paper's design)
    Invalidate, ///< evict the line (forces a re-fetch; ablation)
};

/** Set-associative, LRU, presence-only cache model. */
class Cache
{
  public:
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t snoopUpdates = 0;
        std::uint64_t snoopInvalidates = 0;
    };

    Cache(const CostModel& cost, SnoopPolicy policy = SnoopPolicy::Update);

    /**
     * Look up the line containing (frame, word offset) for a read,
     * filling it on a miss. @return true on a hit.
     */
    bool accessRead(FrameId frame, Addr word_offset);

    /**
     * Write-through store: updates the line if present (no write
     * allocation on a miss). @return true if the line was present.
     */
    bool accessWrite(FrameId frame, Addr word_offset);

    /** Node-bus snoop for a word written by the coherence manager. */
    void snoop(FrameId frame, Addr word_offset);

    /** Drop all lines (e.g. after a page is remapped). */
    void flush();

    const Stats& stats() const { return stats_; }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

  private:
    /**
     * One way. The clock starts stamps at 1, so a zero stamp marks an
     * invalid line, which also makes it the least recently used way of
     * its set.
     */
    struct Line {
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;

        bool valid() const { return lruStamp != 0; }
    };

    /** Global line number of (frame, word offset). */
    std::uint64_t
    lineNumber(FrameId frame, Addr word_offset) const
    {
        return static_cast<std::uint64_t>(frame) * linesPerPage_ +
               word_offset / lineWords_;
    }

    Line* find(std::uint64_t line);
    void insert(std::uint64_t line);

    unsigned lineWords_;
    unsigned linesPerPage_;
    unsigned sets_;
    unsigned ways_;
    SnoopPolicy policy_;
    std::vector<Line> lines_; ///< sets_ * ways_, set-major
    std::uint64_t clock_ = 0;
    Stats stats_;
};

} // namespace node
} // namespace plus

#endif // PLUS_NODE_CACHE_HPP_
