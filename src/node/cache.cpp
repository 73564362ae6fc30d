#include "node/cache.hpp"

#include "common/panic.hpp"

namespace plus {
namespace node {

Cache::Cache(const CostModel& cost, SnoopPolicy policy)
    : lineWords_(cost.cacheLineWords),
      linesPerPage_(static_cast<unsigned>(kPageWords) / cost.cacheLineWords),
      ways_(cost.cacheWays), policy_(policy)
{
    const unsigned total_lines =
        cost.cacheBytes / (lineWords_ * static_cast<unsigned>(kWordBytes));
    PLUS_ASSERT(total_lines >= ways_, "cache smaller than one set");
    sets_ = total_lines / ways_;
    lines_.resize(static_cast<std::size_t>(sets_) * ways_);
}

Cache::Line*
Cache::find(std::uint64_t line)
{
    const unsigned set = static_cast<unsigned>(line % sets_);
    Line* base = &lines_[static_cast<std::size_t>(set) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid() && base[w].tag == line) {
            return &base[w];
        }
    }
    return nullptr;
}

void
Cache::insert(std::uint64_t line)
{
    const unsigned set = static_cast<unsigned>(line % sets_);
    Line* base = &lines_[static_cast<std::size_t>(set) * ways_];
    // The first invalid way if there is one (stamp 0), else the LRU way.
    Line* victim = &base[0];
    for (unsigned w = 1; w < ways_; ++w) {
        if (base[w].lruStamp < victim->lruStamp) {
            victim = &base[w];
        }
    }
    if (victim->valid()) {
        ++stats_.evictions;
    }
    victim->tag = line;
    victim->lruStamp = ++clock_;
}

bool
Cache::accessRead(FrameId frame, Addr word_offset)
{
    const std::uint64_t line = lineNumber(frame, word_offset);
    if (Line* hit = find(line)) {
        hit->lruStamp = ++clock_;
        ++stats_.hits;
        return true;
    }
    ++stats_.misses;
    insert(line);
    return false;
}

bool
Cache::accessWrite(FrameId frame, Addr word_offset)
{
    // Write-through, no write-allocate: presence unchanged on a miss.
    const std::uint64_t line = lineNumber(frame, word_offset);
    if (Line* hit = find(line)) {
        hit->lruStamp = ++clock_;
        return true;
    }
    return false;
}

void
Cache::snoop(FrameId frame, Addr word_offset)
{
    const std::uint64_t line = lineNumber(frame, word_offset);
    Line* hit = find(line);
    if (!hit) {
        return;
    }
    if (policy_ == SnoopPolicy::Update) {
        ++stats_.snoopUpdates;
    } else {
        hit->lruStamp = 0;
        ++stats_.snoopInvalidates;
    }
}

void
Cache::flush()
{
    for (Line& line : lines_) {
        line.lruStamp = 0;
    }
}

} // namespace node
} // namespace plus
