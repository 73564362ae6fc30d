#include "sim/timing_wheel.hpp"

#include <algorithm>
#include <bit>

#include "common/panic.hpp"

namespace plus {
namespace sim {

namespace {

/** Heap comparator: std::*_heap keeps the EventKey minimum at [0]. */
constexpr auto kPreLater = [](const auto& a, const auto& b) {
    return b.key < a.key;
};

/** Key tiebreak within one level-0 slot (equal `when` by invariant). */
bool
tieLess(const EventRecord& a, Cycles b_sched_when, std::uint64_t b_key2)
{
    if (a.schedWhen != b_sched_when) {
        return a.schedWhen < b_sched_when;
    }
    return a.key2 < b_key2;
}

bool
tieLess(const EventRecord& a, const EventRecord& b)
{
    return tieLess(a, b.schedWhen, b.key2);
}

} // namespace

TimingWheel::TimingWheel(EventSlab& slab) : slab_(slab)
{
    std::fill(std::begin(heads_), std::end(heads_), kNilRecord);
    std::fill(std::begin(tails_), std::end(tails_), kNilRecord);
}

unsigned
TimingWheel::levelOf(Cycles when, Cycles cursor)
{
    const Cycles differing = when ^ cursor;
    if (differing == 0) {
        return 0;
    }
    return static_cast<unsigned>(std::bit_width(differing) - 1) / kSlotBits;
}

unsigned
TimingWheel::cursorSlot(unsigned level) const
{
    return static_cast<unsigned>(cursor_ >> (kSlotBits * level)) &
           (kSlots - 1);
}

Cycles
TimingWheel::lowerBound(unsigned level, unsigned slot) const
{
    const unsigned aboveBits = kSlotBits * (level + 1);
    const Cycles base =
        aboveBits >= 64 ? 0 : (cursor_ >> aboveBits) << aboveBits;
    return base | (static_cast<Cycles>(slot) << (kSlotBits * level));
}

void
TimingWheel::insert(std::uint32_t idx)
{
    EventRecord& rec = slab_[idx];
    if (rec.when < cursor_) {
        // runUntil() probing advanced the cursor past now(); park the
        // event in the pre-cursor heap (always drained before the
        // wheel, so global EventKey order is preserved).
        rec.home = EventRecord::kHomePre;
        pre_.push_back(PreEntry{rec.key(), idx, rec.gen});
        std::push_heap(pre_.begin(), pre_.end(), kPreLater);
        return;
    }
    fileAt(idx, rec.when);
}

void
TimingWheel::fileAt(std::uint32_t idx, Cycles when)
{
    EventRecord& rec = slab_[idx];
    const unsigned level = levelOf(when, cursor_);
    const unsigned slot =
        static_cast<unsigned>(when >> (kSlotBits * level)) & (kSlots - 1);
    const unsigned home = level * kSlots + slot;

    rec.home = static_cast<std::uint16_t>(home);
    // Level-0 slots hold exactly one timestamp and are dispatched
    // head-first, so keep them sorted by the EventKey tiebreak. The
    // tail's key is cached, so the common in-order case appends
    // without reading the tail record. Higher levels are unordered
    // staging: the cascade refiles the whole list and level 0 sorts it.
    const bool append = tails_[home] == kNilRecord || level > 0 ||
                        !tieLess(rec, tailKey_[slot].schedWhen,
                                 tailKey_[slot].key2);
    if (level == 0 && append) {
        tailKey_[slot] = TailKey{rec.schedWhen, rec.key2};
    }
    if (tails_[home] == kNilRecord) {
        rec.next = kNilRecord;
        rec.prev = kNilRecord;
        heads_[home] = idx;
        tails_[home] = idx;
        pending_[level] |= Cycles{1} << slot;
        levelMask_ |= 1U << level;
        return;
    }
    if (append) {
        rec.next = kNilRecord;
        rec.prev = tails_[home];
        slab_[tails_[home]].next = idx;
        tails_[home] = idx;
        return;
    }
    // Scan back from the tail: machine-context keys arrive in
    // ascending order (the append above), node-context ties only scan
    // their own cycle.
    std::uint32_t at = tails_[home];
    while (at != kNilRecord && tieLess(rec, slab_[at])) {
        at = slab_[at].prev;
    }
    if (at == kNilRecord) {
        rec.prev = kNilRecord;
        rec.next = heads_[home];
        slab_[heads_[home]].prev = idx;
        heads_[home] = idx;
        return;
    }
    rec.prev = at;
    rec.next = slab_[at].next;
    slab_[at].next = idx;
    if (rec.next == kNilRecord) {
        tails_[home] = idx;
    } else {
        slab_[rec.next].prev = idx;
    }
}

void
TimingWheel::unlink(std::uint32_t idx, unsigned home)
{
    EventRecord& rec = slab_[idx];
    if (rec.prev != kNilRecord) {
        slab_[rec.prev].next = rec.next;
    } else {
        heads_[home] = rec.next;
    }
    if (rec.next != kNilRecord) {
        slab_[rec.next].prev = rec.prev;
    } else {
        tails_[home] = rec.prev;
        if (home < kSlots && rec.prev != kNilRecord) {
            const EventRecord& tail = slab_[rec.prev];
            tailKey_[home] = TailKey{tail.schedWhen, tail.key2};
        }
    }
    if (heads_[home] == kNilRecord) {
        const unsigned level = home / kSlots;
        pending_[level] &= ~(Cycles{1} << (home % kSlots));
        if (pending_[level] == 0) {
            levelMask_ &= ~(1U << level);
        }
    }
}

std::uint32_t
TimingWheel::popHead(unsigned slot)
{
    const std::uint32_t idx = heads_[slot];
    unlink(idx, slot);
    // The new head is most likely the next event dispatched: start
    // loading its record while this one's callback runs.
    if (heads_[slot] != kNilRecord) {
        slab_.prefetch(heads_[slot]);
    }
    return idx;
}

void
TimingWheel::remove(std::uint32_t idx)
{
    const EventRecord& rec = slab_[idx];
    if (rec.home == EventRecord::kHomePre) {
        // Lazy: the heap entry goes stale and is skipped on pop (the
        // caller frees the record, which bumps its generation).
        return;
    }
    PLUS_ASSERT(rec.home < kLevels * kSlots, "removing unfiled record ",
                idx);
    unlink(idx, rec.home);
}

std::uint32_t
TimingWheel::popPre(Cycles limit)
{
    while (!pre_.empty()) {
        const PreEntry top = pre_.front();
        const EventRecord& rec = slab_[top.idx];
        const bool stale =
            rec.gen != top.gen || rec.home != EventRecord::kHomePre;
        if (!stale && top.key.when > limit) {
            return kNilRecord;
        }
        std::pop_heap(pre_.begin(), pre_.end(), kPreLater);
        pre_.pop_back();
        if (!stale) {
            return top.idx;
        }
    }
    return kNilRecord;
}

std::uint32_t
TimingWheel::extractNext(Cycles limit)
{
    // Events below the cursor strictly precede everything on the
    // wheel (pre.when < cursor_ <= wheel lower bounds).
    if (!pre_.empty()) {
        const std::uint32_t idx = popPre(limit);
        if (idx != kNilRecord) {
            return idx;
        }
        if (!pre_.empty()) {
            return kNilRecord; // valid pre entry beyond the limit
        }
    }

    // Level-0 fast path: an occupied near slot lies inside the
    // cursor's 64-cycle window, before every higher-level slot, so it
    // holds the next event and no other level needs scanning.
    if (pending_[0] != 0) {
        const unsigned slot =
            static_cast<unsigned>(std::countr_zero(pending_[0]));
        PLUS_ASSERT(slot >= cursorSlot(0), "wheel slot behind cursor");
        const Cycles when = lowerBound(0, slot);
        if (when > limit) {
            return kNilRecord;
        }
        cursor_ = when;
        return popHead(slot);
    }

    for (;;) {
        int bestLevel = -1;
        Cycles bestLb = 0;
        for (std::uint32_t mask = levelMask_; mask != 0;
             mask &= mask - 1) {
            const unsigned level =
                static_cast<unsigned>(std::countr_zero(mask));
            // Invariant: every occupied slot sits at or after the
            // cursor's position within its level, so the mask below
            // never erases the whole bitmap.
            const std::uint64_t ahead =
                pending_[level] & (~std::uint64_t{0} << cursorSlot(level));
            PLUS_ASSERT(ahead != 0, "wheel slot behind cursor at level ",
                        level);
            const unsigned slot =
                static_cast<unsigned>(std::countr_zero(ahead));
            const Cycles lb = lowerBound(level, slot);
            if (bestLevel < 0 || lb < bestLb) {
                bestLevel = static_cast<int>(level);
                bestLb = lb;
            }
        }
        if (bestLevel < 0 || bestLb > limit) {
            return kNilRecord; // empty, or next event past the limit
        }

        cursor_ = bestLb;
        const unsigned level = static_cast<unsigned>(bestLevel);
        const unsigned home =
            level * kSlots +
            (static_cast<unsigned>(bestLb >> (kSlotBits * level)) &
             (kSlots - 1));
        if (level == 0) {
            // Level-0 slots hold exactly one timestamp; pop the head.
            return popHead(home);
        }

        // Cascade: refile the whole slot list (in order) now that the
        // cursor entered its window; everything lands strictly lower.
        ++cascades_;
        std::uint32_t idx = heads_[home];
        heads_[home] = kNilRecord;
        tails_[home] = kNilRecord;
        pending_[level] &= ~(Cycles{1} << (home % kSlots));
        if (pending_[level] == 0) {
            levelMask_ &= ~(1U << level);
        }
        while (idx != kNilRecord) {
            const std::uint32_t next = slab_[idx].next;
            fileAt(idx, slab_[idx].when);
            idx = next;
        }
    }
}

} // namespace sim
} // namespace plus
