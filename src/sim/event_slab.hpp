/**
 * @file
 * Slab allocator for engine event records.
 *
 * Event records live in fixed 256-slot chunks that are never moved or
 * freed while the engine is alive, so raw indices stay valid across
 * growth and callbacks may schedule freely mid-dispatch. A free list
 * threaded through the records makes allocate/free O(1), and a
 * generation counter per slot lets `Engine::cancel()` reject stale
 * `EventId`s without any tombstone bookkeeping. Under AddressSanitizer
 * the callable storage of freed records is poisoned so use-after-free
 * of a dead event trips the sanitizer stage of CI.
 */

#ifndef PLUS_SIM_EVENT_SLAB_HPP_
#define PLUS_SIM_EVENT_SLAB_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/panic.hpp"
#include "common/types.hpp"
#include "sim/event.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PLUS_SIM_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define PLUS_SIM_ASAN 1
#endif

#ifdef PLUS_SIM_ASAN
#include <sanitizer/asan_interface.h>
#define PLUS_SIM_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define PLUS_SIM_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define PLUS_SIM_POISON(addr, size) ((void)0)
#define PLUS_SIM_UNPOISON(addr, size) ((void)0)
#endif

namespace plus {
namespace sim {

/** Null link / "no record" index. */
inline constexpr std::uint32_t kNilRecord = 0xffffffffU;

/**
 * Execution lane of an event: the node whose context it runs in, or
 * kMachineLane for machine-level events (config scripts, watchdog,
 * page-management ops). The lane decides the scheduling context an
 * event executes under, which in turn keys its children.
 */
inline constexpr std::uint16_t kMachineLane = 0xffff;

/**
 * Canonical, partition-independent dispatch key. Events execute in
 * ascending (when, schedWhen, key2) order in *every* backend; the key
 * is derived purely from the scheduling context (which node/machine
 * scheduled it, that context's execution step, and a per-context child
 * counter), never from global insertion order, so the wheel and the
 * heap oracle realise the same total order. `key2` packs
 * `schedNode:16 | step:32 | child:16`.
 */
struct EventKey {
    Cycles when = 0;       ///< due cycle
    Cycles schedWhen = 0;  ///< cycle the schedule() call happened
    std::uint64_t key2 = 0;

    friend constexpr bool
    operator<(const EventKey& a, const EventKey& b)
    {
        if (a.when != b.when) {
            return a.when < b.when;
        }
        if (a.schedWhen != b.schedWhen) {
            return a.schedWhen < b.schedWhen;
        }
        return a.key2 < b.key2;
    }
};

/** One scheduled (or free) event: callable + timing + intrusive links. */
struct EventRecord {
    /** `home` for a record on the slab free list. */
    static constexpr std::uint16_t kHomeFree = 0xffff;
    /** `home` for a record parked in the pre-cursor heap. */
    static constexpr std::uint16_t kHomePre = 0xfffe;
    /** `home` for a record owned by the legacy heap backend. */
    static constexpr std::uint16_t kHomeHeap = 0xfffd;

    Event fn;                           ///< poisoned while the slot is free
    Cycles when = 0;                    ///< absolute due cycle
    Cycles schedWhen = 0;               ///< cycle it was scheduled at
    std::uint64_t key2 = 0;             ///< context tiebreak (see EventKey)
    std::uint32_t gen = 1;              ///< bumped on free; never 0
    std::uint32_t next = kNilRecord;    ///< slot list / free list link
    std::uint32_t prev = kNilRecord;    ///< slot list back link
    std::uint16_t home = kHomeFree;     ///< wheel slot index or kHome*
    std::uint16_t lane = kMachineLane;  ///< executing node or kMachineLane
    bool daemon = false;                ///< does not keep run() alive

    EventKey key() const { return EventKey{when, schedWhen, key2}; }
};

/** Chunked, address-stable pool of EventRecords with a free list. */
class EventSlab
{
  public:
    static constexpr unsigned kChunkShift = 8;
    static constexpr unsigned kChunkSize = 1U << kChunkShift;

    EventSlab() = default;
    EventSlab(const EventSlab&) = delete;
    EventSlab& operator=(const EventSlab&) = delete;

    ~EventSlab()
    {
        // Records on the free list have poisoned callable storage;
        // unpoison before the chunk destructors touch them.
#ifdef PLUS_SIM_ASAN
        for (auto& chunk : chunks_) {
            PLUS_SIM_UNPOISON(chunk.get(), kChunkSize * sizeof(EventRecord));
        }
#endif
    }

    /** Grab a free record (unpoisoned, `fn` empty, `gen` valid). */
    std::uint32_t
    allocate()
    {
        if (freeHead_ == kNilRecord) {
            grow();
        }
        const std::uint32_t idx = freeHead_;
        EventRecord& rec = record(idx);
        PLUS_SIM_UNPOISON(&rec.fn, sizeof(rec.fn));
        freeHead_ = rec.next;
        rec.next = kNilRecord;
        rec.prev = kNilRecord;
        if (++live_ > highWater_) {
            highWater_ = live_;
        }
        return idx;
    }

    /**
     * Return @p idx to the free list: destroy the callable, bump the
     * generation (invalidating every outstanding EventId for the
     * slot), and poison the callable storage.
     */
    void
    free(std::uint32_t idx)
    {
        EventRecord& rec = record(idx);
        PLUS_ASSERT(rec.home != EventRecord::kHomeFree,
                    "double free of event record ", idx);
        rec.fn.reset();
        if (++rec.gen == 0) {
            rec.gen = 1; // keep "gen 0" meaning "never a valid id"
        }
        rec.home = EventRecord::kHomeFree;
        rec.prev = kNilRecord;
        rec.next = freeHead_;
        freeHead_ = idx;
        --live_;
        PLUS_SIM_POISON(&rec.fn, sizeof(rec.fn));
    }

    EventRecord&
    operator[](std::uint32_t idx)
    {
        return record(idx);
    }

    const EventRecord&
    operator[](std::uint32_t idx) const
    {
        return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
    }

    /** Total slots ever created (live + free). */
    std::size_t size() const { return chunks_.size() * kChunkSize; }

    /** Records currently allocated. */
    std::size_t live() const { return live_; }

    /** Peak simultaneous live records. */
    std::size_t highWater() const { return highWater_; }

  private:
    EventRecord&
    record(std::uint32_t idx)
    {
        return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
    }

    void
    grow()
    {
        PLUS_ASSERT(chunks_.size() < (kNilRecord >> kChunkShift),
                    "event slab exhausted");
        const auto base =
            static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
        chunks_.push_back(std::make_unique<EventRecord[]>(kChunkSize));
        EventRecord* chunk = chunks_.back().get();
        // Thread the new records onto the free list in ascending
        // order and poison their (empty) callable storage.
        for (unsigned i = kChunkSize; i-- > 0;) {
            chunk[i].next = freeHead_;
            freeHead_ = base + i;
            PLUS_SIM_POISON(&chunk[i].fn, sizeof(chunk[i].fn));
        }
    }

    std::vector<std::unique_ptr<EventRecord[]>> chunks_;
    std::uint32_t freeHead_ = kNilRecord;
    std::size_t live_ = 0;
    std::size_t highWater_ = 0;
};

} // namespace sim
} // namespace plus

#endif // PLUS_SIM_EVENT_SLAB_HPP_
