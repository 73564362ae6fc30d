/**
 * @file
 * The pending-writes cache (Section 2.3): remembers the addresses of the
 * node's incomplete write operations. It is what makes PLUS's writes
 * non-blocking yet strongly ordered within one processor — a processor
 * can have several writes in flight (8 in the 1990 implementation), but
 * reading a location that is currently being written blocks until the
 * write completes, and a fence blocks until the cache is empty.
 *
 * Like the hardware's, the cache is an array of `capacity` slots, each
 * holding one in-flight write's tag and address; tags keep counting up
 * across slot reuse.
 */

#ifndef PLUS_PROTO_PENDING_WRITES_HPP_
#define PLUS_PROTO_PENDING_WRITES_HPP_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "check/hooks.hpp"
#include "common/panic.hpp"
#include "common/tag_slots.hpp"
#include "common/types.hpp"

namespace plus {
namespace proto {

/** Fixed-capacity cache of in-flight writes, keyed by small tags. */
class PendingWrites
{
  public:
    using Tag = std::uint32_t;
    using Waiter = std::function<void()>;

    explicit PendingWrites(unsigned capacity)
        : capacity_(capacity), slots_(capacity)
    {
        PLUS_ASSERT(capacity_ > 0, "pending-writes cache needs capacity");
    }

    /** Mirror cache events into @p check (null to disable). */
    void
    setCheckObserver(check::PendingWritesObserver* check, NodeId self)
    {
        check_ = check;
        self_ = self;
    }

    unsigned capacity() const { return capacity_; }
    unsigned inFlight() const { return static_cast<unsigned>(slots_.size()); }
    bool full() const { return inFlight() >= capacity_; }
    bool empty() const { return slots_.empty(); }

    /**
     * Record a new in-flight write to (vpn, word offset).
     * @pre !full()
     * @return the tag the eventual acknowledgement must carry.
     */
    Tag
    insert(Vpn vpn, Addr word_offset)
    {
        PLUS_ASSERT(!full(), "pending-writes cache overflow");
        const Tag tag = nextTag_++;
        if (nextTag_ == Slots::kFreeTag) {
            nextTag_ = 1; // the wrap skips the free-slot marker
        }
        slots_.insert(tag, Key{vpn, word_offset});
        if (check_) {
            check_->onPendingInsert(self_, tag, vpn, word_offset);
        }
        return tag;
    }

    /** Complete the write with @p tag and wake any satisfied waiters. */
    void
    complete(Tag tag)
    {
        if (check_) {
            // Before the assert: a double retire must reach the checker so
            // the panic carries the event history.
            check_->onPendingComplete(self_, tag);
        }
        const bool known = slots_.erase(tag);
        PLUS_ASSERT(known, "ack for unknown write tag ", tag);
        wake();
    }

    /** True if any in-flight write targets (vpn, word offset). */
    bool
    pendingOn(Vpn vpn, Addr word_offset) const
    {
        bool found = false;
        slots_.forEach([&](Tag, const Key& key) {
            found = found || (key.vpn == vpn && key.wordOffset == word_offset);
        });
        return found;
    }

    /** Run @p fn once the cache is empty (immediately if it already is). */
    void
    whenEmpty(Waiter fn)
    {
        if (empty()) {
            fn();
        } else {
            emptyWaiters_.push_back(std::move(fn));
        }
    }

    /** Run @p fn once a slot is free (immediately if one already is). */
    void
    whenSlotFree(Waiter fn)
    {
        if (!full()) {
            fn();
        } else {
            slotWaiters_.push_back(std::move(fn));
        }
    }

    /** Run @p fn once no write to the location is in flight. */
    void
    whenAddrClear(Vpn vpn, Addr word_offset, Waiter fn)
    {
        if (!pendingOn(vpn, word_offset)) {
            fn();
        } else {
            addrWaiters_.push_back({Key{vpn, word_offset}, std::move(fn)});
        }
    }

    /** Peak simultaneous in-flight writes seen (diagnostics). */
    unsigned maxInFlight() const { return maxInFlight_; }

    /** Call after insert() to update the high-water mark. */
    void
    noteHighWater()
    {
        maxInFlight_ = std::max(maxInFlight_, inFlight());
    }

  private:
    struct Key {
        Vpn vpn = 0;
        Addr wordOffset = 0;
    };

    using Slots = TagSlots<Key>;

    void
    wake()
    {
        if (!full()) {
            auto waiters = std::move(slotWaiters_);
            slotWaiters_.clear();
            for (auto& fn : waiters) {
                // A woken waiter may immediately refill the slot; respect
                // capacity by re-queueing the rest.
                if (!full()) {
                    fn();
                } else {
                    slotWaiters_.push_back(std::move(fn));
                }
            }
        }
        if (empty()) {
            auto waiters = std::move(emptyWaiters_);
            emptyWaiters_.clear();
            for (auto& fn : waiters) {
                fn();
            }
        }
        if (!addrWaiters_.empty()) {
            std::vector<AddrWaiter> keep;
            auto waiters = std::move(addrWaiters_);
            addrWaiters_.clear();
            for (auto& w : waiters) {
                if (pendingOn(w.key.vpn, w.key.wordOffset)) {
                    keep.push_back(std::move(w));
                } else {
                    w.fn();
                }
            }
            for (auto& w : keep) {
                addrWaiters_.push_back(std::move(w));
            }
        }
    }

    struct AddrWaiter {
        Key key;
        Waiter fn;
    };

    unsigned capacity_;
    check::PendingWritesObserver* check_ = nullptr;
    NodeId self_ = kInvalidNode;
    Tag nextTag_ = 1;
    /** The cache's `capacity` entries: in-flight tag -> address. */
    Slots slots_;
    std::vector<Waiter> emptyWaiters_;
    std::vector<Waiter> slotWaiters_;
    std::vector<AddrWaiter> addrWaiters_;
    unsigned maxInFlight_ = 0;
};

} // namespace proto
} // namespace plus

#endif // PLUS_PROTO_PENDING_WRITES_HPP_
