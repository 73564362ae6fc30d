/**
 * @file
 * Flat open-addressing map from nonzero 64-bit ids to values: one
 * contiguous slot array probed linearly, so a lookup touches one or
 * two adjacent slots instead of chasing a node-based bucket list.
 * Deletion shifts the following run of the probe sequence back, so no
 * tombstones accumulate. Iteration order depends on the ids and the
 * insert/erase sequence only — deterministic on every backend.
 */

#ifndef PLUS_COMMON_ID_MAP_HPP_
#define PLUS_COMMON_ID_MAP_HPP_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/panic.hpp"

namespace plus {

/** Open-addressing map of nonzero std::uint64_t ids to values. */
template <typename T>
class IdMap
{
  public:
    using Id = std::uint64_t;

    /** Id of an empty slot; never a valid key. */
    static constexpr Id kNoId = 0;

    std::size_t size() const { return size_; }

    /** The value stored under @p id, or null. */
    T*
    find(Id id)
    {
        const std::size_t i = indexOf(id);
        return i == kAbsent ? nullptr : &slots_[i].value;
    }

    const T*
    find(Id id) const
    {
        const std::size_t i = indexOf(id);
        return i == kAbsent ? nullptr : &slots_[i].value;
    }

    bool contains(Id id) const { return find(id) != nullptr; }

    /** Store @p value under @p id. @pre id nonzero and absent. */
    T&
    insert(Id id, T value)
    {
        PLUS_ASSERT(id != kNoId, "id 0 marks an empty slot");
        if ((size_ + 1) * 2 > slots_.size()) {
            grow();
        }
        std::size_t i = home(id);
        while (slots_[i].id != kNoId) {
            PLUS_ASSERT(slots_[i].id != id, "duplicate id ", id);
            i = (i + 1) & mask();
        }
        slots_[i].id = id;
        slots_[i].value = std::move(value);
        ++size_;
        return slots_[i].value;
    }

    /** Remove @p id's entry if present. @return whether it was. */
    bool
    erase(Id id)
    {
        std::size_t hole = indexOf(id);
        if (hole == kAbsent) {
            return false;
        }
        // Backward-shift deletion: pull each later entry of the probe
        // run into the hole unless its home lies cyclically in
        // (hole, entry], where moving it would break its own probe.
        for (std::size_t j = (hole + 1) & mask(); slots_[j].id != kNoId;
             j = (j + 1) & mask()) {
            const std::size_t h = home(slots_[j].id);
            const bool stays = hole <= j ? (hole < h && h <= j)
                                         : (hole < h || h <= j);
            if (!stays) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole].id = kNoId;
        slots_[hole].value = T{};
        --size_;
        return true;
    }

    /** Call @p fn(value) for every entry, in slot order. */
    template <typename F>
    void
    forEach(F&& fn)
    {
        for (Slot& slot : slots_) {
            if (slot.id != kNoId) {
                fn(slot.value);
            }
        }
    }

  private:
    struct Slot {
        Id id = kNoId;
        T value{};
    };

    static constexpr std::size_t kAbsent = ~std::size_t{0};

    /** Slot index holding @p id, or kAbsent. */
    std::size_t
    indexOf(Id id) const
    {
        if (size_ == 0 || id == kNoId) {
            return kAbsent;
        }
        for (std::size_t i = home(id);; i = (i + 1) & mask()) {
            if (slots_[i].id == id) {
                return i;
            }
            if (slots_[i].id == kNoId) {
                return kAbsent;
            }
        }
    }

    std::size_t mask() const { return slots_.size() - 1; }

    /** Fibonacci hashing: the id's golden-ratio product, top bits. */
    std::size_t
    home(Id id) const
    {
        return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >>
                                        shift_);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t capacity = old.empty() ? 16 : old.size() * 2;
        slots_ = std::vector<Slot>(capacity);
        shift_ = 64U - static_cast<unsigned>(std::countr_zero(capacity));
        size_ = 0;
        for (Slot& slot : old) {
            if (slot.id != kNoId) {
                insert(slot.id, std::move(slot.value));
            }
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    unsigned shift_ = 64;
};

} // namespace plus

#endif // PLUS_COMMON_ID_MAP_HPP_
