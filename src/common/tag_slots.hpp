/**
 * @file
 * Small tag-keyed slot array: the shape of PLUS's per-node hardware
 * tables that track in-flight operations by tag (the pending-writes
 * cache, outstanding remote reads). A handful of slots, each holding
 * one tag and its value, scanned linearly; the tags sit in their own
 * array, so a scan reads one or two cache lines whatever the value
 * size. A freed slot is reused by the next insert, so the arrays never
 * grow past the peak number of simultaneous entries. Iteration runs in
 * slot order, which depends only on the insert/erase sequence —
 * deterministic on every backend.
 */

#ifndef PLUS_COMMON_TAG_SLOTS_HPP_
#define PLUS_COMMON_TAG_SLOTS_HPP_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/panic.hpp"

namespace plus {

/** Slot array mapping nonzero 32-bit tags to values of type T. */
template <typename T>
class TagSlots
{
  public:
    using Tag = std::uint32_t;

    /** Tag of an empty slot; never a valid key. */
    static constexpr Tag kFreeTag = 0;

    TagSlots() = default;

    /** Pre-size the array for @p slots simultaneous entries. */
    explicit TagSlots(std::size_t slots) : tags_(slots), values_(slots) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Store @p value under @p tag. @pre tag nonzero and absent. */
    T&
    insert(Tag tag, T value)
    {
        PLUS_ASSERT(tag != kFreeTag, "tag 0 marks a free slot");
        std::size_t i = size_ < tags_.size() ? scan(kFreeTag) : kAbsent;
        if (i == kAbsent) {
            i = tags_.size();
            tags_.push_back(kFreeTag);
            values_.emplace_back();
        }
        tags_[i] = tag;
        values_[i] = std::move(value);
        ++size_;
        return values_[i];
    }

    /** The value stored under @p tag, or null. */
    T*
    find(Tag tag)
    {
        const std::size_t i = indexOf(tag);
        return i == kAbsent ? nullptr : &values_[i];
    }

    const T*
    find(Tag tag) const
    {
        const std::size_t i = indexOf(tag);
        return i == kAbsent ? nullptr : &values_[i];
    }

    bool contains(Tag tag) const { return indexOf(tag) != kAbsent; }

    /** Remove @p tag's entry and return its value. @pre present. */
    T
    take(Tag tag)
    {
        const std::size_t i = indexOf(tag);
        PLUS_ASSERT(i != kAbsent, "no slot holds tag ", tag);
        T value = std::move(values_[i]);
        free(i);
        return value;
    }

    /** Remove @p tag's entry if present. @return whether it was. */
    bool
    erase(Tag tag)
    {
        const std::size_t i = indexOf(tag);
        if (i == kAbsent) {
            return false;
        }
        free(i);
        return true;
    }

    /** Drop every entry. */
    void
    clear()
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kFreeTag) {
                free(i);
            }
        }
    }

    /** Call @p fn(tag, value) for every entry, in slot order. */
    template <typename F>
    void
    forEach(F&& fn) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kFreeTag) {
                fn(tags_[i], values_[i]);
            }
        }
    }

  private:
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    /** Slot holding entry @p tag, or kAbsent. */
    std::size_t
    indexOf(Tag tag) const
    {
        return tag == kFreeTag || size_ == 0 ? kAbsent : scan(tag);
    }

    /** First slot whose tag is @p tag (kFreeTag: a free slot), or kAbsent. */
    std::size_t
    scan(Tag tag) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] == tag) {
                return i;
            }
        }
        return kAbsent;
    }

    void
    free(std::size_t i)
    {
        tags_[i] = kFreeTag;
        values_[i] = T{};
        --size_;
    }

    std::vector<Tag> tags_;
    std::vector<T> values_;
    std::size_t size_ = 0;
};

} // namespace plus

#endif // PLUS_COMMON_TAG_SLOTS_HPP_
