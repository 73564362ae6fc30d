/**
 * @file
 * Virtual-memory mapping structures (Section 2.4).
 *
 * All nodes share one virtual address space, but each node maintains its
 * own page table mapping a virtual page to the most convenient physical
 * copy (usually the closest). Local tables are filled lazily: on a miss
 * the exception handler consults the centralized PageDirectory, which
 * records the copy-list of every legal virtual page.
 */

#ifndef PLUS_MEM_PAGE_TABLE_HPP_
#define PLUS_MEM_PAGE_TABLE_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/panic.hpp"
#include "common/types.hpp"
#include "mem/copy_list.hpp"

namespace plus {
namespace mem {

/**
 * Per-node virtual-to-physical map with lazy fill. Virtual pages are
 * numbered densely from 1, so the map is a vector indexed by vpn,
 * grown on install; an invalid PhysPage marks an unmapped page.
 */
class PageTable
{
  public:
    /** Translate; nullopt means a local page-table miss. */
    std::optional<PhysPage>
    lookup(Vpn vpn) const
    {
        if (!contains(vpn)) {
            return std::nullopt;
        }
        return map_[vpn];
    }

    /** Install or update a mapping (exception handler / OS action). */
    void
    install(Vpn vpn, PhysPage page)
    {
        PLUS_ASSERT(page.valid(), "installing an invalid mapping for vpn ",
                    vpn);
        if (vpn >= map_.size()) {
            map_.resize(static_cast<std::size_t>(vpn) + 1);
        }
        if (!map_[vpn].valid()) {
            ++size_;
        }
        map_[vpn] = page;
        ++fills_;
    }

    /** Remove a mapping, e.g. when its copy is deleted ("TLB flush"). */
    void
    invalidate(Vpn vpn)
    {
        if (contains(vpn)) {
            map_[vpn] = PhysPage{};
            --size_;
            ++invalidations_;
        }
    }

    bool
    contains(Vpn vpn) const
    {
        return vpn < map_.size() && map_[vpn].valid();
    }

    std::size_t size() const { return size_; }

    std::uint64_t fills() const { return fills_; }
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    std::vector<PhysPage> map_;
    std::size_t size_ = 0;
    std::uint64_t fills_ = 0;
    std::uint64_t invalidations_ = 0;
};

/**
 * Centralized table of legal mappings: one CopyList per virtual page.
 * Maintained by the operating system (the Machine in this simulator).
 * Indexed directly by vpn like the per-node page tables; each list
 * lives in its own cell, so references stay valid as the table grows.
 */
class PageDirectory
{
  public:
    /** Register a new virtual page with its master copy. */
    void
    create(Vpn vpn, PhysPage master)
    {
        PLUS_ASSERT(!contains(vpn), "vpn ", vpn, " already exists");
        if (vpn >= map_.size()) {
            map_.resize(static_cast<std::size_t>(vpn) + 1);
        }
        map_[vpn] = std::make_unique<CopyList>(master);
        ++pages_;
    }

    /** Destroy a virtual page entirely. */
    void
    destroy(Vpn vpn)
    {
        PLUS_ASSERT(contains(vpn), "destroy of unknown vpn ", vpn);
        map_[vpn].reset();
        --pages_;
    }

    bool
    contains(Vpn vpn) const
    {
        return vpn < map_.size() && map_[vpn] != nullptr;
    }

    /** The copy-list of @p vpn, or null if the page does not exist. */
    const CopyList*
    find(Vpn vpn) const
    {
        return vpn < map_.size() ? map_[vpn].get() : nullptr;
    }

    const CopyList&
    copyList(Vpn vpn) const
    {
        PLUS_ASSERT(contains(vpn), "unknown vpn ", vpn);
        return *map_[vpn];
    }

    CopyList&
    copyList(Vpn vpn)
    {
        PLUS_ASSERT(contains(vpn), "unknown vpn ", vpn);
        return *map_[vpn];
    }

    std::size_t pages() const { return pages_; }

    /**
     * Every legal virtual page, ascending. Recovery walks the whole
     * directory in this order, the same in every backend.
     */
    std::vector<Vpn>
    sortedVpns() const
    {
        std::vector<Vpn> vpns;
        vpns.reserve(pages_);
        for (Vpn vpn = 0; vpn < map_.size(); ++vpn) {
            if (map_[vpn] != nullptr) {
                vpns.push_back(vpn);
            }
        }
        return vpns;
    }

  private:
    std::vector<std::unique_ptr<CopyList>> map_;
    std::size_t pages_ = 0;
};

} // namespace mem
} // namespace plus

#endif // PLUS_MEM_PAGE_TABLE_HPP_
