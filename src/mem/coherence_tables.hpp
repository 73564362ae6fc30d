/**
 * @file
 * The per-node hardware tables the coherence manager consults on every
 * write (Section 2.3): for each locally replicated physical page, the
 * master table identifies the global physical address of the master copy,
 * and the next-copy table identifies the successor, if any, of the local
 * copy along the copy-list. Both are maintained by the operating system.
 * Like the hardware's, both tables are indexed directly by local frame:
 * one vector slot per frame, grown as frames are first set.
 */

#ifndef PLUS_MEM_COHERENCE_TABLES_HPP_
#define PLUS_MEM_COHERENCE_TABLES_HPP_

#include <optional>
#include <vector>

#include "common/panic.hpp"
#include "common/types.hpp"

namespace plus {
namespace mem {

/** master + next-copy tables of one node, indexed by local frame. */
class CoherenceTables
{
  public:
    /** Set the master-copy address for a local frame. */
    void
    setMaster(FrameId frame, PhysPage master)
    {
        PLUS_ASSERT(master.valid(), "invalid master for frame ", frame);
        slot(frame).master = master;
    }

    /** Set (or clear, with nullopt) the successor of a local frame. */
    void
    setNextCopy(FrameId frame, std::optional<PhysPage> next)
    {
        if (next) {
            PLUS_ASSERT(next->valid(), "invalid next copy for frame ",
                        frame);
            slot(frame).next = *next;
        } else if (frame < frames_.size()) {
            frames_[frame].next = PhysPage{};
        }
    }

    /** Drop both entries when the local copy is deleted. */
    void
    erase(FrameId frame)
    {
        if (frame < frames_.size()) {
            frames_[frame] = Entry{};
        }
    }

    /** Master copy of the page held in @p frame. @pre entry exists. */
    PhysPage
    master(FrameId frame) const
    {
        PLUS_ASSERT(knows(frame), "no master-table entry for frame ",
                    frame);
        return frames_[frame].master;
    }

    bool
    knows(FrameId frame) const
    {
        return frame < frames_.size() && frames_[frame].master.valid();
    }

    /** Successor of the local copy in @p frame, if any. */
    std::optional<PhysPage>
    nextCopy(FrameId frame) const
    {
        if (frame >= frames_.size() || !frames_[frame].next.valid()) {
            return std::nullopt;
        }
        return frames_[frame].next;
    }

  private:
    /** One frame's entries; an invalid PhysPage marks "no entry". */
    struct Entry {
        PhysPage master;
        PhysPage next;
    };

    Entry&
    slot(FrameId frame)
    {
        PLUS_ASSERT(frame != kInvalidFrame, "coherence-table entry for "
                                            "the invalid frame");
        if (frame >= frames_.size()) {
            frames_.resize(static_cast<std::size_t>(frame) + 1);
        }
        return frames_[frame];
    }

    std::vector<Entry> frames_;
};

} // namespace mem
} // namespace plus

#endif // PLUS_MEM_COHERENCE_TABLES_HPP_
