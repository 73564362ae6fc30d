/**
 * @file
 * One node's local memory: a pool of 4 Kbyte page frames holding 32-bit
 * words. The local memory serves both as the node's main memory and as a
 * "cache" for pages whose master copy lives elsewhere (Section 2.3).
 *
 * Frames, and their slots in the frame table, are allocated lazily so a
 * large configured memory costs nothing until it is used.
 */

#ifndef PLUS_MEM_LOCAL_MEMORY_HPP_
#define PLUS_MEM_LOCAL_MEMORY_HPP_

#include <memory>
#include <vector>

#include "common/panic.hpp"
#include "common/types.hpp"

namespace plus {
namespace mem {

/** Frame-granular word-addressed memory of a single node. */
class LocalMemory
{
  public:
    explicit LocalMemory(unsigned frames) : capacity_(frames) {}

    unsigned capacityFrames() const { return capacity_; }

    unsigned framesInUse() const { return inUse_; }

    /**
     * Allocate a zero-filled frame.
     * @throws FatalError when the node is out of physical memory.
     */
    FrameId allocFrame();

    /** Release a frame back to the pool; its contents are dropped. */
    void freeFrame(FrameId frame);

    /** True if the frame is currently allocated. */
    bool allocated(FrameId frame) const;

    /** Read one word. @pre frame allocated, offset < kPageWords. */
    Word
    read(FrameId frame, Addr word_offset) const
    {
        return page(frame)[check(word_offset)];
    }

    /** Write one word. @pre frame allocated, offset < kPageWords. */
    void
    write(FrameId frame, Addr word_offset, Word value)
    {
        page(frame)[check(word_offset)] = value;
    }

  private:
    using PageData = std::vector<Word>;

    static Addr
    check(Addr word_offset)
    {
        PLUS_ASSERT(word_offset < kPageWords, "word offset ", word_offset,
                    " outside page");
        return word_offset;
    }

    PageData&
    page(FrameId frame)
    {
        PLUS_ASSERT(frame < storage_.size() && storage_[frame],
                    "access to unallocated frame ", frame);
        return *storage_[frame];
    }

    const PageData&
    page(FrameId frame) const
    {
        PLUS_ASSERT(frame < storage_.size() && storage_[frame],
                    "access to unallocated frame ", frame);
        return *storage_[frame];
    }

    /**
     * One slot per frame ever handed out, indexed by FrameId; frames
     * are handed out in id order, so it grows by one slot at a time.
     */
    std::vector<std::unique_ptr<PageData>> storage_;
    std::vector<FrameId> freeList_;
    unsigned capacity_;
    unsigned inUse_ = 0;
};

} // namespace mem
} // namespace plus

#endif // PLUS_MEM_LOCAL_MEMORY_HPP_
