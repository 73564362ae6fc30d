#include "mem/local_memory.hpp"

namespace plus {
namespace mem {

FrameId
LocalMemory::allocFrame()
{
    FrameId frame;
    if (!freeList_.empty()) {
        frame = freeList_.back();
        freeList_.pop_back();
    } else if (storage_.size() < capacity_) {
        frame = static_cast<FrameId>(storage_.size());
        storage_.emplace_back();
    } else {
        PLUS_FATAL("node out of physical memory (", capacity_, " frames)");
    }
    storage_[frame] = std::make_unique<PageData>(kPageWords, Word{0});
    ++inUse_;
    return frame;
}

void
LocalMemory::freeFrame(FrameId frame)
{
    PLUS_ASSERT(allocated(frame), "double free of frame ", frame);
    storage_[frame].reset();
    freeList_.push_back(frame);
    --inUse_;
}

} // namespace mem
} // namespace plus
