/**
 * @file
 * Bounded event trace kept by the checker: every instrumentation event is
 * recorded as a small fixed-size struct (no formatting on the hot path);
 * when an invariant is violated the ring is rendered into the panic
 * message so the report carries the full recent event history.
 */

#ifndef PLUS_CHECK_TRACE_HPP_
#define PLUS_CHECK_TRACE_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"

namespace plus {

namespace check {

/** What a trace entry records. */
enum class EventKind : std::uint8_t {
    WriteIssued,
    PendingInsert,
    PendingComplete,
    ChainApplied,
    FenceComplete,
    ReadServed,
    CopyListMutated,
    ProcRead,
    ProcWrite,
    ProcRmwIssue,
    ProcVerify,
    ProcFence,
    ProcWriteFence,
    PendingAborted,
    ProcPageLost,
    NodeCrashed,
    EpochSealed,
    WordInvalidated,
    WordRevalidated,
    LocalValueServed,
};

const char* toString(EventKind kind);

/** One recorded instrumentation event (formatted lazily). */
struct Event {
    EventKind kind = EventKind::WriteIssued;
    Cycles when = 0;
    NodeId node = kInvalidNode;
    Vpn vpn = 0;
    Addr wordOffset = 0;
    /** Kind-specific extras: tag/tid in a, chain id/flags in b. */
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** Fixed-capacity ring of recent events. */
class EventTrace
{
  public:
    /** @param engine  Optional clock source for event timestamps. */
    EventTrace(unsigned depth, const sim::Engine* engine);

    /** Stamp @p event with the engine clock and keep it. */
    void
    record(const Event& event)
    {
        Event& slot = ring_[next_];
        slot = event;
        if (engine_ != nullptr) {
            slot.when = engine_->now();
        }
        if (++next_ == ring_.size()) {
            next_ = 0;
        }
        ++recorded_;
    }

    std::uint64_t recorded() const { return recorded_; }

    /** Render the retained events, oldest first, one per line. */
    std::string render() const;

    /**
     * Raise a checker violation: panics with @p message followed by the
     * rendered event history.
     */
    [[noreturn]] void violation(const std::string& message) const;

  private:
    std::vector<Event> ring_;
    std::size_t next_ = 0;
    std::uint64_t recorded_ = 0;
    const sim::Engine* engine_;
};

} // namespace check
} // namespace plus

#endif // PLUS_CHECK_TRACE_HPP_
