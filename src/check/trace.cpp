#include "check/trace.hpp"

#include <algorithm>
#include <sstream>

#include "common/panic.hpp"

namespace plus {
namespace check {

const char*
toString(EventKind kind)
{
    switch (kind) {
      case EventKind::WriteIssued: return "write-issued";
      case EventKind::PendingInsert: return "pending-insert";
      case EventKind::PendingComplete: return "pending-complete";
      case EventKind::ChainApplied: return "chain-applied";
      case EventKind::FenceComplete: return "fence-complete";
      case EventKind::ReadServed: return "read-served";
      case EventKind::CopyListMutated: return "copy-list-mutated";
      case EventKind::ProcRead: return "proc-read";
      case EventKind::ProcWrite: return "proc-write";
      case EventKind::ProcRmwIssue: return "proc-rmw-issue";
      case EventKind::ProcVerify: return "proc-verify";
      case EventKind::ProcFence: return "proc-fence";
      case EventKind::ProcWriteFence: return "proc-write-fence";
      case EventKind::PendingAborted: return "pending-aborted";
      case EventKind::ProcPageLost: return "proc-page-lost";
      case EventKind::NodeCrashed: return "node-crashed";
      case EventKind::EpochSealed: return "epoch-sealed";
      case EventKind::WordInvalidated: return "word-invalidated";
      case EventKind::WordRevalidated: return "word-revalidated";
      case EventKind::LocalValueServed: return "local-value-served";
      default: return "?";
    }
}

EventTrace::EventTrace(unsigned depth, const sim::Engine* engine)
    : ring_(std::max(1u, depth)), engine_(engine)
{
}

std::string
EventTrace::render() const
{
    std::ostringstream os;
    const std::size_t kept = std::min<std::uint64_t>(recorded_,
                                                     ring_.size());
    os << "last " << kept << " of " << recorded_ << " events:\n";
    // Oldest retained entry first.
    std::size_t i = recorded_ < ring_.size() ? 0 : next_;
    for (std::size_t k = 0; k < kept; ++k) {
        const Event& e = ring_[i];
        os << "  [" << e.when << "] " << toString(e.kind) << " n" << e.node
           << " vpn=" << e.vpn << " off=" << e.wordOffset << " a=" << e.a
           << " b=" << e.b << "\n";
        i = (i + 1) % ring_.size();
    }
    return os.str();
}

void
EventTrace::violation(const std::string& message) const
{
    PLUS_PANIC("plus::check invariant violation: ", message, "\n",
               render());
}

} // namespace check
} // namespace plus
