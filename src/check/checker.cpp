#include "check/checker.hpp"

#include "telemetry/prof.hpp"

namespace plus {
namespace check {

namespace {

Event
makeEvent(EventKind kind, NodeId node, Vpn vpn, Addr word_offset,
          std::uint64_t a, std::uint64_t b)
{
    Event event;
    event.kind = kind;
    event.node = node;
    event.vpn = vpn;
    event.wordOffset = word_offset;
    event.a = a;
    event.b = b;
    return event;
}

} // namespace

Checker::Checker(const Options& options, const sim::Engine* engine)
    : options_(options), trace_(options.traceDepth, engine)
{
    if (options_.invariants) {
        invariants_ = std::make_unique<InvariantChecker>(&trace_);
    }
    if (options_.races) {
        races_ = std::make_unique<RaceDetector>(&trace_,
                                                options_.panicOnRace);
    }
}

void
Checker::setCopyListResolver(InvariantChecker::CopyListResolver resolver)
{
    if (invariants_) {
        invariants_->setCopyListResolver(std::move(resolver));
    }
}

void
Checker::onCopyListChanged(Vpn vpn)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    if (invariants_) {
        invariants_->copyListChanged(vpn);
    }
}

void
Checker::onNodeCrashed(NodeId node)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::NodeCrashed, node, 0, 0, 0, 0));
    if (invariants_) {
        invariants_->nodeCrashed(node);
    }
}

void
Checker::onEpochSealed(NodeId dead, std::uint64_t epoch)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::EpochSealed, dead, 0, 0, epoch, 0));
    if (invariants_) {
        invariants_->epochSealed(dead, epoch);
    }
}

void
Checker::onPendingInsert(NodeId node, std::uint32_t tag, Vpn vpn,
                         Addr word_offset)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::PendingInsert, node, vpn,
                            word_offset, tag, 0));
    if (invariants_) {
        invariants_->pendingInsert(node, tag, vpn, word_offset);
    }
}

void
Checker::onPendingComplete(NodeId node, std::uint32_t tag)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::PendingComplete, node, 0, 0, tag, 0));
    if (invariants_) {
        invariants_->pendingComplete(node, tag);
    }
}

void
Checker::onPendingAborted(NodeId node, std::uint32_t tag, bool retried)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::PendingAborted, node, 0, 0, tag,
                            retried ? 1 : 0));
    if (invariants_) {
        invariants_->pendingAborted(node, tag, retried);
    }
}

void
Checker::onMessageProcessed(NodeId src, NodeId dst, std::uint8_t msg_class)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    // Not traced: one entry per delivered message would flush the
    // bounded ring of the events violations actually need.
    if (invariants_) {
        invariants_->messageProcessed(src, dst, msg_class);
    }
}

void
Checker::onWriteIssued(NodeId node, std::uint32_t tag, Vpn vpn,
                       Addr word_offset, bool from_rmw)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::WriteIssued, node, vpn, word_offset,
                            tag, from_rmw ? 1 : 0));
    if (invariants_) {
        invariants_->writeIssued(node, tag, vpn, word_offset, from_rmw);
    }
}

void
Checker::onChainApplied(ChainId chain, PhysPage copy, Vpn vpn,
                        Addr word_offset, unsigned words, NodeId originator,
                        std::uint32_t tag, bool at_master)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::ChainApplied, copy.node, vpn,
                            word_offset, tag, chain));
    if (invariants_) {
        invariants_->chainApplied(chain, copy, vpn, word_offset, words,
                                  originator, tag, at_master);
    }
}

void
Checker::onFenceComplete(NodeId node, bool pending_empty)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::FenceComplete, node, 0, 0,
                            pending_empty ? 1 : 0, 0));
    if (invariants_) {
        invariants_->fenceComplete(node, pending_empty);
    }
}

void
Checker::onReadServed(NodeId node, Vpn vpn, Addr word_offset)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::ReadServed, node, vpn, word_offset,
                            0, 0));
    if (invariants_) {
        invariants_->readServed(node, vpn, word_offset);
    }
}

void
Checker::onWordInvalidated(NodeId node, Vpn vpn, Addr word_offset)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::WordInvalidated, node, vpn,
                            word_offset, 0, 0));
    if (invariants_) {
        invariants_->wordInvalidated(node, vpn, word_offset);
    }
}

void
Checker::onWordRevalidated(NodeId node, Vpn vpn, Addr word_offset)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::WordRevalidated, node, vpn,
                            word_offset, 0, 0));
    if (invariants_) {
        invariants_->wordRevalidated(node, vpn, word_offset);
    }
}

void
Checker::onLocalValueServed(NodeId node, Vpn vpn, Addr word_offset)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::LocalValueServed, node, vpn,
                            word_offset, 0, 0));
    if (invariants_) {
        invariants_->localValueServed(node, vpn, word_offset);
    }
}

void
Checker::onCopyListMutated(const mem::CopyList& list, const char* op)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::CopyListMutated, kInvalidNode, 0, 0,
                            0, 0));
    if (invariants_) {
        invariants_->copyListMutated(list, op);
    }
}

void
Checker::onProcRead(NodeId node, ThreadId tid, Addr vaddr)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::ProcRead, node, pageOf(vaddr),
                            wordOffsetOf(vaddr), tid, 0));
    if (races_) {
        races_->read(tid, vaddr);
    }
}

void
Checker::onProcWrite(NodeId node, ThreadId tid, Addr vaddr)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::ProcWrite, node, pageOf(vaddr),
                            wordOffsetOf(vaddr), tid, 0));
    if (races_) {
        races_->write(tid, vaddr);
    }
}

void
Checker::onProcRmwIssue(NodeId node, ThreadId tid, Addr vaddr,
                        std::uint8_t op)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::ProcRmwIssue, node, pageOf(vaddr),
                            wordOffsetOf(vaddr), tid, op));
    if (races_) {
        races_->rmwIssue(tid, vaddr);
    }
}

void
Checker::onProcVerify(NodeId node, ThreadId tid, Addr vaddr)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::ProcVerify, node, pageOf(vaddr),
                            wordOffsetOf(vaddr), tid, 0));
    if (races_) {
        races_->verifyDone(tid, vaddr);
    }
}

void
Checker::onProcFence(NodeId node, ThreadId tid)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::ProcFence, node, 0, 0, tid, 0));
    if (races_) {
        races_->fence(tid);
    }
}

void
Checker::onProcWriteFence(NodeId node, ThreadId tid)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::ProcWriteFence, node, 0, 0, tid, 0));
    if (races_) {
        races_->writeFence(tid);
    }
}

void
Checker::onProcPageLost(NodeId node, ThreadId tid, Addr vaddr)
{
    const prof::ScopedPhase prof_scope(prof::Phase::CheckObserve);
    trace_.record(makeEvent(EventKind::ProcPageLost, node, pageOf(vaddr),
                            wordOffsetOf(vaddr), tid, 0));
}

} // namespace check
} // namespace plus
