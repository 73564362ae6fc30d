/**
 * @file
 * Instrumentation hooks for the `plus::check` subsystem.
 *
 * The coherence manager, the pending-writes cache, the copy-list and the
 * processor each hold an observer pointer that is null by default: when no
 * checker is installed the hot path pays exactly one branch per event.
 * When a checker is installed (see check::Checker, wired by core::Machine
 * according to CheckConfig) every protocol and processor event is mirrored
 * into it, where the invariant checker and the happens-before race
 * detector validate the run as it unfolds.
 *
 * This header deliberately depends only on common/types.hpp so that every
 * layer (mem, proto, node) can include it without linking the checker
 * implementation.
 */

#ifndef PLUS_CHECK_HOOKS_HPP_
#define PLUS_CHECK_HOOKS_HPP_

#include <cstdint>

#include "common/types.hpp"

namespace plus {

namespace mem {
class CopyList;
} // namespace mem

namespace check {

/**
 * Identity of one write-propagation chain: the journey of one write's (or
 * one interlocked operation's) effects from the master copy down the
 * copy-list to the tail. Assigned by the master's coherence manager when
 * the chain starts and carried by every UpdateReq of the chain.
 */
using ChainId = std::uint64_t;

/** Observer of one node's pending-writes cache (proto::PendingWrites). */
class PendingWritesObserver
{
  public:
    virtual ~PendingWritesObserver() = default;

    /** A write occupied a pending-writes entry on @p node. */
    virtual void
    onPendingInsert(NodeId node, std::uint32_t tag, Vpn vpn,
                    Addr word_offset)
    {
        (void)node; (void)tag; (void)vpn; (void)word_offset;
    }

    /** The entry with @p tag retired (acknowledged or completed). */
    virtual void
    onPendingComplete(NodeId node, std::uint32_t tag)
    {
        (void)node; (void)tag;
    }
};

/** Observer of protocol milestones inside proto::CoherenceManager. */
class ProtoObserver
{
  public:
    virtual ~ProtoObserver() = default;

    /**
     * A write — or, when @p from_rmw, a tracked interlocked operation's
     * pseudo-write — was issued by @p node and entered its pending-writes
     * cache under @p tag. Qualifies the matching onPendingInsert().
     */
    virtual void
    onWriteIssued(NodeId node, std::uint32_t tag, Vpn vpn, Addr word_offset,
                  bool from_rmw)
    {
        (void)node; (void)tag; (void)vpn; (void)word_offset; (void)from_rmw;
    }

    /**
     * Chain @p chain applied its effects at @p copy of page @p vpn.
     * @p at_master is the applying manager's own belief that it acted as
     * the chain's head; the checker validates it against the copy-list.
     * The chain retires the pending-writes entry (@p originator, @p tag)
     * when its tail acknowledges.
     */
    virtual void
    onChainApplied(ChainId chain, PhysPage copy, Vpn vpn, Addr word_offset,
                   unsigned words, NodeId originator, std::uint32_t tag,
                   bool at_master)
    {
        (void)chain; (void)copy; (void)vpn; (void)word_offset; (void)words;
        (void)originator; (void)tag; (void)at_master;
    }

    /**
     * A blocking fence completed on @p node; @p pending_empty reports the
     * pending-writes cache state at that instant (must be empty).
     */
    virtual void
    onFenceComplete(NodeId node, bool pending_empty)
    {
        (void)node; (void)pending_empty;
    }

    /**
     * A processor-side read was served on @p node after any conflicting
     * pending-write wait (must find no same-node write still in flight).
     */
    virtual void
    onReadServed(NodeId node, Vpn vpn, Addr word_offset)
    {
        (void)node; (void)vpn; (void)word_offset;
    }

    /**
     * The coherence manager of @p src handed a protocol message of
     * @p msg_class (a proto::MsgType value) to the network, bound for
     * @p dst. @p vpn attributes the traffic to a page when the message
     * addresses one (0 — the reserved null page — otherwise).
     */
    virtual void
    onMessageSent(NodeId src, NodeId dst, std::uint8_t msg_class,
                  unsigned bytes, Vpn vpn)
    {
        (void)src; (void)dst; (void)msg_class; (void)bytes; (void)vpn;
    }

    /**
     * The coherence manager of @p dst dispatched a delivered protocol
     * message of @p msg_class sent by @p src. Feeds the crashed-source
     * invariant: once @p src's recovery epoch has sealed, no message
     * from it may ever be processed again.
     */
    virtual void
    onMessageProcessed(NodeId src, NodeId dst, std::uint8_t msg_class)
    {
        (void)src; (void)dst; (void)msg_class;
    }

    /**
     * Crash recovery aborted the in-flight write (or tracked interlocked
     * pseudo-write) @p tag on @p node because its update chain touched
     * the dead node. When @p retried, the operation is re-dispatched
     * against the repaired copy-list under the same tag; otherwise its
     * page is lost and the entry force-retires without ever taking
     * effect at a master. The checker relaxes retire-once accordingly —
     * this is the only path allowed to do so.
     */
    virtual void
    onPendingAborted(NodeId node, std::uint32_t tag, bool retried)
    {
        (void)node; (void)tag; (void)retried;
    }

    /**
     * Write-invalidate only: an invalidation chain marked one word of
     * @p node's copy invalid. Fired before the matching onChainApplied()
     * at the same copy, so the checker sees that a non-master chain stop
     * invalidated rather than applied a value.
     */
    virtual void
    onWordInvalidated(NodeId node, Vpn vpn, Addr word_offset)
    {
        (void)node; (void)vpn; (void)word_offset;
    }

    /**
     * Write-invalidate only: a re-fetch from the master restored one word
     * of @p node's copy to the valid state (and applied the fetched value
     * to the copy's memory).
     */
    virtual void
    onWordRevalidated(NodeId node, Vpn vpn, Addr word_offset)
    {
        (void)node; (void)vpn; (void)word_offset;
    }

    /**
     * Write-invalidate only: the master copy on @p master saw page
     * @p vpn's writer change hands — @p to issued a write to a page
     * last written by @p from. Counted as CmStats::ownershipTransfers
     * and surfaced on the master's coherence-manager trace track.
     */
    virtual void
    onOwnershipTransfer(NodeId master, Vpn vpn, NodeId from, NodeId to)
    {
        (void)master; (void)vpn; (void)from; (void)to;
    }

    /**
     * A read on @p node was served from the node's own copy of the page
     * without consulting the master. Under write-invalidate the checker
     * verifies the served word was valid at the copy (no stale read);
     * write-update never invalidates, so every local serve is legal.
     */
    virtual void
    onLocalValueServed(NodeId node, Vpn vpn, Addr word_offset)
    {
        (void)node; (void)vpn; (void)word_offset;
    }
};

/**
 * Why the fault layer discarded a packet (see net::FaultInjector and
 * net::LinkLayer). Carried on NetObserver::onPacketDropped so telemetry
 * can render each fault kind distinctly.
 */
enum class DropReason : std::uint8_t {
    Injected,  ///< probabilistic or scripted drop at injection
    Corrupt,   ///< payload CRC failed at the receiver
    LinkDown,  ///< the packet reached a killed link
    NodeDown,  ///< the source or destination router is dead
    Duplicate, ///< suppressed by the reliable layer's sequence check
    Sealed,    ///< sent by a crashed node whose recovery epoch sealed
};

inline const char*
toString(DropReason reason)
{
    switch (reason) {
      case DropReason::Injected: return "injected";
      case DropReason::Corrupt: return "corrupt";
      case DropReason::LinkDown: return "link-down";
      case DropReason::NodeDown: return "node-down";
      case DropReason::Duplicate: return "duplicate";
      case DropReason::Sealed: return "sealed";
      default: return "?";
    }
}

/**
 * Observer of network-level packet movement (net::Network). Kept separate
 * from ProtoObserver because the network layer cannot name protocol types:
 * @p msg_class is the proto::MsgType value carried opaquely on the packet
 * (0xff when the sender did not classify it).
 */
class NetObserver
{
  public:
    virtual ~NetObserver() = default;

    /**
     * A packet reached its destination. @p latency is end-to-end cycles
     * from injection, of which @p queueing was spent behind busy links.
     */
    virtual void
    onPacketDelivered(NodeId src, NodeId dst, std::uint8_t msg_class,
                      unsigned bytes, unsigned hops, Cycles latency,
                      Cycles queueing)
    {
        (void)src; (void)dst; (void)msg_class; (void)bytes; (void)hops;
        (void)latency; (void)queueing;
    }

    /**
     * The directed mesh link @p from -> @p to was occupied for
     * @p duration cycles starting at @p start, serializing a packet of
     * class @p msg_class carrying @p bytes of payload.
     */
    virtual void
    onLinkBusy(NodeId from, NodeId to, std::uint8_t msg_class,
               unsigned bytes, Cycles start, Cycles duration)
    {
        (void)from; (void)to; (void)msg_class; (void)bytes; (void)start;
        (void)duration;
    }

    /**
     * The fault layer discarded a packet of @p msg_class travelling
     * @p src -> @p dst for @p reason. For LinkDown the pair names the
     * killed link's endpoints, not the packet's original route.
     */
    virtual void
    onPacketDropped(NodeId src, NodeId dst, std::uint8_t msg_class,
                    unsigned bytes, DropReason reason)
    {
        (void)src; (void)dst; (void)msg_class; (void)bytes; (void)reason;
    }

    /**
     * The reliable layer re-sent frame @p seq of channel @p src -> @p dst
     * after a timeout; this was retransmission attempt @p attempt (1 =
     * first re-send).
     */
    virtual void
    onRetransmit(NodeId src, NodeId dst, std::uint32_t seq,
                 unsigned attempt)
    {
        (void)src; (void)dst; (void)seq; (void)attempt;
    }
};

/** Observer of structural mutations of a mem::CopyList. */
class CopyListObserver
{
  public:
    virtual ~CopyListObserver() = default;

    /** The list changed via @p op (insert/append/remove/reorder). */
    virtual void
    onCopyListMutated(const mem::CopyList& list, const char* op)
    {
        (void)list; (void)op;
    }
};

/** Observer of application-level accesses inside node::Processor. */
class ProcObserver
{
  public:
    virtual ~ProcObserver() = default;

    /** Thread @p tid completed a coherent read of @p vaddr. */
    virtual void
    onProcRead(NodeId node, ThreadId tid, Addr vaddr)
    {
        (void)node; (void)tid; (void)vaddr;
    }

    /** Thread @p tid issued a coherent write of @p vaddr. */
    virtual void
    onProcWrite(NodeId node, ThreadId tid, Addr vaddr)
    {
        (void)node; (void)tid; (void)vaddr;
    }

    /** Thread @p tid issued an interlocked operation on @p vaddr. */
    virtual void
    onProcRmwIssue(NodeId node, ThreadId tid, Addr vaddr, std::uint8_t op)
    {
        (void)node; (void)tid; (void)vaddr; (void)op;
    }

    /** Thread @p tid consumed the delayed result of an op on @p vaddr. */
    virtual void
    onProcVerify(NodeId node, ThreadId tid, Addr vaddr)
    {
        (void)node; (void)tid; (void)vaddr;
    }

    /** Thread @p tid completed a full (blocking) fence. */
    virtual void
    onProcFence(NodeId node, ThreadId tid)
    {
        (void)node; (void)tid;
    }

    /** Thread @p tid armed the paper's non-blocking write fence. */
    virtual void
    onProcWriteFence(NodeId node, ThreadId tid)
    {
        (void)node; (void)tid;
    }

    /**
     * Thread @p tid accessed @p vaddr on a page whose every copy died
     * with a crashed node: the access completed degraded (reads return
     * the PageLost sentinel, writes are dropped) within bounded cycles
     * instead of retrying forever.
     */
    virtual void
    onProcPageLost(NodeId node, ThreadId tid, Addr vaddr)
    {
        (void)node; (void)tid; (void)vaddr;
    }

    /**
     * The processor on @p node just left a free interval: it had been
     * waiting since @p start for @p duration cycles with @p kind (a
     * node::StallKind value) as the recorded reason. Emitted when the
     * interval closes, so begin and end arrive together.
     */
    virtual void
    onProcStall(NodeId node, std::uint8_t kind, Cycles start,
                Cycles duration)
    {
        (void)node; (void)kind; (void)start; (void)duration;
    }
};

/** Convenience base implementing every hook family. */
class Observer : public PendingWritesObserver,
                 public ProtoObserver,
                 public CopyListObserver,
                 public ProcObserver
{
};

/**
 * Fan-out to two observers. Each instrumented subsystem holds a single
 * observer pointer (keeping the disabled cost at one branch per event);
 * when both the checker and the telemetry tracer are installed,
 * core::Machine interposes one of these.
 */
class TeeObserver final : public Observer
{
  public:
    TeeObserver(Observer* first, Observer* second)
        : a_(first), b_(second)
    {
    }

    void
    onPendingInsert(NodeId node, std::uint32_t tag, Vpn vpn,
                    Addr word_offset) override
    {
        tee(&Observer::onPendingInsert, node, tag, vpn, word_offset);
    }

    void
    onPendingComplete(NodeId node, std::uint32_t tag) override
    {
        tee(&Observer::onPendingComplete, node, tag);
    }

    void
    onWriteIssued(NodeId node, std::uint32_t tag, Vpn vpn, Addr word_offset,
                  bool from_rmw) override
    {
        tee(&Observer::onWriteIssued, node, tag, vpn, word_offset,
            from_rmw);
    }

    void
    onChainApplied(ChainId chain, PhysPage copy, Vpn vpn, Addr word_offset,
                   unsigned words, NodeId originator, std::uint32_t tag,
                   bool at_master) override
    {
        tee(&Observer::onChainApplied, chain, copy, vpn, word_offset,
            words, originator, tag, at_master);
    }

    void
    onFenceComplete(NodeId node, bool pending_empty) override
    {
        tee(&Observer::onFenceComplete, node, pending_empty);
    }

    void
    onReadServed(NodeId node, Vpn vpn, Addr word_offset) override
    {
        tee(&Observer::onReadServed, node, vpn, word_offset);
    }

    void
    onMessageSent(NodeId src, NodeId dst, std::uint8_t msg_class,
                  unsigned bytes, Vpn vpn) override
    {
        tee(&Observer::onMessageSent, src, dst, msg_class, bytes, vpn);
    }

    void
    onMessageProcessed(NodeId src, NodeId dst,
                       std::uint8_t msg_class) override
    {
        tee(&Observer::onMessageProcessed, src, dst, msg_class);
    }

    void
    onPendingAborted(NodeId node, std::uint32_t tag, bool retried) override
    {
        tee(&Observer::onPendingAborted, node, tag, retried);
    }

    void
    onWordInvalidated(NodeId node, Vpn vpn, Addr word_offset) override
    {
        tee(&Observer::onWordInvalidated, node, vpn, word_offset);
    }

    void
    onWordRevalidated(NodeId node, Vpn vpn, Addr word_offset) override
    {
        tee(&Observer::onWordRevalidated, node, vpn, word_offset);
    }

    void
    onOwnershipTransfer(NodeId master, Vpn vpn, NodeId from,
                        NodeId to) override
    {
        tee(&Observer::onOwnershipTransfer, master, vpn, from, to);
    }

    void
    onLocalValueServed(NodeId node, Vpn vpn, Addr word_offset) override
    {
        tee(&Observer::onLocalValueServed, node, vpn, word_offset);
    }

    void
    onCopyListMutated(const mem::CopyList& list, const char* op) override
    {
        tee(&Observer::onCopyListMutated, list, op);
    }

    void
    onProcRead(NodeId node, ThreadId tid, Addr vaddr) override
    {
        tee(&Observer::onProcRead, node, tid, vaddr);
    }

    void
    onProcWrite(NodeId node, ThreadId tid, Addr vaddr) override
    {
        tee(&Observer::onProcWrite, node, tid, vaddr);
    }

    void
    onProcRmwIssue(NodeId node, ThreadId tid, Addr vaddr,
                   std::uint8_t op) override
    {
        tee(&Observer::onProcRmwIssue, node, tid, vaddr, op);
    }

    void
    onProcVerify(NodeId node, ThreadId tid, Addr vaddr) override
    {
        tee(&Observer::onProcVerify, node, tid, vaddr);
    }

    void
    onProcFence(NodeId node, ThreadId tid) override
    {
        tee(&Observer::onProcFence, node, tid);
    }

    void
    onProcWriteFence(NodeId node, ThreadId tid) override
    {
        tee(&Observer::onProcWriteFence, node, tid);
    }

    void
    onProcPageLost(NodeId node, ThreadId tid, Addr vaddr) override
    {
        tee(&Observer::onProcPageLost, node, tid, vaddr);
    }

    void
    onProcStall(NodeId node, std::uint8_t kind, Cycles start,
                Cycles duration) override
    {
        tee(&Observer::onProcStall, node, kind, start, duration);
    }

  private:
    /**
     * Forward one hook to both observers through a member pointer: two
     * virtual calls per event, no per-event closure copies.
     */
    template <typename Hook, typename... Args>
    void
    tee(Hook hook, const Args&... args)
    {
        (a_->*hook)(args...);
        (b_->*hook)(args...);
    }

    Observer* a_;
    Observer* b_;
};

} // namespace check
} // namespace plus

#endif // PLUS_CHECK_HOOKS_HPP_
