/**
 * @file
 * The coherence-protocol strategy interface.
 *
 * proto::CoherenceManager owns the node-local plumbing every protocol
 * shares — the single-server occupancy model, message dispatch, the
 * pending-writes cache and fences, nack/retry, recovery metadata and
 * statistics. What *policy* runs at each protocol decision point lives
 * behind this interface:
 *
 *  - what a write does when it reaches the master copy;
 *  - how an interlocked operation's memory effects propagate;
 *  - what a chain stop does at a non-master copy (apply vs invalidate);
 *  - how reads are served from a local copy and for remote requestors;
 *  - what state a freshly replicated copy starts with.
 *
 * Implementations are friends of the manager and drive its private
 * helpers (applyLocal, send, continueChain, retireWrite, ...) directly:
 * the split is for clarity and substitutability, not isolation. All
 * protocol entry points run inside the manager's enqueued service
 * events, so occupancy accounting stays in the manager and a virtual
 * dispatch never costs simulated time.
 *
 * Concrete protocols:
 *  - WriteUpdateProtocol (write_update.hpp): the paper's non-demand
 *    write-update protocol, byte-identical to the pre-refactor manager.
 *  - WriteInvalidateProtocol (write_invalidate.hpp): an MSI-flavoured
 *    counterpart for protocol shootouts (docs/PROTOCOLS.md).
 */

#ifndef PLUS_PROTO_PROTOCOL_HPP_
#define PLUS_PROTO_PROTOCOL_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "proto/messages.hpp"

namespace plus {
namespace proto {

class CoherenceManager;

/** Strategy for the protocol-specific half of the coherence manager. */
class Protocol
{
  public:
    explicit Protocol(CoherenceManager& cm) : cm_(cm) {}
    virtual ~Protocol() = default;

    Protocol(const Protocol&) = delete;
    Protocol& operator=(const Protocol&) = delete;

    /** Which protocol this is. */
    virtual plus::Protocol kind() const = 0;

    // --- write path -------------------------------------------------------

    /**
     * A write arrived at the master copy (local dispatch or WriteReq).
     * The protocol applies it, informs the checker and launches whatever
     * propagation it needs; the originator's pending entry retires when
     * the protocol acknowledges it.
     */
    virtual void writeAtMaster(Vpn vpn, FrameId frame, Addr word_offset,
                               Word value, NodeId originator,
                               WriteTag tag) = 0;

    /**
     * An interlocked operation executed at the master (its writes are
     * already applied there and the old value answered); propagate the
     * effects. The originator holds pending-writes entry @p write_tag
     * until the chain acknowledges it.
     */
    virtual void propagateRmwEffects(Vpn vpn, FrameId frame,
                                     std::vector<WordWrite> writes,
                                     NodeId originator,
                                     WriteTag write_tag) = 0;

    /**
     * A chain stopped at this node's (non-master) copy: apply or
     * invalidate per protocol, then continue down the copy-list.
     */
    virtual void chainStop(std::unique_ptr<UpdateReq> msg) = 0;

    /**
     * A chain-routed WriteAck (WriteAck::chainId != 0) reached this
     * node as the page's master. Only write-invalidate routes acks this
     * way; the default panics.
     */
    virtual void chainAckAtMaster(std::uint64_t chain_id);

    // --- read path --------------------------------------------------------

    /**
     * Serve a processor read of @p frame held by this node (conflicting
     * pending writes already drained). Must eventually call @p done.
     */
    virtual void serveLocalRead(Vpn vpn, Addr word_offset, FrameId frame,
                                std::function<void(Word)> done) = 0;

    /**
     * A nacked remote read re-translated to a local copy; serve it.
     * Default: plain local-memory read (the pre-refactor behaviour —
     * notably without the localReads counter, preserving seed stats).
     */
    virtual void serveNackedLocalRead(Vpn vpn, Addr word_offset,
                                      FrameId frame,
                                      std::function<void(Word)> done);

    /**
     * Serve a remote ReadReq addressed to an allocated frame this node
     * holds (the unallocated → Nack case is handled by the manager).
     */
    virtual void serveReadReq(std::unique_ptr<ReadReq> msg) = 0;

    // --- copy creation and teardown ---------------------------------------

    /**
     * A page-copy batch of @p count words starting at @p base_offset is
     * about to leave @p src_frame: record per-word validity in
     * @p msg.validMask if the protocol needs it. Default: leave the mask
     * empty (all words valid, write-update wire format unchanged).
     */
    virtual void fillBatchValidity(FrameId src_frame, Addr base_offset,
                                   Addr count, PageCopyData& msg);

    /** A page-copy batch arrived for this node's new copy; install it. */
    virtual void applyCopyBatch(const PageCopyData& msg) = 0;

    /** This node's copy in @p frame is being flushed; drop its state. */
    virtual void onFrameDropped(FrameId frame);

    /**
     * OS (quiesced) promotion made this node's copy in @p frame the
     * master / demoted it to an ordinary copy.
     */
    virtual void onMasterPromoted(FrameId frame, Vpn vpn);
    virtual void onMasterDemoted(FrameId frame);

  protected:
    CoherenceManager& cm_;
};

/** Instantiate the protocol strategy for a config choice. */
std::unique_ptr<Protocol> makeProtocol(plus::Protocol kind,
                                       CoherenceManager& cm);

} // namespace proto
} // namespace plus

#endif // PLUS_PROTO_PROTOCOL_HPP_
