/**
 * @file
 * A home-pinned write-invalidate (MSI-flavoured) protocol strategy, the
 * counterpart to PLUS's write-update protocol for protocol shootouts
 * (docs/PROTOCOLS.md).
 *
 * The master copy stays pinned as the page's home and write serializer
 * — the existing master/copy-list machinery is reused unchanged —
 * but chains flowing down the copy-list *invalidate* the written words
 * at every non-master copy instead of carrying values. A sharer whose
 * word was invalidated re-fetches it from the master on its next read
 * (ReadReq::refetch), which also clears the master's record of that
 * word being invalid everywhere.
 *
 * The payoff over write-update: once a write's words are known invalid
 * at every sharer, further writes to them complete at the master with
 * no chain at all. "Known" is established conservatively at chain
 * *completion*: the tail of an invalidation chain acknowledges the
 * master (WriteAck::chainId), which commits the chain's words into the
 * invalid-everywhere set — unless any re-fetch of the page was served
 * since the chain launched (a per-frame clear-generation guard), since
 * that re-fetch may have revalidated a copy the chain had already
 * visited. Committing at launch instead would let a second write to
 * the same word complete before the first chain reached every sharer —
 * a stale-read window the invariant checker would (rightly) flag.
 *
 * Replication: a new copy is always spliced in directly after the
 * master (core::Machine anchors replication there under this
 * protocol), so the batch data and subsequent invalidation chains
 * share one FIFO channel and a batch word can never resurrect a value
 * a chain already killed. Batches carry a validity mask; words the
 * master holds invalid-everywhere arrive invalid at the new copy.
 *
 * Fail-stop recovery and fenced replicas are not supported under this
 * protocol (MachineConfig::validate rejects the combinations): both
 * are built on update-chain semantics.
 */

#ifndef PLUS_PROTO_WRITE_INVALIDATE_HPP_
#define PLUS_PROTO_WRITE_INVALIDATE_HPP_

#include <cstdint>
#include <map>
#include <set>

#include "proto/protocol.hpp"

namespace plus {
namespace proto {

/** Home-pinned write-invalidate protocol; see file comment. */
class WriteInvalidateProtocol final : public Protocol
{
  public:
    using Protocol::Protocol;

    plus::Protocol
    kind() const override
    {
        return plus::Protocol::WriteInvalidate;
    }

    void writeAtMaster(Vpn vpn, FrameId frame, Addr word_offset, Word value,
                       NodeId originator, WriteTag tag) override;
    void propagateRmwEffects(Vpn vpn, FrameId frame,
                             std::vector<WordWrite> writes,
                             NodeId originator,
                             WriteTag write_tag) override;
    void chainStop(std::unique_ptr<UpdateReq> msg) override;
    void chainAckAtMaster(std::uint64_t chain_id) override;
    void serveLocalRead(Vpn vpn, Addr word_offset, FrameId frame,
                        std::function<void(Word)> done) override;
    void serveNackedLocalRead(Vpn vpn, Addr word_offset, FrameId frame,
                              std::function<void(Word)> done) override;
    void serveReadReq(std::unique_ptr<ReadReq> msg) override;
    void fillBatchValidity(FrameId src_frame, Addr base_offset, Addr count,
                           PageCopyData& msg) override;
    void applyCopyBatch(const PageCopyData& msg) override;
    void onFrameDropped(FrameId frame) override;
    void onMasterPromoted(FrameId frame, Vpn vpn) override;
    void onMasterDemoted(FrameId frame) override;

    /** Words of this node's copy of @p frame currently invalid. */
    std::size_t invalidWordsAt(FrameId frame) const;

    /** Words the master in @p frame holds invalid-everywhere. */
    std::size_t invalidEverywhere(FrameId frame) const;

  private:
    /** An invalidation chain in flight, awaiting its tail's ack. */
    struct PendingChain {
        FrameId frame = kInvalidFrame;
        Vpn vpn = 0;
        std::vector<Addr> words;
        /** clearGen_ at launch; a mismatch at ack cancels the commit. */
        std::uint64_t clearGenAtLaunch = 0;
        NodeId originator = kInvalidNode;
        WriteTag tag = 0;
        bool fromRmw = false;
    };

    /** True if every word in @p writes is committed invalid-everywhere. */
    bool allInvalidEverywhere(FrameId frame,
                              const std::vector<WordWrite>& writes) const;

    /** Count an ownership transfer when the writing node changes. */
    void noteWriter(Vpn vpn, FrameId frame, NodeId writer);

    /** Complete a chainless write towards its originator. */
    void ackOriginator(NodeId originator, WriteTag tag, bool from_rmw);

    /** Launch an invalidation chain for applied master writes. */
    void launchChain(Vpn vpn, FrameId frame, std::vector<WordWrite> writes,
                     NodeId originator, WriteTag tag, bool from_rmw);

    /** Re-fetch one invalidated word of a local copy from the master. */
    void refetchWord(Vpn vpn, Addr word_offset, FrameId frame,
                     PhysPage master, std::function<void(Word)> done);

    // All per-frame state is in ordered containers: recovery-style
    // walks and the promotion hooks iterate, and their order must be
    // identical on every engine backend (pluslint R1).

    /** Invalid words of this node's (non-master) copies. */
    std::map<FrameId, std::set<Addr>> invalidHere_;
    /**
     * Per-frame invalidation generation, bumped whenever a word of the
     * local copy is invalidated or the frame is dropped — never erased,
     * so an in-flight re-fetch can never revalidate a recycled frame.
     */
    std::map<FrameId, std::uint64_t> invGen_;
    /** Master side: words committed invalid at every sharer copy. */
    std::map<FrameId, std::set<Addr>> masterInvalid_;
    /** Master side: bumped when a re-fetch clears an invalid word. */
    std::map<FrameId, std::uint64_t> clearGen_;
    /** Master side: last writer per frame, for ownershipTransfers. */
    std::map<FrameId, NodeId> lastWriter_;
    /** Master side: launched chains awaiting their tail's ack. */
    std::map<std::uint64_t, PendingChain> pendingChains_;
};

} // namespace proto
} // namespace plus

#endif // PLUS_PROTO_WRITE_INVALIDATE_HPP_
