#include "proto/write_invalidate.hpp"

#include <utility>

#include "common/panic.hpp"
#include "proto/coherence_manager.hpp"

namespace plus {
namespace proto {

std::size_t
WriteInvalidateProtocol::invalidWordsAt(FrameId frame) const
{
    const auto it = invalidHere_.find(frame);
    return it == invalidHere_.end() ? 0 : it->second.size();
}

std::size_t
WriteInvalidateProtocol::invalidEverywhere(FrameId frame) const
{
    const auto it = masterInvalid_.find(frame);
    return it == masterInvalid_.end() ? 0 : it->second.size();
}

bool
WriteInvalidateProtocol::allInvalidEverywhere(
    FrameId frame, const std::vector<WordWrite>& writes) const
{
    const auto it = masterInvalid_.find(frame);
    if (it == masterInvalid_.end()) {
        return false;
    }
    for (const WordWrite& w : writes) {
        if (it->second.count(w.wordOffset) == 0) {
            return false;
        }
    }
    return true;
}

void
WriteInvalidateProtocol::noteWriter(Vpn vpn, FrameId frame, NodeId writer)
{
    const auto [it, inserted] = lastWriter_.emplace(frame, writer);
    if (!inserted && it->second != writer) {
        const NodeId previous = it->second;
        it->second = writer;
        cm_.stats_.ownershipTransfers += 1;
        if (cm_.check_) {
            cm_.check_->onOwnershipTransfer(cm_.self_, vpn, previous,
                                            writer);
        }
    }
}

void
WriteInvalidateProtocol::ackOriginator(NodeId originator, WriteTag tag,
                                       bool from_rmw)
{
    if (originator == cm_.self_) {
        cm_.retireWrite(tag);
    } else {
        auto msg = std::make_unique<WriteAck>();
        msg->tag = tag;
        msg->fromRmw = from_rmw;
        cm_.send(originator, std::move(msg), WriteAck::kBytes);
    }
}

void
WriteInvalidateProtocol::launchChain(Vpn vpn, FrameId frame,
                                     std::vector<WordWrite> writes,
                                     NodeId originator, WriteTag tag,
                                     bool from_rmw)
{
    const check::ChainId chain = cm_.nextChainId();
    if (cm_.check_) {
        cm_.check_->onChainApplied(chain, PhysPage{cm_.self_, frame}, vpn,
                                   writes.front().wordOffset,
                                   static_cast<unsigned>(writes.size()),
                                   originator, tag, /*at_master=*/true);
    }
    if (cm_.deps_.tables->nextCopy(frame)) {
        PendingChain pc;
        pc.frame = frame;
        pc.vpn = vpn;
        pc.words.reserve(writes.size());
        for (const WordWrite& w : writes) {
            pc.words.push_back(w.wordOffset);
        }
        const auto git = clearGen_.find(frame);
        pc.clearGenAtLaunch = git == clearGen_.end() ? 0 : git->second;
        pc.originator = originator;
        pc.tag = tag;
        pc.fromRmw = from_rmw;
        pendingChains_.emplace(chain, std::move(pc));
    }
    cm_.continueChain(vpn, chain, frame, std::move(writes), originator, tag,
                      from_rmw, /*invalidate=*/true);
}

void
WriteInvalidateProtocol::writeAtMaster(Vpn vpn, FrameId frame,
                                       Addr word_offset, Word value,
                                       NodeId originator, WriteTag tag)
{
    cm_.applyLocal(frame, word_offset, value);
    noteWriter(vpn, frame, originator);
    std::vector<WordWrite> writes{WordWrite{word_offset, value}};
    if (cm_.deps_.tables->nextCopy(frame) &&
        allInvalidEverywhere(frame, writes)) {
        // Every sharer already dropped this word: the write is complete
        // at the master with no chain at all — the invalidate payoff.
        ackOriginator(originator, tag, /*from_rmw=*/false);
        return;
    }
    launchChain(vpn, frame, std::move(writes), originator, tag,
                /*from_rmw=*/false);
}

void
WriteInvalidateProtocol::propagateRmwEffects(Vpn vpn, FrameId frame,
                                             std::vector<WordWrite> writes,
                                             NodeId originator,
                                             WriteTag write_tag)
{
    if (!writes.empty()) {
        noteWriter(vpn, frame, originator);
        if (cm_.deps_.tables->nextCopy(frame) &&
            allInvalidEverywhere(frame, writes)) {
            ackOriginator(originator, write_tag, /*from_rmw=*/true);
            return;
        }
        launchChain(vpn, frame, std::move(writes), originator, write_tag,
                    /*from_rmw=*/true);
    } else {
        // Nothing to propagate: retire the tracked pseudo-write now.
        ackOriginator(originator, write_tag, /*from_rmw=*/true);
    }
}

void
WriteInvalidateProtocol::chainStop(std::unique_ptr<UpdateReq> msg)
{
    const FrameId frame = msg->target.frame;
    auto& invalid = invalidHere_[frame];
    for (const WordWrite& w : msg->writes) {
        invalid.insert(w.wordOffset);
        cm_.stats_.invalidations += 1;
        if (cm_.check_) {
            // Before onChainApplied: the checker requires the shadow
            // invalidation to precede the chain stop at a sharer.
            cm_.check_->onWordInvalidated(cm_.self_, msg->vpn,
                                          w.wordOffset);
        }
    }
    invGen_[frame] += 1;
    if (cm_.check_) {
        cm_.check_->onChainApplied(
            msg->chainId, msg->target, msg->vpn,
            msg->writes.empty() ? 0 : msg->writes.front().wordOffset,
            static_cast<unsigned>(msg->writes.size()), msg->originator,
            msg->tag, /*at_master=*/false);
    }
    cm_.continueChain(msg->vpn, msg->chainId, frame, std::move(msg->writes),
                      msg->originator, msg->tag, msg->fromRmw,
                      /*invalidate=*/true);
}

void
WriteInvalidateProtocol::chainAckAtMaster(std::uint64_t chain_id)
{
    const auto it = pendingChains_.find(chain_id);
    PLUS_ASSERT(it != pendingChains_.end(),
                "chain-routed ack for an unknown invalidation chain");
    const PendingChain pc = std::move(it->second);
    pendingChains_.erase(it);
    const auto git = clearGen_.find(pc.frame);
    const std::uint64_t gen = git == clearGen_.end() ? 0 : git->second;
    if (gen == pc.clearGenAtLaunch) {
        // No re-fetch was served since launch, so every sharer copy
        // still holds these words invalid: commit them, letting later
        // writes skip the chain.
        auto& committed = masterInvalid_[pc.frame];
        for (const Addr off : pc.words) {
            committed.insert(off);
        }
    }
    ackOriginator(pc.originator, pc.tag, pc.fromRmw);
}

void
WriteInvalidateProtocol::serveLocalRead(Vpn vpn, Addr word_offset,
                                        FrameId frame,
                                        std::function<void(Word)> done)
{
    const PhysPage master = cm_.deps_.tables->master(frame);
    if (master.node != cm_.self_) {
        const auto it = invalidHere_.find(frame);
        if (it != invalidHere_.end() &&
            it->second.count(word_offset) != 0) {
            refetchWord(vpn, word_offset, frame, master, std::move(done));
            return;
        }
    }
    cm_.stats_.localReads += 1;
    if (cm_.check_) {
        cm_.check_->onLocalValueServed(cm_.self_, vpn, word_offset);
    }
    done(cm_.deps_.memory->read(frame, word_offset));
}

void
WriteInvalidateProtocol::serveNackedLocalRead(Vpn vpn, Addr word_offset,
                                              FrameId frame,
                                              std::function<void(Word)> done)
{
    const PhysPage master = cm_.deps_.tables->master(frame);
    if (master.node != cm_.self_) {
        const auto it = invalidHere_.find(frame);
        if (it != invalidHere_.end() &&
            it->second.count(word_offset) != 0) {
            refetchWord(vpn, word_offset, frame, master, std::move(done));
            return;
        }
    }
    if (cm_.check_) {
        cm_.check_->onLocalValueServed(cm_.self_, vpn, word_offset);
    }
    done(cm_.deps_.memory->read(frame, word_offset));
}

void
WriteInvalidateProtocol::refetchWord(Vpn vpn, Addr word_offset,
                                     FrameId frame, PhysPage master,
                                     std::function<void(Word)> done)
{
    cm_.stats_.remoteReads += 1;
    cm_.stats_.refetches += 1;
    if (cm_.deps_.refCounters) {
        cm_.deps_.refCounters->recordRemoteRef(vpn);
    }
    const ReadTag tag = cm_.nextReadTag_++;
    const std::uint64_t gen = invGen_[frame];
    cm_.readWaiters_.emplace(
        tag, [this, vpn, word_offset, frame, gen,
              done = std::move(done)](Word value) mutable {
            // Revalidate the copy's word only if nothing invalidated the
            // copy (or recycled the frame) while the re-fetch was in
            // flight; the value handed to the reader is correct as of
            // the master's serialization either way.
            const auto git = invGen_.find(frame);
            if (git != invGen_.end() && git->second == gen &&
                cm_.deps_.memory->allocated(frame)) {
                cm_.applyLocal(frame, word_offset, value);
                const auto iit = invalidHere_.find(frame);
                if (iit != invalidHere_.end()) {
                    iit->second.erase(word_offset);
                }
                if (cm_.check_) {
                    cm_.check_->onWordRevalidated(cm_.self_, vpn,
                                                  word_offset);
                }
            }
            done(value);
        });
    auto msg = std::make_unique<ReadReq>();
    msg->target = PhysAddr{master, word_offset};
    msg->vpn = vpn;
    msg->originator = cm_.self_;
    msg->tag = tag;
    msg->refetch = true;
    cm_.send(master.node, std::move(msg), ReadReq::kBytes);
}

void
WriteInvalidateProtocol::serveReadReq(std::unique_ptr<ReadReq> msg)
{
    const FrameId frame = msg->target.page.frame;
    const Addr off = msg->target.wordOffset;
    const PhysPage master = cm_.deps_.tables->master(frame);
    if (master.node == cm_.self_) {
        if (msg->refetch) {
            // The sharer is revalidating this word; it is no longer
            // invalid everywhere, so later writes must chain again.
            const auto it = masterInvalid_.find(frame);
            if (it != masterInvalid_.end() && it->second.erase(off) > 0) {
                clearGen_[frame] += 1;
            }
        }
        auto resp = std::make_unique<ReadResp>();
        resp->tag = msg->tag;
        resp->value = cm_.deps_.memory->read(frame, off);
        cm_.send(msg->originator, std::move(resp), ReadResp::kBytes);
        return;
    }
    const auto it = invalidHere_.find(frame);
    if (it != invalidHere_.end() && it->second.count(off) != 0) {
        // This copy's word is stale: retarget the request to the master.
        msg->target = PhysAddr{master, off};
        cm_.send(master.node, std::move(msg), ReadReq::kBytes);
        return;
    }
    if (cm_.check_) {
        cm_.check_->onLocalValueServed(cm_.self_, msg->vpn, off);
    }
    auto resp = std::make_unique<ReadResp>();
    resp->tag = msg->tag;
    resp->value = cm_.deps_.memory->read(frame, off);
    cm_.send(msg->originator, std::move(resp), ReadResp::kBytes);
}

void
WriteInvalidateProtocol::fillBatchValidity(FrameId src_frame,
                                           Addr base_offset, Addr count,
                                           PageCopyData& msg)
{
    msg.validMask.assign((count + 63) / 64, 0);
    const auto mit = masterInvalid_.find(src_frame);
    const auto iit = invalidHere_.find(src_frame);
    for (Addr i = 0; i < count; ++i) {
        const Addr off = base_offset + i;
        const bool invalid =
            (mit != masterInvalid_.end() &&
             mit->second.count(off) != 0) ||
            (iit != invalidHere_.end() && iit->second.count(off) != 0);
        if (!invalid) {
            msg.validMask[i >> 6] |= std::uint64_t{1} << (i & 63);
        }
    }
}

void
WriteInvalidateProtocol::applyCopyBatch(const PageCopyData& msg)
{
    const FrameId frame = msg.target.frame;
    const auto valid = [&msg](std::size_t i) {
        return msg.validMask.empty() ||
               ((msg.validMask[i >> 6] >> (i & 63)) & 1) != 0;
    };
    bool invalidated = false;
    for (std::size_t i = 0; i < msg.words.size(); ++i) {
        const Addr off = msg.baseOffset + i;
        if (valid(i)) {
            cm_.applyLocal(frame, off, msg.words[i]);
            const auto it = invalidHere_.find(frame);
            if (it != invalidHere_.end()) {
                it->second.erase(off);
            }
            if (cm_.check_) {
                // Also reconciles shadow state left over from an earlier
                // copy of the same page this node held and dropped.
                cm_.check_->onWordRevalidated(cm_.self_, msg.vpn, off);
            }
        } else {
            // The source holds this word invalid-everywhere; the new
            // copy must not serve it before a re-fetch.
            invalidHere_[frame].insert(off);
            invalidated = true;
            if (cm_.check_) {
                cm_.check_->onWordInvalidated(cm_.self_, msg.vpn, off);
            }
        }
    }
    if (invalidated) {
        invGen_[frame] += 1;
    }
}

void
WriteInvalidateProtocol::onFrameDropped(FrameId frame)
{
    invalidHere_.erase(frame);
    // Bumped, never erased: an in-flight re-fetch waiter must not
    // revalidate a word of a recycled frame.
    invGen_[frame] += 1;
    masterInvalid_.erase(frame);
    clearGen_[frame] += 1;
    lastWriter_.erase(frame);
}

void
WriteInvalidateProtocol::onMasterPromoted(FrameId frame, Vpn vpn)
{
    // The machine synced the full page from the old master before the
    // promotion, so every word of this copy is valid again.
    const auto it = invalidHere_.find(frame);
    if (it != invalidHere_.end()) {
        if (cm_.check_) {
            for (const Addr off : it->second) {
                cm_.check_->onWordRevalidated(cm_.self_, vpn, off);
            }
        }
        invalidHere_.erase(it);
    }
    invGen_[frame] += 1;
    // Start with no invalid-everywhere knowledge: conservative, and the
    // old master's set described the *old* sharer topology anyway.
    masterInvalid_.erase(frame);
    clearGen_[frame] += 1;
}

void
WriteInvalidateProtocol::onMasterDemoted(FrameId frame)
{
    masterInvalid_.erase(frame);
    clearGen_[frame] += 1;
    lastWriter_.erase(frame);
}

} // namespace proto
} // namespace plus
