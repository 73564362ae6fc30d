#include "proto/write_update.hpp"

#include <utility>

#include "proto/coherence_manager.hpp"

namespace plus {
namespace proto {

void
WriteUpdateProtocol::writeAtMaster(Vpn vpn, FrameId frame, Addr word_offset,
                                   Word value, NodeId originator,
                                   WriteTag tag)
{
    cm_.applyLocal(frame, word_offset, value);
    const check::ChainId chain = cm_.nextChainId();
    if (cm_.check_) {
        cm_.check_->onChainApplied(chain, PhysPage{cm_.self_, frame}, vpn,
                                   word_offset, 1, originator, tag,
                                   /*at_master=*/true);
    }
    cm_.continueChain(vpn, chain, frame, {WordWrite{word_offset, value}},
                      originator, tag, /*from_rmw=*/false,
                      /*invalidate=*/false);
}

void
WriteUpdateProtocol::propagateRmwEffects(Vpn vpn, FrameId frame,
                                         std::vector<WordWrite> writes,
                                         NodeId originator,
                                         WriteTag write_tag)
{
    if (!writes.empty()) {
        const check::ChainId chain = cm_.nextChainId();
        if (cm_.check_) {
            cm_.check_->onChainApplied(chain, PhysPage{cm_.self_, frame},
                                       vpn, writes.front().wordOffset,
                                       static_cast<unsigned>(writes.size()),
                                       originator, write_tag,
                                       /*at_master=*/true);
        }
        cm_.continueChain(vpn, chain, frame, std::move(writes), originator,
                          write_tag, /*from_rmw=*/true,
                          /*invalidate=*/false);
    } else {
        // Nothing to propagate: retire the tracked pseudo-write now.
        if (originator == cm_.self_) {
            cm_.retireWrite(write_tag);
        } else {
            auto msg = std::make_unique<WriteAck>();
            msg->tag = write_tag;
            msg->fromRmw = true;
            cm_.send(originator, std::move(msg), WriteAck::kBytes);
        }
    }
}

void
WriteUpdateProtocol::chainStop(std::unique_ptr<UpdateReq> msg)
{
    const FrameId frame = msg->target.frame;
    for (const WordWrite& w : msg->writes) {
        cm_.applyLocal(frame, w.wordOffset, w.value);
    }
    if (cm_.check_) {
        cm_.check_->onChainApplied(
            msg->chainId, msg->target, msg->vpn,
            msg->writes.empty() ? 0 : msg->writes.front().wordOffset,
            static_cast<unsigned>(msg->writes.size()), msg->originator,
            msg->tag, /*at_master=*/false);
    }
    cm_.continueChain(msg->vpn, msg->chainId, frame,
                      std::move(msg->writes), msg->originator, msg->tag,
                      msg->fromRmw, /*invalidate=*/false);
}

void
WriteUpdateProtocol::serveLocalRead(Vpn vpn, Addr word_offset, FrameId frame,
                                    std::function<void(Word)> done)
{
    (void)vpn;
    cm_.stats_.localReads += 1;
    done(cm_.deps_.memory->read(frame, word_offset));
}

void
WriteUpdateProtocol::serveReadReq(std::unique_ptr<ReadReq> msg)
{
    const FrameId frame = msg->target.page.frame;
    auto resp = std::make_unique<ReadResp>();
    resp->tag = msg->tag;
    resp->value = cm_.deps_.memory->read(frame, msg->target.wordOffset);
    cm_.send(msg->originator, std::move(resp), ReadResp::kBytes);
}

void
WriteUpdateProtocol::applyCopyBatch(const PageCopyData& msg)
{
    const FrameId frame = msg.target.frame;
    for (std::size_t i = 0; i < msg.words.size(); ++i) {
        cm_.applyLocal(frame, msg.baseOffset + i, msg.words[i]);
    }
}

} // namespace proto
} // namespace plus
