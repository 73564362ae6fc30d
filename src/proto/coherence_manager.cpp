#include "proto/coherence_manager.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/log.hpp"
#include "common/panic.hpp"
#include "net/network.hpp"
#include "proto/protocol.hpp"
#include "sim/engine.hpp"
#include "telemetry/prof.hpp"

namespace plus {
namespace proto {

namespace {

/** Words per background page-copy batch. */
constexpr Addr kPageCopyBatchWords = 32;

/** Downcast an owned protocol message to its concrete type. */
template <typename T>
std::unique_ptr<T>
take(std::unique_ptr<ProtoMsg>& msg)
{
    return std::unique_ptr<T>(static_cast<T*>(msg.release()));
}

/** Page a message addresses, for traffic attribution (0 = none). */
Vpn
vpnOf(const ProtoMsg& msg)
{
    switch (msg.type) {
      case MsgType::ReadReq:
        return static_cast<const ReadReq&>(msg).vpn;
      case MsgType::WriteReq:
        return static_cast<const WriteReq&>(msg).vpn;
      case MsgType::UpdateReq:
        return static_cast<const UpdateReq&>(msg).vpn;
      case MsgType::RmwReq:
        return static_cast<const RmwReq&>(msg).vpn;
      case MsgType::Nack:
        return static_cast<const Nack&>(msg).vpn;
      default:
        return 0;
    }
}

} // namespace

std::uint64_t
CmStats::totalSent() const
{
    return std::accumulate(sent.begin(), sent.end(), std::uint64_t{0});
}

CoherenceManager::CoherenceManager(NodeId self, const CostModel& cost,
                                   Deps deps, plus::Protocol protocol)
    : self_(self), cost_(cost), deps_(deps),
      protocol_(makeProtocol(protocol, *this)),
      pendingWrites_(cost.pendingWriteEntries),
      delayedOps_(cost.delayedOpEntries)
{
    PLUS_ASSERT(deps_.engine && deps_.network && deps_.memory &&
                deps_.tables, "coherence manager missing dependencies");
}

CoherenceManager::~CoherenceManager() = default;

void
CoherenceManager::enqueue(Cycles occupancy, sim::Event work)
{
    const Cycles now = deps_.engine->now();
    const Cycles start = std::max(now, busyUntil_);
    const Cycles finish = start + occupancy;
    busyUntil_ = finish;
    stats_.busyCycles += occupancy;
    deps_.engine->schedule(finish - now, std::move(work));
}

void
CoherenceManager::send(NodeId dst, std::unique_ptr<ProtoMsg> msg,
                       unsigned bytes)
{
    PLUS_ASSERT(dst != self_, "protocol message addressed to self");
    stats_.sent[static_cast<std::size_t>(msg->type)] += 1;
    PLUS_LOG(LogComponent::Proto, "n", self_, " -> n", dst, " ",
             toString(msg->type));
    if (check_) {
        check_->onMessageSent(self_, dst,
                              static_cast<std::uint8_t>(msg->type), bytes,
                              vpnOf(*msg));
    }
    net::Packet packet;
    packet.src = self_;
    packet.dst = dst;
    packet.payloadBytes = bytes;
    packet.msgClass = static_cast<std::uint8_t>(msg->type);
    packet.payload = std::move(msg);
    deps_.network->send(std::move(packet));
}

void
CoherenceManager::applyLocal(FrameId frame, Addr word_offset, Word value)
{
    deps_.memory->write(frame, word_offset, value);
    if (snoop_) {
        snoop_(frame, word_offset, value);
    }
}

// --------------------------------------------------------------------------
// Processor-side interface
// --------------------------------------------------------------------------

void
CoherenceManager::procRead(Vpn vpn, Addr word_offset, PhysAddr phys,
                           std::function<void(Word)> done)
{
    // Reading a location that is currently being written blocks until the
    // write completes (strong ordering within one processor).
    pendingWrites_.whenAddrClear(
        vpn, word_offset,
        [this, vpn, word_offset, phys, done = std::move(done)]() mutable {
            if (check_) {
                // The conflicting-write wait is over: the checker verifies
                // no same-node write to the location is still in flight.
                check_->onReadServed(self_, vpn, word_offset);
            }
            if (phys.page.node == self_) {
                protocol_->serveLocalRead(vpn, word_offset,
                                          phys.page.frame,
                                          std::move(done));
                return;
            }
            stats_.remoteReads += 1;
            if (deps_.refCounters) {
                deps_.refCounters->recordRemoteRef(vpn);
            }
            const ReadTag tag = nextReadTag_++;
            readWaiters_.emplace(tag, std::move(done));
            if (recoveryArmed_) {
                readMeta_.emplace(tag, ReadMeta{vpn, word_offset,
                                                phys.page.node});
            }
            auto msg = std::make_unique<ReadReq>();
            msg->target = phys;
            msg->vpn = vpn;
            msg->originator = self_;
            msg->tag = tag;
            send(phys.page.node, std::move(msg), ReadReq::kBytes);
        });
}

void
CoherenceManager::gateBehindFence(std::function<void()> fn)
{
    if (fenceGroups_.empty()) {
        fn();
    } else {
        fenceGroups_.back().push_back(std::move(fn));
    }
}

void
CoherenceManager::procWriteFence()
{
    if (fenceGroups_.empty() && pendingWrites_.empty()) {
        return; // nothing to drain
    }
    fenceGroups_.emplace_back();
    if (fenceGroups_.size() == 1) {
        armFenceDrain();
    }
}

void
CoherenceManager::armFenceDrain()
{
    pendingWrites_.whenEmpty([this] { releaseFenceGroup(); });
}

void
CoherenceManager::releaseFenceGroup()
{
    PLUS_ASSERT(!fenceGroups_.empty(), "fence drain with no group");
    auto group = std::move(fenceGroups_.front());
    fenceGroups_.pop_front();
    for (auto& fn : group) {
        fn(); // may insert the group's own pending writes
    }
    if (!fenceGroups_.empty()) {
        armFenceDrain();
    }
}

void
CoherenceManager::procWrite(Vpn vpn, Addr word_offset, PhysAddr phys,
                            Word value, std::function<void()> accepted)
{
    gateBehindFence([this, vpn, word_offset, phys, value,
                     accepted = std::move(accepted)]() mutable {
        pendingWrites_.whenSlotFree(
            [this, vpn, word_offset, phys, value,
             accepted = std::move(accepted)]() mutable {
                const WriteTag tag =
                    pendingWrites_.insert(vpn, word_offset);
                pendingWrites_.noteHighWater();
                if (check_) {
                    check_->onWriteIssued(self_, tag, vpn, word_offset,
                                          /*from_rmw=*/false);
                }
                if (recoveryArmed_) {
                    writeMeta_.emplace(
                        tag, WriteMeta{vpn, word_offset, value,
                                       phys.page.node, /*fromRmw=*/false});
                }
                accepted();
                dispatchWrite(vpn, word_offset, phys, value, tag);
            });
    });
}

void
CoherenceManager::dispatchWrite(Vpn vpn, Addr word_offset, PhysAddr phys,
                                Word value, WriteTag tag)
{
    // Remember where this dispatch addressed the write so a crash of
    // that node can be mapped back to the in-flight operation.
    const auto noteDst = [this, tag](NodeId dst) {
        if (recoveryArmed_) {
            auto it = writeMeta_.find(tag);
            if (it != writeMeta_.end()) {
                it->second.dst = dst;
            }
        }
    };

    if (phys.page.node != self_) {
        noteDst(phys.page.node);
        stats_.remoteWrites += 1;
        if (deps_.refCounters) {
            deps_.refCounters->recordRemoteRef(vpn);
        }
        auto msg = std::make_unique<WriteReq>();
        msg->target = phys;
        msg->vpn = vpn;
        msg->value = value;
        msg->originator = self_;
        msg->tag = tag;
        send(phys.page.node, std::move(msg), WriteReq::kBytes);
        return;
    }

    const FrameId frame = phys.page.frame;
    const PhysPage master = deps_.tables->master(frame);
    if (master.node == self_) {
        noteDst(self_);
        // A write is "local" only if it completes with no network traffic.
        if (deps_.tables->nextCopy(frame)) {
            stats_.remoteWrites += 1;
        } else {
            stats_.localWrites += 1;
        }
        enqueue(cost_.cmServiceWrite,
                [this, vpn, frame, word_offset, value, tag] {
                    protocol_->writeAtMaster(vpn, frame, word_offset,
                                             value, self_, tag);
                });
    } else {
        noteDst(master.node);
        stats_.remoteWrites += 1;
        auto msg = std::make_unique<WriteReq>();
        msg->target = PhysAddr{master, word_offset};
        msg->vpn = vpn;
        msg->value = value;
        msg->originator = self_;
        msg->tag = tag;
        send(master.node, std::move(msg), WriteReq::kBytes);
    }
}

void
CoherenceManager::continueChain(Vpn vpn, check::ChainId chain, FrameId frame,
                                std::vector<WordWrite> writes,
                                NodeId originator, WriteTag tag,
                                bool from_rmw, bool invalidate)
{
    const std::optional<PhysPage> next = deps_.tables->nextCopy(frame);
    if (next) {
        auto msg = std::make_unique<UpdateReq>();
        msg->target = *next;
        msg->vpn = vpn;
        msg->writes = std::move(writes);
        msg->originator = originator;
        msg->tag = tag;
        msg->chainId = chain;
        msg->fromRmw = from_rmw;
        msg->invalidate = invalidate;
        const unsigned bytes = msg->bytes();
        send(next->node, std::move(msg), bytes);
        return;
    }
    if (invalidate) {
        const PhysPage master = deps_.tables->master(frame);
        if (master.node != self_) {
            // The tail sharer of an invalidation chain acknowledges the
            // master, which commits the chain and relays the completion
            // to the originator (Protocol::chainAckAtMaster).
            auto msg = std::make_unique<WriteAck>();
            msg->tag = tag;
            msg->fromRmw = from_rmw;
            msg->chainId = chain;
            send(master.node, std::move(msg), WriteAck::kChainBytes);
            return;
        }
        // Degenerate chain (master with no copies): ack directly below.
    }
    if (originator == self_) {
        retireWrite(tag);
    } else {
        auto msg = std::make_unique<WriteAck>();
        msg->tag = tag;
        msg->fromRmw = from_rmw;
        send(originator, std::move(msg), WriteAck::kBytes);
    }
}

void
CoherenceManager::retireWrite(WriteTag tag)
{
    clearNackRetries(NackedKind::Write, tag);
    if (recoveryArmed_) {
        writeMeta_.erase(tag);
    }
    pendingWrites_.complete(tag);
}

void
CoherenceManager::procIssueRmw(RmwOp op, Vpn vpn, Addr word_offset,
                               PhysAddr phys, Word operand,
                               std::function<void(DelayedOpHandle)> issued)
{
    gateBehindFence([this, op, vpn, word_offset, phys, operand,
                     issued = std::move(issued)]() mutable {
        issueRmwUngated(op, vpn, word_offset, phys, operand,
                        std::move(issued));
    });
}

void
CoherenceManager::procIssueLostRmw(
    RmwOp op, std::function<void(DelayedOpHandle)> issued)
{
    // No master copy left to execute at: allocate the slot for protocol
    // uniformity and complete it on the spot with the lost sentinel.
    // Nothing is sent, so no recovery metadata is recorded.
    delayedOps_.whenSlotFree([this, op, issued = std::move(issued)] {
        const DelayedOpHandle handle = delayedOps_.allocate(op);
        issued(handle);
        delayedOps_.complete(handle, kPageLostValue);
    });
}

void
CoherenceManager::issueRmwUngated(
    RmwOp op, Vpn vpn, Addr word_offset, PhysAddr phys, Word operand,
    std::function<void(DelayedOpHandle)> issued)
{
    delayedOps_.whenSlotFree(
        [this, op, vpn, word_offset, phys, operand,
         issued = std::move(issued)]() mutable {
            const DelayedOpHandle handle = delayedOps_.allocate(op);
            if (recoveryArmed_) {
                rmwMeta_.emplace(handle,
                                 RmwMeta{op, vpn, word_offset, operand,
                                         phys.page.node, /*writeTag=*/0,
                                         /*track=*/false});
            }
            // The RMW's update chain occupies a pending-writes entry
            // until it completes, so a fence also drains RMW side
            // effects (DESIGN.md "RMW vs fence").
            pendingWrites_.whenSlotFree(
                [this, op, vpn, word_offset, phys, operand, handle,
                 issued = std::move(issued)]() mutable {
                    const WriteTag tag =
                        pendingWrites_.insert(vpn, word_offset);
                    pendingWrites_.noteHighWater();
                    if (check_) {
                        check_->onWriteIssued(self_, tag, vpn, word_offset,
                                              /*from_rmw=*/true);
                    }
                    if (recoveryArmed_) {
                        // The paired pseudo-write: the RMW path owns its
                        // replay, so mark it fromRmw.
                        writeMeta_.emplace(
                            tag, WriteMeta{vpn, word_offset, operand,
                                           phys.page.node,
                                           /*fromRmw=*/true});
                        auto rit = rmwMeta_.find(handle);
                        if (rit != rmwMeta_.end()) {
                            rit->second.writeTag = tag;
                            rit->second.track = true;
                        }
                    }
                    issued(handle);
                    dispatchRmw(op, vpn, word_offset, phys, operand, handle,
                                tag);
                });
        });
}

void
CoherenceManager::dispatchRmw(RmwOp op, Vpn vpn, Addr word_offset,
                              PhysAddr phys, Word operand,
                              DelayedOpHandle handle, WriteTag tag)
{
    const auto noteDst = [this, handle, tag](NodeId dst) {
        if (!recoveryArmed_) {
            return;
        }
        auto it = rmwMeta_.find(handle);
        if (it != rmwMeta_.end()) {
            it->second.dst = dst;
        }
        auto wit = writeMeta_.find(tag);
        if (wit != writeMeta_.end()) {
            wit->second.dst = dst;
        }
    };

    auto forward = [&](PhysPage target_page, NodeId dst) {
        noteDst(dst);
        auto msg = std::make_unique<RmwReq>();
        msg->op = op;
        msg->target = PhysAddr{target_page, word_offset};
        msg->vpn = vpn;
        msg->operand = operand;
        msg->originator = self_;
        msg->opTag = handle;
        msg->writeTag = tag;
        send(dst, std::move(msg), RmwReq::kBytes);
    };

    if (phys.page.node != self_) {
        stats_.remoteRmws += 1;
        if (deps_.refCounters) {
            deps_.refCounters->recordRemoteRef(vpn);
        }
        forward(phys.page, phys.page.node);
        return;
    }

    const FrameId frame = phys.page.frame;
    const PhysPage master = deps_.tables->master(frame);
    if (master.node == self_) {
        noteDst(self_);
        if (deps_.tables->nextCopy(frame)) {
            stats_.remoteRmws += 1;
        } else {
            stats_.localRmws += 1;
        }
        const Cycles occupancy = isComplexOp(op) ? cost_.cmRmwComplex
                                                 : cost_.cmRmwSimple;
        enqueue(occupancy,
                [this, op, vpn, frame, word_offset, operand, handle, tag] {
                    rmwAtMaster(op, vpn, frame, word_offset, operand, self_,
                                handle, tag);
                });
    } else {
        stats_.remoteRmws += 1;
        forward(master, master.node);
    }
}

void
CoherenceManager::rmwAtMaster(RmwOp op, Vpn vpn, FrameId frame,
                              Addr word_offset, Word operand,
                              NodeId originator, OpTag op_tag,
                              WriteTag write_tag)
{
    PageView view{[this, frame](Addr off) {
        return deps_.memory->read(frame, off);
    }};
    const RmwResult result = executeRmw(view, op, word_offset, operand,
                                        cost_.queueBaseOffset);

    // The master executes atomically, returns the old contents to the
    // originator, and propagates the effects down the copy-list.
    std::vector<WordWrite> writes;
    writes.reserve(result.writes.size());
    for (const auto& w : result.writes) {
        applyLocal(frame, w.wordOffset, w.value);
        writes.push_back(WordWrite{w.wordOffset, w.value});
    }

    if (originator == self_) {
        completeRmw(op_tag, result.oldValue);
    } else {
        auto msg = std::make_unique<RmwResp>();
        msg->opTag = op_tag;
        msg->oldValue = result.oldValue;
        send(originator, std::move(msg), RmwResp::kBytes);
    }

    protocol_->propagateRmwEffects(vpn, frame, std::move(writes),
                                   originator, write_tag);
}

void
CoherenceManager::completeRmw(OpTag tag, Word old_value)
{
    clearNackRetries(NackedKind::Rmw, tag);
    if (recoveryArmed_) {
        rmwMeta_.erase(tag);
    }
    delayedOps_.complete(tag, old_value);
}

bool
CoherenceManager::rmwReady(DelayedOpHandle handle) const
{
    return delayedOps_.ready(handle);
}

void
CoherenceManager::procVerify(DelayedOpHandle handle,
                             std::function<void(Word)> done)
{
    delayedOps_.whenReady(
        handle, [this, handle, done = std::move(done)](Word) {
            done(delayedOps_.take(handle));
        });
}

void
CoherenceManager::procFence(std::function<void()> done)
{
    // A blocking fence must also wait for writes still gated behind an
    // earlier write fence, so it joins the gate queue itself.
    gateBehindFence([this, done = std::move(done)]() mutable {
        pendingWrites_.whenEmpty([this, done = std::move(done)]() mutable {
            if (check_) {
                check_->onFenceComplete(self_, pendingWrites_.empty());
            }
            done();
        });
    });
}

// --------------------------------------------------------------------------
// Background page replication
// --------------------------------------------------------------------------

void
CoherenceManager::startPageCopy(FrameId src_frame, PhysPage dst,
                                std::uint32_t copy_id, Vpn vpn)
{
    PLUS_ASSERT(deps_.memory->allocated(src_frame),
                "page copy from unallocated frame");
    sendPageCopyBatch(src_frame, dst, copy_id, vpn, 0);
}

void
CoherenceManager::sendPageCopyBatch(FrameId src_frame, PhysPage dst,
                                    std::uint32_t copy_id, Vpn vpn,
                                    Addr next_offset)
{
    const Addr batch = std::min(kPageCopyBatchWords,
                                kPageWords - next_offset);
    enqueue(cost_.cmPageCopyWord * batch,
            [this, src_frame, dst, copy_id, vpn, next_offset, batch] {
                auto msg = std::make_unique<PageCopyData>();
                msg->target = dst;
                msg->vpn = vpn;
                msg->baseOffset = next_offset;
                msg->words.reserve(batch);
                for (Addr i = 0; i < batch; ++i) {
                    msg->words.push_back(
                        deps_.memory->read(src_frame, next_offset + i));
                }
                protocol_->fillBatchValidity(src_frame, next_offset, batch,
                                             *msg);
                msg->copyId = copy_id;
                msg->last = (next_offset + batch == kPageWords);
                const bool last = msg->last;
                const unsigned bytes = msg->bytes();
                send(dst.node, std::move(msg), bytes);
                if (!last) {
                    sendPageCopyBatch(src_frame, dst, copy_id, vpn,
                                      next_offset + batch);
                }
            });
}

// --------------------------------------------------------------------------
// Network entry
// --------------------------------------------------------------------------

void
CoherenceManager::onPacket(net::Packet packet)
{
    const prof::ScopedPhase prof_scope(prof::Phase::ProtoHandle);
    PLUS_ASSERT(dynamic_cast<ProtoMsg*>(packet.payload.get()) != nullptr,
                "non-protocol packet at coherence manager");
    std::unique_ptr<ProtoMsg> msg(
        static_cast<ProtoMsg*>(packet.payload.release()));
    PLUS_LOG(LogComponent::Proto, "n", self_, " <- n", packet.src, " ",
             toString(msg->type));
    if (check_) {
        // Lets the checker enforce the recovery-epoch invariant: no
        // message from a crashed node is processed after its epoch seals.
        check_->onMessageProcessed(packet.src, self_,
                                   static_cast<std::uint8_t>(msg->type));
    }

    switch (msg->type) {
      case MsgType::ReadReq:
        onReadReq(take<ReadReq>(msg));
        break;
      case MsgType::ReadResp:
        onReadResp(static_cast<const ReadResp&>(*msg));
        break;
      case MsgType::WriteReq:
        onWriteReq(take<WriteReq>(msg));
        break;
      case MsgType::UpdateReq:
        onUpdateReq(take<UpdateReq>(msg));
        break;
      case MsgType::WriteAck:
        onWriteAck(static_cast<const WriteAck&>(*msg));
        break;
      case MsgType::RmwReq:
        onRmwReq(take<RmwReq>(msg));
        break;
      case MsgType::RmwResp:
        onRmwResp(static_cast<const RmwResp&>(*msg));
        break;
      case MsgType::Nack:
        onNack(take<Nack>(msg));
        break;
      case MsgType::PageCopyData:
        onPageCopyData(take<PageCopyData>(msg), packet.src);
        break;
      case MsgType::PageCopyDone:
        onPageCopyDone(static_cast<const PageCopyDone&>(*msg));
        break;
      case MsgType::FrameFlush:
        onFrameFlush(static_cast<const FrameFlush&>(*msg));
        break;
      default:
        PLUS_PANIC("unknown protocol message type");
    }
}

void
CoherenceManager::onReadReq(std::unique_ptr<ReadReq> msg)
{
    enqueue(cost_.cmServiceReadReq, [this, m = std::move(msg)]() mutable {
        const FrameId frame = m->target.page.frame;
        if (!deps_.memory->allocated(frame)) {
            auto nack = std::make_unique<Nack>();
            nack->kind = NackedKind::Read;
            nack->vpn = m->vpn;
            nack->wordOffset = m->target.wordOffset;
            nack->readTag = m->tag;
            send(m->originator, std::move(nack), Nack::kBytes);
            return;
        }
        protocol_->serveReadReq(std::move(m));
    });
}

void
CoherenceManager::onReadResp(const ReadResp& msg)
{
    auto it = readWaiters_.find(msg.tag);
    if (it == readWaiters_.end()) {
        // Only recovery can retire a read out from under its response:
        // it re-dispatched the request and the original answer arrived
        // after the replayed one (or after a degraded completion).
        PLUS_ASSERT(recoveryArmed_, "read response with unknown tag");
        stats_.staleAcks += 1;
        return;
    }
    clearNackRetries(NackedKind::Read, msg.tag);
    if (recoveryArmed_) {
        readMeta_.erase(msg.tag);
    }
    auto done = std::move(it->second);
    readWaiters_.erase(it);
    done(msg.value);
}

void
CoherenceManager::onWriteReq(std::unique_ptr<WriteReq> msg)
{
    const FrameId frame = msg->target.page.frame;
    // The occupancy estimate may use the receive-time table state, but
    // correctness decisions must use the state at execution time: a
    // FrameFlush queued ahead of us may free the frame first.
    const bool master_estimate = deps_.memory->allocated(frame) &&
                                 deps_.tables->knows(frame) &&
                                 deps_.tables->master(frame).node == self_;
    const Cycles occupancy = master_estimate ? cost_.cmServiceWrite
                                             : cost_.cmForward;
    enqueue(occupancy, [this, m = std::move(msg)]() mutable {
        const FrameId frame = m->target.page.frame;
        const bool known = deps_.memory->allocated(frame) &&
                           deps_.tables->knows(frame);
        const bool master_here =
            known && deps_.tables->master(frame).node == self_;
        if (!known) {
            auto nack = std::make_unique<Nack>();
            nack->kind = NackedKind::Write;
            nack->vpn = m->vpn;
            nack->wordOffset = m->target.wordOffset;
            nack->writeTag = m->tag;
            nack->value = m->value;
            send(m->originator, std::move(nack), Nack::kBytes);
            return;
        }
        if (master_here) {
            protocol_->writeAtMaster(m->vpn, frame, m->target.wordOffset,
                                     m->value, m->originator, m->tag);
        } else {
            // Forward the request itself; only the target changes.
            const PhysPage master = deps_.tables->master(frame);
            m->target = PhysAddr{master, m->target.wordOffset};
            send(master.node, std::move(m), WriteReq::kBytes);
        }
    });
}

void
CoherenceManager::onUpdateReq(std::unique_ptr<UpdateReq> msg)
{
    enqueue(cost_.cmServiceUpdate, [this, m = std::move(msg)]() mutable {
        const FrameId frame = m->target.frame;
        // The deletion protocol splices the copy-list before flushing a
        // frame, so an update can never reach a frame that is gone.
        PLUS_ASSERT(deps_.memory->allocated(frame) &&
                        deps_.tables->knows(frame),
                    "update for a frame that holds no copy");
        protocol_->chainStop(std::move(m));
    });
}

void
CoherenceManager::onWriteAck(const WriteAck& msg)
{
    enqueue(cost_.cmServiceAck, [this, tag = msg.tag,
                                 chain = msg.chainId] {
        if (chain != 0) {
            // Chain-routed ack: this node is the page's master, not the
            // originator (write-invalidate commit path).
            protocol_->chainAckAtMaster(chain);
            return;
        }
        if (recoveryArmed_ && writeMeta_.find(tag) == writeMeta_.end()) {
            // Recovery replayed this write and the first acknowledgement
            // (old chain's or new chain's) already retired the entry;
            // tags are never reused, so the straggler is safely dropped.
            stats_.staleAcks += 1;
            return;
        }
        retireWrite(tag);
    });
}

void
CoherenceManager::onRmwReq(std::unique_ptr<RmwReq> msg)
{
    const FrameId frame = msg->target.page.frame;
    const bool master_estimate = deps_.memory->allocated(frame) &&
                                 deps_.tables->knows(frame) &&
                                 deps_.tables->master(frame).node == self_;
    Cycles occupancy;
    if (master_estimate) {
        occupancy = isComplexOp(msg->op) ? cost_.cmRmwComplex
                                         : cost_.cmRmwSimple;
    } else {
        occupancy = cost_.cmForward;
    }
    enqueue(occupancy, [this, m = std::move(msg)]() mutable {
        const FrameId frame = m->target.page.frame;
        const bool known = deps_.memory->allocated(frame) &&
                           deps_.tables->knows(frame);
        const bool master_here =
            known && deps_.tables->master(frame).node == self_;
        if (!known) {
            auto nack = std::make_unique<Nack>();
            nack->kind = NackedKind::Rmw;
            nack->vpn = m->vpn;
            nack->wordOffset = m->target.wordOffset;
            nack->opTag = m->opTag;
            nack->writeTag = m->writeTag;
            nack->value = m->operand;
            nack->op = m->op;
            send(m->originator, std::move(nack), Nack::kBytes);
            return;
        }
        if (master_here) {
            rmwAtMaster(m->op, m->vpn, frame, m->target.wordOffset,
                        m->operand, m->originator, m->opTag,
                        m->writeTag);
        } else {
            // Forward the request itself; only the target changes.
            const PhysPage master = deps_.tables->master(frame);
            m->target = PhysAddr{master, m->target.wordOffset};
            send(master.node, std::move(m), RmwReq::kBytes);
        }
    });
}

void
CoherenceManager::onRmwResp(const RmwResp& msg)
{
    if (recoveryArmed_ && rmwMeta_.find(msg.opTag) == rmwMeta_.end()) {
        // Replay raced the original response; first one in completed.
        stats_.staleAcks += 1;
        return;
    }
    completeRmw(msg.opTag, msg.oldValue);
}

Cycles
CoherenceManager::noteNackRetry(NackedKind kind, std::uint32_t tag)
{
    unsigned& count = nackRetries_[nackKey(kind, tag)];
    count += 1;
    stats_.nackRetryHighWater =
        std::max<std::uint64_t>(stats_.nackRetryHighWater, count);
    if (count > cost_.nackRetryLimit) {
        PLUS_PANIC("node ", self_, ": nacked ",
                   kind == NackedKind::Read    ? "read"
                   : kind == NackedKind::Write ? "write"
                                               : "rmw",
                   " (tag ", tag, ") exhausted ", cost_.nackRetryLimit,
                   " re-translation retries — livelock",
                   traceDumper_ ? traceDumper_() : std::string());
    }
    // The first retry keeps the seed's exact timing; later ones back
    // off exponentially so a livelocking retry storm decays.
    return count > 1 ? cost_.nackBackoffBase
                           << std::min(count - 2, cost_.nackBackoffCap)
                     : 0;
}

bool
CoherenceManager::nackTargetLive(const Nack& nack) const
{
    switch (nack.kind) {
      case NackedKind::Read:
        return readWaiters_.find(nack.readTag) != readWaiters_.end();
      case NackedKind::Write:
        return writeMeta_.find(nack.writeTag) != writeMeta_.end();
      case NackedKind::Rmw:
        return rmwMeta_.find(nack.opTag) != rmwMeta_.end();
      default:
        PLUS_PANIC("unknown nack kind");
    }
}

void
CoherenceManager::completeNackedAsLost(const Nack& nack)
{
    stats_.recoveryAborts += 1;
    switch (nack.kind) {
      case NackedKind::Read: {
        auto it = readWaiters_.find(nack.readTag);
        PLUS_ASSERT(it != readWaiters_.end(),
                    "lost-page nacked read with no waiter");
        clearNackRetries(NackedKind::Read, nack.readTag);
        readMeta_.erase(nack.readTag);
        auto done = std::move(it->second);
        readWaiters_.erase(it);
        done(kPageLostValue);
        break;
      }
      case NackedKind::Write:
        if (check_) {
            check_->onPendingAborted(self_, nack.writeTag,
                                     /*retried=*/false);
        }
        retireWrite(nack.writeTag);
        break;
      case NackedKind::Rmw: {
        // A nacked op was dispatched, so it holds its pending-write slot.
        auto it = rmwMeta_.find(nack.opTag);
        if (it != rmwMeta_.end()) {
            if (check_) {
                check_->onPendingAborted(self_, it->second.writeTag,
                                         /*retried=*/false);
            }
            retireWrite(it->second.writeTag);
        }
        completeRmw(nack.opTag, kPageLostValue);
        break;
      }
      default:
        PLUS_PANIC("unknown nack kind");
    }
}

void
CoherenceManager::onNack(std::unique_ptr<Nack> msg)
{
    // The addressed copy disappeared (deleted or migrated): the OS
    // re-translates through the centralized table and the request is
    // retried against the page's current placement.
    PLUS_ASSERT(translate_, "nack received but no translator installed");
    if (recoveryArmed_ && !nackTargetLive(*msg)) {
        // Recovery already aborted the operation; don't let a straggler
        // nack count against the livelock retry budget.
        stats_.staleAcks += 1;
        return;
    }
    const Cycles backoff = noteNackRetry(
        msg->kind, msg->kind == NackedKind::Read    ? msg->readTag
                   : msg->kind == NackedKind::Write ? msg->writeTag
                                                    : msg->opTag);
    enqueue(cost_.cmForward + cost_.osPageFillCycles + backoff,
            [this, m = std::move(msg)] {
        if (recoveryArmed_) {
            // Re-check at execution time: a crash recovery may have run
            // while this retry sat behind the manager's occupancy.
            if (!nackTargetLive(*m)) {
                stats_.staleAcks += 1;
                return;
            }
            if (lostVpns_.count(m->vpn) != 0) {
                // The page's directory entry died with its last copy;
                // re-translation would fault. Complete degraded instead.
                completeNackedAsLost(*m);
                return;
            }
        }
        stats_.retries += 1;
        const PhysPage page = translate_(m->vpn);
        const PhysAddr phys{page, m->wordOffset};
        switch (m->kind) {
          case NackedKind::Read: {
            if (page.node == self_) {
                auto it = readWaiters_.find(m->readTag);
                PLUS_ASSERT(it != readWaiters_.end(),
                            "nacked read with unknown tag");
                clearNackRetries(NackedKind::Read, m->readTag);
                if (recoveryArmed_) {
                    readMeta_.erase(m->readTag);
                }
                auto done = std::move(it->second);
                readWaiters_.erase(it);
                protocol_->serveNackedLocalRead(m->vpn, m->wordOffset,
                                                page.frame,
                                                std::move(done));
            } else {
                if (recoveryArmed_) {
                    auto rit = readMeta_.find(m->readTag);
                    if (rit != readMeta_.end()) {
                        rit->second.dst = page.node;
                    }
                }
                auto req = std::make_unique<ReadReq>();
                req->target = phys;
                req->vpn = m->vpn;
                req->originator = self_;
                req->tag = m->readTag;
                send(page.node, std::move(req), ReadReq::kBytes);
            }
            break;
          }
          case NackedKind::Write:
            dispatchWrite(m->vpn, m->wordOffset, phys, m->value,
                          m->writeTag);
            break;
          case NackedKind::Rmw:
            dispatchRmw(m->op, m->vpn, m->wordOffset, phys, m->value,
                        m->opTag, m->writeTag);
            break;
          default:
            PLUS_PANIC("unknown nack kind");
        }
    });
}

// --------------------------------------------------------------------------
// Crash recovery
// --------------------------------------------------------------------------

CoherenceManager::RecoveryOutcome
CoherenceManager::recoverAfterCrash(NodeId dead,
                                    const std::vector<Vpn>& affected,
                                    const std::vector<Vpn>& lost)
{
    PLUS_ASSERT(recoveryArmed_,
                "recovery walk without armed bookkeeping");
    RecoveryOutcome out;
    lostVpns_.insert(lost.begin(), lost.end());

    const auto isLost = [&lost](Vpn vpn) {
        return std::binary_search(lost.begin(), lost.end(), vpn);
    };
    // An in-flight operation is torn by the crash if it was last
    // addressed to the dead node (the request or its response died with
    // it) or rides a page whose copy-list contained the dead node (its
    // update chain may have been cut mid-propagation).
    const auto torn = [&](Vpn vpn, NodeId dst) {
        return dst == dead ||
               std::binary_search(affected.begin(), affected.end(), vpn);
    };

    // Collect first: the replay handlers mutate the maps. std::map keys
    // iterate in ascending tag order, which is issue order — the same on
    // every backend.

    std::vector<ReadTag> reads;
    for (const auto& [tag, meta] : readMeta_) {
        if (isLost(meta.vpn) || meta.dst == dead) {
            reads.push_back(tag);
        }
    }
    for (const ReadTag tag : reads) {
        const ReadMeta meta = readMeta_.at(tag);
        auto wit = readWaiters_.find(tag);
        PLUS_ASSERT(wit != readWaiters_.end(),
                    "recovery found a read with no waiter");
        clearNackRetries(NackedKind::Read, tag);
        if (isLost(meta.vpn)) {
            readMeta_.erase(tag);
            auto done = std::move(wit->second);
            readWaiters_.erase(wit);
            done(kPageLostValue);
            out.lostCompletions += 1;
            continue;
        }
        out.abortedReads += 1;
        const PhysPage page = translate_(meta.vpn);
        if (page.node == self_) {
            readMeta_.erase(tag);
            auto done = std::move(wit->second);
            readWaiters_.erase(wit);
            done(deps_.memory->read(page.frame, meta.wordOffset));
        } else {
            readMeta_.at(tag).dst = page.node;
            auto req = std::make_unique<ReadReq>();
            req->target = PhysAddr{page, meta.wordOffset};
            req->vpn = meta.vpn;
            req->originator = self_;
            req->tag = tag;
            send(page.node, std::move(req), ReadReq::kBytes);
        }
    }

    std::vector<WriteTag> writes;
    for (const auto& [tag, meta] : writeMeta_) {
        // Tracked interlocked pseudo-writes replay through the RMW walk.
        if (!meta.fromRmw && (isLost(meta.vpn) || torn(meta.vpn, meta.dst))) {
            writes.push_back(tag);
        }
    }
    for (const WriteTag tag : writes) {
        const WriteMeta meta = writeMeta_.at(tag);
        if (isLost(meta.vpn)) {
            if (check_) {
                check_->onPendingAborted(self_, tag, /*retried=*/false);
            }
            retireWrite(tag);
            out.lostCompletions += 1;
            continue;
        }
        if (check_) {
            check_->onPendingAborted(self_, tag, /*retried=*/true);
        }
        out.abortedWrites += 1;
        const PhysPage page = translate_(meta.vpn);
        dispatchWrite(meta.vpn, meta.wordOffset,
                      PhysAddr{page, meta.wordOffset}, meta.value, tag);
    }

    std::vector<OpTag> rmws;
    for (const auto& [tag, meta] : rmwMeta_) {
        // An op still waiting for its pending-writes slot has nothing in
        // flight to tear; it dispatches when the slot frees.
        if (meta.track && (isLost(meta.vpn) || torn(meta.vpn, meta.dst))) {
            rmws.push_back(tag);
        }
    }
    for (const OpTag tag : rmws) {
        const RmwMeta meta = rmwMeta_.at(tag);
        if (isLost(meta.vpn)) {
            if (check_) {
                check_->onPendingAborted(self_, meta.writeTag,
                                         /*retried=*/false);
            }
            retireWrite(meta.writeTag);
            completeRmw(tag, kPageLostValue);
            out.lostCompletions += 1;
            continue;
        }
        if (check_) {
            check_->onPendingAborted(self_, meta.writeTag,
                                     /*retried=*/true);
        }
        out.abortedRmws += 1;
        // Re-execution is at-least-once: if the dead master applied the
        // op but its response was lost, the replay applies it again at
        // the promoted master (see docs/ROBUSTNESS.md). Deterministic
        // either way — every backend replays identically.
        const PhysPage page = translate_(meta.vpn);
        dispatchRmw(meta.op, meta.vpn, meta.wordOffset,
                    PhysAddr{page, meta.wordOffset}, meta.operand, tag,
                    meta.writeTag);
    }

    stats_.recoveryAborts += out.abortedReads + out.abortedWrites +
                             out.abortedRmws + out.lostCompletions;
    return out;
}

void
CoherenceManager::onPageCopyData(std::unique_ptr<PageCopyData> msg,
                                 NodeId src)
{
    const Cycles occupancy = cost_.cmPageCopyWord * msg->words.size();
    enqueue(occupancy, [this, m = std::move(msg), src] {
        const FrameId frame = m->target.frame;
        PLUS_ASSERT(deps_.memory->allocated(frame),
                    "page-copy data for unallocated frame");
        protocol_->applyCopyBatch(*m);
        if (m->last) {
            auto done = std::make_unique<PageCopyDone>();
            done->copyId = m->copyId;
            // Answer the node that ran the copy engine (the packet source
            // is always the predecessor copy).
            send(src, std::move(done), PageCopyDone::kBytes);
        }
    });
}

void
CoherenceManager::osFlushRemoteFrame(PhysPage victim)
{
    auto msg = std::make_unique<FrameFlush>();
    msg->frame = victim.frame;
    send(victim.node, std::move(msg), FrameFlush::kBytes);
}

void
CoherenceManager::onFrameFlush(const FrameFlush& msg)
{
    enqueue(cost_.cmServiceAck, [this, frame = msg.frame] {
        PLUS_ASSERT(deps_.memory->allocated(frame),
                    "flush of a frame that is not allocated");
        protocol_->onFrameDropped(frame);
        deps_.tables->erase(frame);
        deps_.memory->freeFrame(frame);
    });
}

void
CoherenceManager::onPageCopyDone(const PageCopyDone& msg)
{
    enqueue(cost_.cmServiceAck, [this, copyId = msg.copyId] {
        PLUS_ASSERT(pageCopyDone_, "page copy finished with no handler");
        pageCopyDone_(copyId);
    });
}

} // namespace proto
} // namespace plus
