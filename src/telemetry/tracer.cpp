#include "telemetry/tracer.hpp"

#include <algorithm>
#include <sstream>

#include "common/panic.hpp"
#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"

namespace plus {
namespace telemetry {

const char*
toString(TraceKind kind)
{
    switch (kind) {
      case TraceKind::MsgSend: return "msg-send";
      case TraceKind::MsgRecv: return "msg-recv";
      case TraceKind::LinkBusy: return "link-busy";
      case TraceKind::PendingWrite: return "pending-write";
      case TraceKind::ChainApply: return "chain-apply";
      case TraceKind::WriteIssued: return "write-issued";
      case TraceKind::Fence: return "fence";
      case TraceKind::ProcStall: return "stall";
      case TraceKind::RmwIssue: return "rmw-issue";
      case TraceKind::RmwVerify: return "rmw-verify";
      case TraceKind::PacketDrop: return "packet-drop";
      case TraceKind::Retransmit: return "retransmit";
      case TraceKind::WordInvalidate: return "word-invalidate";
      case TraceKind::WordRevalidate: return "word-revalidate";
      case TraceKind::OwnershipHandoff: return "ownership-handoff";
    }
    return "?";
}

EventRing::EventRing(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity))
{
    events_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void
EventRing::push(const TraceEvent& event)
{
    if (events_.size() < capacity_) {
        events_.push_back(event);
    } else {
        events_[static_cast<std::size_t>(recorded_ % capacity_)] = event;
        ++dropped_;
    }
    ++recorded_;
}

Telemetry::Telemetry(const TelemetryConfig& config,
                     const sim::Engine* engine)
    : engine_(engine), ring_(config.ringCapacity)
{
    PLUS_ASSERT(engine_, "telemetry needs a clock source");
}

Cycles
Telemetry::now() const
{
    return engine_->now();
}

void
Telemetry::registerMetrics(MetricsRegistry& registry)
{
    registry.addCounter("telemetry.events.recorded",
                        [this] { return ring_.recorded(); });
    registry.addCounter("telemetry.events.dropped",
                        [this] { return ring_.dropped(); });
    // Alias under the trace.* prefix: the ring overwriting the oldest
    // record is a tracing fidelity loss, and stats snapshots should
    // say so where trace consumers look for it.
    registry.addCounter("telemetry.trace.dropped",
                        [this] { return ring_.dropped(); });
    for (std::size_t t = 0;
         t < static_cast<std::size_t>(proto::MsgType::NumTypes); ++t) {
        registry.addDistribution(
            std::string("net.latency.") +
                proto::toString(static_cast<proto::MsgType>(t)),
            &latency_[t]);
    }
    registry.addDistribution("pending.lifetime", &pendingLifetime_);
}

void
Telemetry::onMessageSent(NodeId src, NodeId dst, std::uint8_t msg_class,
                         unsigned bytes, Vpn vpn)
{
    TraceEvent e;
    e.kind = TraceKind::MsgSend;
    e.cls = msg_class;
    e.node = src;
    e.peer = dst;
    e.begin = e.end = now();
    e.vpn = vpn;
    e.bytes = bytes;
    ring_.push(e);

    PageTraffic& page = pageTraffic_[vpn];
    page.messages += 1;
    page.bytes += bytes;
    if (msg_class ==
        static_cast<std::uint8_t>(proto::MsgType::UpdateReq)) {
        page.updates += 1;
    }
}

void
Telemetry::onPacketDelivered(NodeId src, NodeId dst,
                             std::uint8_t msg_class, unsigned bytes,
                             unsigned hops, Cycles latency, Cycles queueing)
{
    (void)hops;
    TraceEvent e;
    e.kind = TraceKind::MsgRecv;
    e.cls = msg_class;
    e.node = dst;
    e.peer = src;
    e.end = now();
    e.begin = e.end - latency;
    e.bytes = bytes;
    e.id = queueing;
    ring_.push(e);

    if (msg_class < static_cast<std::uint8_t>(proto::MsgType::NumTypes)) {
        latency_[msg_class].record(static_cast<double>(latency));
    }
}

void
Telemetry::onLinkBusy(NodeId from, NodeId to, std::uint8_t msg_class,
                      unsigned bytes, Cycles start, Cycles duration)
{
    TraceEvent e;
    e.kind = TraceKind::LinkBusy;
    e.cls = msg_class;
    e.node = from;
    e.peer = to;
    e.begin = start;
    e.end = start + duration;
    e.bytes = bytes;
    ring_.push(e);

    LinkTraffic& link =
        linkTraffic_[(static_cast<std::uint64_t>(from) << 32) | to];
    link.messages += 1;
    link.bytes += bytes;
    link.busyCycles += duration;
}

void
Telemetry::onPacketDropped(NodeId src, NodeId dst, std::uint8_t msg_class,
                           unsigned bytes, check::DropReason reason)
{
    TraceEvent e;
    e.kind = TraceKind::PacketDrop;
    e.cls = msg_class;
    e.node = src;
    e.peer = dst;
    e.begin = e.end = now();
    e.id = static_cast<std::uint64_t>(reason);
    e.bytes = bytes;
    ring_.push(e);
}

void
Telemetry::onRetransmit(NodeId src, NodeId dst, std::uint32_t seq,
                        unsigned attempt)
{
    TraceEvent e;
    e.kind = TraceKind::Retransmit;
    e.node = src;
    e.peer = dst;
    e.begin = e.end = now();
    e.id = seq;
    e.bytes = attempt;
    ring_.push(e);
}

std::string
Telemetry::renderRecent(std::size_t count) const
{
    // Collect the retained tail, then format the newest `count`.
    std::vector<const TraceEvent*> tail;
    ring_.forEach([&tail](const TraceEvent& e) { tail.push_back(&e); });
    const std::size_t start =
        tail.size() > count ? tail.size() - count : 0;
    std::ostringstream os;
    for (std::size_t i = start; i < tail.size(); ++i) {
        const TraceEvent& e = *tail[i];
        os << "\n  [" << e.begin;
        if (e.end != e.begin) {
            os << ".." << e.end;
        }
        os << "] " << toString(e.kind) << " node " << e.node;
        if (e.peer != kInvalidNode) {
            os << " peer " << e.peer;
        }
        if (e.kind == TraceKind::PacketDrop) {
            os << " reason "
               << check::toString(
                      static_cast<check::DropReason>(e.id));
        } else if (e.id != 0) {
            os << " id " << e.id;
        }
        if (e.vpn != 0) {
            os << " vpn " << e.vpn << " +" << e.wordOffset;
        }
        if (e.bytes != 0) {
            os << " bytes " << e.bytes;
        }
    }
    if (tail.empty()) {
        os << "\n  (no trace events recorded; enable telemetry.trace)";
    }
    return os.str();
}

void
Telemetry::onPendingInsert(NodeId node, std::uint32_t tag, Vpn vpn,
                           Addr word_offset)
{
    OpenPending open;
    open.since = now();
    open.vpn = vpn;
    open.wordOffset = static_cast<std::uint32_t>(word_offset);
    openPending_[(static_cast<std::uint64_t>(node) << 32) | tag] = open;
}

void
Telemetry::onPendingComplete(NodeId node, std::uint32_t tag)
{
    const std::uint64_t key =
        (static_cast<std::uint64_t>(node) << 32) | tag;
    auto it = openPending_.find(key);
    if (it == openPending_.end()) {
        return; // insert predates tracer installation
    }
    TraceEvent e;
    e.kind = TraceKind::PendingWrite;
    e.node = node;
    e.begin = it->second.since;
    e.end = now();
    e.id = tag;
    e.vpn = it->second.vpn;
    e.wordOffset = it->second.wordOffset;
    ring_.push(e);
    pendingLifetime_.record(static_cast<double>(e.end - e.begin));
    openPending_.erase(it);
}

void
Telemetry::onWriteIssued(NodeId node, std::uint32_t tag, Vpn vpn,
                         Addr word_offset, bool from_rmw)
{
    TraceEvent e;
    e.kind = TraceKind::WriteIssued;
    e.cls = from_rmw ? 1 : 0;
    e.node = node;
    e.begin = e.end = now();
    e.id = tag;
    e.vpn = vpn;
    e.wordOffset = static_cast<std::uint32_t>(word_offset);
    ring_.push(e);
}

void
Telemetry::onWordInvalidated(NodeId node, Vpn vpn, Addr word_offset)
{
    TraceEvent e;
    e.kind = TraceKind::WordInvalidate;
    e.node = node;
    e.begin = e.end = now();
    e.vpn = vpn;
    e.wordOffset = static_cast<std::uint32_t>(word_offset);
    ring_.push(e);
}

void
Telemetry::onWordRevalidated(NodeId node, Vpn vpn, Addr word_offset)
{
    TraceEvent e;
    e.kind = TraceKind::WordRevalidate;
    e.node = node;
    e.begin = e.end = now();
    e.vpn = vpn;
    e.wordOffset = static_cast<std::uint32_t>(word_offset);
    ring_.push(e);
}

void
Telemetry::onOwnershipTransfer(NodeId master, Vpn vpn, NodeId from,
                               NodeId to)
{
    TraceEvent e;
    e.kind = TraceKind::OwnershipHandoff;
    e.node = master;
    e.peer = to;
    e.begin = e.end = now();
    e.id = from;
    e.vpn = vpn;
    ring_.push(e);
}

void
Telemetry::onChainApplied(check::ChainId chain, PhysPage copy, Vpn vpn,
                          Addr word_offset, unsigned words,
                          NodeId originator, std::uint32_t tag,
                          bool at_master)
{
    (void)tag;
    TraceEvent e;
    e.kind = TraceKind::ChainApply;
    e.cls = at_master ? 1 : 0;
    e.node = copy.node;
    e.peer = originator;
    e.begin = e.end = now();
    e.id = chain;
    e.vpn = vpn;
    e.wordOffset = static_cast<std::uint32_t>(word_offset);
    e.bytes = words;
    ring_.push(e);
}

void
Telemetry::onFenceComplete(NodeId node, bool pending_empty)
{
    (void)pending_empty;
    TraceEvent e;
    e.kind = TraceKind::Fence;
    e.node = node;
    e.begin = e.end = now();
    ring_.push(e);
}

void
Telemetry::onProcStall(NodeId node, std::uint8_t kind, Cycles start,
                       Cycles duration)
{
    TraceEvent e;
    e.kind = TraceKind::ProcStall;
    e.cls = kind;
    e.node = node;
    e.begin = start;
    e.end = start + duration;
    ring_.push(e);
}

void
Telemetry::onProcRmwIssue(NodeId node, ThreadId tid, Addr vaddr,
                          std::uint8_t op)
{
    TraceEvent e;
    e.kind = TraceKind::RmwIssue;
    e.cls = op;
    e.node = node;
    e.begin = e.end = now();
    e.id = tid;
    e.vpn = pageOf(vaddr);
    e.wordOffset = static_cast<std::uint32_t>(wordOffsetOf(vaddr));
    ring_.push(e);
}

void
Telemetry::onProcVerify(NodeId node, ThreadId tid, Addr vaddr)
{
    TraceEvent e;
    e.kind = TraceKind::RmwVerify;
    e.node = node;
    e.begin = e.end = now();
    e.id = tid;
    e.vpn = pageOf(vaddr);
    e.wordOffset = static_cast<std::uint32_t>(wordOffsetOf(vaddr));
    ring_.push(e);
}

} // namespace telemetry
} // namespace plus
