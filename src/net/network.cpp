#include "net/network.hpp"

#include <cstdint>

#include "common/log.hpp"
#include "common/panic.hpp"
#include "net/fault_injector.hpp"
#include "net/reliable_link.hpp"
#include "sim/engine.hpp"
#include "telemetry/prof.hpp"

namespace plus {
namespace net {

namespace {

/** Link bandwidth as a whole number of milli-bytes per cycle. */
constexpr std::uint64_t kMilliBytesPerCycle =
    static_cast<std::uint64_t>(NetworkConfig::bytesPerCycle * 1000 + 0.5);
static_assert(static_cast<double>(kMilliBytesPerCycle) / 1000 ==
                  NetworkConfig::bytesPerCycle,
              "bytesPerCycle must be a whole number of milli-bytes");

} // namespace

Network::Network(sim::Engine& engine, const Topology& topology,
                 const NetworkConfig& config)
    : engine_(engine), topology_(topology), config_(config),
      handlers_(topology.nodes())
{
}

Network::~Network() = default;

void
Network::setDeliveryHandler(NodeId node, DeliveryHandler handler)
{
    PLUS_ASSERT(node < handlers_.size(), "handler for unknown node");
    handlers_[node] = std::move(handler);
}

Cycles
Network::serializationCycles(unsigned payload_bytes) const
{
    // ceil(bytes / bytesPerCycle), exactly, in integers.
    const std::uint64_t milli_bytes =
        (std::uint64_t{NetworkConfig::headerBytes} + payload_bytes) * 1000;
    return (milli_bytes + kMilliBytesPerCycle - 1) / kMilliBytesPerCycle;
}

void
Network::enableFaults(const FaultConfig& fault, bool arm_script)
{
    PLUS_ASSERT(fault.enabled, "enableFaults with a disabled config");
    PLUS_ASSERT(!injector_, "fault injection enabled twice");
    PLUS_ASSERT(stats().packets == 0,
                "enableFaults must precede all traffic");
    injector_ = std::make_unique<FaultInjector>(engine_, topology_, fault);
    link_ = std::make_unique<LinkLayer>(*this, engine_, *injector_, fault);
    if (arm_script) {
        injector_->scheduleScript();
    }
}

void
Network::send(Packet packet)
{
    PLUS_ASSERT(packet.src != packet.dst, "local traffic on the network");
    if (link_) {
        link_->sendData(std::move(packet));
        return;
    }
    inject(std::move(packet));
}

void
Network::deliver(Packet packet, unsigned hops, Cycles injected_at,
                 Cycles queueing)
{
    // A dead destination router consumes nothing (mid-flight kills; the
    // reliable layer's retransmission recovers the frame on revival).
    if (injector_ && !injector_->nodeAlive(packet.dst)) {
        noteDrop(packet.src, packet.dst, packet.msgClass,
                 packet.payloadBytes, check::DropReason::NodeDown);
        return;
    }
    if (link_) {
        link_->receive(std::move(packet), hops, injected_at, queueing);
        return;
    }
    deliverUp(std::move(packet), hops, injected_at, queueing);
}

void
Network::deliverUp(Packet packet, unsigned hops, Cycles injected_at,
                   Cycles queueing)
{
    const prof::ScopedPhase prof_scope(prof::Phase::NetDeliver);
    stats_.packets += 1;
    stats_.payloadBytes += packet.payloadBytes;
    stats_.totalHops += hops;
    const Cycles latency = engine_.now() - injected_at;
    latency_.record(static_cast<double>(latency));
    queueing_.record(static_cast<double>(queueing));
    if (telemetry_) {
        telemetry_->onPacketDelivered(packet.src, packet.dst,
                                      packet.msgClass, packet.payloadBytes,
                                      hops, latency, queueing);
    }

    const NodeId dst = packet.dst;
    PLUS_ASSERT(dst < handlers_.size() && handlers_[dst],
                "no delivery handler for node ", dst);
    handlers_[dst](std::move(packet));
}

void
Network::noteDrop(NodeId src, NodeId dst, std::uint8_t msg_class,
                  unsigned bytes, check::DropReason reason)
{
    stats_.dropped += 1;
    PLUS_LOG(LogComponent::Net, "drop ", src, " -> ", dst, " (",
             check::toString(reason), ")");
    if (telemetry_) {
        telemetry_->onPacketDropped(src, dst, msg_class, bytes, reason);
    }
}

void
IdealNetwork::inject(Packet packet)
{
    const Cycles latency =
        zeroLoadLatency(topology_.distance(packet.src, packet.dst));
    const Cycles injected_at = engine_.now();
    const NodeId dst = packet.dst;
    // sim::Event takes move-only captures, so the packet rides inline
    // in the event record — no allocation per send. hops is recomputed
    // at delivery to keep the capture within the inline budget.
    // Delivery executes on the destination's lane.
    engine_.scheduleForNode(dst, latency, [this, p = std::move(packet),
                                           injected_at]() mutable {
        const unsigned hops = topology_.distance(p.src, p.dst);
        deliver(std::move(p), hops, injected_at, 0);
    });
}

MeshNetwork::MeshNetwork(sim::Engine& engine, const Topology& topology,
                         const NetworkConfig& config)
    : Network(engine, topology, config),
      links_(static_cast<std::size_t>(topology.nodes()) * kDirections)
{
}

MeshNetwork::Link&
MeshNetwork::linkBetween(NodeId from, NodeId to)
{
    // The direction comes from mesh coordinates, never from id
    // arithmetic: ids from and from + 1 straddle a row break when from
    // ends its row, and those routers are not linked.
    const Coord a = topology_.coordOf(from);
    const Coord b = topology_.coordOf(to);
    unsigned dir = kDirections;
    if (a.y == b.y && b.x == a.x + 1) {
        dir = 0; // east
    } else if (a.y == b.y && b.x + 1 == a.x) {
        dir = 1; // west
    } else if (a.x == b.x && b.y == a.y + 1) {
        dir = 2; // south
    } else if (a.x == b.x && b.y + 1 == a.y) {
        dir = 3; // north
    }
    PLUS_ASSERT(dir < kDirections, "link between non-adjacent nodes ", from,
                " and ", to);
    return links_[static_cast<std::size_t>(from) * kDirections + dir];
}

MeshNetwork::Transit*
MeshNetwork::acquireTransit()
{
    if (freeTransits_.empty()) {
        transits_.push_back(std::make_unique<Transit>());
        return transits_.back().get();
    }
    Transit* transit = freeTransits_.back();
    freeTransits_.pop_back();
    return transit;
}

void
MeshNetwork::releaseTransit(Transit* transit)
{
    transit->packet = Packet{};
    freeTransits_.push_back(transit);
}

void
MeshNetwork::inject(Packet packet)
{
    Transit* transit = acquireTransit();
    transit->injectedAt = engine_.now();
    transit->queueing = 0;
    transit->hops = 0;
    transit->at = packet.src;
    transit->packet = std::move(packet);
    // The fixed overhead covers the network interface and first-router
    // setup; the head then advances hop by hop.
    engine_.schedule(config_.fixedCycles,
                     [this, transit] { hop(transit); });
}

void
MeshNetwork::hop(Transit* transit)
{
    const NodeId dst = transit->packet.dst;
    if (transit->at == dst) {
        Packet packet = std::move(transit->packet);
        const unsigned hops = transit->hops;
        const Cycles injected_at = transit->injectedAt;
        const Cycles queueing = transit->queueing;
        // Recycle before delivering: the handler may send() again.
        releaseTransit(transit);
        deliver(std::move(packet), hops, injected_at, queueing);
        return;
    }

    const NodeId next = topology_.nextHop(transit->at, dst);

    // Faults: a packet already in flight dies at a killed link or a
    // dead router, like the real fabric; the reliable layer's timers
    // recover it once the path heals.
    if (injector_ && (!injector_->linkAlive(transit->at, next) ||
                      !injector_->nodeAlive(transit->at) ||
                      !injector_->nodeAlive(next))) {
        const check::DropReason reason =
            injector_->linkAlive(transit->at, next)
                ? check::DropReason::NodeDown
                : check::DropReason::LinkDown;
        noteDrop(transit->at, next, transit->packet.msgClass,
                 transit->packet.payloadBytes, reason);
        releaseTransit(transit);
        return;
    }

    Link& link = linkBetween(transit->at, next);
    const Cycles now = engine_.now();
    const Cycles serialization =
        serializationCycles(transit->packet.payloadBytes);

    const Cycles start = std::max(now, link.freeAt);
    const Cycles wait = start - now;
    link.freeAt = start + serialization;
    link.busyCycles += serialization;
    if (telemetry_) {
        telemetry_->onLinkBusy(transit->at, next,
                               transit->packet.msgClass,
                               transit->packet.payloadBytes, start,
                               serialization);
    }

    transit->queueing += wait;
    transit->hops += 1;
    transit->at = next;
    // Cut-through: the head moves on after the router latency; the tail
    // occupies the link for the serialization time behind it. The next
    // hop executes on @p next's lane.
    engine_.scheduleForNode(next, wait + config_.perHopCycles,
                            [this, transit] { hop(transit); });
}

Cycles
MeshNetwork::maxLinkBusyCycles() const
{
    Cycles best = 0;
    for (const Link& link : links_) {
        best = std::max(best, link.busyCycles);
    }
    return best;
}

std::unique_ptr<Network>
makeNetwork(sim::Engine& engine, const Topology& topology,
            const NetworkConfig& config)
{
    if (config.ideal) {
        return std::make_unique<IdealNetwork>(engine, topology, config);
    }
    return std::make_unique<MeshNetwork>(engine, topology, config);
}

} // namespace net
} // namespace plus
