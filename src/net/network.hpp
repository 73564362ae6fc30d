/**
 * @file
 * Interconnection-network models.
 *
 * The network moves opaque packets between coherence managers. Two models
 * share one interface:
 *
 *  - MeshNetwork: a 2-D mesh with dimension-order routing, wormhole-style
 *    cut-through switching, and finite link bandwidth. Each directed link
 *    is a busy-until resource: a packet reserves it for its serialization
 *    time, so heavy update traffic queues and the "system flooded with
 *    update requests" effect of Section 2.5 is visible.
 *  - IdealNetwork: applies the zero-load latency formula with no
 *    contention; used for ablation.
 *
 * Zero-load one-way latency is fixedCycles + perHopCycles * hops, which
 * with the defaults (10, 2) reproduces the paper's measured 24-cycle
 * adjacent-node round trip and +4 cycles per extra hop.
 */

#ifndef PLUS_NET_NETWORK_HPP_
#define PLUS_NET_NETWORK_HPP_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "check/hooks.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "net/topology.hpp"

namespace plus {
namespace sim {
class Engine;
} // namespace sim

namespace net {

/** Base class for protocol-defined packet contents. */
struct Payload {
    virtual ~Payload() = default;

    /**
     * Deep copy, needed by the reliable-delivery layer to keep a
     * retransmittable frame while the original rides the wire (packets
     * own their payload via unique_ptr). Defaults to null so payload
     * types outside the protocol need not implement it; the reliable
     * layer panics if asked to carry an uncloneable payload.
     */
    virtual std::unique_ptr<Payload> clone() const { return nullptr; }
};

/**
 * A message in flight between two nodes. Field order keeps the struct at
 * 32 bytes so a send closure (this + Packet + a cycle stamp) still fits
 * sim::Event's inline capture buffer.
 */
struct Packet {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    /** Payload size in bytes, excluding the link-level header. */
    unsigned payloadBytes = 0;
    /**
     * Sender's classification (a proto::MsgType value), carried opaquely
     * for telemetry attribution; 0xff when unclassified. The network
     * itself never interprets it.
     */
    std::uint8_t msgClass = 0xff;

    // --- Link-layer envelope (net::LinkLayer; inert when faults off) ----

    /** 0 = raw (reliable layer off), else a LinkCtl value. */
    std::uint8_t linkCtl = 0;
    /** Cleared when the fault injector corrupted the payload in flight. */
    bool crcOk = true;
    /** Per-(src,dst) sequence number of a data frame. */
    std::uint32_t linkSeq = 0;
    /** Cumulative acknowledgement carried by an ack frame. */
    std::uint32_t linkAck = 0;

    std::unique_ptr<Payload> payload;
};

/** Values of Packet::linkCtl. */
enum LinkCtl : std::uint8_t {
    kLinkRaw = 0,  ///< not under reliable delivery
    kLinkData = 1, ///< sequenced data frame
    kLinkAck = 2,  ///< cumulative acknowledgement
};

/** msgClass of link-layer ack packets (never seen by protocol code). */
constexpr std::uint8_t kLinkAckClass = 0xfe;

/**
 * Aggregate network counters. The latency/queueing distributions live
 * on Network as histograms; read them via latencyHistogram()/
 * queueingHistogram().
 */
struct NetworkStats {
    std::uint64_t packets = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t totalHops = 0;
    /** Packets discarded by the fault layer (any DropReason). */
    std::uint64_t dropped = 0;
};

/** Per-node packet sink. */
using DeliveryHandler = std::function<void(Packet)>;

class FaultInjector;
class LinkLayer;

/** Common interface of the two network models. */
class Network
{
  public:
    Network(sim::Engine& engine, const Topology& topology,
            const NetworkConfig& config);
    virtual ~Network();

    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /** Register the receiver for packets addressed to @p node. */
    void setDeliveryHandler(NodeId node, DeliveryHandler handler);

    /**
     * Mirror deliveries (and, on the mesh, per-link occupancy) into the
     * telemetry tracer. Null (the default) disables: the hot path then
     * pays one branch per event, like the check observers.
     */
    void setTelemetryObserver(check::NetObserver* observer)
    {
        telemetry_ = observer;
    }

    /**
     * Provide the event-trace renderer used when the reliable layer
     * panics (retransmit-budget exhaustion); wired by core::Machine.
     */
    void setTraceDumper(std::function<std::string()> dumper)
    {
        traceDumper_ = std::move(dumper);
    }

    /**
     * Arm fault injection and the reliable-delivery layer (always
     * together: an unreliable fabric without recovery would break the
     * protocol's FIFO assumptions). Call once, before any traffic.
     * With @p arm_script false the fault script is not scheduled yet;
     * the caller arms it later via faultInjector()->scheduleScript()
     * (core::Machine does so at the first run(), making script cycles
     * relative to the workload start instead of machine boot).
     */
    void enableFaults(const FaultConfig& fault, bool arm_script = true);

    /** The armed injector, or null when faults are off. */
    FaultInjector* faultInjector() { return injector_.get(); }

    /** The armed reliable layer, or null when faults are off. */
    LinkLayer* linkLayer() { return link_.get(); }

    /**
     * Send a packet from its source node at the current cycle. src == dst
     * is rejected: local traffic never enters the network. When the
     * reliable layer is armed the packet is sequenced and tracked for
     * retransmission first; otherwise this goes straight to the model's
     * inject() — one branch, the usual disabled-observer cost.
     */
    void send(Packet packet);

    const Topology& topology() const { return topology_; }

    /** Aggregate counters. */
    NetworkStats stats() const { return stats_; }

    /** End-to-end latency per delivered packet, cycles. */
    const Histogram& latencyHistogram() const { return latency_; }

    /** Cycles spent queued behind busy links (contention only). */
    const Histogram& queueingHistogram() const { return queueing_; }

    /** Zero-load one-way latency for a given hop count. */
    Cycles
    zeroLoadLatency(unsigned hops) const
    {
        return config_.fixedCycles + config_.perHopCycles * hops;
    }

    /**
     * The smallest delay with which this model ever schedules an event
     * onto a *different* node's lane. core::Machine delays the
     * directory operations node lanes trigger by this much.
     */
    virtual Cycles minCrossNodeLatency() const = 0;

    /** Cycles a packet of the given payload occupies one link. */
    Cycles serializationCycles(unsigned payload_bytes) const;

  protected:
    friend class LinkLayer;

    /** Put a packet on the wire (the model's raw, lossy path). */
    virtual void inject(Packet packet) = 0;

    /**
     * Physical arrival at the destination router. Routes through the
     * reliable layer when armed (sequencing, dedup, acks); otherwise
     * hands straight up to the protocol.
     */
    void deliver(Packet packet, unsigned hops, Cycles injected_at,
                 Cycles queueing);

    /** Protocol-visible delivery: stats, telemetry, the node handler. */
    void deliverUp(Packet packet, unsigned hops, Cycles injected_at,
                   Cycles queueing);

    /** Count a fault-layer discard and mirror it into telemetry. */
    void noteDrop(NodeId src, NodeId dst, std::uint8_t msg_class,
                  unsigned bytes, check::DropReason reason);

    sim::Engine& engine_;
    Topology topology_;
    NetworkConfig config_;
    NetworkStats stats_;
    Histogram latency_;
    Histogram queueing_;
    std::vector<DeliveryHandler> handlers_;
    check::NetObserver* telemetry_ = nullptr;
    std::function<std::string()> traceDumper_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<LinkLayer> link_;
};

/** Contention-free model: latency formula only. */
class IdealNetwork : public Network
{
  public:
    using Network::Network;

    /** Delivery is the only cross-node schedule: one-hop zero load. */
    Cycles minCrossNodeLatency() const override
    {
        return zeroLoadLatency(1);
    }

  protected:
    void inject(Packet packet) override;
};

/**
 * 2-D mesh with per-link busy-until bandwidth accounting and hop-by-hop
 * cut-through forwarding.
 */
class MeshNetwork : public Network
{
  public:
    MeshNetwork(sim::Engine& engine, const Topology& topology,
                const NetworkConfig& config);

    /** Busy cycles accumulated on the most utilized link. */
    Cycles maxLinkBusyCycles() const;

    /** Hops advance via scheduleForNode with delay >= perHopCycles. */
    Cycles minCrossNodeLatency() const override
    {
        return config_.perHopCycles;
    }

  protected:
    void inject(Packet packet) override;

  private:
    /** Directed link between adjacent routers. */
    struct Link {
        Cycles freeAt = 0;
        Cycles busyCycles = 0;
    };

    /** State threaded through the hop-by-hop events. */
    struct Transit {
        Packet packet;
        Cycles injectedAt = 0;
        Cycles queueing = 0;
        unsigned hops = 0;
        NodeId at = kInvalidNode;
    };

    Link& linkBetween(NodeId from, NodeId to);
    void hop(Transit* transit);

    /**
     * Grab a pooled transit so every in-flight packet costs one pool
     * hit instead of a shared_ptr allocation per send.
     */
    Transit* acquireTransit();
    void releaseTransit(Transit* transit);

    /** Mesh ports per router: east, west, south, north. */
    static constexpr unsigned kDirections = 4;

    /**
     * links_[from * kDirections + direction]; ports that lead off the
     * mesh stay idle.
     */
    std::vector<Link> links_;
    /** Owning transit pool; recycled through freeTransits_. */
    std::vector<std::unique_ptr<Transit>> transits_;
    std::vector<Transit*> freeTransits_;
};

/** Factory honouring NetworkConfig::ideal. */
std::unique_ptr<Network> makeNetwork(sim::Engine& engine,
                                     const Topology& topology,
                                     const NetworkConfig& config);

} // namespace net
} // namespace plus

#endif // PLUS_NET_NETWORK_HPP_
