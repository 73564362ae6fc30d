/**
 * @file
 * Link-level reliable delivery over a lossy fabric.
 *
 * Armed together with net::FaultInjector (Network::enableFaults), the
 * LinkLayer makes every Network::send() survive injected loss without
 * the coherence managers noticing — the protocol's FIFO-per-(src,dst)
 * assumption (update chains, FrameFlush ordering) keeps holding:
 *
 *  - Sender side: each (src,dst) channel numbers data frames with a
 *    monotonically increasing sequence, keeps a clone of every
 *    unacknowledged frame, and retransmits on timeout with exponential
 *    backoff (rto << min(attempts, backoffCap)). The timeout adapts to
 *    the measured round trip (Jacobson srtt + 4 * rttvar, floored at
 *    the configured/derived base), and ack progress on a channel
 *    resets the surviving frames' timers — under congestion the
 *    round trip can exceed any static timeout by orders of magnitude,
 *    and without both measures nearly every frame would retransmit
 *    spuriously. A finite retransmit budget turns a permanent
 *    partition into a panic with the event trace instead of a silent
 *    hang (0 = retry forever and let the watchdog diagnose it).
 *  - Receiver side: frames with a CRC cleared by the injector are
 *    dropped (indistinguishable from loss); duplicates (seq <= the
 *    delivered watermark) are suppressed and re-acked; out-of-order
 *    frames wait in a reorder buffer so the protocol only ever sees
 *    the original send order. Acknowledgements are cumulative, so a
 *    lost ack is repaired by any later one.
 *
 * Ack frames (Packet::linkCtl == kLinkAck) are themselves unsequenced
 * and unreliable — cumulative acking makes their loss harmless — and
 * invisible to protocol statistics: NetworkStats and the delivery
 * handlers only ever observe in-order data frames, exactly once.
 */

#ifndef PLUS_NET_RELIABLE_LINK_HPP_
#define PLUS_NET_RELIABLE_LINK_HPP_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "net/network.hpp"

namespace plus {
namespace sim {
class Engine;
} // namespace sim

namespace net {

class FaultInjector;

/** Reliable-layer counters (exported as net.link.* metrics). */
struct LinkStats {
    std::uint64_t dataFrames = 0;    ///< sequenced frames first-sent
    std::uint64_t retransmits = 0;   ///< timeout-driven re-sends
    std::uint64_t acksSent = 0;      ///< cumulative acks emitted
    std::uint64_t acksReceived = 0;  ///< acks that reached the sender
    std::uint64_t dupSuppressed = 0; ///< duplicate data frames discarded
    std::uint64_t crcDrops = 0;      ///< frames dropped for a bad CRC
    std::uint64_t reordered = 0;     ///< frames parked out of order
    std::uint64_t peerDeaths = 0;    ///< budget exhaustions reported as crashes
    std::uint64_t sealedDrops = 0;   ///< frames from sealed crashed sources
};

/** Per-(src,dst) sequencing, ack/retransmit, dedup (see file comment). */
class LinkLayer
{
  public:
    LinkLayer(Network& network, sim::Engine& engine,
              FaultInjector& injector, const FaultConfig& config);

    /** Sequence, remember, and transmit a protocol packet. */
    void sendData(Packet packet);

    /** Physical arrival of any frame (from Network::deliver). */
    void receive(Packet packet, unsigned hops, Cycles injected_at,
                 Cycles queueing);

    /** Unacknowledged frames across all channels (0 = all delivered). */
    std::size_t inFlight() const;

    /** Aggregate counters. */
    LinkStats stats() const { return stats_; }

    /** The base retransmit timeout in use (config or latency-derived). */
    Cycles retransmitTimeout() const { return timeout_; }

    /**
     * Install the sink for peer-death signals. With FaultConfig::recover
     * armed, a retransmit budget exhausted toward a fail-stop-crashed
     * destination reports the death here instead of panicking (see
     * onTimeout); core::Machine wires this to proto::RecoveryManager.
     * The handler may fire more than once per dead node (every channel
     * toward it can exhaust) — the sink must be idempotent.
     */
    void
    setPeerDeathHandler(std::function<void(NodeId)> fn)
    {
        peerDeath_ = std::move(fn);
    }

    /**
     * Tear down every channel to or from @p dead: cancel retransmit
     * timers, drop unacknowledged clones and parked reorder-buffer
     * frames. Machine context only.
     */
    void purgeNode(NodeId dead);

    /**
     * Seal @p dead after its recovery epoch: every frame still in
     * flight from it (delayed injections, duplicates) is dropped at the
     * receiver, so no message from a crashed node is ever processed
     * post-epoch (the checker's crashed-source invariant).
     */
    void sealNode(NodeId dead);

    /**
     * The adaptive timeout currently applied to frames @p src sends.
     * The RTT estimate is per source node, updated on the source's own
     * lane.
     */
    Cycles
    rto(NodeId src) const
    {
        return srtt_[src] == 0
                   ? timeout_
                   : std::max(timeout_, srtt_[src] + 4 * rttvar_[src]);
    }

  private:
    /** One unacknowledged frame awaiting its cumulative ack. */
    struct Unacked {
        Packet frame; ///< retransmittable clone
        unsigned attempts = 0;
        Cycles sentAt = 0;       ///< first transmission (RTT sampling)
        std::uint64_t timer = 0; ///< sim::EventId of the pending timeout
    };

    /** Sender half of one (src,dst) channel. */
    struct SenderChan {
        std::uint32_t nextSeq = 1;
        std::map<std::uint32_t, Unacked> unacked; ///< ordered by seq
    };

    /** A frame parked until the sequence gap before it fills. */
    struct Held {
        Packet packet;
        unsigned hops = 0;
        Cycles injectedAt = 0;
        Cycles queueing = 0;
    };

    /** Receiver half of one (src,dst) channel. */
    struct ReceiverChan {
        std::uint32_t delivered = 0; ///< in-order watermark
        std::map<std::uint32_t, Held> held;
    };

    /** Deep-copy @p packet; panics on an uncloneable payload. */
    Packet clonePacket(const Packet& packet) const;

    /** Apply the injector's fate and hand the frame to the model. */
    void transmit(Packet packet);

    void handleAck(const Packet& ack);
    void sendAck(NodeId from, NodeId to, std::uint32_t cumulative);
    void onTimeout(NodeId src, NodeId dst, std::uint32_t seq);

    /** Cancel every pending timer in @p chan and forget its frames. */
    void dropChannel(SenderChan& chan);
    void armTimer(NodeId src, NodeId dst, std::uint32_t seq,
                  Unacked& entry);

    /** Fold one round-trip sample into @p src's srtt/rttvar estimate. */
    void sampleRtt(NodeId src, Cycles sample);

    Network& net_;
    sim::Engine& engine_;
    FaultInjector& injector_;
    FaultConfig config_;
    Cycles timeout_ = 0;
    /** Per-source smoothed round trip and mean deviation (Jacobson). */
    std::vector<Cycles> srtt_;
    std::vector<Cycles> rttvar_;
    LinkStats stats_;
    /**
     * Channel state sliced by the lane that owns it: sender_[src][dst]
     * is touched by sendData, timeouts and ack handling, all of which
     * execute on @p src's lane; recv_[dst][src] only by arrivals on
     * @p dst's lane.
     */
    std::vector<std::unordered_map<NodeId, SenderChan>> sender_;
    std::vector<std::unordered_map<NodeId, ReceiverChan>> recv_;
    /** Crashed nodes whose recovery epoch has sealed (receive drops). */
    std::vector<char> sealed_;
    std::function<void(NodeId)> peerDeath_;
};

} // namespace net
} // namespace plus

#endif // PLUS_NET_RELIABLE_LINK_HPP_
