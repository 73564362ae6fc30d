/**
 * @file
 * Cycle-stamped structured event tracer.
 *
 * Telemetry implements the same observer hooks as the plus::check
 * subsystem (check::Observer) plus the network-level hooks
 * (check::NetObserver) and records each event into a bounded ring of
 * fixed-size records — old events are overwritten, so tracing a long run
 * keeps the tail. Alongside the ring it accumulates per-message-class
 * latency distributions, pending-write lifetimes, and per-page /
 * per-link traffic attribution, which survive ring wrap-around.
 *
 * The tracer only observes: it never schedules simulation events, never
 * touches protocol state, and never reads anything it could perturb —
 * a run with tracing enabled is cycle-for-cycle identical to one
 * without.
 */

#ifndef PLUS_TELEMETRY_TRACER_HPP_
#define PLUS_TELEMETRY_TRACER_HPP_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/hooks.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "proto/messages.hpp"

namespace plus {

namespace sim {
class Engine;
} // namespace sim

namespace telemetry {

/** What one trace record describes. */
enum class TraceKind : std::uint8_t {
    MsgSend,      ///< CM handed a message to the network (instant)
    MsgRecv,      ///< packet delivered; begin = injection, end = delivery
    LinkBusy,     ///< a mesh link serialized a packet (interval)
    PendingWrite, ///< pending-writes entry lifetime (interval)
    ChainApply,   ///< an update chain applied at one copy (instant)
    WriteIssued,  ///< a write entered the pending-writes cache (instant)
    Fence,        ///< a blocking fence completed (instant)
    ProcStall,    ///< processor free interval (interval; cls = StallKind)
    RmwIssue,     ///< delayed op issued (instant; cls = RmwOp)
    RmwVerify,    ///< delayed op result consumed (instant)
    PacketDrop,   ///< fault layer discarded a packet (instant; id = reason)
    Retransmit,   ///< reliable layer re-sent a frame (instant; id = seq)
    WordInvalidate,    ///< invalidation chain dropped a word (instant)
    WordRevalidate,       ///< re-fetch revalidated a word (instant)
    OwnershipHandoff,  ///< page writer changed hands at the master
};

const char* toString(TraceKind kind);

/** One fixed-size ring record. Instants have begin == end. */
struct TraceEvent {
    TraceKind kind = TraceKind::MsgSend;
    /** Kind-dependent class: MsgType, StallKind or RmwOp value. */
    std::uint8_t cls = 0;
    NodeId node = kInvalidNode;
    /** Second party: message peer, link endpoint, chain originator. */
    NodeId peer = kInvalidNode;
    Cycles begin = 0;
    Cycles end = 0;
    /** Kind-dependent identity: chain id, pending tag, or thread id. */
    std::uint64_t id = 0;
    Vpn vpn = 0;
    std::uint32_t wordOffset = 0;
    std::uint32_t bytes = 0;
};

/** Bounded ring of trace events; overwrites the oldest when full. */
class EventRing
{
  public:
    explicit EventRing(std::size_t capacity);

    void push(const TraceEvent& event);

    /** Events ever pushed (including overwritten ones). */
    std::uint64_t recorded() const { return recorded_; }

    /**
     * Events lost to wrap-around. Counted explicitly at each
     * overwrite so overflow is an observable signal (surfaced as the
     * telemetry.trace.dropped counter), not a silent loss.
     */
    std::uint64_t dropped() const { return dropped_; }

    std::size_t capacity() const { return capacity_; }

    /** Visit the retained events oldest to newest. */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        const std::size_t n = events_.size();
        const std::size_t start =
            recorded_ > n ? static_cast<std::size_t>(recorded_ % n) : 0;
        for (std::size_t i = 0; i < n; ++i) {
            fn(events_[(start + i) % n]);
        }
    }

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> events_;
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
};

class MetricsRegistry;

/** The telemetry observer core::Machine installs next to the checker. */
class Telemetry final : public check::Observer, public check::NetObserver
{
  public:
    Telemetry(const TelemetryConfig& config, const sim::Engine* engine);

    const EventRing& events() const { return ring_; }

    /** Per-message-class end-to-end latency, cycles. */
    const Histogram&
    latencyOf(proto::MsgType type) const
    {
        return latency_[static_cast<std::size_t>(type)];
    }

    /** Pending-write entry lifetimes (insert to retire), cycles. */
    const Histogram& pendingLifetime() const { return pendingLifetime_; }

    /** Traffic attributed to one directed mesh link. */
    struct LinkTraffic {
        std::uint64_t messages = 0;
        std::uint64_t bytes = 0;
        Cycles busyCycles = 0;
    };

    /** Traffic attributed to one virtual page. */
    struct PageTraffic {
        std::uint64_t messages = 0;
        std::uint64_t bytes = 0;
        std::uint64_t updates = 0; ///< UpdateReq share of messages
    };

    /** Keyed (from << 32) | to; ordered for deterministic export. */
    const std::map<std::uint64_t, LinkTraffic>&
    linkTraffic() const
    {
        return linkTraffic_;
    }

    /**
     * Keyed by vpn; messages that address no page (acks, responses,
     * copy-engine control) fall into the reserved vpn 0 bucket.
     */
    const std::map<Vpn, PageTraffic>& pageTraffic() const
    {
        return pageTraffic_;
    }

    /** Register the tracer's own derived metrics. */
    void registerMetrics(MetricsRegistry& registry);

    /**
     * Render the newest @p count retained events as text, one per line —
     * the diagnostic the watchdog and the reliable layer append to
     * their panics.
     */
    std::string renderRecent(std::size_t count) const;

    // --- check::NetObserver ------------------------------------------------

    void onPacketDelivered(NodeId src, NodeId dst, std::uint8_t msg_class,
                           unsigned bytes, unsigned hops, Cycles latency,
                           Cycles queueing) override;
    void onLinkBusy(NodeId from, NodeId to, std::uint8_t msg_class,
                    unsigned bytes, Cycles start,
                    Cycles duration) override;
    void onPacketDropped(NodeId src, NodeId dst, std::uint8_t msg_class,
                         unsigned bytes, check::DropReason reason) override;
    void onRetransmit(NodeId src, NodeId dst, std::uint32_t seq,
                      unsigned attempt) override;

    // --- check::Observer ---------------------------------------------------

    void onMessageSent(NodeId src, NodeId dst, std::uint8_t msg_class,
                       unsigned bytes, Vpn vpn) override;
    void onPendingInsert(NodeId node, std::uint32_t tag, Vpn vpn,
                         Addr word_offset) override;
    void onPendingComplete(NodeId node, std::uint32_t tag) override;
    void onWriteIssued(NodeId node, std::uint32_t tag, Vpn vpn,
                       Addr word_offset, bool from_rmw) override;
    void onChainApplied(check::ChainId chain, PhysPage copy, Vpn vpn,
                        Addr word_offset, unsigned words, NodeId originator,
                        std::uint32_t tag, bool at_master) override;
    void onFenceComplete(NodeId node, bool pending_empty) override;
    void onWordInvalidated(NodeId node, Vpn vpn, Addr word_offset) override;
    void onWordRevalidated(NodeId node, Vpn vpn, Addr word_offset) override;
    void onOwnershipTransfer(NodeId master, Vpn vpn, NodeId from,
                             NodeId to) override;
    void onProcStall(NodeId node, std::uint8_t kind, Cycles start,
                     Cycles duration) override;
    void onProcRmwIssue(NodeId node, ThreadId tid, Addr vaddr,
                        std::uint8_t op) override;
    void onProcVerify(NodeId node, ThreadId tid, Addr vaddr) override;

  private:
    Cycles now() const;

    const sim::Engine* engine_;
    EventRing ring_;

    /** Open pending-write intervals, keyed (node << 32) | tag. */
    struct OpenPending {
        Cycles since = 0;
        Vpn vpn = 0;
        std::uint32_t wordOffset = 0;
    };
    std::unordered_map<std::uint64_t, OpenPending> openPending_;

    std::array<Histogram,
               static_cast<std::size_t>(proto::MsgType::NumTypes)>
        latency_;
    Histogram pendingLifetime_;

    std::map<std::uint64_t, LinkTraffic> linkTraffic_;
    std::map<Vpn, PageTraffic> pageTraffic_;
};

} // namespace telemetry
} // namespace plus

#endif // PLUS_TELEMETRY_TRACER_HPP_
