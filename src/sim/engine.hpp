/**
 * @file
 * Discrete-event simulation engine.
 *
 * The whole PLUS machine is simulated by an event loop. Components
 * schedule closures at future cycles; ties are broken by a canonical
 * *partition-independent* key derived from the scheduling context
 * (see sim::EventKey), so runs are fully deterministic and every
 * backend realises the same total order.
 *
 * Internally events live in a slab of reusable records (no per-event
 * heap allocation: the callable is a `sim::Event` with inline capture
 * storage) ordered by a hierarchical timing wheel — O(1) schedule,
 * cancel and dispatch for the short fixed delays that dominate the
 * simulation. The pre-wheel `std::priority_queue` backend is kept
 * behind `Engine::Heap` (MachineBuilder::engine, `--engine=heap`) as a
 * determinism oracle that must execute the exact same event order — CI
 * diffs both byte-for-byte (docs/PERF.md).
 *
 * Scheduling contexts and lanes: every event carries a *lane* — the
 * node it executes at, or kMachineLane for machine-level work. The
 * lane decides the scheduling context its callback runs under, which
 * keys the callback's own schedules. Plain schedule() inherits the
 * current lane; scheduleForNode()/scheduleMachine() override it, and
 * withNodeContext() brackets machine-side code that seeds events into
 * a node's lane (processor start, page-copy kickoff).
 */

#ifndef PLUS_SIM_ENGINE_HPP_
#define PLUS_SIM_ENGINE_HPP_

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "sim/event.hpp"
#include "sim/event_slab.hpp"
#include "sim/timing_wheel.hpp"

namespace plus {
namespace sim {

/**
 * Handle identifying a scheduled event, usable for cancellation.
 * Encodes (generation << 32 | slab slot); stale handles — including
 * those of events that already fired — are rejected in O(1).
 */
using EventId = std::uint64_t;

/** Sentinel meaning "no event". */
inline constexpr EventId kInvalidEvent = 0;

/** Which event-queue backend an Engine runs on. */
using EngineImpl = plus::Engine;

/** Counters describing engine health (exported as sim.* metrics). */
struct EngineStats {
    std::uint64_t scheduled = 0;    ///< events ever scheduled
    std::uint64_t executed = 0;     ///< events dispatched
    std::uint64_t cancelled = 0;    ///< successful cancel() calls
    std::uint64_t cascades = 0;     ///< wheel slot redistributions
    std::size_t slabLive = 0;       ///< records currently allocated
    std::size_t slabHighWater = 0;  ///< peak simultaneous records
    std::size_t slabSlots = 0;      ///< slab capacity (bounded by peak)
};

/** The event loop: a time-ordered queue of closures. */
class Engine
{
  public:
    explicit Engine(EngineImpl impl = EngineImpl::Wheel);
    ~Engine();

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /** Current simulated time in cycles. */
    Cycles now() const { return now_; }

    /**
     * Declare the node-lane space. Must be called before any
     * withNodeContext()/scheduleForNode() use; the Machine calls it
     * right after constructing the engine.
     */
    void configure(unsigned nodes);

    /** Schedule @p fn to run @p delay cycles from now. */
    EventId
    schedule(Cycles delay, Event&& fn)
    {
        return scheduleImpl(now_ + delay, std::move(fn), false, ctx_.node);
    }

    /** Schedule @p fn at absolute cycle @p when (must be >= now). */
    EventId
    scheduleAt(Cycles when, Event&& fn)
    {
        return scheduleImpl(when, std::move(fn), false, ctx_.node);
    }

    /**
     * Schedule a daemon event (cf. Unix daemon threads): it executes
     * like any other event while ordinary work remains, but does not
     * keep the loop alive — run()/runUntil() return once only daemon
     * events are pending, without executing them or advancing now().
     * For periodic observers (the forward-progress watchdog) that must
     * never stretch a run to their own next deadline. Excluded from
     * pendingEvents(); cancel() works normally. Machine lane only.
     */
    EventId scheduleDaemon(Cycles delay, Event&& fn);

    /**
     * Schedule @p fn into node @p node's lane. The key still comes
     * from the *current* context; only the execution lane is
     * overridden.
     */
    EventId scheduleForNode(NodeId node, Cycles delay, Event&& fn);

    /** Schedule machine-lane work (from node or machine context). */
    void scheduleMachine(Cycles delay, Event&& fn);

    /**
     * Run machine-side code in node @p node's scheduling context, so
     * the events it seeds (processor dispatch, page-copy service) get
     * node-deterministic keys and land in the node's lane.
     */
    template <typename F>
    auto
    withNodeContext(NodeId node, F&& f)
    {
        PLUS_ASSERT(node < nodes_, "node context ", node,
                    " outside configured lanes (", nodes_, ")");
        const SchedCtx saved = ctx_;
        ctx_.node = static_cast<std::uint16_t>(node);
        ctx_.init = true;
        struct Restore {
            SchedCtx& c;
            const SchedCtx& saved;
            ~Restore() { c = saved; }
        } restore{ctx_, saved};
        return std::forward<F>(f)();
    }

    /**
     * Cancel a previously scheduled event.
     * @return true if the event was pending and is now cancelled;
     *         false for invalid ids and events that already fired.
     */
    bool cancel(EventId id);

    /** Run until the queue is empty or stop() is called. */
    void run();

    /**
     * Run until simulated time would exceed @p limit; events at exactly
     * @p limit still execute. now() stays at the last executed event's
     * time (it does not fast-forward to the limit).
     */
    void runUntil(Cycles limit);

    /** Execute at most one event. @return false if the queue was empty. */
    bool step();

    /** Request that run() return after the current event. */
    void stop() { stopping_ = true; }

    /**
     * Number of ordinary events pending (exact; cancelled events leave,
     * daemon events never count — they represent no work of their own).
     */
    std::size_t pendingEvents() const;

    /** Total events executed since construction. */
    std::uint64_t executedEvents() const;

    /** The backend this engine runs on. */
    EngineImpl impl() const { return impl_; }

    /** Engine health counters for telemetry. */
    EngineStats stats() const;

    /** Node lanes declared by configure() (0 when unconfigured). */
    unsigned nodes() const { return nodes_; }

    /** Executing lane: a node id, or kMachineLane in machine context. */
    std::uint16_t currentLane() const { return ctx_.node; }

  private:
    /** Context events are scheduled from; the source of EventKeys. */
    struct SchedCtx {
        std::uint16_t node = kMachineLane; ///< ambient lane
        std::uint32_t step = 0;            ///< executing event's step
        std::uint16_t child = 0;           ///< next child index
        bool init = false;                 ///< inside withNodeContext()
    };

    struct HeapEntry {
        EventKey key;
        std::uint32_t idx;
        std::uint32_t gen;
    };

    struct HeapLater {
        bool
        operator()(const HeapEntry& a, const HeapEntry& b) const
        {
            return b.key < a.key;
        }
    };

    /** File a new record; @p fn is relocated once, into the slab. */
    EventId scheduleImpl(Cycles when, Event&& fn, bool daemon,
                         std::uint16_t lane);
    /** Canonical key tiebreak from the current scheduling context. */
    std::uint64_t makeKey2();
    /** Set the dispatch context for a record about to execute. */
    void enterEventContext(const EventRecord& rec);
    bool dispatchNext(Cycles limit);
    std::uint32_t nextFromHeap(Cycles limit);

    EventSlab slab_;
    TimingWheel wheel_{slab_};
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLater>
        heap_;
    EngineImpl impl_;
    Cycles now_ = 0;
    unsigned nodes_ = 0;
    SchedCtx ctx_;
    std::uint32_t machineSeq_ = 0;
    std::vector<std::uint32_t> initStep_;
    std::vector<std::uint32_t> execStep_;
    std::uint64_t executed_ = 0;
    std::uint64_t scheduledTotal_ = 0;
    std::uint64_t cancelledTotal_ = 0;
    std::size_t pending_ = 0;
    std::size_t daemonPending_ = 0;
    bool stopping_ = false;
};

} // namespace sim
} // namespace plus

#endif // PLUS_SIM_ENGINE_HPP_
