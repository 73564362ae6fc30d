/**
 * @file
 * Fail-stop crash recovery for the PLUS coherence protocol.
 *
 * The 1990 PLUS hardware had no recovery story: a dead node wedged the
 * retransmitting link layer and, eventually, every processor with an
 * in-flight operation addressed to it. This subsystem gives the
 * simulator the fail-stop model modern DSM follow-ons adopted:
 *
 *  1. A node crashes (fault script `CrashNode`): its processor halts,
 *     its router goes dark, its threads are written off.
 *  2. Survivors *detect* the death when a reliable-link retransmit
 *     budget toward it exhausts (net::LinkLayer reports a peer death
 *     instead of panicking when recovery is armed).
 *  3. A deterministic, in-simulation recovery epoch runs in the machine
 *     lane:
 *       - every page with a copy on the dead node has its copy-list
 *         repaired; if the master died, the first surviving replica in
 *         list order is promoted (it dominates every later copy,
 *         because updates flow down the chain in order);
 *       - surviving replicas are re-synchronized from the new master —
 *         an update can die inside the dead node's queue mid-chain,
 *         leaving prefix copies newer than suffix copies, and the
 *         originator cannot always replay it (it may *be* the dead
 *         node);
 *       - pages whose only copy died are marked *lost*: subsequent
 *         accesses complete in bounded time with kPageLostValue
 *         (reads / interlocked results) or are dropped (writes),
 *         instead of hanging;
 *       - every survivor's coherence manager aborts in-flight
 *         operations addressed to the dead node and re-dispatches them
 *         against the repaired copy-lists
 *         (CoherenceManager::recoverAfterCrash);
 *       - link channels to and from the dead node are purged and the
 *         node is sealed, and the invariant checker learns the epoch:
 *         processing any message from the dead node afterwards is a
 *         fatal protocol violation.
 *
 * The whole procedure is ordinary simulation state manipulated in one
 * deterministic machine-lane event, so a fixed crash schedule yields
 * byte-identical post-recovery memory images on every engine backend.
 */

#ifndef PLUS_PROTO_RECOVERY_MANAGER_HPP_
#define PLUS_PROTO_RECOVERY_MANAGER_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/coherence_tables.hpp"
#include "mem/copy_list.hpp"
#include "proto/coherence_manager.hpp"

namespace plus {
namespace proto {

/** Counters for the `recovery.*` metrics namespace. */
struct RecoveryStats {
    std::uint64_t nodeRecoveries = 0;   ///< recovery epochs completed
    std::uint64_t pagesRemastered = 0;  ///< master moved to a survivor
    std::uint64_t copyListsRepaired = 0; ///< lists purged of a dead copy
    std::uint64_t pagesLost = 0;        ///< every physical copy died
    std::uint64_t abortedOps = 0;       ///< in-flight ops re-dispatched
    std::uint64_t lostCompletions = 0;  ///< ops completed with kPageLostValue
};

/**
 * Orchestrates one recovery epoch per dead node; see file comment.
 *
 * The manager is protocol-layer code: everything it needs from the
 * machine (directory walks, page-table shootdowns, halting a
 * processor) arrives through the Host interface, which core::Machine
 * implements. It installs a panic decorator so PLUS_PANIC dumps carry
 * the recovery state (epoch, crashed nodes, repair progress).
 */
class RecoveryManager
{
  public:
    /** Machine-side services; all calls arrive in machine context. */
    class Host
    {
      public:
        virtual ~Host() = default;

        virtual Cycles now() const = 0;
        virtual unsigned nodeCount() const = 0;

        /** Every mapped virtual page, ascending. */
        virtual std::vector<Vpn> mappedVpns() const = 0;
        virtual mem::CopyList& copyListOf(Vpn vpn) = 0;
        virtual mem::CoherenceTables& tablesOf(NodeId node) = 0;
        virtual CoherenceManager& cmOf(NodeId node) = 0;

        /** Write off @p node's threads and stop its processor. Idempotent. */
        virtual void haltNode(NodeId node) = 0;

        /**
         * @p vpn lost its last copy: unmap it everywhere and route all
         * future translations to the degraded (PageLost) path.
         */
        virtual void pageLost(Vpn vpn) = 0;

        /** Copy @p from's frame contents over @p to's (plus cache upkeep). */
        virtual void syncPageCopy(PhysPage from, PhysPage to) = 0;

        /**
         * The copy-list of @p vpn was repaired: bump the checker's
         * generation and shoot down stale translations.
         */
        virtual void copyListRebuilt(Vpn vpn) = 0;

        /** Purge and seal every link channel to or from @p dead. */
        virtual void purgeLinks(NodeId dead) = 0;

        /** Recovery for @p dead is complete; inform the checker. */
        virtual void sealEpoch(NodeId dead, std::uint64_t epoch) = 0;

        /**
         * Run @p fn in the machine lane, delayed by the machine's
         * node-op delay. Callable from any node lane.
         */
        virtual void toMachine(std::function<void()> fn) = 0;
    };

    RecoveryManager(Host& host, unsigned nodes);
    ~RecoveryManager();

    RecoveryManager(const RecoveryManager&) = delete;
    RecoveryManager& operator=(const RecoveryManager&) = delete;

    /**
     * A node fail-stop crashed (machine context, at the crash cycle).
     * Halts the node; recovery itself waits for detection.
     */
    void onNodeCrashed(NodeId node);

    /**
     * A survivor's link layer detected @p dead (retransmit budget
     * exhausted). May fire from any node lane and more than once per
     * dead node; recovery is scheduled into the machine lane and runs
     * exactly once.
     */
    void onPeerDeath(NodeId dead);

    bool nodeCrashed(NodeId node) const { return state(node).crashed; }
    bool nodeRecovered(NodeId node) const { return state(node).recovered; }

    /** Recovery epochs sealed so far. */
    std::uint64_t epoch() const { return epoch_; }

    const RecoveryStats& stats() const { return stats_; }

    /** Crash-cycle → epoch-seal latency, in cycles, per recovery. */
    const Histogram& latencyHistogram() const { return latency_; }

    /** One-paragraph state dump appended to PLUS_PANIC messages. */
    std::string panicSummary() const;

  private:
    struct NodeState {
        bool crashed = false;
        bool recovered = false;
        Cycles crashCycle = 0;
    };

    const NodeState& state(NodeId node) const;

    /** The epoch itself; machine context, exactly once per dead node. */
    void recover(NodeId dead);

    Host& host_;
    std::vector<NodeState> nodes_;
    std::uint64_t epoch_ = 0;
    /** Node whose epoch is mid-flight (panic diagnostics only). */
    NodeId recovering_ = kInvalidNode;
    RecoveryStats stats_;
    Histogram latency_;
};

} // namespace proto
} // namespace plus

#endif // PLUS_PROTO_RECOVERY_MANAGER_HPP_
