#include "proto/recovery_manager.hpp"

#include <optional>
#include <sstream>

#include "common/log.hpp"
#include "common/panic.hpp"

namespace plus {
namespace proto {

namespace {

// Panic decoration is a process-wide single slot (a bare function
// pointer), so the active manager registers itself here and chains to
// whatever decorator was installed before it (the profiler's flight
// recorder, typically).
// pluslint: allow(R4) -- diagnostic-only hooks; they decorate panic
// text and never feed simulation state.
RecoveryManager* g_active = nullptr;      // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)
// pluslint: allow(R4) -- see above.
PanicDecorator g_previous = nullptr;      // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

std::string
decoratePanic()
{
    std::string out = g_previous ? g_previous() : std::string();
    if (g_active != nullptr) {
        out += g_active->panicSummary();
    }
    return out;
}

} // namespace

RecoveryManager::RecoveryManager(Host& host, unsigned nodes)
    : host_(host), nodes_(nodes)
{
    if (g_active == nullptr) {
        g_active = this;
        g_previous = panicDecorator();
        setPanicDecorator(&decoratePanic);
    }
}

RecoveryManager::~RecoveryManager()
{
    if (g_active == this) {
        setPanicDecorator(g_previous);
        g_previous = nullptr;
        g_active = nullptr;
    }
}

const RecoveryManager::NodeState&
RecoveryManager::state(NodeId node) const
{
    PLUS_ASSERT(node < nodes_.size(), "recovery state for unknown node ",
                node);
    return nodes_[node];
}

void
RecoveryManager::onNodeCrashed(NodeId node)
{
    PLUS_ASSERT(node < nodes_.size(), "crash of unknown node ", node);
    NodeState& st = nodes_[node];
    if (st.crashed) {
        return;
    }
    st.crashed = true;
    st.crashCycle = host_.now();
    PLUS_LOG(LogComponent::Proto, "node ", node, " fail-stop crashed at cycle ",
             st.crashCycle);
    // Fail-stop: the processor halts with the node. Survivors do not
    // learn anything yet — detection comes from their link layers.
    host_.haltNode(node);
}

void
RecoveryManager::onPeerDeath(NodeId dead)
{
    PLUS_ASSERT(dead < nodes_.size(), "peer death of unknown node ", dead);
    // Node-lane caller: only read state the machine lane writes, and
    // cross into the machine lane for everything else. Several lanes
    // may report the same death (every channel toward the dead node
    // can exhaust); recover() runs exactly once regardless.
    if (nodes_[dead].recovered) {
        return;
    }
    host_.toMachine([this, dead] { recover(dead); });
}

void
RecoveryManager::recover(NodeId dead)
{
    NodeState& st = nodes_[dead];
    PLUS_ASSERT(st.crashed,
                "peer death reported for node ", dead, " which never crashed");
    if (st.recovered) {
        return;
    }
    st.recovered = true;
    recovering_ = dead;
    PLUS_LOG(LogComponent::Proto, "recovery epoch for node ", dead,
             " starting at cycle ", host_.now());

    // 1. Repair every copy-list the dead node appears in. mappedVpns()
    //    is ascending, so `affected` and `lost` come out sorted — the
    //    coherence managers binary-search them during replay.
    std::vector<Vpn> affected;
    std::vector<Vpn> lost;
    for (const Vpn vpn : host_.mappedVpns()) {
        mem::CopyList& list = host_.copyListOf(vpn);
        if (!list.hasCopyOn(dead)) {
            continue;
        }
        if (list.size() == 1) {
            // The dead node held the only copy: the page is gone.
            lost.push_back(vpn);
            stats_.pagesLost += 1;
            host_.pageLost(vpn);
            continue;
        }
        affected.push_back(vpn);
        const bool master_died = list.master().node == dead;
        list.removeOn(dead); // removing the master promotes its successor

        // Rewrite the survivors' hardware tables for the new chain.
        const PhysPage master = list.master();
        const auto& order = list.copies();
        for (std::size_t i = 0; i < order.size(); ++i) {
            mem::CoherenceTables& tables = host_.tablesOf(order[i].node);
            tables.setMaster(order[i].frame, master);
            tables.setNextCopy(order[i].frame,
                               i + 1 < order.size()
                                   ? std::optional<PhysPage>(order[i + 1])
                                   : std::nullopt);
        }

        // Re-synchronize the suffix from the new master. Updates flow
        // down the chain in order, so the first surviving copy
        // dominates every later one; anything that died inside the
        // dead node's queue left later copies stale, and when the
        // *originator* was the dead node nobody is left to replay it.
        for (std::size_t i = 1; i < order.size(); ++i) {
            host_.syncPageCopy(master, order[i]);
        }

        host_.copyListRebuilt(vpn);
        stats_.copyListsRepaired += 1;
        if (master_died) {
            stats_.pagesRemastered += 1;
        }
    }

    // 2. Every survivor's coherence manager aborts in-flight operations
    //    the crash tore and re-dispatches them against the repaired
    //    lists (or completes them as lost). Ascending node order keeps
    //    the replay schedule canonical across backends.
    for (NodeId n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].crashed) {
            continue;
        }
        const CoherenceManager::RecoveryOutcome outcome =
            host_.cmOf(n).recoverAfterCrash(dead, affected, lost);
        stats_.abortedOps += outcome.abortedReads + outcome.abortedWrites +
                             outcome.abortedRmws;
        stats_.lostCompletions += outcome.lostCompletions;
    }

    // 3. Tear down link state toward the dead node and seal it: any
    //    frame it still has in flight is dropped at the receiver from
    //    here on (the checker's crashed-source invariant).
    host_.purgeLinks(dead);

    // 4. Seal the epoch.
    epoch_ += 1;
    host_.sealEpoch(dead, epoch_);
    stats_.nodeRecoveries += 1;
    latency_.record(static_cast<double>(host_.now() - st.crashCycle));
    recovering_ = kInvalidNode;
    PLUS_LOG(LogComponent::Proto, "recovery epoch ", epoch_, " for node ", dead,
             " sealed: ", affected.size(), " copy-list(s) repaired, ",
             lost.size(), " page(s) lost");
}

std::string
RecoveryManager::panicSummary() const
{
    std::ostringstream out;
    out << "\n=== crash recovery ===\n";
    out << "epochs sealed: " << epoch_;
    if (recovering_ != kInvalidNode) {
        out << " (epoch for n" << recovering_ << " IN PROGRESS)";
    }
    out << "\ncrashed:";
    bool any = false;
    for (NodeId n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].crashed) {
            any = true;
            out << " n" << n << "@" << nodes_[n].crashCycle
                << (nodes_[n].recovered ? "(recovered)" : "(unrecovered)");
        }
    }
    if (!any) {
        out << " none";
    }
    out << "\npages: " << stats_.pagesRemastered << " remastered, "
        << stats_.copyListsRepaired << " lists repaired, "
        << stats_.pagesLost << " lost\n";
    out << "ops: " << stats_.abortedOps << " aborted/re-dispatched, "
        << stats_.lostCompletions << " completed as lost\n";
    return out.str();
}

} // namespace proto
} // namespace plus
