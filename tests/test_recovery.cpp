/**
 * @file
 * Fail-stop crash recovery: a scripted CrashNode entry silences a node
 * mid-run, peer-death detection (retransmit-budget exhaustion against a
 * crashed destination) triggers the recovery manager, and the machine
 * must finish the workload without a watchdog panic — dead node purged
 * from every copy-list, masters re-homed onto survivors, survivor
 * copies byte-identical, in-flight operations replayed, and pages whose
 * only copy died served degraded (bounded PageLost completion with
 * kPageLostValue). The whole recovery epoch is deterministic: the
 * post-recovery image and statistics must be byte-identical across the
 * wheel and heap engine backends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/invariant_checker.hpp"
#include "common/config.hpp"
#include "common/panic.hpp"
#include "core/context.hpp"
#include "core/machine.hpp"
#include "mem/copy_list.hpp"
#include "mem/local_memory.hpp"
#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "net/reliable_link.hpp"
#include "node/node.hpp"
#include "node/processor.hpp"
#include "proto/recovery_manager.hpp"
#include "sim/watchdog.hpp"

namespace plus {
namespace core {
namespace {

constexpr NodeId kDoomed = 3;
// Script cycles count from run() (setup/settle time is excluded); the
// writers span ~30k cycles, so 8k lands the crash mid-workload with
// writes in flight on every survivor. If timing-model changes move the
// workload off this window, the prober assert below fails loudly (it
// never sees the lost page) — the test cannot silently degrade into a
// post-run crash.
constexpr Cycles kCrashCycle = 8000;
constexpr Word kIters = 80;

/**
 * Four nodes in a 1x4 line so the crashed node (the end of the line)
 * is never an intermediate router for survivor traffic — dimension-
 * order routing cannot route around a dead router, so recovery tests
 * must crash topological corner nodes.
 */
MachineConfig
recoveryConfig(Engine backend = Engine::Wheel)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.engine = backend;
    cfg.network.meshWidth = 4;
    cfg.network.fault.enabled = true;
    cfg.network.fault.recover = true;
    cfg.network.fault.maxRetransmits = 4;
    cfg.network.fault.script.push_back(
        {kCrashCycle, FaultScriptEntry::Kind::CrashNode, kDoomed});
    cfg.watchdog.enabled = true;
    cfg.watchdog.windowCycles = 1u << 15;
    return cfg;
}

struct Outcome {
    Cycles elapsed = 0;
    Addr shared = 0;
    std::vector<Word> image;
    Word soloSeen = 0;
    proto::RecoveryStats rec;
    std::uint64_t executed = 0;
};

/**
 * The shared page is mastered on the doomed node and replicated onto
 * nodes 0 and 1; `solo` stays unreplicated on the doomed node, so the
 * crash makes it a lost page. Each writer owns one word (a replayed
 * write is idempotent under single-writer words, so the final image is
 * exact despite at-least-once replay).
 */
Outcome
runCrashScenario(Machine& m)
{
    const Addr shared = m.alloc(kPageBytes, kDoomed);
    m.replicate(shared, 0);
    m.replicate(shared, 1);
    const Addr solo = m.alloc(kPageBytes, kDoomed);
    m.settle();

    Outcome out;
    // Node 0 doubles as the lost-page prober: it polls `solo` while it
    // writes, so a probe is in flight when the master dies (completed
    // as lost by the recovery walk) and later probes fault degraded at
    // translation time.
    m.spawn(0, [&out, shared, solo](Context& ctx) {
        for (Word i = 1; i <= kIters; ++i) {
            ctx.write(shared + 4 * 0, i);
            ctx.read(shared + 4 * 1);
            if (out.soloSeen != kPageLostValue) {
                out.soloSeen = ctx.read(solo);
            }
            ctx.compute(20);
        }
        for (int i = 0; i < 4000 && out.soloSeen != kPageLostValue; ++i) {
            out.soloSeen = ctx.read(solo);
        }
        // The loss has been observed (possibly via an in-flight read the
        // recovery walk completed as lost); one more round trip must now
        // fault degraded at translation time (proc.pageLostFaults) and
        // still complete in bounded cycles, for reads and writes both.
        out.soloSeen = ctx.read(solo);
        ctx.write(solo, 1);
    });
    for (NodeId n = 1; n < 3; ++n) {
        m.spawn(n, [shared, n](Context& ctx) {
            for (Word i = 1; i <= kIters; ++i) {
                ctx.write(shared + 4 * n, n * 1000 + i);
                ctx.read(shared + 4 * ((n + 1) % 3));
                ctx.compute(20);
            }
        });
    }
    // The doomed node's writer would run far past the whole test; the
    // crash must write it off (halted processor, thread never finishes).
    m.spawn(kDoomed, [shared](Context& ctx) {
        for (Word i = 1; i <= 100000; ++i) {
            ctx.write(shared + 4 * kDoomed, 3000 + i);
            ctx.compute(10);
        }
    });
    m.run();
    m.settle();

    out.shared = shared;
    out.elapsed = m.now();
    for (Word w = 0; w < 8; ++w) {
        out.image.push_back(m.peek(shared + 4 * w));
    }
    out.image.push_back(out.soloSeen);
    out.rec = m.recovery()->stats();
    out.executed = m.engine().executedEvents();
    return out;
}

TEST(Recovery, MasterCrashRecoversAndServesDegraded)
{
    MachineConfig cfg = recoveryConfig();
    Machine m(cfg);
    const Outcome out = runCrashScenario(m);

    // Survivors finished their writes; single-writer words are exact.
    for (NodeId n = 0; n < 3; ++n) {
        EXPECT_EQ(out.image[n], n * 1000 + kIters) << "writer " << n;
    }
    // The lost page completed degraded, within the probe bound.
    EXPECT_EQ(out.soloSeen, kPageLostValue);

    ASSERT_NE(m.recovery(), nullptr);
    EXPECT_TRUE(m.recovery()->nodeCrashed(kDoomed));
    EXPECT_TRUE(m.recovery()->nodeRecovered(kDoomed));
    EXPECT_EQ(out.rec.nodeRecoveries, 1u);
    EXPECT_GE(out.rec.pagesRemastered, 1u);
    EXPECT_GE(out.rec.pagesLost, 1u);

    // No stall window: recovery must beat the watchdog.
    ASSERT_NE(m.watchdog(), nullptr);
    EXPECT_EQ(m.watchdog()->stallWindows(), 0u);

    // The protocol drained: every write chain retired or was aborted.
    ASSERT_NE(m.checker(), nullptr);
    ASSERT_NE(m.checker()->invariants(), nullptr);
    EXPECT_EQ(m.checker()->invariants()->writesInFlight(), 0u);
}

TEST(Recovery, DeadNodePurgedFromCopyListAndSurvivorsConsistent)
{
    MachineConfig cfg = recoveryConfig();
    Machine m(cfg);
    const Outcome out = runCrashScenario(m);

    const mem::CopyList& list = m.copyListOf(out.shared);
    ASSERT_GE(list.copies().size(), 2u);
    for (const PhysPage& copy : list.copies()) {
        EXPECT_NE(copy.node, kDoomed) << "dead node still in copy-list";
    }
    // Every survivor copy is byte-identical to the new master: the
    // recovery re-sync repaired any suffix the mid-chain crash left
    // stale.
    const PhysPage master = list.copies().front();
    const mem::LocalMemory& mm = m.nodeAt(master.node).memory();
    for (std::size_t c = 1; c < list.copies().size(); ++c) {
        const PhysPage copy = list.copies()[c];
        const mem::LocalMemory& cm = m.nodeAt(copy.node).memory();
        for (Addr w = 0; w < kPageWords; ++w) {
            ASSERT_EQ(cm.read(copy.frame, w), mm.read(master.frame, w))
                << "copy on node " << copy.node << " diverges at word "
                << w;
        }
    }
}

TEST(Recovery, RmwWaitingForAPendingWriteSlotExecutesOnce)
{
    // Node 0 fills its pending-writes cache with writes whose update
    // chains die with the doomed replica, then issues an fadd that must
    // wait for a slot. The recovery walk replays the torn writes; the
    // waiting fadd has nothing in flight, so it must execute exactly
    // once, when a replayed write frees its slot.
    MachineConfig cfg = recoveryConfig();
    cfg.network.fault.script.front().at = 1;
    Machine m(cfg);
    const Addr page = m.alloc(kPageBytes, 1);
    m.replicate(page, kDoomed);
    m.settle();
    const Word writes = cfg.cost.pendingWriteEntries;
    Word old = kPageLostValue;
    m.spawn(0, [&](Context& ctx) {
        for (Word i = 1; i <= writes; ++i) {
            ctx.write(page + 4 * i, i);
        }
        old = ctx.fadd(page, 5);
    });
    m.run();
    m.settle();

    ASSERT_EQ(m.recovery()->stats().nodeRecoveries, 1u);
    EXPECT_EQ(old, 0u);
    EXPECT_EQ(m.peek(page), 5u) << "the fadd executed more than once";
    for (Word i = 1; i <= writes; ++i) {
        EXPECT_EQ(m.peek(page + 4 * i), i);
    }
}

TEST(Recovery, CrashIsDetectedBeforeTheWatchdogFires)
{
    // Only node 0 runs, and its last write waits for a pending-writes
    // slot held by writes whose update chains die with the doomed
    // replica. Until the link layer gives up on the dead node, no
    // packet is delivered and no operation retires; the last backoff
    // gap before that verdict (the adaptive RTO shifted by the attempt
    // count) is longer than recoveryConfig()'s watchdog window. The
    // crash is recoverable, so the watchdog must wait for the verdict.
    MachineConfig cfg = recoveryConfig();
    cfg.network.fault.script.front().at = 1;
    Machine m(cfg);
    const Addr page = m.alloc(kPageBytes, 1);
    m.replicate(page, kDoomed);
    m.settle();
    const Word writes = cfg.cost.pendingWriteEntries + 1;
    m.spawn(0, [&](Context& ctx) {
        for (Word i = 1; i <= writes; ++i) {
            ctx.write(page + 4 * i, i);
        }
    });
    m.run();
    m.settle();

    const net::LinkLayer* link = m.network().linkLayer();
    ASSERT_NE(link, nullptr);
    const unsigned last_shift = std::min(cfg.network.fault.maxRetransmits,
                                         FaultConfig::backoffCap);
    EXPECT_GT(link->rto(1) << last_shift, cfg.watchdog.windowCycles)
        << "the scenario no longer outlasts the watchdog window";
    ASSERT_EQ(m.recovery()->stats().nodeRecoveries, 1u);
    EXPECT_EQ(m.watchdog()->stallWindows(), 0u);
    for (Word i = 1; i <= writes; ++i) {
        EXPECT_EQ(m.peek(page + 4 * i), i);
    }
}

TEST(Recovery, MetricsAndPanicSummaryExposeTheEpoch)
{
    MachineConfig cfg = recoveryConfig();
    Machine m(cfg);
    runCrashScenario(m);

    std::uint64_t epochs = 0;
    std::uint64_t lostFaults = 0;
    std::uint64_t peerDeaths = 0;
    std::uint64_t crashes = 0;
    for (const auto& [name, value] : m.metricsSnapshot().counters) {
        if (name == "recovery.epochs") {
            epochs = value;
        } else if (name == "proc.pageLostFaults") {
            lostFaults = value;
        } else if (name == "net.link.peerDeaths") {
            peerDeaths = value;
        } else if (name == "net.fault.nodeCrashes") {
            crashes = value;
        }
    }
    EXPECT_EQ(epochs, 1u);
    EXPECT_GT(lostFaults, 0u);
    EXPECT_GT(peerDeaths, 0u);
    EXPECT_EQ(crashes, 1u);

    // The panic decorator's dossier (appended to PLUS_PANIC output and
    // the machine diagnostics dump) names the epoch and the dead node.
    const std::string summary = m.recovery()->panicSummary();
    EXPECT_NE(summary.find("crash recovery"), std::string::npos) << summary;
    EXPECT_NE(summary.find("recovered"), std::string::npos) << summary;
}

TEST(Recovery, PostRecoveryImageIsByteIdenticalAcrossBackends)
{
    auto runOn = [](Engine backend) {
        MachineConfig cfg = recoveryConfig(backend);
        Machine m(cfg);
        return runCrashScenario(m);
    };
    const Outcome wheel = runOn(Engine::Wheel);
    ASSERT_FALSE(wheel.image.empty());

    auto expectIdentical = [&wheel](const Outcome& got, const char* label) {
        EXPECT_EQ(wheel.elapsed, got.elapsed) << label;
        EXPECT_EQ(wheel.image, got.image) << label;
        EXPECT_EQ(wheel.executed, got.executed) << label;
        EXPECT_EQ(wheel.rec.nodeRecoveries, got.rec.nodeRecoveries) << label;
        EXPECT_EQ(wheel.rec.pagesRemastered, got.rec.pagesRemastered)
            << label;
        EXPECT_EQ(wheel.rec.copyListsRepaired, got.rec.copyListsRepaired)
            << label;
        EXPECT_EQ(wheel.rec.pagesLost, got.rec.pagesLost) << label;
        EXPECT_EQ(wheel.rec.abortedOps, got.rec.abortedOps) << label;
        EXPECT_EQ(wheel.rec.lostCompletions, got.rec.lostCompletions)
            << label;
    };
    expectIdentical(runOn(Engine::Heap), "heap");
}

// --- configuration validation -------------------------------------------

TEST(RecoveryConfig, RejectsCrashOfNodeBeyondMachineSize)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.network.fault.enabled = true;
    cfg.network.fault.script.push_back(
        {10, FaultScriptEntry::Kind::CrashNode, 9});
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(RecoveryConfig, RejectsCrashingEveryNode)
{
    MachineConfig cfg;
    cfg.nodes = 2;
    cfg.network.fault.enabled = true;
    cfg.network.fault.recover = true;
    cfg.network.fault.script.push_back(
        {10, FaultScriptEntry::Kind::CrashNode, 0});
    cfg.network.fault.script.push_back(
        {20, FaultScriptEntry::Kind::CrashNode, 1});
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(RecoveryConfig, RejectsUnboundedRetransmitBudgetWithRecovery)
{
    // Detection rides on retransmit-budget exhaustion: retry-forever
    // would never report the death.
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.network.fault.enabled = true;
    cfg.network.fault.recover = true;
    cfg.network.fault.maxRetransmits = 0;
    cfg.network.fault.script.push_back(
        {10, FaultScriptEntry::Kind::CrashNode, 3});
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(RecoveryConfig, RejectsCrashKillingEveryFencedReplica)
{
    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.network.fault.enabled = true;
    cfg.network.fault.recover = true;
    cfg.network.fault.script.push_back(
        {10, FaultScriptEntry::Kind::CrashNode, 2});
    cfg.network.fault.script.push_back(
        {20, FaultScriptEntry::Kind::CrashNode, 3});
    cfg.network.fault.fencedPageReplicas.push_back({2, 3});
    EXPECT_THROW(cfg.validate(), FatalError);

    // One surviving holder makes the same schedule legal.
    cfg.network.fault.fencedPageReplicas.back().push_back(0);
    EXPECT_NO_THROW(cfg.validate());
}

} // namespace
} // namespace core
} // namespace plus
