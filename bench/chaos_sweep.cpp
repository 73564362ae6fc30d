/**
 * @file
 * Chaos sweep: the reliable-delivery layer must make injected network
 * faults invisible to the memory system. A fault-free oracle run fixes
 * the expected final memory image (the workload is built from disjoint
 * per-node writes and commutative fetch-and-adds, so the image is
 * timing-independent); every chaos run — drop / duplicate / corrupt /
 * transient link-kill schedules across several injector seeds — must
 * reproduce it word for word. The sweep ends with a watchdog
 * demonstration: a permanent partition with an unbounded retransmit
 * budget must be converted into a forward-progress panic, not a hang.
 *
 *   chaos_sweep [--nodes=N] [--seeds=K] [--kill-node=<id>@<cycle>]
 *
 * --kill-node appends a fail-stop section: the named node is crashed
 * mid-run (cycle is relative to workload start), recovery re-masters
 * its pages, and the run must end with every surviving replica
 * byte-identical and the survivor image matching the oracle. Recovery
 * latency percentiles are reported from the telemetry histograms, and
 * a combined image hash is printed for cross-backend identity checks
 * (scripts/ci.sh `recovery` stage). Fail-stop runs use a 1xN linear
 * mesh and should kill an end node: a crashed node's *router* also
 * dies, so a mid-mesh victim would black-hole survivor-to-survivor
 * transit traffic (see docs/ROBUSTNESS.md "Crash recovery").
 *
 * Exits non-zero on any image mismatch or if the watchdog fails to
 * fire. See docs/ROBUSTNESS.md.
 */

#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/panic.hpp"
#include "common/stats.hpp"
#include "core/context.hpp"
#include "net/fault_injector.hpp"
#include "net/reliable_link.hpp"
#include "proto/recovery_manager.hpp"

namespace {

using namespace plus;
using namespace plus::bench;

constexpr unsigned kCopies = 3;    ///< replicas per page (incl. master)
constexpr unsigned kWordsUsed = 16; ///< words written per page
constexpr Word kIters = 24;         ///< write rounds per thread

struct RunResult {
    std::vector<Word> image; ///< final memory: pages then the counter
    Cycles cycles = 0;
    net::FaultStats faults;
    net::LinkStats link;
    // Fail-stop runs only (FaultConfig::recover armed):
    proto::RecoveryStats rec;            ///< epoch outcome counters
    telemetry::DistSummary recLatency;   ///< recovery.latency snapshot
    bool survivorsConsistent = true;     ///< replicas byte-identical
};

/**
 * Run the workload once and return the final memory image. The image
 * is timing-independent by construction: each node writes only its own
 * page's words (last value per word is fixed by program order) and the
 * shared counter only ever sees commutative increments.
 */
RunResult
runOnce(unsigned nodes, const FaultConfig* fault)
{
    MachineBuilder builder = machineBuilder(nodes);
    if (fault) {
        builder.faults(*fault);
        const bool fail_stop = fault->recover;
        builder.tune([nodes, fail_stop](MachineConfig& c) {
            c.watchdog.enabled = true; // a hung chaos run should diagnose
            if (fail_stop) {
                // A crashed node's router dies with it. On a 1xN line
                // the end node is never a transit hop for survivor
                // pairs, so killing it cannot black-hole live traffic.
                c.network.meshWidth = nodes;
            }
        });
    }
    auto machine_ptr = builder.build();
    core::Machine& machine = *machine_ptr;

    std::vector<Addr> pages(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        pages[n] = machine.alloc(kPageBytes, n);
        for (unsigned c = 1; c < kCopies && c < nodes; ++c) {
            machine.replicate(pages[n], (n + c) % nodes);
        }
    }
    const Addr counter = machine.alloc(kPageBytes, 0);
    machine.settle();

    for (NodeId n = 0; n < nodes; ++n) {
        machine.spawn(n, [&pages, counter, nodes, n](core::Context& ctx) {
            const Addr own = pages[n];
            const Addr peer = pages[(n + 1) % nodes];
            for (Word i = 0; i < kIters; ++i) {
                // Disjoint writes: update chains through every replica.
                ctx.write(own + 8 * (i % kWordsUsed), n * 1000 + i);
                // Remote reads keep request/response traffic flowing.
                ctx.read(peer + 8 * (i % kWordsUsed));
                if (i % 6 == 0) {
                    ctx.fadd(counter, 1); // commutative shared traffic
                }
                ctx.compute(20);
            }
            ctx.fence();
        });
    }
    machine.run();
    machine.settle();

    RunResult r;
    r.cycles = machine.now();
    // A page whose every copy died is gone from the directory; report
    // the degraded-mode value in its place instead of peeking.
    auto peekWord = [&machine](Addr addr) {
        return machine.pageIsLost(pageOf(addr)) ? kPageLostValue
                                                : machine.peek(addr);
    };
    for (NodeId n = 0; n < nodes; ++n) {
        for (unsigned w = 0; w < kWordsUsed; ++w) {
            r.image.push_back(peekWord(pages[n] + 8 * w));
        }
    }
    r.image.push_back(peekWord(counter));
    if (const net::FaultInjector* inj =
            machine.network().faultInjector()) {
        r.faults = inj->stats();
    }
    if (const net::LinkLayer* link = machine.network().linkLayer()) {
        r.link = link->stats();
    }
    if (const proto::RecoveryManager* rm = machine.recovery()) {
        r.rec = rm->stats();
        for (const auto& [name, dist] :
             machine.metricsSnapshot().distributions) {
            if (name == "recovery.latency") {
                r.recLatency = dist;
            }
        }
        // Surviving-replica consistency: after copy-list repair every
        // remaining copy of a page must be byte-identical.
        std::vector<Addr> bases = pages;
        bases.push_back(counter);
        for (const Addr base : bases) {
            if (machine.pageIsLost(pageOf(base))) {
                continue;
            }
            const mem::CopyList& list = machine.copyListOf(base);
            const PhysPage master = list.master();
            for (const PhysPage& copy : list.copies()) {
                for (Addr w = 0; w < kPageWords; ++w) {
                    if (machine.nodeAt(copy.node).memory().read(
                            copy.frame, w) !=
                        machine.nodeAt(master.node).memory().read(
                            master.frame, w)) {
                        r.survivorsConsistent = false;
                    }
                }
            }
        }
    }
    return r;
}

/** A permanent partition must end in a watchdog panic, not a hang. */
bool
watchdogConvertsPartitionToPanic(unsigned nodes)
{
    FaultConfig fault;
    fault.maxRetransmits = 0; // leave the hang to the dog
    fault.script.push_back({1, FaultScriptEntry::Kind::LinkDown, 0, 1});
    auto machine_ptr = machineBuilder(nodes)
                           .faults(fault)
                           .watchdog(1u << 15)
                           .build();
    core::Machine& machine = *machine_ptr;
    const Addr a = machine.alloc(kPageBytes, 0);
    machine.spawn(1, [a](core::Context& ctx) { ctx.read(a); });
    try {
        machine.run();
    } catch (const PanicError& e) {
        return std::string(e.what()).find("watchdog") !=
               std::string::npos;
    }
    return false;
}

/** One --kill-node=<id>@<cycle> request (cycle relative to run start). */
struct KillSpec {
    NodeId node = 0;
    Cycles at = 0;
};

/**
 * Check a fail-stop run's image against the fault-free oracle. A
 * surviving node's page must match the oracle word for word (its
 * writer ran to completion; recovery replays anything the crash
 * tore). A crashed node's words stop at whatever round its writer
 * reached, so each must be zero or some round's value for that word.
 * The commutative counter loses only the dead nodes' increments.
 */
bool
imageOkAfterKill(const std::vector<Word>& oracle,
                 const RunResult& run,
                 const std::vector<KillSpec>& kills,
                 unsigned nodes)
{
    auto killed = [&kills](NodeId n) {
        for (const KillSpec& k : kills) {
            if (k.node == n) {
                return true;
            }
        }
        return false;
    };
    for (NodeId n = 0; n < nodes; ++n) {
        for (unsigned w = 0; w < kWordsUsed; ++w) {
            const Word got = run.image[n * kWordsUsed + w];
            if (!killed(n)) {
                if (got != oracle[n * kWordsUsed + w]) {
                    return false;
                }
                continue;
            }
            if (got == 0 || got == kPageLostValue) {
                continue; // round never reached, or page lost outright
            }
            const Word round = got - n * 1000;
            if (round >= kIters || round % kWordsUsed != w) {
                return false;
            }
        }
    }
    // i % 6 == 0 rounds increment the shared counter.
    Word fadds = 0;
    for (Word i = 0; i < kIters; ++i) {
        fadds += (i % 6 == 0) ? 1 : 0;
    }
    const Word got = run.image.back();
    if (got == kPageLostValue) {
        return killed(0); // counter master is node 0
    }
    const auto dead = static_cast<Word>(kills.size());
    return got >= fadds * (nodes - dead) && got <= fadds * nodes;
}

} // namespace

int
main(int argc, char** argv)
{
    const HarnessArgs& args = parseHarnessArgs(argc, argv);
    const unsigned nodes = args.nodesOr(8);
    unsigned seeds = 3;
    std::vector<KillSpec> kills;
    for (const std::string& arg : args.rest) {
        if (arg.rfind("--seeds=", 0) == 0) {
            seeds = parseUnsignedFlag("--seeds", arg.substr(8));
        } else if (arg.rfind("--kill-node=", 0) == 0) {
            const std::string spec = arg.substr(12);
            const std::size_t sep = spec.find('@');
            if (sep == std::string::npos) {
                std::cerr << "malformed " << arg
                          << " (want --kill-node=<id>@<cycle>)\n";
                return 2;
            }
            KillSpec k;
            k.node = parseUnsignedFlag<NodeId>(
                "--kill-node <id>", spec.substr(0, sep), 0);
            k.at = parseUnsignedFlag<Cycles>("--kill-node <cycle>",
                                             spec.substr(sep + 1), 0);
            kills.push_back(k);
        } else {
            std::cerr << "usage: chaos_sweep [--nodes=N] [--seeds=K] "
                         "[--kill-node=<id>@<cycle>]\n";
            return 2;
        }
    }

    // Fail-stop recovery re-masters from a replica, which under
    // write-invalidate may hold invalidated words (the same reason
    // MachineConfig::validate rejects invalidate + fault.recover).
    // Report the unsupported combination instead of tripping it.
    if (!kills.empty() && args.protocol == Protocol::WriteInvalidate) {
        std::cout << "chaos_sweep: --kill-node is unsupported under the "
                     "write-invalidate protocol (re-mastering would "
                     "promote a replica that may hold invalidated words; "
                     "see docs/PROTOCOLS.md). Skipping the sweep.\n";
        return 0;
    }

    const RunResult oracle = runOnce(nodes, nullptr);

    struct Scenario {
        const char* name;
        FaultConfig fault;
    };
    std::vector<Scenario> scenarios;
    {
        Scenario s;
        s.name = "drop 1%";
        s.fault.dropRate = 0.01;
        scenarios.push_back(s);
    }
    {
        Scenario s;
        s.name = "dup 1%";
        s.fault.duplicateRate = 0.01;
        scenarios.push_back(s);
    }
    {
        Scenario s;
        s.name = "corrupt 0.5%";
        s.fault.corruptRate = 0.005;
        scenarios.push_back(s);
    }
    {
        Scenario s;
        s.name = "mixed+kill";
        s.fault.dropRate = 0.01;
        s.fault.duplicateRate = 0.01;
        s.fault.corruptRate = 0.005;
        // One transient partition in the middle of the run.
        s.fault.script.push_back(
            {2000, FaultScriptEntry::Kind::LinkDown, 0, 1});
        s.fault.script.push_back(
            {12000, FaultScriptEntry::Kind::LinkUp, 0, 1});
        scenarios.push_back(s);
    }

    TablePrinter table;
    table.setHeader({"scenario", "seed", "cycles", "injected",
                     "retransmits", "image"});
    bool allOk = true;
    for (const Scenario& s : scenarios) {
        for (unsigned seed = 1; seed <= seeds; ++seed) {
            FaultConfig fault = s.fault;
            fault.seed = seed;
            const RunResult run = runOnce(nodes, &fault);
            const bool ok = run.image == oracle.image;
            allOk = allOk && ok;
            const std::uint64_t injected =
                run.faults.dropped + run.faults.corrupted +
                run.faults.duplicated + run.faults.delayed;
            table.addRow({s.name, std::to_string(seed),
                          TablePrinter::num(run.cycles),
                          TablePrinter::num(injected),
                          TablePrinter::num(run.link.retransmits),
                          ok ? "ok" : "MISMATCH"});
        }
    }
    std::cout << "chaos sweep: " << nodes << " nodes, oracle "
              << TablePrinter::num(oracle.cycles) << " cycles, "
              << oracle.image.size() << "-word image\n\n";
    table.print(std::cout);

    bool killsOk = true;
    if (!kills.empty()) {
        TablePrinter kt;
        kt.setHeader({"scenario", "seed", "cycles", "epochs",
                      "remastered", "lost", "latency", "image"});
        Histogram latencies;
        std::uint64_t hash = 1469598103934665603ull; // FNV-1a offset
        auto mix = [&hash](std::uint64_t v) {
            for (unsigned b = 0; b < 8; ++b) {
                hash ^= (v >> (8 * b)) & 0xffu;
                hash *= 1099511628211ull;
            }
        };
        for (unsigned seed = 1; seed <= seeds; ++seed) {
            FaultConfig fault;
            fault.recover = true;
            fault.maxRetransmits = 4; // small budget = fast detection
            fault.seed = seed;
            // Stagger the crash per seed so the latency distribution
            // samples detection at different protocol phases.
            const Cycles shift = (seed - 1) * 800;
            std::string name = "fail-stop";
            for (const KillSpec& k : kills) {
                fault.script.push_back({k.at + shift,
                                        FaultScriptEntry::Kind::CrashNode,
                                        k.node});
                name += " n" + std::to_string(k.node) + "@" +
                        std::to_string(k.at + shift);
            }
            const RunResult run = runOnce(nodes, &fault);
            const bool ok = imageOkAfterKill(oracle.image, run, kills,
                                             nodes) &&
                            run.survivorsConsistent &&
                            run.rec.nodeRecoveries == kills.size();
            killsOk = killsOk && ok;
            if (run.recLatency.count > 0) {
                // One seal per epoch; the per-run mean degrades to the
                // exact sample for the common single-crash case.
                for (std::uint64_t i = 0; i < run.recLatency.count; ++i) {
                    latencies.record(run.recLatency.mean);
                }
            }
            for (const Word w : run.image) {
                mix(w);
            }
            mix(run.cycles);
            mix(run.rec.pagesRemastered);
            mix(run.rec.copyListsRepaired);
            mix(run.rec.pagesLost);
            kt.addRow({name, std::to_string(seed),
                       TablePrinter::num(run.cycles),
                       std::to_string(run.rec.nodeRecoveries),
                       std::to_string(run.rec.pagesRemastered),
                       std::to_string(run.rec.pagesLost),
                       TablePrinter::num(run.recLatency.mean, 0),
                       ok ? "ok" : "MISMATCH"});
        }
        std::cout << "\nfail-stop recovery (1x" << nodes
                  << " line, cycle relative to workload start):\n\n";
        kt.print(std::cout);
        std::cout << "\nrecovery latency cycles: p50 "
                  << TablePrinter::num(latencies.percentile(50.0), 0)
                  << ", p90 "
                  << TablePrinter::num(latencies.percentile(90.0), 0)
                  << ", p99 "
                  << TablePrinter::num(latencies.percentile(99.0), 0)
                  << " over " << latencies.count() << " epoch(s)\n";
        std::cout << "fail-stop image hash: 0x" << std::hex
                  << std::setw(16) << std::setfill('0') << hash
                  << std::dec << std::setfill(' ') << "\n";
    }

    const bool dogOk = watchdogConvertsPartitionToPanic(nodes);
    std::cout << "\nwatchdog partition demo: "
              << (dogOk ? "panicked as expected" : "FAILED TO FIRE")
              << "\n";

    if (!allOk || !killsOk || !dogOk) {
        std::cerr << "\nchaos sweep FAILED\n";
        return 1;
    }
    std::cout << "\nall chaos runs reproduced the fault-free image\n";
    return 0;
}
