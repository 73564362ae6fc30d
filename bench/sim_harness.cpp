/**
 * @file
 * General-purpose simulation harness for telemetry capture: a small
 * mixed workload (replicated-page writes and their update chains,
 * remote reads, delayed interlocked operations, fences) on a
 * configurable mesh, exporting the cycle-stamped event trace and the
 * metrics snapshot requested on the command line:
 *
 *   sim_harness [--nodes=N] [--trace-out=trace.json]
 *               [--stats-out=stats.json] [--out=harness.json]
 *
 * The trace loads in Perfetto / chrome://tracing with one track per
 * node and per mesh link; copy-list update chains appear as flow
 * arrows (see docs/OBSERVABILITY.md).
 *
 * --out writes host-throughput numbers (events/s, cycles/s) as JSON —
 * the committed BENCH_harness.json tracking ROADMAP's serial-harness
 * throughput item is produced this way. With profiling enabled
 * (--prof-out or PLUS_PROF=1) the file embeds the host-time phase
 * breakdown under "prof".
 */

#include <chrono>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/context.hpp"

namespace {

using namespace plus;
using namespace plus::bench;

/** Copies (including the master) each shared page gets. */
constexpr unsigned kCopies = 4;

} // namespace

int
main(int argc, char** argv)
{
    const HarnessArgs& args = parseHarnessArgs(argc, argv);
    std::string out;
    for (const std::string& arg : args.rest) {
        if (arg.rfind("--out=", 0) == 0) {
            out = arg.substr(6);
        } else {
            std::cerr << "usage: sim_harness [--nodes=N] "
                         "[--engine=NAME] [--trace-out=<file>] "
                         "[--stats-out=<file>] [--prof-out=<file>] "
                         "[--out=<file>]\n";
            return 2;
        }
    }
    const unsigned nodes = args.nodesOr(16);

    auto machine_ptr = machineBuilder(nodes).build();
    core::Machine& machine = *machine_ptr;

    // One page per node, replicated on the next kCopies-1 nodes so
    // every write walks a multi-copy update chain.
    std::vector<Addr> pages(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        pages[n] = machine.alloc(kPageBytes, n);
        for (unsigned c = 1; c < kCopies && c < nodes; ++c) {
            machine.replicate(pages[n], (n + c) % nodes);
        }
    }
    // A shared counter on node 0 for the interlocked-op traffic.
    const Addr counter = machine.alloc(kPageBytes, 0);
    machine.settle();

    for (NodeId n = 0; n < nodes; ++n) {
        machine.spawn(n, [&pages, counter, nodes, n](core::Context& ctx) {
            const Addr own = pages[n];
            const Addr peer = pages[(n + 1) % nodes];
            std::deque<core::OpHandle> window;
            for (Word i = 0; i < 32; ++i) {
                // Writes to the replicated page drive update chains.
                ctx.write(own + 4 * (i % 16), n * 1000 + i);
                // Remote reads of the neighbour's page.
                ctx.read(peer + 4 * (i % 16));
                ctx.compute(25);
                // Delayed interlocked ops: issue now, verify later.
                if (i % 8 == 0) {
                    window.push_back(ctx.issueFadd(counter, 1));
                }
                if (window.size() > 2) {
                    ctx.verify(window.front());
                    window.pop_front();
                }
            }
            while (!window.empty()) {
                ctx.verify(window.front());
                window.pop_front();
            }
            ctx.fence();
        });
    }
    const auto start = std::chrono::steady_clock::now();
    machine.run();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    const auto rep = machine.report();
    TablePrinter table;
    table.setHeader({"nodes", "cycles", "messages", "updates",
                     "remote reads", "rmw ops"});
    table.addRow({std::to_string(nodes), TablePrinter::num(machine.now()),
                  TablePrinter::num(rep.totalMessages),
                  TablePrinter::num(rep.updateMessages),
                  TablePrinter::num(rep.remoteReads),
                  TablePrinter::num(rep.localRmws + rep.remoteRmws)});
    finishTable(table);

    if (const telemetry::Telemetry* t = machine.telemetry()) {
        std::cout << "telemetry: " << t->events().recorded()
                  << " events recorded, " << t->events().dropped()
                  << " dropped\n";
    }

    if (!out.empty()) {
        std::ofstream os(out);
        if (!os) {
            std::cerr << "cannot open " << out << "\n";
            return 1;
        }
        const std::uint64_t events = machine.engine().executedEvents();
        os << "{\n"
           << "  \"bench\": \"sim_harness\",\n"
           << "  \"nodes\": " << nodes << ",\n"
           << "  \"cycles\": " << machine.now() << ",\n"
           << "  \"events\": " << events << ",\n"
           << "  \"messages\": " << rep.totalMessages << ",\n"
           << "  \"eventsPerSec\": "
           << (seconds > 0 ? static_cast<double>(events) / seconds : 0.0)
           << ",\n"
           << "  \"cyclesPerSec\": "
           << (seconds > 0
                   ? static_cast<double>(machine.now()) / seconds
                   : 0.0);
        if (prof::enabled()) {
            os << ",\n  \"prof\": ";
            prof::writeJson(os);
        }
        os << "\n}\n";
    }
    // Host-time attribution table on stderr: stdout stays byte-stable
    // for the CI determinism diffs.
    if (prof::enabled()) {
        std::cerr << prof::summaryTable();
    }
    return exportTelemetry(machine) ? 0 : 1;
}
