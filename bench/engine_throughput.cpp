/**
 * @file
 * Engine throughput benchmark: how fast does the simulator itself run?
 *
 *   engine_throughput [--quick] [--micro-only] [--nodes=N]
 *                     [--out=<file>]
 *
 * Two measurements, reported as host events/sec:
 *
 *  - A micro benchmark replaying a harness-shaped event mix (short
 *    network-hop delays, coherence-manager service windows, armed-then-
 *    cancelled timeouts) against three schedulers: the pre-rewrite
 *    priority-queue engine (copied below as BaselinePq), the timing-
 *    wheel engine, and the wheel engine's heap reference backend.
 *
 *  - The sim_harness 16-node macro workload on the real machine, run
 *    once per backend, reporting host events/sec and simulated
 *    cycles/sec end to end.
 *
 * --out writes the numbers as JSON (the committed BENCH_engine.json is
 * produced this way). The ci.sh perf-smoke stage reruns with --quick
 * and fails on a large regression. See docs/PERF.md.
 *
 * --micro-only stops after the scheduler micro benchmark.
 *
 * --prof-overhead runs only the profiler-overhead measurement the
 * ci.sh prof stage gates on: the wheel micro benchmark with the
 * profiler disabled and enabled, interleaved in-process (best of 5
 * each) so host noise hits both sides alike, reported as JSON.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "core/context.hpp"
#include "sim/engine.hpp"

namespace {

using namespace plus;
using namespace plus::bench;

/**
 * The event engine this PR replaced, kept verbatim (minus logging) as
 * the performance baseline: a std::priority_queue of records each
 * owning a std::function, with lazy cancellation through a hash set.
 */
class BaselinePq
{
  public:
    Cycles now() const { return now_; }

    sim::EventId schedule(Cycles delay, std::function<void()> fn)
    {
        const sim::EventId id = nextId_++;
        queue_.push(Record{now_ + delay, nextSeq_++, id, std::move(fn)});
        return id;
    }

    bool cancel(sim::EventId id)
    {
        return cancelledIds_.insert(id).second;
    }

    void run()
    {
        while (!queue_.empty()) {
            const Record& top = queue_.top();
            if (cancelledIds_.erase(top.id) != 0) {
                queue_.pop();
                continue;
            }
            Record record = std::move(const_cast<Record&>(top));
            queue_.pop();
            now_ = record.when;
            record.fn();
        }
    }

  private:
    struct Record {
        Cycles when;
        std::uint64_t seq;
        sim::EventId id;
        std::function<void()> fn;
    };
    struct Later {
        bool operator()(const Record& a, const Record& b) const
        {
            if (a.when != b.when) {
                return a.when > b.when;
            }
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Record, std::vector<Record>, Later> queue_;
    std::unordered_set<sim::EventId> cancelledIds_;
    Cycles now_ = 0;
    std::uint64_t nextSeq_ = 0;
    sim::EventId nextId_ = 1;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * Steady-state event mix modelled on what the coherence simulation
 * schedules: mostly short delays (mesh hops at ~2 cycles, manager
 * occupancy at 6..40), one in eight events arming a timeout that is
 * cancelled before it fires. kActors self-rescheduling chains keep the
 * queue at a harness-like depth.
 */
template <typename EngineT>
struct MicroBench {
    /** @p engine_args construct the engine (sim::Engine: its backend). */
    template <typename... EngineArgs>
    explicit MicroBench(std::uint64_t target, EngineArgs... engine_args)
        : engine_(engine_args...), target_(target)
    {
    }

    double eventsPerSec()
    {
        const auto start = std::chrono::steady_clock::now();
        for (unsigned a = 0; a < kActors; ++a) {
            engine_.schedule(1 + a % 7, [this] { tick(); });
        }
        engine_.run();
        return static_cast<double>(executed_) / secondsSince(start);
    }

  private:
    static constexpr unsigned kActors = 256;

    std::uint64_t next()
    {
        rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
        return rng_ >> 33;
    }

    void tick()
    {
        if (++executed_ >= target_) {
            return; // stop rescheduling; the queue drains
        }
        const std::uint64_t r = next();
        const Cycles delay = r % 4 == 0 ? Cycles{2} : Cycles{6 + r % 35};
        engine_.schedule(delay, [this] { tick(); });
        if (r % 8 == 0) {
            engine_.cancel(engine_.schedule(100, [] {}));
        }
    }

    EngineT engine_;
    std::uint64_t target_;
    std::uint64_t executed_ = 0;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
};

/** One backend's end-to-end numbers on the macro workload. */
struct MacroResult {
    double eventsPerSec = 0;
    double cyclesPerSec = 0;
    std::uint64_t events = 0;
    Cycles cycles = 0;
};

/** The sim_harness mixed workload (writes through update chains,
 *  remote reads, delayed interlocked ops, fences) on @p nodes nodes. */
MacroResult
macroRun(Engine backend, unsigned nodes, unsigned iters)
{
    auto machine_ptr = machineBuilder(nodes).engine(backend).build();
    core::Machine& machine = *machine_ptr;

    constexpr unsigned kCopies = 4;
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
        machine.spawn(n, [&pages, counter, nodes, iters,
                          n](core::Context& ctx) {
            const Addr own = pages[n];
            const Addr peer = pages[(n + 1) % nodes];
            std::deque<core::OpHandle> window;
            for (Word i = 0; i < iters; ++i) {
                ctx.write(own + 4 * (i % 16), n * 1000 + i);
                ctx.read(peer + 4 * (i % 16));
                ctx.compute(25);
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
    const double seconds = secondsSince(start);

    MacroResult r;
    r.events = machine.engine().executedEvents();
    r.cycles = machine.now();
    r.eventsPerSec = static_cast<double>(r.events) / seconds;
    r.cyclesPerSec = static_cast<double>(r.cycles) / seconds;
    return r;
}

void
writeJson(std::ostream& os, bool quick, unsigned nodes, double baseline,
          double wheel, double heap, const MacroResult& macro_wheel,
          const MacroResult& macro_heap)
{
    os << "{\n"
       << "  \"bench\": \"engine_throughput\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"nodes\": " << nodes << ",\n"
       << "  \"baselineEventsPerSec\": " << baseline << ",\n"
       << "  \"wheelEventsPerSec\": " << wheel << ",\n"
       << "  \"heapEventsPerSec\": " << heap << ",\n"
       << "  \"speedup\": " << wheel / baseline << ",\n"
       << "  \"harnessWheelEventsPerSec\": " << macro_wheel.eventsPerSec
       << ",\n"
       << "  \"harnessWheelCyclesPerSec\": " << macro_wheel.cyclesPerSec
       << ",\n"
       << "  \"harnessHeapEventsPerSec\": " << macro_heap.eventsPerSec
       << ",\n"
       << "  \"harnessEvents\": " << macro_wheel.events << ",\n"
       << "  \"harnessCycles\": " << macro_wheel.cycles << "\n"
       << "}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    const HarnessArgs& args = parseHarnessArgs(argc, argv);
    bool quick = false;
    bool micro_only = false;
    bool prof_overhead = false;
    const unsigned nodes = args.nodesOr(16);
    std::string out;
    for (const std::string& arg : args.rest) {
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--micro-only") {
            micro_only = true;
        } else if (arg == "--prof-overhead") {
            prof_overhead = true;
        } else if (arg.rfind("--out=", 0) == 0) {
            out = arg.substr(6);
        } else {
            std::cerr << "usage: engine_throughput [--quick] "
                         "[--micro-only] [--prof-overhead] [--nodes=N] "
                         "[--out=<file>]\n";
            return 2;
        }
    }

    const std::uint64_t micro_events = quick ? 400'000 : 4'000'000;
    const unsigned macro_iters = quick ? 16 : 64;

    if (prof_overhead) {
        // Interleave disabled/enabled measurements in one process so
        // frequency scaling and host contention bias both sides the
        // same way; best-of-5 discards the slow outliers.
        MicroBench<sim::Engine>(micro_events / 8, Engine::Wheel)
            .eventsPerSec();
        double best_off = 0.0;
        double best_on = 0.0;
        for (int rep = 0; rep < 5; ++rep) {
            prof::enable(false);
            best_off = std::max(
                best_off, MicroBench<sim::Engine>(micro_events, Engine::Wheel)
                              .eventsPerSec());
            prof::enable(true);
            best_on = std::max(
                best_on, MicroBench<sim::Engine>(micro_events, Engine::Wheel)
                             .eventsPerSec());
        }
        prof::enable(false);
        std::ofstream ofs;
        if (!out.empty()) {
            ofs.open(out);
            if (!ofs) {
                std::cerr << "cannot open " << out << "\n";
                return 1;
            }
        }
        std::ostream& os = out.empty() ? std::cout : ofs;
        os << "{\n"
           << "  \"bench\": \"engine_throughput_prof_overhead\",\n"
           << "  \"offEventsPerSec\": " << best_off << ",\n"
           << "  \"onEventsPerSec\": " << best_on << ",\n"
           << "  \"overheadPct\": "
           << 100.0 * (1.0 - best_on / best_off) << "\n}\n";
        return 0;
    }

    printHeader("Engine throughput",
                "simulator performance (no paper table; see docs/PERF.md)");

    // Warm-up pass so first-touch page faults don't bill the baseline.
    MicroBench<BaselinePq>(micro_events / 8).eventsPerSec();

    const double baseline =
        MicroBench<BaselinePq>(micro_events).eventsPerSec();
    const double wheel =
        MicroBench<sim::Engine>(micro_events, Engine::Wheel).eventsPerSec();
    // The heap reference backend still benefits from Event + the slab;
    // the gap between it and the wheel isolates the data structure.
    const double heap =
        MicroBench<sim::Engine>(micro_events, Engine::Heap).eventsPerSec();

    MacroResult macro_wheel;
    MacroResult macro_heap;
    if (!micro_only) {
        macro_wheel = macroRun(Engine::Wheel, nodes, macro_iters);
        macro_heap = macroRun(Engine::Heap, nodes, macro_iters);
    }

    TablePrinter table;
    table.setHeader({"scheduler", "micro events/s", "harness events/s",
                     "harness cycles/s"});
    table.addRow({"baseline pq", TablePrinter::num(baseline), "-", "-"});
    table.addRow({"engine/heap", TablePrinter::num(heap),
                  TablePrinter::num(macro_heap.eventsPerSec),
                  TablePrinter::num(macro_heap.cyclesPerSec)});
    table.addRow({"engine/wheel", TablePrinter::num(wheel),
                  TablePrinter::num(macro_wheel.eventsPerSec),
                  TablePrinter::num(macro_wheel.cyclesPerSec)});
    finishTable(table, "speedup vs baseline: " +
                           TablePrinter::num(wheel / baseline, 2) + "x");

    if (!out.empty()) {
        std::ofstream os(out);
        if (!os) {
            std::cerr << "cannot open " << out << "\n";
            return 1;
        }
        writeJson(os, quick, nodes, baseline, wheel, heap, macro_wheel,
                  macro_heap);
    } else {
        writeJson(std::cout, quick, nodes, baseline, wheel, heap,
                  macro_wheel, macro_heap);
    }
    return exportProf() ? 0 : 1;
}
