/**
 * @file
 * One pass of one benchmark workload, printed as one JSON object.
 *
 *   perfbench_pass --workload NAME --seed N [--mode plain|traced|nocheck]
 *                  [--smoke]
 *   perfbench_pass --probe [--smoke]
 *   perfbench_pass --fingerprint
 *
 * A pass builds the workload's machines in the pinned configuration
 * (wheel engine, the workload's protocol, invariant checker on), runs
 * them, checks every result and folds each machine's metrics snapshot
 * into the pass totals. Every call into the simulator is wrapped in a
 * host-time span (name, start, end, parent, run id); the spans are kept
 * in memory, and a traced pass prints them with its result.
 *
 * Modes: plain is the untraced measurement; traced additionally
 * enables plus::prof and reports its phase shares; nocheck turns the
 * invariant checker off (for the checker's host-time share). The
 * simulated counts, and so the snapshot digest, must not differ
 * between the three. A failed result check or an exception escaping a
 * run counts as a failed run; the pass carries on with the next one.
 *
 * perfbench/run.py drives this binary; see perfbench/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/reliable_link.hpp"
#include "plus/plus.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "telemetry/prof.hpp"
#include "workloads/beam.hpp"
#include "workloads/sssp.hpp"

namespace {

using namespace plus;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

enum class Mode { Plain, Traced, NoCheck };

/** The benchmark's own host-time spans, kept in memory. */
class SpanLog
{
  public:
    struct Span {
        std::string name;
        double start = 0; ///< seconds since the pass began
        double end = 0;
        int parent = -1; ///< index of the enclosing span, -1 for none
        int run = -1;    ///< machine index within the pass, -1 for none
    };

    int
    open(std::string name, int run)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(
            {std::move(name), now(), 0.0, parent, run});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    /** Close span @p id; returns its duration in seconds. */
    double
    close(int id)
    {
        Span& s = spans_[static_cast<std::size_t>(id)];
        s.end = now();
        stack_.pop_back();
        return s.end - s.start;
    }

    /** The spans as a JSON array. */
    std::string
    json() const
    {
        std::ostringstream os;
        os << std::setprecision(std::numeric_limits<double>::max_digits10)
           << '[';
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            os << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
               << "\",\"start\":" << s.start << ",\"end\":" << s.end
               << ",\"parent\":" << s.parent << ",\"run\":" << s.run
               << '}';
        }
        os << ']';
        return os.str();
    }

  private:
    double now() const { return secondsBetween(origin_, Clock::now()); }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void
fnv(std::uint64_t& h, const void* data, std::size_t len)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h = (h ^ p[i]) * kFnvPrime;
    }
}

/** Everything one pass measures. */
struct Pass {
    std::string workload;
    Mode mode = Mode::Plain;
    bool smoke = false;
    std::uint64_t seed = 0;

    SpanLog spans;
    int run = -1; ///< index of the machine being run
    unsigned attempted = 0;
    unsigned failed = 0;

    /** Host seconds per span name, summed over the pass. */
    std::map<std::string, double> host;
    /** Simulated cycles spent inside the simulating calls. */
    std::uint64_t simCycles = 0;
    /** Simulated counts summed over the pass's machines. */
    std::map<std::string, double> sim;
    /** Hash of every machine's full metrics snapshot, in run order. */
    std::uint64_t digest = kFnvOffset;
    /** mean |ln(ours/paper)| over Table 2-1; negative when undefined. */
    double paperErr = -1;
};

/** RAII span that also adds its duration to Pass::host[name]. */
class SpanScope
{
  public:
    SpanScope(Pass& pass, const char* name)
        : pass_(pass), name_(name), id_(pass.spans.open(name, pass.run))
    {
    }

    ~SpanScope() { pass_.host[name_] += pass_.spans.close(id_); }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    Pass& pass_;
    const char* name_;
    int id_;
};

/** The pinned configuration every workload starts from. */
MachineBuilder
pinned(const Pass& pass, unsigned nodes, Protocol protocol)
{
    return MachineBuilder()
        .nodes(nodes)
        .framesPerNode(4096)
        .engine(Engine::Wheel)
        .protocol(protocol)
        .invariants(pass.mode != Mode::NoCheck)
        .observer(false);
}

std::unique_ptr<core::Machine>
build(Pass& pass, const MachineBuilder& builder)
{
    const SpanScope span(pass, "build");
    return builder.build();
}

/** Run @p fn, the simulating call, and count the cycles it covers. */
template <typename F>
auto
simulate(Pass& pass, core::Machine& machine, F&& fn)
{
    const Cycles before = machine.now();
    auto result = [&] {
        const SpanScope span(pass, "simulate");
        return fn();
    }();
    pass.simCycles += machine.now() - before;
    return result;
}

/**
 * One attempted run: @p body builds, runs and checks one machine and
 * returns whether its result is correct. A false return or an escaping
 * exception (checker panic, cycle cap) counts as a failure.
 */
template <typename F>
void
attempt(Pass& pass, F&& body)
{
    ++pass.run;
    ++pass.attempted;
    bool ok = false;
    try {
        ok = body();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << pass.workload << " run " << pass.run
                  << ": " << e.what() << "\n";
    }
    if (!ok) {
        ++pass.failed;
    }
}

std::string
baseName(const std::string& name)
{
    // Registries suffix repeated names ("workq.pops#2"); sum them.
    const std::size_t hash = name.find('#');
    return hash == std::string::npos ? name : name.substr(0, hash);
}

/** Fold @p machine's metrics snapshot into the pass totals. */
void
absorb(Pass& pass, core::Machine& machine)
{
    const SpanScope span(pass, "metricsSnapshot");
    const telemetry::MetricsRegistry::Snapshot snap =
        machine.metricsSnapshot();
    std::map<std::string, double>& sim = pass.sim;
    for (const auto& [name, value] : snap.counters) {
        sim[baseName(name)] += static_cast<double>(value);
        fnv(pass.digest, name.data(), name.size());
        fnv(pass.digest, &value, sizeof(value));
    }
    for (const auto& [name, value] : snap.gauges) {
        if (name == "sim.slabHighWater") {
            sim[name] = std::max(sim[name], value);
        }
        fnv(pass.digest, name.data(), name.size());
        fnv(pass.digest, &value, sizeof(value));
    }
    for (const auto& [name, d] : snap.distributions) {
        fnv(pass.digest, name.data(), name.size());
        fnv(pass.digest, &d.count, sizeof(d.count));
        fnv(pass.digest, &d.sum, sizeof(d.sum));
        // Count-weighted sums; run.py divides by "<name>.count".
        if (name == "net.queueing" || name == "net.latency") {
            const auto n = static_cast<double>(d.count);
            sim[name + ".count"] += n;
            sim[name + ".mean_w"] += n * d.mean;
            sim[name + ".p50_w"] += n * d.p50;
            sim[name + ".p99_w"] += n * d.p99;
        }
    }
    if (const net::LinkLayer* link = machine.network().linkLayer()) {
        sim["net.link.dataFrames"] +=
            static_cast<double>(link->stats().dataFrames);
    }
    const core::MachineReport rep = machine.report();
    sim["report.busyUseful"] += static_cast<double>(rep.busyUseful);
    sim["report.procCycles"] += static_cast<double>(rep.elapsed) *
                                static_cast<double>(machine.nodeCount());
}

// ---- workloads --------------------------------------------------------

/** splitmix64: the stream every seeded input is drawn from. */
std::uint64_t
splitmix(std::uint64_t& state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** Input seed @p k of a pass with several inputs; k = 0 is the seed. */
std::uint64_t
subSeed(std::uint64_t seed, unsigned k)
{
    std::uint64_t state = seed + k;
    return k == 0 ? seed : splitmix(state);
}

workloads::SsspConfig
ssspConfig(const Pass& pass, unsigned replication, std::uint64_t seed)
{
    workloads::SsspConfig cfg;
    cfg.vertices = pass.smoke ? 256 : 2048;
    cfg.kind = workloads::SsspGraphKind::Grid;
    cfg.shortcutFrac = 0.25;
    cfg.seed = seed;
    cfg.replication = replication;
    return cfg;
}

/** Table 2-1's three ratios, computed as bench/table_2_1.cpp does. */
std::vector<double>
table21Ratios(const core::MachineReport& rep)
{
    // Local/remote ratios read as the local count when nothing was
    // remote; the message ratio reads 0 when nothing carried a write.
    auto localRemote = [](std::uint64_t local, std::uint64_t remote) {
        return remote == 0 ? static_cast<double>(local)
                           : static_cast<double>(local) /
                                 static_cast<double>(remote);
    };
    return {localRemote(rep.localReads, rep.remoteReads),
            localRemote(rep.localWrites + rep.localRmws,
                        rep.remoteWrites + rep.remoteRmws),
            rep.writeCarryingMessages == 0
                ? 0.0
                : static_cast<double>(rep.totalMessages) /
                      static_cast<double>(rep.writeCarryingMessages)};
}

/** Table 2-1: SSSP on 16 nodes at replication 1..5, write-update. */
void
runTable21(Pass& pass)
{
    // The paper's rows: reads L/R, writes L/R, total/update messages.
    constexpr double kPaper[5][3] = {{1.25, 3.40, 6.18},
                                     {1.70, 1.18, 2.91},
                                     {1.64, 0.70, 2.24},
                                     {2.14, 0.45, 1.89},
                                     {2.32, 0.36, 1.68}};
    double err = 0;
    unsigned terms = 0;
    for (unsigned copies = 1; copies <= 5; ++copies) {
        attempt(pass, [&] {
            auto m = build(pass, pinned(pass, 16, Protocol::WriteUpdate));
            const workloads::SsspResult r = simulate(pass, *m, [&] {
                return workloads::runSssp(
                    *m, ssspConfig(pass, copies, pass.seed));
            });
            absorb(pass, *m);
            const SpanScope check(pass, "check");
            if (!r.correct) {
                return false;
            }
            const std::vector<double> ours = table21Ratios(r.report);
            for (std::size_t k = 0; k < ours.size(); ++k) {
                err += std::fabs(std::log(ours[k] / kPaper[copies - 1][k]));
                ++terms;
            }
            return true;
        });
    }
    if (terms == 15) {
        pass.paperErr = err / terms;
    }
}

/** Figure 3-1's 16-node row: beam search under five sync schemes. */
void
runFigure31(Pass& pass)
{
    struct Variant {
        ProcessorMode mode;
        Cycles ctxCost;
        unsigned threadsPerProc;
    };
    constexpr Variant kVariants[] = {
        {ProcessorMode::Blocking, 0, 1},
        {ProcessorMode::Delayed, 0, 1},
        {ProcessorMode::ContextSwitch, 16, 2},
        {ProcessorMode::ContextSwitch, 40, 2},
        {ProcessorMode::ContextSwitch, 140, 2},
    };
    for (const Variant& v : kVariants) {
        attempt(pass, [&] {
            auto m = build(pass,
                           pinned(pass, 16, Protocol::WriteUpdate)
                               .mode(v.mode)
                               .tune([&](MachineConfig& mc) {
                                   mc.cost.ctxSwitchCycles = v.ctxCost;
                               }));
            workloads::BeamConfig cfg;
            cfg.layers = pass.smoke ? 4 : 16;
            cfg.width = pass.smoke ? 32 : 256;
            cfg.avgDegree = 3.0;
            cfg.maxWeight = 50;
            cfg.seed = pass.seed;
            cfg.threadsPerProcessor = v.threadsPerProc;
            const workloads::BeamResult r = simulate(
                pass, *m, [&] { return workloads::runBeam(*m, cfg); });
            absorb(pass, *m);
            const SpanScope check(pass, "check");
            return r.correct;
        });
    }
}

/**
 * flood-256: every node's page is replicated on its next three nodes;
 * each node writes its own page at seeded offsets, with 0-3 seeded
 * cycles of computation before each write, then fences. The check:
 * every master word equals the last value its owner wrote.
 *
 * Offsets and values alone leave the simulation the same for every
 * seed (same cycles, same metrics snapshot); the computation cycles
 * make the seed change the interleaving of the writes.
 */
void
runFlood(Pass& pass)
{
    const unsigned nodes = pass.smoke ? 16 : 256;
    const unsigned writes = pass.smoke ? 50 : 1000;
    constexpr unsigned kCopies = 3;

    struct Write {
        Addr word;
        Word value;
        Cycles think;
    };
    using Plan = std::vector<Write>;
    std::vector<Plan> plans(nodes);
    std::vector<std::vector<Word>> expected(
        nodes, std::vector<Word>(kPageWords, 0));
    for (unsigned n = 0; n < nodes; ++n) {
        std::uint64_t state = pass.seed * 0x100000001B3ULL + n;
        for (unsigned i = 0; i < writes; ++i) {
            const std::uint64_t x = splitmix(state);
            const Addr word = static_cast<Addr>(x % kPageWords);
            const auto value = static_cast<Word>((x >> 32) | 1U);
            plans[n].push_back({word, value, (x >> 10) & 3});
            expected[n][word] = value;
        }
    }

    attempt(pass, [&] {
        auto m = build(pass, pinned(pass, nodes, Protocol::WriteUpdate));
        std::vector<Addr> pages(nodes);
        {
            const SpanScope span(pass, "alloc");
            for (unsigned n = 0; n < nodes; ++n) {
                pages[n] = m->alloc(kPageBytes, static_cast<NodeId>(n));
            }
        }
        {
            // One copy of every page per round, so the copies of a round
            // fill in parallel; replicate() drains the previous round
            // when it meets a page whose copy is still in flight.
            const SpanScope span(pass, "replicate");
            for (unsigned k = 1; k <= kCopies; ++k) {
                for (unsigned n = 0; n < nodes; ++n) {
                    m->replicate(pages[n],
                                 static_cast<NodeId>((n + k) % nodes));
                }
            }
        }
        {
            const SpanScope span(pass, "settle");
            m->settle();
        }
        {
            const SpanScope span(pass, "spawn");
            for (unsigned n = 0; n < nodes; ++n) {
                m->spawn(static_cast<NodeId>(n),
                         [&, n](core::Context& ctx) {
                             for (const Write& w : plans[n]) {
                                 if (w.think != 0) {
                                     ctx.compute(w.think);
                                 }
                                 ctx.write(pages[n] + w.word * kWordBytes,
                                           w.value);
                             }
                             ctx.fence();
                         });
            }
        }
        simulate(pass, *m, [&] {
            m->run();
            return 0;
        });
        absorb(pass, *m);
        const SpanScope check(pass, "check");
        for (unsigned n = 0; n < nodes; ++n) {
            for (Addr w = 0; w < kPageWords; ++w) {
                if (m->peek(pages[n] + w * kWordBytes) != expected[n][w]) {
                    return false;
                }
            }
        }
        return true;
    });
}

/**
 * SSSP at replication 4 under write-invalidate with 1% packet drop and
 * reliable delivery, on three seeded graphs (and fault streams) per
 * pass so one input's work does not set the whole pass.
 */
void
runSsspInvalLossy(Pass& pass)
{
    for (unsigned k = 0; k < 3; ++k) {
        const std::uint64_t seed = subSeed(pass.seed, k);
        attempt(pass, [&] {
            FaultConfig fault;
            fault.seed = seed;
            fault.dropRate = 0.01;
            auto m = build(pass, pinned(pass, 16, Protocol::WriteInvalidate)
                                     .faults(fault));
            const workloads::SsspResult r = simulate(pass, *m, [&] {
                return workloads::runSssp(*m, ssspConfig(pass, 4, seed));
            });
            absorb(pass, *m);
            const SpanScope check(pass, "check");
            return r.correct;
        });
    }
}

// ---- output -----------------------------------------------------------

/** Writes one flat-ish JSON object; doubles keep all their digits. */
class JsonOut
{
  public:
    explicit JsonOut(std::ostream& os) : os_(os)
    {
        os_ << std::setprecision(std::numeric_limits<double>::max_digits10);
    }

    void open(const char* key = nullptr)
    {
        sep(key);
        os_ << '{';
        first_ = true;
    }
    void close()
    {
        os_ << '}';
        first_ = false;
    }
    template <typename T>
    void field(const std::string& key, const T& value)
    {
        sep(key.c_str());
        if constexpr (std::is_convertible_v<T, std::string>) {
            os_ << '"' << std::string(value) << '"';
        } else {
            os_ << value;
        }
    }

    /** Writes @p json, already JSON text, as the value of @p key. */
    void raw(const char* key, const std::string& json)
    {
        sep(key);
        os_ << json;
    }

  private:
    void sep(const char* key)
    {
        if (!first_) {
            os_ << ',';
        }
        first_ = false;
        if (key != nullptr) {
            os_ << '"' << key << "\":";
        }
    }

    std::ostream& os_;
    bool first_ = true;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** plus::prof's phase shares of the simulated run's wall time. */
void
writeProf(JsonOut& out)
{
    const prof::Summary s = prof::collect();
    out.open("prof");
    out.field("run_s", s.ticksPerSec > 0 ? static_cast<double>(
                                               s.runWallTicks) /
                                               s.ticksPerSec
                                         : 0.0);
    for (std::size_t p = 0; p < prof::kNumPhases; ++p) {
        std::uint64_t ticks = 0;
        for (const prof::Summary::Thread& t : s.threads) {
            ticks += t.ticks[p];
        }
        out.field(prof::kPhaseNames[p],
                  s.runWallTicks == 0
                      ? 0.0
                      : static_cast<double>(ticks) /
                            static_cast<double>(s.runWallTicks));
    }
    out.close();
}

int
runPass(Pass& pass)
{
    prof::enable(pass.mode == Mode::Traced);
    prof::reset();
    {
        const SpanScope root(pass, "pass");
        if (pass.workload == "table2-1") {
            runTable21(pass);
        } else if (pass.workload == "fig3-1") {
            runFigure31(pass);
        } else if (pass.workload == "flood-256") {
            runFlood(pass);
        } else if (pass.workload == "sssp-inval-lossy") {
            runSsspInvalLossy(pass);
        } else {
            std::cerr << "perfbench: unknown workload '" << pass.workload
                      << "'\n";
            return 2;
        }
    }
    const double wall = pass.host["pass"];
    double setup = 0;
    for (const char* name : {"build", "alloc", "replicate", "settle",
                             "spawn"}) {
        setup += pass.host[name];
    }
    std::ostringstream os;
    JsonOut out(os);
    out.open();
    out.field("workload", pass.workload);
    out.field("seed", pass.seed);
    out.field("mode", pass.mode == Mode::Plain    ? "plain"
                      : pass.mode == Mode::Traced ? "traced"
                                                  : "nocheck");
    out.field("attempted", pass.attempted);
    out.field("failed", pass.failed);
    out.field("wall_s", wall);
    out.field("setup_s", setup);
    out.field("sim_s", pass.host["simulate"]);
    out.field("sim_cycles", pass.simCycles);
    out.field("peak_rss_mb", peakRssMb());
    out.field("paper_err", pass.paperErr);
    std::ostringstream digest;
    digest << std::hex << std::setw(16) << std::setfill('0') << pass.digest;
    out.field("digest", digest.str());
    out.open("host");
    for (const auto& [name, s] : pass.host) {
        out.field(name, s);
    }
    out.close();
    out.open("sim");
    for (const auto& [name, v] : pass.sim) {
        out.field(name, v);
    }
    out.close();
    if (prof::enabled()) {
        writeProf(out);
    }
    if (pass.mode == Mode::Traced) {
        out.raw("spans", pass.spans.json());
    }
    out.close();
    std::cout << os.str() << std::endl;
    return 0;
}

// ---- probes -----------------------------------------------------------

/** One chain of the wheel probe: an empty event that re-arms itself. */
struct ProbeEvent {
    sim::Engine* engine;
    std::uint64_t* left;
    std::uint64_t salt;

    void operator()() const
    {
        if (*left == 0) {
            return;
        }
        --*left;
        // Delays up to 300 cycles so events land on more than one wheel
        // level, as the machine's do.
        const Cycles delay = 1 + ((*left * 2654435761ULL) ^ salt) % 300;
        engine->schedule(delay, ProbeEvent{engine, left, salt});
    }
};

/** ns per empty event scheduled and dispatched through sim::Engine. */
double
probeWheelNs(std::uint64_t events)
{
    sim::Engine engine(sim::EngineImpl::Wheel);
    std::uint64_t left = events;
    constexpr std::uint64_t kChains = 64;
    for (std::uint64_t c = 0; c < kChains; ++c) {
        engine.schedule(1 + c, ProbeEvent{&engine, &left, c * 977});
    }
    const Clock::time_point t0 = Clock::now();
    engine.run();
    return secondsBetween(t0, Clock::now()) * 1e9 /
           static_cast<double>(events + kChains);
}

/** ns per sim::Fiber resume/yield round trip. */
double
probeFiberNs(std::uint64_t switches)
{
    sim::Fiber fiber(
        [switches] {
            for (std::uint64_t i = 0; i < switches; ++i) {
                sim::Fiber::yield();
            }
        },
        64 * 1024);
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < switches; ++i) {
        fiber.resume();
    }
    const double ns = secondsBetween(t0, Clock::now()) * 1e9 /
                      static_cast<double>(switches);
    fiber.resume(); // let the body return
    return ns;
}

template <typename F>
double
medianOf(unsigned reps, F&& probe)
{
    std::vector<double> v;
    for (unsigned i = 0; i < reps; ++i) {
        v.push_back(probe());
    }
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

int
runProbes(bool smoke)
{
    const std::uint64_t events = smoke ? 20000 : 2000000;
    const std::uint64_t switches = smoke ? 10000 : 1000000;
    std::ostringstream os;
    JsonOut out(os);
    out.open();
    out.field("sim.probe.wheel_ns",
              medianOf(5, [&] { return probeWheelNs(events); }));
    out.field("sim.probe.fiber_switch_ns",
              medianOf(5, [&] { return probeFiberNs(switches); }));
    out.close();
    std::cout << os.str() << std::endl;
    return 0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

int
printFingerprint()
{
    std::ostringstream os;
    JsonOut out(os);
    out.open();
    out.field("nproc", std::thread::hardware_concurrency());
    out.field("cpu", cpuModel());
    out.field("compiler", PERFBENCH_COMPILER);
    out.field("compiler_version", __VERSION__);
    out.field("build_type", PERFBENCH_BUILD_TYPE);
    out.close();
    std::cout << os.str() << std::endl;
    return 0;
}

int
usage()
{
    std::cerr << "usage: perfbench_pass --workload NAME --seed N "
                 "[--mode plain|traced|nocheck] [--smoke]\n"
                 "       perfbench_pass --probe [--smoke]\n"
                 "       perfbench_pass --fingerprint\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Pass pass;
    bool probe = false;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        const bool has_value = i + 1 < argc;
        if (arg == "--fingerprint") {
            return printFingerprint();
        } else if (arg == "--probe") {
            probe = true;
        } else if (arg == "--smoke") {
            pass.smoke = true;
        } else if (arg == "--workload" && has_value) {
            pass.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            pass.seed = std::stoull(argv[++i]);
            have_seed = true;
        } else if (arg == "--mode" && has_value) {
            const std::string mode(argv[++i]);
            if (mode == "plain") {
                pass.mode = Mode::Plain;
            } else if (mode == "traced") {
                pass.mode = Mode::Traced;
            } else if (mode == "nocheck") {
                pass.mode = Mode::NoCheck;
            } else {
                return usage();
            }
        } else {
            return usage();
        }
    }
    if (probe) {
        return runProbes(pass.smoke);
    }
    if (pass.workload.empty() || !have_seed) {
        return usage();
    }
    return runPass(pass);
}
