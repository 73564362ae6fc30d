/**
 * @file
 * plus::prof — low-overhead host-time profiler.
 *
 * The simulator's telemetry (metrics registry, event tracer) lives in
 * simulated cycles; this subsystem answers the orthogonal question of
 * where *host wall-clock* goes: the dispatch loop vs. processor
 * dispatch vs. protocol handlers vs. network delivery.
 *
 * Design rules:
 *
 *  - RAII scoped phase timers (ScopedPhase) read the TSC twice per
 *    scope and accumulate *exclusive* time per (thread, phase): a
 *    nested scope's cycles are subtracted from its parent, so the
 *    breakdown sums to attributed wall-clock without double counting.
 *  - Scopes are placed at event-handler granularity (a protocol
 *    message, a delivered packet, a processor dispatch), never per
 *    simulated event, so the enabled overhead stays
 *    within the CI gate and the disabled cost is one relaxed load.
 *  - One-way boundary: the profiler only ever *reads* host time and
 *    *writes* its own accumulators. Nothing in here is reachable from
 *    simulation state, scheduling decisions, or the metrics registry
 *    snapshots the determinism CI diffs — a profiled run is
 *    cycle-for-cycle identical to an unprofiled one.
 *  - Everything hot is inline in this header so sim/proto/net can use
 *    it without linking plus_telemetry (which depends on plus_sim);
 *    reporting/calibration lives in prof.cpp inside plus_telemetry.
 *
 * Enabling: PLUS_PROF=1|on in the environment, prof::enable(true), or
 * any bench's --prof-out flag. A flight recorder (bounded per-thread
 * ring of recent phase records) is kept alongside the accumulators and
 * appended to plus::panic diagnostics, so a watchdog trip says what
 * every thread was doing when progress stopped.
 *
 * This file is wall-clock by design; see docs/OBSERVABILITY.md for how
 * the PLUS_HOST_ONLY annotation keeps it outside the determinism
 * contract pluslint enforces (rule R2).
 */

#ifndef PLUS_TELEMETRY_PROF_HPP_
#define PLUS_TELEMETRY_PROF_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/determinism.hpp"

namespace plus {
namespace prof {

PLUS_HOST_ONLY("host-time profiler: reads the TSC/steady_clock by "
               "design; results never feed back into simulation state");

/** The phase taxonomy host time is attributed to. */
enum class Phase : std::uint8_t {
    EngineRun,    ///< serial dispatch loop (exclusive of handlers below)
    ProcDispatch, ///< processor fiber dispatch (mem ops run inside)
    ProtoHandle,  ///< coherence-manager message handler
    NetDeliver,   ///< network packet delivery + handler upcall
    NumPhases
};

constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::NumPhases);

constexpr const char* kPhaseNames[kNumPhases] = {
    "engine.run",
    "proc.dispatch",
    "proto.handle",
    "net.deliver",
};

/** Flight-recorder depth per thread (power of two). */
constexpr std::size_t kFlightSize = 64;

class ScopedPhase;

namespace detail {

/** Raw host timestamp: TSC where cheap, steady_clock elsewhere. */
inline std::uint64_t
tick()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
    std::uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/** One recent phase record in the per-thread flight recorder. */
struct FlightEntry {
    std::atomic<std::uint8_t> phase{0};
    std::atomic<std::uint64_t> begin{0};
    std::atomic<std::uint64_t> end{0};
};

/**
 * Per-thread accumulators. Owned by the global registry (so they
 * outlive their thread and survive into post-run dumps); written only
 * by the owning thread, read by the dumping thread — every
 * cross-thread field is a relaxed atomic.
 */
struct ThreadProf {
    std::atomic<std::uint64_t> ticks[kNumPhases] = {};
    std::atomic<std::uint64_t> count[kNumPhases] = {};
    FlightEntry flight[kFlightSize];
    std::atomic<std::uint32_t> flightNext{0};
    char label[32] = {};
    /** Owner-thread-only scope stack top (exclusive-time accounting). */
    ScopedPhase* current = nullptr;

    void
    record(Phase p, std::uint64_t begin, std::uint64_t self,
           std::uint64_t end)
    {
        const auto i = static_cast<std::size_t>(p);
        ticks[i].fetch_add(self, std::memory_order_relaxed);
        count[i].fetch_add(1, std::memory_order_relaxed);
        const std::uint32_t slot =
            flightNext.fetch_add(1, std::memory_order_relaxed) %
            kFlightSize;
        flight[slot].phase.store(static_cast<std::uint8_t>(p),
                                 std::memory_order_relaxed);
        flight[slot].begin.store(begin, std::memory_order_relaxed);
        flight[slot].end.store(end, std::memory_order_relaxed);
    }
};

/** Global profiler state shared by every translation unit. */
struct Global {
    /** -1 = not yet resolved from PLUS_PROF; 0 = off; 1 = on. */
    std::atomic<int> enabled{-1};
    std::mutex mutex; ///< guards threads and labels
    std::vector<std::unique_ptr<ThreadProf>> threads;
    /** Wall ticks spent inside Engine::run/runUntil (the 100% line). */
    std::atomic<std::uint64_t> runWallTicks{0};
};

// pluslint: allow(R4) -- the profiler's whole job is mutable host-side
// state; it is write-only from the simulation's point of view and
// never read back into anything deterministic.
inline Global g_prof; // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

// pluslint: allow(R4) -- per-thread accumulator cache; registration is
// idempotent and the pointed-to storage lives in g_prof.threads.
inline thread_local ThreadProf* t_prof = nullptr; // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/** Register the calling thread (cold path; called once per thread). */
inline ThreadProf&
registerThread()
{
    const std::lock_guard<std::mutex> lock(g_prof.mutex);
    g_prof.threads.push_back(std::make_unique<ThreadProf>());
    ThreadProf& tp = *g_prof.threads.back();
    std::snprintf(tp.label, sizeof(tp.label), "t%zu",
                  g_prof.threads.size() - 1);
    t_prof = &tp;
    return tp;
}

inline ThreadProf&
threadProf()
{
    ThreadProf* tp = t_prof;
    return tp != nullptr ? *tp : registerThread();
}

/** Resolve PLUS_PROF once (cold; hot callers see the cached value). */
inline bool
resolveEnabled()
{
    const char* env = envRead("PLUS_PROF");
    const bool on = env != nullptr &&
                    (std::strcmp(env, "1") == 0 ||
                     std::strcmp(env, "on") == 0 ||
                     std::strcmp(env, "ON") == 0);
    int expected = -1;
    g_prof.enabled.compare_exchange_strong(expected, on ? 1 : 0,
                                           std::memory_order_relaxed);
    return g_prof.enabled.load(std::memory_order_relaxed) > 0;
}

} // namespace detail

/** True when phase timing is being recorded. One relaxed load. */
inline bool
enabled()
{
    const int s = detail::g_prof.enabled.load(std::memory_order_relaxed);
    if (s >= 0) {
        return s > 0;
    }
    return detail::resolveEnabled();
}

/** Turn recording on/off programmatically (wins over PLUS_PROF). */
void enable(bool on);

/**
 * RAII scoped phase timer. Accumulates exclusive host ticks for @p
 * phase on the calling thread; nested scopes bill their parent only
 * for the parent's own time. Near-free when the profiler is off.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase phase)
    {
        if (!enabled()) {
            return;
        }
        active_ = true;
        phase_ = phase;
        detail::ThreadProf& tp = detail::threadProf();
        parent_ = tp.current;
        tp.current = this;
        begin_ = detail::tick();
    }

    ~ScopedPhase()
    {
        if (!active_) {
            return;
        }
        const std::uint64_t end = detail::tick();
        detail::ThreadProf& tp = *detail::t_prof;
        tp.current = parent_;
        const std::uint64_t elapsed =
            end >= begin_ ? end - begin_ : 0;
        const std::uint64_t self =
            elapsed >= child_ ? elapsed - child_ : 0;
        tp.record(phase_, begin_, self, end);
        if (parent_ != nullptr) {
            parent_->child_ += elapsed;
        }
    }

    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

  private:
    ScopedPhase* parent_ = nullptr;
    std::uint64_t begin_ = 0;
    std::uint64_t child_ = 0;
    Phase phase_ = Phase::EngineRun;
    bool active_ = false;
};

/** Accumulates a run's wall time — the denominator of every report. */
class RunTimer
{
  public:
    RunTimer()
    {
        if (enabled()) {
            begin_ = detail::tick();
            active_ = true;
        }
    }

    ~RunTimer()
    {
        if (active_) {
            detail::g_prof.runWallTicks.fetch_add(
                detail::tick() - begin_, std::memory_order_relaxed);
        }
    }

    RunTimer(const RunTimer&) = delete;
    RunTimer& operator=(const RunTimer&) = delete;

  private:
    std::uint64_t begin_ = 0;
    bool active_ = false;
};

// ---- Reporting (prof.cpp, plus_telemetry) -------------------------------

/** Everything collect() reads at one instant, tick-domain. */
struct Summary {
    struct Thread {
        std::string label;
        std::uint64_t ticks[kNumPhases] = {};
        std::uint64_t count[kNumPhases] = {};
        std::uint64_t total() const
        {
            std::uint64_t t = 0;
            for (std::uint64_t v : ticks) {
                t += v;
            }
            return t;
        }
    };
    double ticksPerSec = 0;
    std::uint64_t runWallTicks = 0;
    std::vector<Thread> threads; ///< threads with any recorded phase
};

/** Per-thread {work, other} percentages of the run's wall clock: time
 *  inside a phase scope vs. time outside every scope. */
struct Rollup {
    double workPct = 0;
    double otherPct = 0;
};

/** Snapshot every accumulator (threads with no samples are skipped). */
Summary collect();

/** Rollup for one collected thread against @p run_wall_ticks. */
Rollup rollupOf(const Summary::Thread& thread,
                std::uint64_t run_wall_ticks);

/**
 * Write the profile as one JSON object (the --prof-out payload; also
 * embeddable in a larger document): calibrated ns per phase per
 * thread and per-thread rollups.
 */
void writeJson(std::ostream& os);

/** Human-readable per-thread breakdown (scripts/profshow.py parity). */
std::string summaryTable();

/**
 * Render the newest flight-recorder entries per thread — appended to
 * plus::panic diagnostics (and thus watchdog dumps) when profiling is
 * on, so a stall report shows what every thread last did.
 */
std::string flightRecorderDump(std::size_t max_per_thread = 8);

/** Zero every accumulator (threads stay known). */
void reset();

} // namespace prof
} // namespace plus

#endif // PLUS_TELEMETRY_PROF_HPP_
