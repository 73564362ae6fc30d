#include "telemetry/prof.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/panic.hpp"
#include "common/table.hpp"
#include "telemetry/json.hpp"

namespace plus {
namespace prof {

PLUS_HOST_ONLY("host-time profiler reporting: calibrates the TSC "
               "against steady_clock; output is diagnostic only");

namespace {

/**
 * Ticks per second of detail::tick(), measured once against
 * steady_clock over a short busy window. Calibration runs at report
 * time, never on the simulation path.
 */
double
calibrate()
{
    // pluslint: allow(R4) -- one-time host-clock calibration cache in a
    // PLUS_HOST_ONLY file; never observable by the simulation.
    static double cached = 0; // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)
    if (cached > 0) {
        return cached;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t c0 = detail::tick();
    for (;;) {
        const auto t1 = std::chrono::steady_clock::now();
        if (t1 - t0 >= std::chrono::milliseconds(5)) {
            const std::uint64_t c1 = detail::tick();
            const double secs =
                std::chrono::duration<double>(t1 - t0).count();
            cached = secs > 0 ? static_cast<double>(c1 - c0) / secs : 1e9;
            return cached;
        }
    }
}

double
toNs(std::uint64_t ticks, double ticks_per_sec)
{
    return ticks_per_sec > 0
               ? static_cast<double>(ticks) * 1e9 / ticks_per_sec
               : 0.0;
}

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole == 0
               ? 0.0
               : 100.0 * static_cast<double>(part) /
                     static_cast<double>(whole);
}

} // namespace

void
enable(bool on)
{
    detail::g_prof.enabled.store(on ? 1 : 0, std::memory_order_relaxed);
    if (on) {
        // Any panic from here on carries the flight recorder: the
        // watchdog's stall report and protocol invariant failures all
        // say what each thread was last doing on the host.
        setPanicDecorator([] { return flightRecorderDump(); });
    }
}

Summary
collect()
{
    Summary s;
    s.ticksPerSec = calibrate();
    detail::Global& g = detail::g_prof;
    s.runWallTicks = g.runWallTicks.load(std::memory_order_relaxed);

    const std::lock_guard<std::mutex> lock(g.mutex);
    for (const auto& tp : g.threads) {
        Summary::Thread t;
        t.label = tp->label;
        bool any = false;
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            t.ticks[p] = tp->ticks[p].load(std::memory_order_relaxed);
            t.count[p] = tp->count[p].load(std::memory_order_relaxed);
            any = any || t.count[p] != 0;
        }
        if (any) {
            s.threads.push_back(std::move(t));
        }
    }
    return s;
}

Rollup
rollupOf(const Summary::Thread& thread, std::uint64_t run_wall_ticks)
{
    const std::uint64_t work = thread.total();
    // Threads can spend (slightly) more than the run wall inside
    // scopes when they also ran outside Engine::run (settle(),
    // teardown); clamp so the two buckets always cover 100%.
    const std::uint64_t wall = std::max(run_wall_ticks, work);
    Rollup r;
    r.workPct = pct(work, wall);
    r.otherPct = std::max(0.0, 100.0 - r.workPct);
    return r;
}

void
writeJson(std::ostream& os)
{
    const Summary s = collect();
    os << "{\"enabled\":" << (enabled() ? "true" : "false")
       << ",\"ticksPerSec\":" << telemetry::jsonNumber(s.ticksPerSec)
       << ",\"runWallNs\":"
       << telemetry::jsonNumber(toNs(s.runWallTicks, s.ticksPerSec))
       << ",\"threads\":[";
    for (std::size_t i = 0; i < s.threads.size(); ++i) {
        const Summary::Thread& t = s.threads[i];
        const Rollup r = rollupOf(t, s.runWallTicks);
        os << (i == 0 ? "" : ",") << "{\"label\":"
           << telemetry::jsonQuoted(t.label) << ",\"phases\":{";
        bool first = true;
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            if (t.count[p] == 0) {
                continue;
            }
            os << (first ? "" : ",")
               << telemetry::jsonQuoted(kPhaseNames[p]) << ":{\"ns\":"
               << telemetry::jsonNumber(toNs(t.ticks[p], s.ticksPerSec))
               << ",\"count\":" << t.count[p] << ",\"pct\":"
               << telemetry::jsonNumber(
                      pct(t.ticks[p],
                          std::max(s.runWallTicks, t.total())))
               << "}";
            first = false;
        }
        os << "},\"rollup\":{\"workPct\":"
           << telemetry::jsonNumber(r.workPct) << ",\"otherPct\":"
           << telemetry::jsonNumber(r.otherPct) << "}}";
    }
    os << "]}";
}

std::string
summaryTable()
{
    const Summary s = collect();
    TablePrinter table("host-time profile");
    table.setHeader({"thread", "phase", "ms", "count", "% wall"});
    for (const Summary::Thread& t : s.threads) {
        const std::uint64_t wall = std::max(s.runWallTicks, t.total());
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            if (t.count[p] == 0) {
                continue;
            }
            table.addRow(
                {t.label, kPhaseNames[p],
                 TablePrinter::num(toNs(t.ticks[p], s.ticksPerSec) / 1e6,
                                   2),
                 TablePrinter::num(t.count[p]),
                 TablePrinter::num(pct(t.ticks[p], wall), 1)});
        }
    }
    return table.toString();
}

std::string
flightRecorderDump(std::size_t max_per_thread)
{
    if (!enabled()) {
        return {};
    }
    const double tps = calibrate();
    std::ostringstream os;
    os << "\n--- prof flight recorder (newest last, per thread) ---";
    const std::lock_guard<std::mutex> lock(detail::g_prof.mutex);
    std::size_t index = 0;
    for (const auto& tp : detail::g_prof.threads) {
        const std::uint32_t next =
            tp->flightNext.load(std::memory_order_relaxed);
        if (next == 0) {
            ++index;
            continue;
        }
        os << "\n  thread " << index << " [" << tp->label << "]:";
        const std::size_t have =
            std::min<std::size_t>(next, kFlightSize);
        const std::size_t show = std::min(max_per_thread, have);
        for (std::size_t i = 0; i < show; ++i) {
            const std::uint32_t slot =
                (next - static_cast<std::uint32_t>(show - i)) %
                kFlightSize;
            const detail::FlightEntry& e = tp->flight[slot];
            const auto phase = static_cast<std::size_t>(
                e.phase.load(std::memory_order_relaxed));
            const std::uint64_t b =
                e.begin.load(std::memory_order_relaxed);
            const std::uint64_t d =
                e.end.load(std::memory_order_relaxed) - b;
            os << "\n    " << (phase < kNumPhases ? kPhaseNames[phase]
                                                  : "?")
               << "  " << TablePrinter::num(toNs(d, tps) / 1e3, 1)
               << " us";
        }
        ++index;
    }
    return os.str();
}

void
reset()
{
    detail::Global& g = detail::g_prof;
    g.runWallTicks.store(0, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(g.mutex);
    for (const auto& tp : g.threads) {
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            tp->ticks[p].store(0, std::memory_order_relaxed);
            tp->count[p].store(0, std::memory_order_relaxed);
        }
        tp->flightNext.store(0, std::memory_order_relaxed);
    }
}

} // namespace prof
} // namespace plus
