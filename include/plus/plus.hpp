/**
 * @file
 * The unified public API of the PLUS simulator.
 *
 * Everything an application, bench or example needs is reachable from
 * this one header: the fluent MachineBuilder, the Machine/Context
 * types it produces, and the backend selector. The builder is a thin,
 * validated veneer over MachineConfig — every knob maps onto one
 * config field, `tune()` exposes the rest, and `build()` hands the
 * finished config to core::Machine, whose direct
 * `Machine(MachineConfig)` constructor remains as a deprecated shim
 * for existing code (both paths produce identical machines; see
 * tests/test_builder.cpp).
 *
 * @code
 *   auto machine = plus::MachineBuilder()
 *                      .nodes(16)
 *                      .engine(plus::Engine::Wheel)
 *                      .build();
 *   const plus::Addr counter = machine->alloc(plus::kPageBytes, 0);
 *   for (plus::NodeId n = 0; n < machine->nodeCount(); ++n)
 *       machine->spawn(n, [&](plus::Context& ctx) {
 *           ctx.fadd(counter, 1);
 *       });
 *   machine->run();
 * @endcode
 */

#ifndef PLUS_PLUS_HPP_
#define PLUS_PLUS_HPP_

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "common/config.hpp"
#include "core/context.hpp"
#include "core/machine.hpp"

namespace plus {

/** The simulated machine and the interface threads run against. */
using Machine = core::Machine;
using Context = core::Context;

/**
 * Simulation backend. Both backends realise the exact same event
 * order — byte-identical output is the determinism contract, enforced
 * by CI (docs/PERF.md) — so this only selects a performance profile.
 */
enum class Engine : std::uint8_t {
    Auto,  ///< honour the PLUS_ENGINE environment variable
    Wheel, ///< hierarchical timing wheel (the default)
    Heap,  ///< priority-queue oracle
};

constexpr const char*
toString(Engine engine)
{
    switch (engine) {
      case Engine::Auto: return "auto";
      case Engine::Wheel: return "wheel";
      case Engine::Heap: return "heap";
      default: return "?";
    }
}

/** Parse "auto" | "wheel" | "heap"; false if unknown. */
inline bool
engineFromString(std::string_view name, Engine& out)
{
    if (name == "auto") {
        out = Engine::Auto;
    } else if (name == "wheel") {
        out = Engine::Wheel;
    } else if (name == "heap") {
        out = Engine::Heap;
    } else {
        return false;
    }
    return true;
}

/** The MachineConfig field backing a plus::Engine choice. */
constexpr SimEngine
toSimEngine(Engine engine)
{
    switch (engine) {
      case Engine::Wheel: return SimEngine::Wheel;
      case Engine::Heap: return SimEngine::Heap;
      case Engine::Auto:
      default: return SimEngine::Env;
    }
}

/**
 * Coherence protocol (docs/PROTOCOLS.md). WriteUpdate is the paper's
 * protocol and the default; WriteInvalidate is the MSI-flavoured
 * counterpart for protocol comparisons. Auto honours the PLUS_PROTOCOL
 * environment variable and falls back to WriteUpdate.
 */
enum class Protocol : std::uint8_t {
    Auto,            ///< honour PLUS_PROTOCOL (default: write-update)
    WriteUpdate,     ///< the paper's non-demand write-update protocol
    WriteInvalidate, ///< home-pinned MSI-flavoured invalidation protocol
};

constexpr const char*
toString(Protocol protocol)
{
    switch (protocol) {
      case Protocol::Auto: return "auto";
      case Protocol::WriteUpdate: return "write-update";
      case Protocol::WriteInvalidate: return "write-invalidate";
      default: return "?";
    }
}

/**
 * Parse "auto" | "update" | "write-update" | "invalidate" |
 * "write-invalidate"; false if unknown.
 */
inline bool
protocolFromString(std::string_view name, Protocol& out)
{
    if (name == "auto") {
        out = Protocol::Auto;
    } else if (name == "update" || name == "write-update") {
        out = Protocol::WriteUpdate;
    } else if (name == "invalidate" || name == "write-invalidate") {
        out = Protocol::WriteInvalidate;
    } else {
        return false;
    }
    return true;
}

/** The MachineConfig field backing a plus::Protocol choice. */
constexpr CoherenceProtocol
toCoherenceProtocol(Protocol protocol)
{
    switch (protocol) {
      case Protocol::WriteUpdate: return CoherenceProtocol::WriteUpdate;
      case Protocol::WriteInvalidate:
        return CoherenceProtocol::WriteInvalidate;
      case Protocol::Auto:
      default: return CoherenceProtocol::Env;
    }
}

/**
 * Fluent machine construction — the one supported way to build a
 * machine. Call knobs in any order; build() validates the assembled
 * configuration (rejecting contradictions with actionable messages)
 * and returns the running-ready machine.
 */
class MachineBuilder
{
  public:
    /** Number of nodes (each: processor + memory + coherence manager). */
    MachineBuilder&
    nodes(unsigned n)
    {
        config_.nodes = n;
        return *this;
    }

    /** Local-memory frames per node. */
    MachineBuilder&
    framesPerNode(unsigned frames)
    {
        config_.framesPerNode = frames;
        return *this;
    }

    /** Processor latency-hiding mode (blocking/delayed/context-switch). */
    MachineBuilder&
    mode(ProcessorMode m)
    {
        config_.mode = m;
        return *this;
    }

    /** Event-engine backend (see plus::Engine). */
    MachineBuilder&
    engine(Engine e)
    {
        config_.engine = toSimEngine(e);
        return *this;
    }

    /**
     * Coherence protocol (see plus::Protocol and docs/PROTOCOLS.md).
     * Protocol::Auto honours PLUS_PROTOCOL, defaulting to write-update.
     */
    MachineBuilder&
    protocol(Protocol p)
    {
        config_.protocol = toCoherenceProtocol(p);
        return *this;
    }

    /** Seed for all workload randomness (and the fault injector's). */
    MachineBuilder&
    seed(std::uint64_t s)
    {
        config_.seed = s;
        return *this;
    }

    /** Contention-free latency-formula network instead of the mesh. */
    MachineBuilder&
    idealNetwork(bool on = true)
    {
        config_.network.ideal = on;
        return *this;
    }

    /** Explicit mesh width (default: near-square automatic). */
    MachineBuilder&
    meshWidth(unsigned width)
    {
        config_.network.meshWidth = width;
        return *this;
    }

    /**
     * Arm fault injection + reliable delivery with @p f. The enabled
     * flag is forced on — passing a config is the request; a disabled
     * fault config with live rates is a validation error by design.
     */
    MachineBuilder&
    faults(FaultConfig f)
    {
        f.enabled = true;
        config_.network.fault = std::move(f);
        return *this;
    }

    /** Arm the forward-progress watchdog with the given window. */
    MachineBuilder&
    watchdog(Cycles window_cycles)
    {
        config_.watchdog.enabled = true;
        config_.watchdog.windowCycles = window_cycles;
        return *this;
    }

    /** Toggle the protocol-invariant checker (on by default). */
    MachineBuilder&
    invariants(bool on)
    {
        config_.check.invariants = on;
        return *this;
    }

    /** Run the happens-before race detector. */
    MachineBuilder&
    races(bool on, bool panic_on_race = false)
    {
        config_.check.races = on;
        config_.check.panicOnRace = panic_on_race;
        return *this;
    }

    /**
     * Record the cycle-stamped event trace (checker hooks, network
     * telemetry, traffic attribution) — the input of
     * Machine::writeTraceJson()/writeStatsJson().
     */
    MachineBuilder&
    observer(bool trace = true)
    {
        config_.telemetry.trace = trace;
        return *this;
    }

    /** Full telemetry configuration (ring capacity etc.). */
    MachineBuilder&
    telemetry(TelemetryConfig t)
    {
        config_.telemetry = t;
        return *this;
    }

    /**
     * Escape hatch for fields without a dedicated knob: mutate the
     * assembled MachineConfig in place (context-switch cost, cache
     * geometry, ablation switches, ...). The paper's measured timings
     * are compile-time constants and cannot be tuned.
     */
    template <typename Fn>
    MachineBuilder&
    tune(Fn&& fn)
    {
        std::forward<Fn>(fn)(config_);
        return *this;
    }

    /** The configuration assembled so far (not yet validated). */
    const MachineConfig& config() const { return config_; }

    /**
     * Validate the configuration and construct the machine.
     * Throws FatalError with an actionable message on contradictory
     * settings (MachineConfig::validate()).
     */
    std::unique_ptr<Machine>
    build() const
    {
        return std::make_unique<Machine>(config_);
    }

  private:
    MachineConfig config_;
};

} // namespace plus

#endif // PLUS_PLUS_HPP_
