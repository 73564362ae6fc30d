/**
 * @file
 * The plus::MachineBuilder facade: every knob must land in the built
 * machine's configuration, the faults()/watchdog() conveniences must
 * flip the corresponding enable bits, and the deprecated direct
 * MachineConfig constructor must produce a byte-identical machine so
 * existing callers can migrate without a behavior change.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/context.hpp"
#include "plus/plus.hpp"

namespace plus {
namespace {

TEST(Builder, KnobsReachConfig)
{
    const MachineBuilder b = MachineBuilder()
                                 .nodes(8)
                                 .framesPerNode(64)
                                 .mode(ProcessorMode::ContextSwitch)
                                 .engine(Engine::Heap)
                                 .seed(99)
                                 .meshWidth(4)
                                 .invariants(false)
                                 .races(true, true)
                                 .observer(true);
    const MachineConfig& c = b.config();
    EXPECT_EQ(c.nodes, 8u);
    EXPECT_EQ(c.framesPerNode, 64u);
    EXPECT_EQ(c.mode, ProcessorMode::ContextSwitch);
    EXPECT_EQ(c.engine, Engine::Heap);
    EXPECT_EQ(c.seed, 99u);
    EXPECT_EQ(c.network.meshWidth, 4u);
    EXPECT_FALSE(c.check.invariants);
    EXPECT_TRUE(c.check.races);
    EXPECT_TRUE(c.check.panicOnRace);
    EXPECT_TRUE(c.telemetry.trace);
}

TEST(Builder, IdealNetworkKnob)
{
    EXPECT_TRUE(MachineBuilder().idealNetwork().config().network.ideal);
    EXPECT_FALSE(
        MachineBuilder().idealNetwork(false).config().network.ideal);
}

TEST(Builder, FaultsKnobForcesEnabled)
{
    FaultConfig f;
    f.dropRate = 0.01; // caller forgot f.enabled — builder fixes it
    const MachineBuilder b = MachineBuilder().nodes(4).faults(f);
    EXPECT_TRUE(b.config().network.fault.enabled);
    EXPECT_DOUBLE_EQ(b.config().network.fault.dropRate, 0.01);
}

TEST(Builder, WatchdogKnobEnablesAndSetsWindow)
{
    const MachineBuilder b = MachineBuilder().nodes(4).watchdog(1u << 12);
    EXPECT_TRUE(b.config().watchdog.enabled);
    EXPECT_EQ(b.config().watchdog.windowCycles, Cycles{1u << 12});
}

TEST(Builder, TuneEscapeHatchSeesFullConfig)
{
    const MachineBuilder b = MachineBuilder().nodes(4).tune(
        [](MachineConfig& c) { c.cost.ctxSwitchCycles = 140; });
    EXPECT_EQ(b.config().cost.ctxSwitchCycles, Cycles{140});
}

TEST(Builder, EngineStringRoundTrip)
{
    for (Engine e : {Engine::Wheel, Engine::Heap}) {
        Engine parsed = e == Engine::Wheel ? Engine::Heap : Engine::Wheel;
        EXPECT_TRUE(engineFromString(toString(e), parsed));
        EXPECT_EQ(parsed, e);
    }
    EXPECT_EQ(MachineBuilder().config().engine, Engine::Wheel);
    Engine parsed = Engine::Wheel;
    for (const char* bad : {"auto", "env", "", "quantum", "parallel"}) {
        EXPECT_FALSE(engineFromString(bad, parsed)) << bad;
    }
}

TEST(Builder, BuiltMachineMatchesKnobs)
{
    auto m = MachineBuilder().nodes(6).framesPerNode(64).build();
    EXPECT_EQ(m->nodeCount(), 6u);
}

/** The deprecated direct constructor and the builder must agree. */
TEST(Builder, DeprecatedCtorPathIsIdentical)
{
    auto workload = [](core::Machine& m) {
        const Addr page = m.alloc(kPageBytes, 0);
        m.replicate(page, 2);
        m.settle();
        for (NodeId n = 0; n < m.nodeCount(); ++n) {
            m.spawn(n, [page, n](core::Context& ctx) {
                for (Word i = 0; i < 8; ++i) {
                    ctx.write(page + 4 * n, ctx.fadd(page + 64, 1) + i);
                    ctx.read(page + 4 * ((n + 1) % 4));
                    ctx.compute(20);
                }
                ctx.fence();
            });
        }
        m.run();
        return page;
    };

    auto built = MachineBuilder().nodes(4).framesPerNode(64).build();
    const Addr a1 = workload(*built);

    MachineConfig cfg;
    cfg.nodes = 4;
    cfg.framesPerNode = 64;
    core::Machine direct(cfg);
    const Addr a2 = workload(direct);

    ASSERT_EQ(a1, a2);
    EXPECT_EQ(built->now(), direct.now());
    for (Word off = 0; off < 128; off += 4) {
        EXPECT_EQ(built->peek(a1 + off), direct.peek(a2 + off))
            << "offset " << off;
    }
    const core::MachineReport r1 = built->report();
    const core::MachineReport r2 = direct.report();
    EXPECT_EQ(r1.localReads, r2.localReads);
    EXPECT_EQ(r1.remoteReads, r2.remoteReads);
    EXPECT_EQ(r1.updateMessages, r2.updateMessages);
}

} // namespace
} // namespace plus
