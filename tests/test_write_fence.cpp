/**
 * @file
 * Tests of the paper's write fence (Section 2.3): it "causes the
 * coherence manager to block any subsequent write by the processor,
 * until all its earlier ones have completed" — while the processor
 * itself continues. Reads and computation pass the fence; writes,
 * interlocked issues, and a later blocking fence do not. A blocking
 * fence also drains the update chains of delayed interlocked operations.
 */

#include <gtest/gtest.h>

#include "core/context.hpp"
#include "core/machine.hpp"

namespace plus {
namespace core {
namespace {

MachineConfig
cfgFor(unsigned nodes)
{
    MachineConfig cfg;
    cfg.nodes = nodes;
    cfg.framesPerNode = 64;
    return cfg;
}

TEST(WriteFence, DoesNotStallTheProcessor)
{
    Machine m(cfgFor(4));
    const Addr page = m.alloc(kPageBytes, 3);
    Cycles fence_cost = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.read(page); // warm translation
        ctx.write(page, 1);
        const Cycles t0 = ctx.machine().now();
        ctx.writeFence();
        fence_cost = ctx.machine().now() - t0;
    });
    m.run();
    // Issue cost only — no waiting for the chain.
    EXPECT_LE(fence_cost, 2u);
}

TEST(WriteFence, ReadsAndComputePassTheFence)
{
    Machine m(cfgFor(4));
    const Addr remote = m.alloc(kPageBytes, 3);
    const Addr local = m.alloc(kPageBytes, 0);
    m.poke(local, 5);
    Cycles overlap_cost = 0;
    m.spawn(0, [&](Context& ctx) {
        ctx.read(remote);
        ctx.read(local);
        ctx.write(remote, 1);
        ctx.writeFence();
        const Cycles t0 = ctx.machine().now();
        ctx.compute(10);
        EXPECT_EQ(ctx.read(local), 5u); // read passes the fence
        overlap_cost = ctx.machine().now() - t0;
    });
    m.run();
    EXPECT_LE(overlap_cost, 12u);
}

TEST(WriteFence, SubsequentWriteWaitsForTheDrain)
{
    Machine m(cfgFor(4));
    const Addr remote = m.alloc(kPageBytes, 3);
    const Addr other = m.alloc(kPageBytes, 0);
    m.spawn(0, [&](Context& ctx) {
        ctx.read(remote);
        ctx.read(other);
        ctx.write(remote, 1); // slow: full round trip to node 3
        ctx.writeFence();
        ctx.write(other, 2); // must be ordered behind the drain
        // Our own read of `other` blocks on the gated pending write, so
        // observing 2 here proves the write eventually lands; the
        // ordering is checked below via completion times.
        EXPECT_EQ(ctx.read(other), 2u);
    });
    m.run();
    EXPECT_EQ(m.peek(remote), 1u);
    EXPECT_EQ(m.peek(other), 2u);
}

TEST(WriteFence, OrdersTheFlagBehindTheData)
{
    // The producer/consumer idiom with the *non-blocking* fence: the
    // consumer must never observe the flag before the data, though the
    // producer never stalls.
    Machine m(cfgFor(4));
    const Addr data = m.alloc(kPageBytes, 1);
    const Addr flag = m.alloc(kPageBytes, 2);
    bool violated = false;
    m.spawn(0, [&](Context& ctx) {
        for (Word round = 1; round <= 20; ++round) {
            for (Word w = 0; w < 6; ++w) {
                ctx.write(data + 4 * w, round * 100 + w);
            }
            ctx.writeFence();
            ctx.write(flag, round);
            ctx.compute(25);
        }
    });
    m.spawn(3, [&](Context& ctx) {
        for (Word round = 1; round <= 20; ++round) {
            while (ctx.read(flag) < round) {
                ctx.pause(8);
            }
            for (Word w = 0; w < 6; ++w) {
                if (ctx.read(data + 4 * w) < round * 100) {
                    violated = true;
                }
            }
        }
    });
    m.run();
    EXPECT_FALSE(violated);
}

TEST(WriteFence, InterlockedIssueIsGatedToo)
{
    // "The processor can then proceed with the synchronization
    // operation" — i.e. the sync op starts only after the drain.
    Machine m(cfgFor(4));
    const Addr data = m.alloc(kPageBytes, 3);
    const Addr sync = m.alloc(kPageBytes, 3);
    m.spawn(0, [&](Context& ctx) {
        ctx.read(data);
        ctx.read(sync);
        ctx.write(data, 9);
        ctx.writeFence();
        // The fadd executes at the same master; if it were not gated it
        // could reach the master before the write's chain completes.
        const Word old = ctx.fadd(sync, 1);
        EXPECT_EQ(old, 0u);
        // By the time the fadd's result is back, the gated write drain
        // had completed, so the data write must be globally visible.
        EXPECT_EQ(ctx.machine().peek(data), 9u);
    });
    m.run();
}

TEST(WriteFence, StackedFencesPreserveGroupOrder)
{
    Machine m(cfgFor(4));
    const Addr a = m.alloc(kPageBytes, 1);
    const Addr b = m.alloc(kPageBytes, 2);
    const Addr c = m.alloc(kPageBytes, 3);
    m.spawn(0, [&](Context& ctx) {
        ctx.read(a);
        ctx.read(b);
        ctx.read(c);
        ctx.write(a, 1);
        ctx.writeFence();
        ctx.write(b, 2);
        ctx.writeFence();
        ctx.write(c, 3);
        ctx.fence(); // full drain: everything must have landed in order
        EXPECT_EQ(ctx.machine().peek(a), 1u);
        EXPECT_EQ(ctx.machine().peek(b), 2u);
        EXPECT_EQ(ctx.machine().peek(c), 3u);
    });
    m.run();
}

TEST(WriteFence, BlockingFenceHonoursGatedWrites)
{
    Machine m(cfgFor(4));
    const Addr a = m.alloc(kPageBytes, 3);
    const Addr b = m.alloc(kPageBytes, 2);
    m.spawn(0, [&](Context& ctx) {
        ctx.read(a);
        ctx.read(b);
        ctx.write(a, 1);
        ctx.writeFence();
        ctx.write(b, 2); // gated
        ctx.fence();     // must wait for the *gated* write as well
        EXPECT_EQ(ctx.machine().peek(b), 2u);
    });
    m.run();
}

TEST(WriteFence, FenceDrainsADelayedRmwUpdateChain)
{
    // A delayed RMW's update chain holds a pending-writes entry until
    // its acknowledgement returns (DESIGN.md "RMW vs fence"), so a
    // blocking fence right after the issue returns only once every copy
    // holds the RMW's effect.
    MachineConfig cfg = cfgFor(4);
    cfg.protocol = Protocol::WriteUpdate;
    Machine m(cfg);
    const Addr page = m.alloc(kPageBytes, 1);
    m.replicate(page, 2);
    m.replicate(page, 3);
    m.settle();
    ASSERT_EQ(m.copyListOf(page).size(), 3u);
    m.spawn(0, [&](Context& ctx) {
        const OpHandle h = ctx.issueFadd(page, 5);
        ctx.fence();
        for (const PhysPage& copy : ctx.machine().copyListOf(page).copies()) {
            EXPECT_EQ(ctx.machine().nodeAt(copy.node).memory().read(
                          copy.frame, 0),
                      5u)
                << "copy on node " << copy.node;
        }
        EXPECT_EQ(ctx.verify(h), 0u);
    });
    m.run();
}

TEST(WriteFence, NoOpWhenNothingPending)
{
    Machine m(cfgFor(2));
    const Addr a = m.alloc(kPageBytes, 0);
    m.spawn(0, [&](Context& ctx) {
        ctx.writeFence(); // nothing in flight
        ctx.write(a, 1);
        EXPECT_EQ(ctx.read(a), 1u);
    });
    m.run();
    EXPECT_EQ(m.peek(a), 1u);
}

} // namespace
} // namespace core
} // namespace plus
