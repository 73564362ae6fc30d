/**
 * @file
 * The proto::Protocol seam and the write-invalidate backend: the
 * builder/config plumbing (knob, env override, validate() rejections),
 * the protocol's visible behavior (invalidate-on-write,
 * re-fetch-on-read-miss, chain skipping, ownership accounting), the
 * per-protocol invariant sets of the checker, and end-to-end image
 * equivalence between the two protocols on a deterministic workload.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/checker.hpp"
#include "core/context.hpp"
#include "node/node.hpp"
#include "plus/plus.hpp"
#include "proto/messages.hpp"
#include "proto/write_invalidate.hpp"

namespace plus {
namespace {

std::unique_ptr<Machine>
invalidateMachine(unsigned nodes)
{
    return MachineBuilder()
        .nodes(nodes)
        .framesPerNode(64)
        .protocol(Protocol::WriteInvalidate)
        .build();
}

proto::WriteInvalidateProtocol&
invalidateProtocolAt(Machine& m, NodeId node)
{
    proto::Protocol& p = m.nodeAt(node).cm().protocol();
    EXPECT_EQ(p.kind(), Protocol::WriteInvalidate);
    return static_cast<proto::WriteInvalidateProtocol&>(p);
}

// --------------------------------------------------------------------------
// Builder knob, strings, and MachineConfig::validate()
// --------------------------------------------------------------------------

TEST(ProtocolConfig, BuilderKnobSetsProtocol)
{
    const MachineBuilder b =
        MachineBuilder().nodes(2).protocol(Protocol::WriteInvalidate);
    EXPECT_EQ(b.config().protocol, Protocol::WriteInvalidate);

    // No knob: the paper's write-update protocol.
    EXPECT_EQ(MachineBuilder().config().protocol, Protocol::WriteUpdate);
}

TEST(ProtocolConfig, StringsRoundTrip)
{
    const struct {
        const char* name;
        Protocol protocol;
    } accepted[] = {
        {"update", Protocol::WriteUpdate},
        {"write-update", Protocol::WriteUpdate},
        {"invalidate", Protocol::WriteInvalidate},
        {"write-invalidate", Protocol::WriteInvalidate},
    };
    for (const auto& a : accepted) {
        Protocol p = a.protocol == Protocol::WriteUpdate
                         ? Protocol::WriteInvalidate
                         : Protocol::WriteUpdate;
        EXPECT_TRUE(protocolFromString(a.name, p)) << a.name;
        EXPECT_EQ(p, a.protocol) << a.name;
        EXPECT_TRUE(protocolFromString(toString(p), p)) << a.name;
        EXPECT_EQ(p, a.protocol) << a.name;
    }
    Protocol p = Protocol::WriteUpdate;
    for (const char* bad : {"auto", "env", "", "mesi"}) {
        EXPECT_FALSE(protocolFromString(bad, p)) << bad;
    }
}

TEST(ProtocolConfig, ValidateRejectsBadCombinations)
{
    {
        // An explicit protocol on the direct-config path is accepted.
        MachineConfig cfg;
        cfg.nodes = 2;
        cfg.protocol = Protocol::WriteInvalidate;
        cfg.validate();
        EXPECT_EQ(cfg.protocol, Protocol::WriteInvalidate);
    }
    {
        // Fail-stop recovery re-masters from possibly-invalid replicas.
        MachineConfig cfg;
        cfg.nodes = 2;
        cfg.protocol = Protocol::WriteInvalidate;
        cfg.network.fault.enabled = true;
        cfg.network.fault.recover = true;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        // Fenced-page replica declarations assume update-chain fences.
        MachineConfig cfg;
        cfg.nodes = 2;
        cfg.protocol = Protocol::WriteInvalidate;
        cfg.network.fault.enabled = true;
        cfg.network.fault.fencedPageReplicas.push_back({0, 1});
        EXPECT_THROW(cfg.validate(), FatalError);
    }
}

// --------------------------------------------------------------------------
// Write-invalidate machine behavior
// --------------------------------------------------------------------------

TEST(ProtocolInvalidate, WriteInvalidatesSharersAndReadRefetches)
{
    auto m = invalidateMachine(2);
    const Addr base = m->alloc(kPageBytes, 0);
    m->replicate(base, 1);
    m->settle();

    m->spawn(0, [base](Context& ctx) {
        ctx.write(base, 42);
        ctx.fence();
    });
    Word first = 0;
    Word second = 0;
    m->spawn(1, [base, &first, &second](Context& ctx) {
        ctx.compute(50'000); // well past the writer's fence
        first = ctx.read(base);  // invalid at this copy: re-fetch
        second = ctx.read(base); // revalidated: served locally
    });
    m->run();

    EXPECT_EQ(first, 42u);
    EXPECT_EQ(second, 42u);
    // The write invalidated the sharer's word instead of updating it...
    EXPECT_GE(m->nodeAt(1).cm().stats().invalidations, 1u);
    // ...and exactly the first read had to go back to the master.
    EXPECT_EQ(m->nodeAt(1).cm().stats().refetches, 1u);
    EXPECT_EQ(m->peek(base), 42u);
}

TEST(ProtocolInvalidate, CommittedWordsSkipTheChain)
{
    auto m = invalidateMachine(2);
    const Addr base = m->alloc(kPageBytes, 0);
    m->replicate(base, 1);
    m->settle();

    m->spawn(0, [base](Context& ctx) {
        ctx.write(base, 1); // chains: the sharer's copy is still valid
        ctx.fence();
        ctx.write(base, 2); // the word is invalid everywhere: no chain
        ctx.write(base, 3);
        ctx.fence();
    });
    m->run();

    // One chain (one UpdateReq on the 2-node list) for the first write;
    // the rewrites retire at the master with the word committed invalid.
    EXPECT_EQ(m->nodeAt(0).cm().stats().sentOf(proto::MsgType::UpdateReq),
              1u);
    proto::WriteInvalidateProtocol& wi = invalidateProtocolAt(*m, 0);
    const FrameId master_frame = m->copyListOf(base).master().frame;
    EXPECT_EQ(wi.invalidEverywhere(master_frame), 1u);
    EXPECT_EQ(m->peek(base), 3u);
}

TEST(ProtocolInvalidate, WriterHandoffCountsOwnershipTransfers)
{
    auto m = invalidateMachine(2);
    const Addr base = m->alloc(kPageBytes, 0);
    m->replicate(base, 1);
    m->settle();

    m->spawn(0, [base](Context& ctx) {
        ctx.write(base, 1);
        ctx.fence();
    });
    m->spawn(1, [base](Context& ctx) {
        ctx.compute(50'000);
        ctx.write(base + 4, 2); // a different node takes over writing
        ctx.fence();
    });
    m->run();

    EXPECT_EQ(m->nodeAt(0).cm().stats().ownershipTransfers, 1u);
    EXPECT_EQ(m->peek(base), 1u);
    EXPECT_EQ(m->peek(base + 4), 2u);
}

TEST(ProtocolInvalidate, ImageMatchesWriteUpdateOnSharedWorkload)
{
    // The protocols order writes identically (master-first); only the
    // traffic differs. A deterministic mixed workload must land on the
    // same memory image under both.
    auto runImage = [](Protocol p) {
        auto m = MachineBuilder()
                     .nodes(4)
                     .framesPerNode(64)
                     .protocol(p)
                     .build();
        std::vector<Addr> pages(4);
        for (NodeId n = 0; n < 4; ++n) {
            pages[n] = m->alloc(kPageBytes, n);
            m->replicate(pages[n], (n + 1) % 4);
        }
        m->settle();
        for (NodeId n = 0; n < 4; ++n) {
            m->spawn(n, [&pages, n](Context& ctx) {
                for (Word i = 0; i < 12; ++i) {
                    ctx.write(pages[n] + 4 * (i % 8), n * 100 + i);
                    ctx.read(pages[(n + 1) % 4] + 4 * (i % 8));
                    if (i % 3 == 0) {
                        ctx.fadd(pages[0] + 4 * 15, 1);
                    }
                    ctx.compute(15);
                }
                ctx.fence();
            });
        }
        m->run();
        m->settle();
        std::vector<Word> image;
        for (NodeId n = 0; n < 4; ++n) {
            for (Word w = 0; w < 16; ++w) {
                image.push_back(m->peek(pages[n] + 4 * w));
            }
        }
        return image;
    };
    EXPECT_EQ(runImage(Protocol::WriteUpdate),
              runImage(Protocol::WriteInvalidate));
}

// --------------------------------------------------------------------------
// Per-protocol invariant sets
// --------------------------------------------------------------------------

check::Options
invariantsOnly()
{
    check::Options opts;
    opts.invariants = true;
    opts.races = false;
    return opts;
}

TEST(ProtocolChecker, InvalidateHooksAreViolationsUnderUpdate)
{
    check::Checker c(invariantsOnly(), nullptr);
    ASSERT_EQ(c.invariants()->protocol(), Protocol::WriteUpdate);
    EXPECT_THROW(c.onWordInvalidated(0, /*vpn=*/3, /*word=*/5), PanicError);
}

TEST(ProtocolChecker, StaleLocalReadDetectedUnderInvalidate)
{
    check::Checker c(invariantsOnly(), nullptr);
    c.invariants()->setProtocol(Protocol::WriteInvalidate);
    c.onWordInvalidated(1, /*vpn=*/3, /*word=*/5);
    // Serving the invalidated word from the local copy is the seeded bug.
    EXPECT_THROW(c.onLocalValueServed(1, 3, 5), PanicError);
}

TEST(ProtocolChecker, RevalidatedWordServesCleanly)
{
    check::Checker c(invariantsOnly(), nullptr);
    c.invariants()->setProtocol(Protocol::WriteInvalidate);
    c.onWordInvalidated(1, /*vpn=*/3, /*word=*/5);
    c.onWordRevalidated(1, 3, 5);
    EXPECT_NO_THROW(c.onLocalValueServed(1, 3, 5));
    // Other words of the page are unaffected throughout.
    EXPECT_NO_THROW(c.onLocalValueServed(1, 3, 6));
}

TEST(ProtocolChecker, ChainlessRetireLegalOnlyUnderInvalidate)
{
    {
        check::Checker c(invariantsOnly(), nullptr);
        c.onPendingInsert(0, /*tag=*/1, /*vpn=*/2, /*word=*/0);
        c.onWriteIssued(0, /*tag=*/1, /*vpn=*/2, /*word=*/0,
                        /*from_rmw=*/false);
        // Under write-update a write must traverse its chain before
        // retiring; a chainless retire is the seeded bug.
        EXPECT_THROW(c.onPendingComplete(0, 1), PanicError);
    }
    {
        check::Checker c(invariantsOnly(), nullptr);
        c.invariants()->setProtocol(Protocol::WriteInvalidate);
        c.onPendingInsert(0, /*tag=*/1, /*vpn=*/2, /*word=*/0);
        c.onWriteIssued(0, /*tag=*/1, /*vpn=*/2, /*word=*/0,
                        /*from_rmw=*/false);
        // Write-invalidate legally skips the chain for committed words.
        EXPECT_NO_THROW(c.onPendingComplete(0, 1));
    }
}

TEST(ProtocolChecker, InjectedChainAtSharerPanicsUnderInvalidate)
{
    auto m = invalidateMachine(2);
    const Addr base = m->alloc(kPageBytes, 0);
    m->replicate(base, 1);
    m->settle();

    const mem::CopyList& cl = m->copyListOf(base);
    ASSERT_EQ(cl.size(), 2u);
    const PhysPage replica = cl.copies()[1];

    // A chain that never began at the master, injected at the sharer:
    // the invalidate-mode checker must reject it like the update-mode
    // checker does (tests/test_check.cpp UpdateBypassingMasterIsDetected).
    auto msg = std::make_unique<proto::UpdateReq>();
    msg->target = replica;
    msg->vpn = pageOf(base);
    msg->writes.push_back(proto::WordWrite{3, 42});
    msg->originator = 0;
    msg->tag = 7;
    msg->chainId = 12345; // never assigned by any master
    msg->invalidate = true;
    const unsigned bytes = msg->bytes();

    net::Packet packet;
    packet.src = 0;
    packet.dst = 1;
    packet.payloadBytes = bytes;
    packet.payload = std::move(msg);
    m->nodeAt(1).cm().onPacket(std::move(packet));

    EXPECT_THROW(m->settle(), PanicError);
}

} // namespace
} // namespace plus
