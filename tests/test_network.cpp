/**
 * @file
 * Unit tests for the interconnection-network models: zero-load latency
 * calibration (24-cycle adjacent round trip, +4 per extra hop), link
 * serialization and queueing under contention, per-route FIFO ordering
 * (which the page-copy protocol depends on), and statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"

namespace plus {
namespace net {
namespace {

struct Delivery {
    NodeId dst;
    Cycles at;
    unsigned bytes;
};

class NetworkTest : public ::testing::Test
{
  protected:
    void
    build(bool ideal, unsigned nodes = 16, unsigned width = 4)
    {
        NetworkConfig cfg;
        cfg.ideal = ideal;
        topology_ = std::make_unique<Topology>(nodes, width,
                                               (nodes + width - 1) /
                                                   width);
        network_ = makeNetwork(engine_, *topology_, cfg);
        for (NodeId n = 0; n < nodes; ++n) {
            network_->setDeliveryHandler(n, [this, n](Packet p) {
                log_.push_back({n, engine_.now(), p.payloadBytes});
            });
        }
    }

    void
    send(NodeId src, NodeId dst, unsigned bytes = 8)
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.payloadBytes = bytes;
        network_->send(std::move(p));
    }

    sim::Engine engine_;
    std::unique_ptr<Topology> topology_;
    std::unique_ptr<Network> network_;
    std::vector<Delivery> log_;
};

TEST_F(NetworkTest, IdealOneWayLatencyFormula)
{
    build(true);
    send(0, 1); // 1 hop
    send(0, 5); // 2 hops
    send(0, 15); // 6 hops
    engine_.run();
    ASSERT_EQ(log_.size(), 3u);
    EXPECT_EQ(log_[0].at, 10u + 2 * 1);
    EXPECT_EQ(log_[1].at, 10u + 2 * 2);
    EXPECT_EQ(log_[2].at, 10u + 2 * 6);
}

TEST_F(NetworkTest, MeshZeroLoadMatchesIdeal)
{
    build(false);
    send(0, 1);
    engine_.run();
    ASSERT_EQ(log_.size(), 1u);
    // One-way 12 cycles => the paper's 24-cycle adjacent round trip.
    EXPECT_EQ(log_[0].at, 12u);
}

TEST_F(NetworkTest, MeshExtraHopAddsTwoCyclesOneWay)
{
    build(false);
    send(0, 2);
    engine_.run();
    EXPECT_EQ(log_[0].at, 10u + 2 * 2); // +4 per extra hop round trip
}

TEST_F(NetworkTest, ContentionQueuesBehindBusyLink)
{
    build(false);
    // Two messages injected back-to-back over the same link: the second
    // waits for the first's serialization time.
    send(0, 1, 8);
    send(0, 1, 8);
    engine_.run();
    ASSERT_EQ(log_.size(), 2u);
    EXPECT_EQ(log_[0].at, 12u);
    // Serialization of (8 header + 8 payload) bytes at 0.8 B/cycle = 20.
    EXPECT_EQ(log_[1].at, 12u + 20u);
    EXPECT_GT(network_->queueingHistogram().max(), 0.0);
}

TEST_F(NetworkTest, DisjointRoutesDoNotInterfere)
{
    build(false);
    send(0, 1);
    send(4, 5);
    engine_.run();
    ASSERT_EQ(log_.size(), 2u);
    EXPECT_EQ(log_[0].at, 12u);
    EXPECT_EQ(log_[1].at, 12u);
}

TEST_F(NetworkTest, SameRouteIsFifo)
{
    build(false);
    // The coherence protocol relies on per-(src,dst) FIFO delivery.
    for (unsigned i = 0; i < 20; ++i) {
        send(0, 15, 4 + 4 * (i % 3));
    }
    engine_.run();
    ASSERT_EQ(log_.size(), 20u);
    for (unsigned i = 0; i + 1 < 20; ++i) {
        EXPECT_LE(log_[i].at, log_[i + 1].at);
        EXPECT_EQ(log_[i].bytes, 4 + 4 * (i % 3));
    }
}

TEST_F(NetworkTest, StatsCountPacketsHopsAndBytes)
{
    build(false);
    send(0, 1, 8);
    send(0, 5, 16);
    engine_.run();
    const NetworkStats s = network_->stats();
    EXPECT_EQ(s.packets, 2u);
    EXPECT_EQ(s.payloadBytes, 24u);
    EXPECT_EQ(s.totalHops, 3u);
    EXPECT_EQ(network_->latencyHistogram().count(), 2u);
}

TEST_F(NetworkTest, SerializationRoundsUp)
{
    build(false);
    // 8 header + 1 payload = 9 bytes at 0.8 B/cycle = 11.25 -> 12.
    EXPECT_EQ(network_->serializationCycles(1), 12u);
    EXPECT_EQ(network_->serializationCycles(0), 10u);
}

TEST_F(NetworkTest, IntegerSerializationMatchesTheFloatingPointForm)
{
    build(false);
    for (unsigned payload = 0; payload <= 65535; ++payload) {
        const double bytes = NetworkConfig::headerBytes + payload;
        const auto reference = static_cast<Cycles>(
            std::ceil(bytes / NetworkConfig::bytesPerCycle));
        ASSERT_EQ(network_->serializationCycles(payload), reference)
            << "payload " << payload;
    }
}

TEST_F(NetworkTest, SelfSendIsRejected)
{
    build(false);
    Packet p;
    p.src = 3;
    p.dst = 3;
    EXPECT_THROW(network_->send(std::move(p)), PanicError);
}

TEST_F(NetworkTest, ManyRandomMessagesAllArrive)
{
    build(false);
    unsigned sent = 0;
    for (NodeId s = 0; s < 16; ++s) {
        for (NodeId d = 0; d < 16; ++d) {
            if (s != d) {
                send(s, d, (s * 16 + d) % 32);
                ++sent;
            }
        }
    }
    engine_.run();
    EXPECT_EQ(log_.size(), sent);
}

TEST_F(NetworkTest, MaxLinkBusyTracksHotLink)
{
    build(false);
    auto* mesh = dynamic_cast<MeshNetwork*>(network_.get());
    ASSERT_NE(mesh, nullptr);
    for (int i = 0; i < 10; ++i) {
        send(0, 1, 8);
    }
    engine_.run();
    EXPECT_EQ(mesh->maxLinkBusyCycles(), 10 * 20u);
}

TEST_F(NetworkTest, EachPortOfARouterIsItsOwnLink)
{
    build(false);
    // Node 5 sits inside the 4x4 mesh: east, west, south and north
    // sends leave at once, and each neighbour answers at once.
    for (NodeId peer : {6u, 4u, 9u, 1u}) {
        send(5, peer, 8);
        send(peer, 5, 8);
    }
    engine_.run();
    ASSERT_EQ(log_.size(), 8u);
    for (const Delivery& d : log_) {
        EXPECT_EQ(d.at, 12u) << "delivery to " << d.dst;
    }
    EXPECT_EQ(network_->queueingHistogram().max(), 0.0);
}

TEST_F(NetworkTest, RowBreakIsNotALink)
{
    build(false, 8, 4);
    // Ids 3 and 4 are consecutive but sit at (3,0) and (0,1): the
    // packet walks the mesh, four hops.
    send(3, 4);
    engine_.run();
    ASSERT_EQ(log_.size(), 1u);
    EXPECT_EQ(log_[0].at, 10u + 2 * 4);
    EXPECT_EQ(network_->stats().totalHops, 4u);
}

TEST_F(NetworkTest, PartialLastRowLinksOnlyExistingNodes)
{
    // Six nodes on a 4-wide mesh: row 1 holds only nodes 4 and 5.
    build(false, 6, 4);
    send(5, 4); // west
    send(4, 0); // north
    // East to 5, where (2,1) is off the mesh: north to 1, then east to
    // 2 and 3.
    send(4, 3);
    engine_.run();
    ASSERT_EQ(log_.size(), 3u);
    EXPECT_EQ(log_[0].at, 12u);
    EXPECT_EQ(log_[1].at, 12u);
    EXPECT_EQ(log_[2].at, 10u + 2 * 4);
    EXPECT_EQ(network_->queueingHistogram().max(), 0.0);
}

TEST_F(NetworkTest, SingleColumnMeshLinksVertically)
{
    build(false, 4, 1);
    send(0, 3);
    send(3, 0);
    engine_.run();
    ASSERT_EQ(log_.size(), 2u);
    EXPECT_EQ(log_[0].at, 10u + 2 * 3);
    EXPECT_EQ(log_[1].at, 10u + 2 * 3);
}

TEST_F(NetworkTest, MaxLinkBusyCoversTheLastRouter)
{
    build(false);
    auto* mesh = dynamic_cast<MeshNetwork*>(network_.get());
    ASSERT_NE(mesh, nullptr);
    for (int i = 0; i < 3; ++i) {
        send(15, 11, 8); // node 15's north port
    }
    engine_.run();
    EXPECT_EQ(mesh->maxLinkBusyCycles(), 3 * 20u);
}

} // namespace
} // namespace net
} // namespace plus
