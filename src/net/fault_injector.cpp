#include "net/fault_injector.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/panic.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace plus {
namespace net {

FaultInjector::FaultInjector(sim::Engine& engine, const Topology& topology,
                             const FaultConfig& config)
    : engine_(engine), config_(config),
      deadNodes_(topology.nodes(), 0),
      crashedNodes_(topology.nodes(), 0)
{
    // One stream per lane (nodes plus machine context), each seeded
    // from the config seed and its lane index so streams are mutually
    // independent but fully reproducible.
    rngs_.reserve(topology.nodes() + 1);
    for (std::size_t lane = 0; lane <= topology.nodes(); ++lane) {
        rngs_.emplace_back(config.seed +
                           0x9e3779b97f4a7c15ull * (lane + 1));
    }
}

Xoshiro256&
FaultInjector::laneRng()
{
    // Machine context maps to the last stream; an engine without node
    // lanes (unit tests driving the network directly) reports nodes()
    // == 0 and uses the first.
    const std::uint16_t lane = engine_.currentLane();
    const std::size_t ix =
        lane == sim::kMachineLane ? engine_.nodes() : lane;
    return rngs_[std::min(ix, rngs_.size() - 1)];
}

Fate
FaultInjector::fateFor(const Packet& packet)
{
    if (override_) {
        if (std::optional<Fate> forced = override_(packet)) {
            switch (*forced) {
              case Fate::Drop: stats_.dropped += 1; break;
              case Fate::Corrupt: stats_.corrupted += 1; break;
              case Fate::Duplicate: stats_.duplicated += 1; break;
              case Fate::Delay: stats_.delayed += 1; break;
              default: break;
            }
            return *forced;
        }
    }
    // One roll, banded across the three fault probabilities, so a fate
    // schedule depends only on the frame sequence, not the rate split.
    const double roll = laneRng().uniform();
    double band = config_.dropRate;
    if (roll < band) {
        stats_.dropped += 1;
        return Fate::Drop;
    }
    band += config_.corruptRate;
    if (roll < band) {
        stats_.corrupted += 1;
        return Fate::Corrupt;
    }
    band += config_.duplicateRate;
    if (roll < band) {
        stats_.duplicated += 1;
        return Fate::Duplicate;
    }
    return Fate::Deliver;
}

Cycles
FaultInjector::delayFor()
{
    return laneRng().range(1, config_.maxDelayCycles);
}

void
FaultInjector::scheduleScript()
{
    if (scriptArmed_) {
        return;
    }
    scriptArmed_ = true;
    // Entry cycles are relative to the arming point: core::Machine arms
    // at the first run() so setup work (allocation, replication,
    // settle()) cannot consume scripted faults meant for the workload.
    const Cycles base = engine_.now();
    for (const FaultScriptEntry& entry : config_.script) {
        engine_.scheduleAt(base + entry.at, [this, entry] { apply(entry); });
    }
}

void
FaultInjector::apply(const FaultScriptEntry& entry)
{
    switch (entry.kind) {
      case FaultScriptEntry::Kind::LinkDown:
        stats_.linkKills += 1;
        setLinkAlive(entry.a, entry.b, false);
        break;
      case FaultScriptEntry::Kind::LinkUp:
        setLinkAlive(entry.a, entry.b, true);
        break;
      case FaultScriptEntry::Kind::NodeDown:
        stats_.nodeKills += 1;
        setNodeAlive(entry.a, false);
        break;
      case FaultScriptEntry::Kind::NodeUp:
        setNodeAlive(entry.a, true);
        break;
      case FaultScriptEntry::Kind::CrashNode:
        crashNode(entry.a);
        break;
      default:
        PLUS_PANIC("unknown fault script entry");
    }
}

void
FaultInjector::crashNode(NodeId node)
{
    PLUS_ASSERT(node < crashedNodes_.size(), "crash of unknown node ", node);
    if (crashedNodes_[node]) {
        return; // fail-stop: a node dies at most once
    }
    crashedNodes_[node] = 1;
    crashedCount_ += 1;
    stats_.nodeCrashes += 1;
    deadNodes_[node] = 1;
    PLUS_LOG(LogComponent::Net, "fault: node ", node,
             " crashed (fail-stop) at cycle ", engine_.now());
    if (crashHandler_) {
        crashHandler_(node);
    }
}

void
FaultInjector::setNodeAlive(NodeId node, bool alive)
{
    PLUS_ASSERT(node < deadNodes_.size(), "fault on unknown node ", node);
    PLUS_ASSERT(!(alive && crashedNodes_[node]),
                "node ", node, " is fail-stop crashed and cannot revive");
    deadNodes_[node] = alive ? 0 : 1;
    PLUS_LOG(LogComponent::Net, "fault: node ", node,
             alive ? " revived" : " killed", " at cycle ", engine_.now());
}

void
FaultInjector::setLinkAlive(NodeId a, NodeId b, bool alive)
{
    PLUS_ASSERT(a < deadNodes_.size() && b < deadNodes_.size(),
                "fault on unknown link ", a, " <-> ", b);
    if (alive) {
        deadLinks_.erase(linkKey(a, b));
    } else {
        deadLinks_.insert(linkKey(a, b));
    }
    PLUS_LOG(LogComponent::Net, "fault: link ", a, " <-> ", b,
             alive ? " revived" : " killed", " at cycle ", engine_.now());
}

} // namespace net
} // namespace plus
