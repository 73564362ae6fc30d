#include "node/node.hpp"

#include "net/network.hpp"
#include "sim/engine.hpp"

namespace plus {
namespace node {

Node::Node(NodeId id, const MachineConfig& config, sim::Engine& engine,
           net::Network& network, std::uint64_t ref_threshold)
    : id_(id), memory_(config.framesPerNode)
{
    if (ref_threshold > 0) {
        refCounters_ = std::make_unique<mem::RefCounters>(ref_threshold);
    }
    if (config.cost.modelCache) {
        cache_ = std::make_unique<Cache>(config.cost,
                                         config.cost.snoopInvalidate
                                             ? SnoopPolicy::Invalidate
                                             : SnoopPolicy::Update);
    }

    proto::CoherenceManager::Deps cm_deps;
    cm_deps.engine = &engine;
    cm_deps.network = &network;
    cm_deps.memory = &memory_;
    cm_deps.tables = &tables_;
    cm_deps.refCounters = refCounters_.get();
    cm_ = std::make_unique<proto::CoherenceManager>(
        id, config.cost, cm_deps, config.protocol);

    // Node-bus snooping keeps the processor cache coherent with writes
    // performed by the coherence manager.
    if (cache_) {
        cm_->setSnoopHook([this](FrameId frame, Addr off, Word) {
            cache_->snoop(frame, off);
        });
    }

    network.setDeliveryHandler(id, [this](net::Packet packet) {
        cm_->onPacket(std::move(packet));
    });

    Processor::Deps proc_deps;
    proc_deps.engine = &engine;
    proc_deps.cm = cm_.get();
    proc_deps.cache = cache_.get();
    processor_ = std::make_unique<Processor>(id, config.cost, config.mode,
                                             config.threadStackBytes,
                                             proc_deps);
}

} // namespace node
} // namespace plus
