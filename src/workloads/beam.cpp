#include "workloads/beam.hpp"

#include <algorithm>

#include "common/panic.hpp"
#include "core/context.hpp"
#include "core/sync.hpp"
#include "core/workq.hpp"

namespace plus {
namespace workloads {

namespace {

using core::NodeBarrier;
using core::NodeBarrierWaiter;
using core::Context;
using core::Machine;
using core::OpHandle;
using core::WorkQueue;

/** Shared-memory image of the layered search space. */
struct BeamImage {
    unsigned nodes = 0;
    std::uint32_t layers = 0;
    std::uint32_t width = 0;
    std::uint32_t perLayerPerNode = 0;

    // Per node: state arrays (score, backptr, lock, queued flag), each
    // one word per local state, plus the adjacency CSR.
    std::vector<Addr> scoreBase;
    std::vector<Addr> backBase;
    std::vector<Addr> lockBase;
    std::vector<Addr> queuedBase;
    std::vector<Addr> rowBase;
    std::vector<Addr> dataBase;

    Addr layerPending = 0; ///< one word per layer
    Addr layerBest = 0;    ///< one word per layer

    std::uint32_t stateOf(std::uint32_t v) const { return v % width; }
    std::uint32_t layerOf(std::uint32_t v) const { return v / width; }
    NodeId owner(std::uint32_t v) const { return stateOf(v) % nodes; }
    std::uint32_t
    localIndex(std::uint32_t v) const
    {
        return layerOf(v) * perLayerPerNode + stateOf(v) / nodes;
    }
    Addr scoreAddr(std::uint32_t v) const
    {
        return scoreBase[owner(v)] + 4 * Addr{localIndex(v)};
    }
    Addr backAddr(std::uint32_t v) const
    {
        return backBase[owner(v)] + 4 * Addr{localIndex(v)};
    }
    Addr lockAddr(std::uint32_t v) const
    {
        return lockBase[owner(v)] + 4 * Addr{localIndex(v)};
    }
    Addr queuedAddr(std::uint32_t v) const
    {
        return queuedBase[owner(v)] + 4 * Addr{localIndex(v)};
    }
    Addr rowAddr(std::uint32_t v) const
    {
        return rowBase[owner(v)] + 8 * Addr{localIndex(v)};
    }
    Addr pendingAddr(std::uint32_t layer) const
    {
        return layerPending + 4 * Addr{layer};
    }
    Addr bestAddr(std::uint32_t layer) const
    {
        return layerBest + 4 * Addr{layer};
    }
};

BeamImage
buildImage(Machine& machine, const Graph& graph, const BeamConfig& cfg)
{
    const unsigned nodes = machine.nodeCount();
    BeamImage img;
    img.nodes = nodes;
    img.layers = cfg.layers;
    img.width = cfg.width;
    img.perLayerPerNode = (cfg.width + nodes - 1) / nodes;

    const std::size_t per_node_states =
        std::size_t{img.perLayerPerNode} * cfg.layers;

    img.scoreBase.resize(nodes);
    img.backBase.resize(nodes);
    img.lockBase.resize(nodes);
    img.queuedBase.resize(nodes);
    img.rowBase.resize(nodes);
    img.dataBase.resize(nodes);

    for (NodeId n = 0; n < nodes; ++n) {
        img.scoreBase[n] = machine.alloc(per_node_states * 4, n);
        img.backBase[n] = machine.alloc(per_node_states * 4, n);
        img.lockBase[n] = machine.alloc(per_node_states * 4, n);
        img.queuedBase[n] = machine.alloc(per_node_states * 4, n);
        img.rowBase[n] = machine.alloc(per_node_states * 8, n);

        std::size_t edge_words = 0;
        for (std::uint32_t v = 0; v < graph.vertices(); ++v) {
            if (img.owner(v) == n) {
                edge_words += 2 * graph.outDegree(v);
            }
        }
        img.dataBase[n] =
            machine.alloc(std::max<std::size_t>(4, edge_words * 4), n);
    }

    // Fill scores and adjacency.
    std::vector<std::size_t> cursor(nodes, 0);
    for (std::uint32_t v = 0; v < graph.vertices(); ++v) {
        const NodeId n = img.owner(v);
        machine.poke(img.scoreAddr(v), kInfDist);
        const auto [fst, lst] = graph.outEdges(v);
        machine.poke(img.rowAddr(v), static_cast<Word>(cursor[n]));
        machine.poke(img.rowAddr(v) + 4, static_cast<Word>(lst - fst));
        for (const Graph::Edge* e = fst; e != lst; ++e) {
            machine.poke(img.dataBase[n] + 4 * cursor[n], e->to);
            machine.poke(img.dataBase[n] + 4 * (cursor[n] + 1),
                         e->weight);
            cursor[n] += 2;
        }
    }

    img.layerPending = machine.alloc(std::size_t{cfg.layers} * 4, 0);
    img.layerBest = machine.alloc(std::size_t{cfg.layers} * 4, 0);
    for (std::uint32_t l = 0; l < cfg.layers; ++l) {
        machine.poke(img.bestAddr(l), kInfDist);
    }

    // Seed: layer-0 state 0 with score 0, already marked queued.
    machine.poke(img.scoreAddr(0), 0);
    machine.poke(img.bestAddr(0), 0);
    machine.poke(img.queuedAddr(0), kTopBit);
    machine.poke(img.pendingAddr(0), 1);

    return img;
}

/** Everything a worker thread needs. */
struct BeamShared {
    const BeamImage* img;
    const BeamConfig* cfg;
    WorkQueue* queues[2]; ///< alternating layer queue sets
    NodeBarrier* barrier;
    std::uint64_t* expansions;
};

/**
 * Acquire the per-state lock of @p v. Pipelined callers overlap the
 * issue with other work; this helper is the blocking retry loop (no
 * other lock may be held while spinning — deadlock freedom).
 */
void
lockState(Context& ctx, const BeamImage& img, std::uint32_t v)
{
    Cycles backoff = 8;
    while (ctx.fetchSet(img.lockAddr(v)) & kTopBit) {
        ctx.pause(backoff);
        backoff = std::min<Cycles>(backoff * 2, 128);
    }
}

void
unlockState(Context& ctx, const BeamImage& img, std::uint32_t v)
{
    // Score/backptr writes complete before the lock is seen free; the
    // write fence orders without stalling the unlocking processor.
    ctx.writeFence();
    ctx.write(img.lockAddr(v), 0);
}

/**
 * Process one dequeued state: for every successor, lock it, relax its
 * (score, backpointer) pair, and queue it for the next layer when it
 * improves and survives the beam test.
 */
void
expandState(Context& ctx, const BeamShared& sh, std::uint32_t v,
            unsigned next_parity)
{
    const BeamImage& img = *sh.img;
    const BeamConfig& cfg = *sh.cfg;
    const bool pipelined = ctx.mode() == ProcessorMode::Delayed;
    const std::uint32_t layer = img.layerOf(v);

    ctx.compute(cfg.computePerState);
    const Word dv = ctx.read(img.scoreAddr(v));
    const Addr row = img.rowAddr(v);
    const Word offset = ctx.read(row);
    const Word degree = ctx.read(row + 4);
    const Addr data = img.dataBase[img.owner(v)] + 4 * Addr{offset};

    Word pushes = 0;
    std::vector<std::uint32_t> to_push;

    // The lock for successor i+1 is issued while successor i's edge
    // data is read, but is only *verified* after successor i's lock has
    // been released: at most one lock is held at any time.
    OpHandle lock_ahead = 0;
    bool have_ahead = false;
    Word to_ahead = 0;

    for (Word e = 0; e < degree; ++e) {
        Word to;
        Word weight;
        if (pipelined && have_ahead) {
            to = to_ahead;
            weight = ctx.read(data + 8 * Addr{e} + 4);
        } else {
            to = ctx.read(data + 8 * Addr{e});
            weight = ctx.read(data + 8 * Addr{e} + 4);
        }
        ctx.compute(cfg.computePerEdge);
        const Word nd = dv + weight;

        // Acquire the successor's lock (possibly issued earlier).
        if (pipelined) {
            OpHandle h = have_ahead
                             ? lock_ahead
                             : ctx.issueFetchSet(img.lockAddr(to));
            have_ahead = false;
            // Software pipeline: fetch the next successor id and issue
            // its lock before waiting for this one... except the next
            // lock may only be issued after this one is released, so we
            // just prefetch the id here.
            if (e + 1 < degree) {
                to_ahead = ctx.read(data + 8 * Addr{e + 1});
            }
            while (ctx.verify(h) & kTopBit) {
                ctx.pause(16);
                h = ctx.issueFetchSet(img.lockAddr(to));
            }
        } else {
            lockState(ctx, img, to);
        }

        // Critical section: joint (score, backpointer) relaxation.
        const Word old = ctx.read(img.scoreAddr(to));
        bool improved = false;
        if (nd < old) {
            ctx.write(img.scoreAddr(to), nd);
            ctx.write(img.backAddr(to), v);
            improved = true;
        }
        unlockState(ctx, img, to);

        if (pipelined && e + 1 < degree) {
            lock_ahead = ctx.issueFetchSet(img.lockAddr(to_ahead));
            have_ahead = true;
        }

        if (!improved) {
            continue;
        }

        // Beam test against the next layer's best score so far.
        const std::uint32_t next_layer = layer + 1;
        const Word best = ctx.minXchng(img.bestAddr(next_layer), nd);
        const Word best_now = std::min(best, nd);
        if (cfg.beamMargin != kInfDist &&
            nd > best_now + cfg.beamMargin) {
            continue;
        }

        // Queue each state once per layer.
        if (!(ctx.fetchSet(img.queuedAddr(to)) & kTopBit)) {
            ++pushes;
            to_push.push_back(to);
        }
    }

    if (pushes > 0) {
        ctx.fadd(img.pendingAddr(layer + 1), pushes);
        for (std::uint32_t u : to_push) {
            sh.queues[next_parity]->push(ctx, img.owner(u), u);
        }
    }
}

void
beamWorker(Context& ctx, const BeamShared& sh, NodeId self, unsigned me)
{
    const BeamImage& img = *sh.img;
    NodeBarrierWaiter waiter(*sh.barrier, me);
    const bool pipelined = ctx.mode() == ProcessorMode::Delayed;

    if (self == 0 && ctx.tid() == 0) {
        sh.queues[0]->push(ctx, img.owner(0), 0);
    }
    waiter.wait(ctx);

    for (std::uint32_t layer = 0; layer + 1 < img.layers; ++layer) {
        const unsigned parity = layer % 2;
        const unsigned next_parity = 1 - parity;
        WorkQueue& wq = *sh.queues[parity];

        // Software pipeline (Delayed mode): the dequeue of the next
        // state from the local lane is issued while the current state
        // is processed.
        OpHandle pop_ahead = 0;
        bool have_pop_ahead = false;

        while (true) {
            std::optional<Word> item;
            if (have_pop_ahead) {
                const Word got = ctx.verify(pop_ahead);
                have_pop_ahead = false;
                if (got & kTopBit) {
                    item = got & kPayloadMask;
                }
            }
            if (!item) {
                item = wq.popAny(ctx, self);
            }
            if (!item) {
                if (ctx.read(img.pendingAddr(layer)) == 0) {
                    break;
                }
                ctx.pause(48);
                continue;
            }
            if (pipelined) {
                pop_ahead =
                    ctx.issueDequeue(wq.lanePage(self) + kWordBytes);
                have_pop_ahead = true;
            }

            const auto v = static_cast<std::uint32_t>(*item);
            ++*sh.expansions;
            expandState(ctx, sh, v, next_parity);
            ctx.fadd(img.pendingAddr(layer), static_cast<Word>(-1));
        }
        // The break path always verified (and cleared) any prefetched
        // dequeue first, so no delayed operation crosses the barrier.
        PLUS_ASSERT(!have_pop_ahead, "prefetch leaked across a layer");
        waiter.wait(ctx);
    }
}

} // namespace

std::vector<std::uint32_t>
beamReference(const Graph& graph, std::uint32_t layers,
              std::uint32_t width)
{
    std::vector<std::uint32_t> score(graph.vertices(), kInfDist);
    score[0] = 0;
    for (std::uint32_t l = 0; l + 1 < layers; ++l) {
        for (std::uint32_t s = 0; s < width; ++s) {
            const std::uint32_t v = l * width + s;
            if (score[v] == kInfDist) {
                continue;
            }
            const auto [fst, lst] = graph.outEdges(v);
            for (const Graph::Edge* e = fst; e != lst; ++e) {
                score[e->to] =
                    std::min(score[e->to], score[v] + e->weight);
            }
        }
    }
    return {score.end() - width, score.end()};
}

BeamResult
runBeam(core::Machine& machine, const Graph& graph, const BeamConfig& cfg)
{
    const unsigned nodes = machine.nodeCount();
    BeamImage img = buildImage(machine, graph, cfg);

    // Each state is queued at most once per layer, so a lane never holds
    // more than the layer width; the hardware queue must fit it.
    PLUS_ASSERT(cfg.width < kPageWords - 3,
                "layer width exceeds hardware queue capacity");

    std::vector<NodeId> lanes(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        lanes[n] = n;
    }
    WorkQueue wq0 = WorkQueue::create(machine, lanes);
    WorkQueue wq1 = WorkQueue::create(machine, lanes);

    const unsigned threads_per_proc =
        machine.config().mode == ProcessorMode::ContextSwitch
            ? std::max(1u, cfg.threadsPerProcessor)
            : 1u;
    std::vector<NodeId> thread_nodes;
    for (NodeId n = 0; n < nodes; ++n) {
        for (unsigned t = 0; t < threads_per_proc; ++t) {
            thread_nodes.push_back(n);
        }
    }
    NodeBarrier barrier =
        NodeBarrier::create(machine, thread_nodes, true);
    machine.settle();

    std::uint64_t expansions = 0;
    BeamShared shared{&img, &cfg, {&wq0, &wq1}, &barrier, &expansions};

    unsigned participant = 0;
    for (NodeId n = 0; n < nodes; ++n) {
        for (unsigned t = 0; t < threads_per_proc; ++t) {
            const unsigned me = participant++;
            machine.spawn(n, [&shared, n, me](Context& ctx) {
                beamWorker(ctx, shared, n, me);
            });
        }
    }
    // Report the execution phase only (setup excluded).
    const Cycles start = machine.now();
    const core::MachineReport baseline = machine.report();
    machine.run();

    BeamResult result;
    result.elapsed = machine.now() - start;
    result.expansions = expansions;
    result.report = machine.report() - baseline;

    const std::vector<std::uint32_t> ref =
        beamReference(graph, cfg.layers, cfg.width);
    if (cfg.beamMargin == kInfDist) {
        result.correct = true;
        for (std::uint32_t s = 0; s < cfg.width; ++s) {
            const std::uint32_t v = (cfg.layers - 1) * cfg.width + s;
            if (machine.peek(img.scoreAddr(v)) != ref[s]) {
                result.correct = false;
                break;
            }
        }
    } else {
        // Pruned search is approximate: sane iff no score beats the
        // exact optimum and some final state is reached at all.
        std::uint32_t best_got = kInfDist;
        result.correct = true;
        for (std::uint32_t s = 0; s < cfg.width; ++s) {
            const std::uint32_t v = (cfg.layers - 1) * cfg.width + s;
            const Word got = machine.peek(img.scoreAddr(v));
            if (got < ref[s]) {
                result.correct = false;
            }
            best_got = std::min<std::uint32_t>(best_got, got);
        }
        if (best_got == kInfDist) {
            result.correct = false;
        }
    }
    return result;
}

BeamResult
runBeam(core::Machine& machine, const BeamConfig& cfg)
{
    Xoshiro256 rng(cfg.seed);
    const Graph graph = makeLayeredGraph(cfg.layers, cfg.width,
                                         cfg.avgDegree, cfg.maxWeight,
                                         rng);
    return runBeam(machine, graph, cfg);
}

} // namespace workloads
} // namespace plus
