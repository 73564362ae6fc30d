/**
 * @file
 * The plus::check facade: one object implementing every instrumentation
 * hook (check::Observer), recording each event into a bounded trace and
 * fanning it out to the enabled sub-checkers — the protocol invariant
 * checker and the happens-before race detector.
 *
 * core::Machine owns one Checker per machine (when CheckConfig enables
 * anything) and installs it into the coherence managers, pending-writes
 * caches, copy-lists and processors it builds. Everything here runs
 * inside the single-threaded simulation, so no locking is needed.
 */

#ifndef PLUS_CHECK_CHECKER_HPP_
#define PLUS_CHECK_CHECKER_HPP_

#include <memory>

#include "check/hooks.hpp"
#include "check/invariant_checker.hpp"
#include "check/race_detector.hpp"
#include "check/trace.hpp"
#include "common/types.hpp"

namespace plus {

namespace sim {
class Engine;
} // namespace sim

namespace check {

/** What to check; mirrors common::CheckConfig. */
struct Options {
    /** Validate the protocol ordering invariants (panic on violation). */
    bool invariants = true;
    /** Run the happens-before race detector over application accesses. */
    bool races = false;
    /** Panic at the first race instead of recording it. */
    bool panicOnRace = false;
    /** Events of history kept for violation reports. */
    unsigned traceDepth = 64;
};

/** Facade wiring the event stream into the enabled sub-checkers. */
class Checker final : public Observer
{
  public:
    Checker(const Options& options, const sim::Engine* engine);

    /** Install the copy-list resolver (from the machine's directory). */
    void setCopyListResolver(InvariantChecker::CopyListResolver resolver);

    /** The OS mutated the copy-list of @p vpn. */
    void onCopyListChanged(Vpn vpn);

    /** Node @p node fail-stop crashed (machine context). */
    void onNodeCrashed(NodeId node);

    /** Recovery for @p dead completed; its epoch @p epoch sealed. */
    void onEpochSealed(NodeId dead, std::uint64_t epoch);

    const Options& options() const { return options_; }
    EventTrace& trace() { return trace_; }

    /** Null unless Options::invariants. */
    InvariantChecker* invariants() { return invariants_.get(); }

    /** Null unless Options::races. */
    RaceDetector* raceDetector() { return races_.get(); }

    // --- PendingWritesObserver --------------------------------------------

    void onPendingInsert(NodeId node, std::uint32_t tag, Vpn vpn,
                         Addr word_offset) override;
    void onPendingComplete(NodeId node, std::uint32_t tag) override;
    void onPendingAborted(NodeId node, std::uint32_t tag,
                          bool retried) override;

    // --- ProtoObserver ----------------------------------------------------

    void onWriteIssued(NodeId node, std::uint32_t tag, Vpn vpn,
                       Addr word_offset, bool from_rmw) override;
    void onChainApplied(ChainId chain, PhysPage copy, Vpn vpn,
                        Addr word_offset, unsigned words, NodeId originator,
                        std::uint32_t tag, bool at_master) override;
    void onFenceComplete(NodeId node, bool pending_empty) override;
    void onReadServed(NodeId node, Vpn vpn, Addr word_offset) override;
    void onMessageProcessed(NodeId src, NodeId dst,
                            std::uint8_t msg_class) override;
    void onWordInvalidated(NodeId node, Vpn vpn, Addr word_offset) override;
    void onWordRevalidated(NodeId node, Vpn vpn, Addr word_offset) override;
    void onLocalValueServed(NodeId node, Vpn vpn, Addr word_offset) override;

    // --- CopyListObserver -------------------------------------------------

    void onCopyListMutated(const mem::CopyList& list,
                           const char* op) override;

    // --- ProcObserver -----------------------------------------------------

    void onProcRead(NodeId node, ThreadId tid, Addr vaddr) override;
    void onProcWrite(NodeId node, ThreadId tid, Addr vaddr) override;
    void onProcRmwIssue(NodeId node, ThreadId tid, Addr vaddr,
                        std::uint8_t op) override;
    void onProcVerify(NodeId node, ThreadId tid, Addr vaddr) override;
    void onProcFence(NodeId node, ThreadId tid) override;
    void onProcWriteFence(NodeId node, ThreadId tid) override;
    void onProcPageLost(NodeId node, ThreadId tid, Addr vaddr) override;

  private:
    Options options_;
    EventTrace trace_;
    std::unique_ptr<InvariantChecker> invariants_;
    std::unique_ptr<RaceDetector> races_;
};

} // namespace check
} // namespace plus

#endif // PLUS_CHECK_CHECKER_HPP_
