#include "sim/fiber.hpp"

#include <cstdint>

#include "common/panic.hpp"

// When built with AddressSanitizer, every stack switch must be announced
// so ASan tracks the fake-stack of the context being entered; otherwise
// ucontext switches look like wild stack changes and produce false
// positives (or crashes with detect_stack_use_after_return).
#if defined(__SANITIZE_ADDRESS__)
#define PLUS_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PLUS_ASAN_FIBERS 1
#endif
#endif

#if defined(PLUS_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

// Under ThreadSanitizer every ucontext switch must likewise be announced
// (__tsan_switch_to_fiber), or accesses made by different fibers on the
// same host thread are misattributed to one stack and reported as
// races. The annotations also establish happens-before across the
// switch, which is exactly the semantics a cooperative fiber has.
#if defined(__SANITIZE_THREAD__)
#define PLUS_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PLUS_TSAN_FIBERS 1
#endif
#endif

#if defined(PLUS_TSAN_FIBERS)
#include <sanitizer/tsan_interface.h>
#endif

namespace plus {
namespace sim {

namespace {

/** Fiber currently executing on this host thread. */
// pluslint: allow(R4) -- per-host-thread bookkeeping for the fiber
// switch itself; a fiber never migrates between host threads, so
// machines running on different threads never share it.
thread_local Fiber* currentFiber = nullptr;

/** Thrown from yield() to unwind a fiber being cancelled. */
struct Cancelled {};

void
startSwitch(void** fake_stack_save, const void* bottom, std::size_t size)
{
#if defined(PLUS_ASAN_FIBERS)
    __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
    (void)fake_stack_save;
    (void)bottom;
    (void)size;
#endif
}

void
finishSwitch(void* fake_stack_save, const void** bottom_old,
             std::size_t* size_old)
{
#if defined(PLUS_ASAN_FIBERS)
    __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
    (void)fake_stack_save;
    (void)bottom_old;
    (void)size_old;
#endif
}

void*
tsanCreateFiber()
{
#if defined(PLUS_TSAN_FIBERS)
    return __tsan_create_fiber(0);
#else
    return nullptr;
#endif
}

void
tsanDestroyFiber(void* fiber)
{
#if defined(PLUS_TSAN_FIBERS)
    if (fiber != nullptr) {
        __tsan_destroy_fiber(fiber);
    }
#else
    (void)fiber;
#endif
}

void*
tsanCurrentFiber()
{
#if defined(PLUS_TSAN_FIBERS)
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

/** Announce the swapcontext about to happen; call right before it. */
void
tsanSwitchTo(void* fiber)
{
#if defined(PLUS_TSAN_FIBERS)
    if (fiber != nullptr) {
        __tsan_switch_to_fiber(fiber, 0);
    }
#else
    (void)fiber;
#endif
}

} // namespace

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)), stack_(new char[stack_bytes]),
      stackBytes_(stack_bytes)
{
    PLUS_ASSERT(body_, "fiber needs a body");
    if (getcontext(&context_) != 0) {
        PLUS_PANIC("getcontext failed");
    }
    context_.uc_stack.ss_sp = stack_.get();
    context_.uc_stack.ss_size = stack_bytes;
    context_.uc_link = nullptr; // we always swap back explicitly

    // makecontext only passes ints; split the pointer into two halves.
    auto self = reinterpret_cast<std::uintptr_t>(this);
    auto hi = static_cast<unsigned>(self >> 32);
    auto lo = static_cast<unsigned>(self & 0xffffffffu);
    makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline),
                2, hi, lo);
    tsanFiber_ = tsanCreateFiber();
}

Fiber::~Fiber()
{
    cancel();
    tsanDestroyFiber(tsanFiber_);
}

void
Fiber::trampoline(unsigned hi, unsigned lo)
{
    auto self = reinterpret_cast<Fiber*>(
        (static_cast<std::uintptr_t>(hi) << 32) |
        static_cast<std::uintptr_t>(lo));
    // First activation: no fake stack to restore; learn the resumer
    // stack's bounds for the switches back.
    finishSwitch(nullptr, &self->returnBottom_, &self->returnSize_);
    self->run();
}

void
Fiber::run()
{
    try {
        body_();
    } catch (const Cancelled&) {
        // Destructor-driven unwind; nobody is waiting for a result.
    } catch (...) {
        // Unwinding across swapcontext is undefined behaviour; park the
        // exception and let resume() rethrow it on the resumer's stack.
        pending_ = std::current_exception();
    }
    finished_ = true;
    // Return control to the resumer for the last time. The context swap
    // never comes back here; a null fake-stack save tells ASan to destroy
    // this fiber's fake stack.
    Fiber* self = currentFiber;
    currentFiber = nullptr;
    startSwitch(nullptr, self->returnBottom_, self->returnSize_);
    tsanSwitchTo(self->tsanReturn_);
    swapcontext(&self->context_, &self->returnContext_);
    PLUS_PANIC("resumed a finished fiber");
}

void
Fiber::switchIn()
{
    PLUS_ASSERT(!finished_, "resume of a finished fiber");
    PLUS_ASSERT(currentFiber == nullptr,
                "nested fiber resume is not supported");
    started_ = true;
    currentFiber = this;
    void* resumer_fake_stack = nullptr;
    startSwitch(&resumer_fake_stack, stack_.get(), stackBytes_);
    tsanReturn_ = tsanCurrentFiber();
    tsanSwitchTo(tsanFiber_);
    if (swapcontext(&returnContext_, &context_) != 0) {
        PLUS_PANIC("swapcontext into fiber failed");
    }
    finishSwitch(resumer_fake_stack, nullptr, nullptr);
}

void
Fiber::resume()
{
    switchIn();
    if (pending_) {
        std::exception_ptr pending = std::move(pending_);
        pending_ = nullptr;
        std::rethrow_exception(pending);
    }
}

void
Fiber::cancel()
{
    if (!started_ || finished_) {
        return;
    }
    cancelling_ = true;
    // A body that swallows the cancellation and yields again is resumed
    // until it finishes; any exception it raises while unwinding is
    // discarded (we are in a destructor).
    while (!finished_) {
        switchIn();
    }
    pending_ = nullptr;
}

void
Fiber::yield()
{
    Fiber* self = currentFiber;
    PLUS_ASSERT(self != nullptr, "yield outside any fiber");
    currentFiber = nullptr;
    startSwitch(&self->fiberFakeStack_, self->returnBottom_,
                self->returnSize_);
    tsanSwitchTo(self->tsanReturn_);
    if (swapcontext(&self->context_, &self->returnContext_) != 0) {
        PLUS_PANIC("swapcontext out of fiber failed");
    }
    // Resumed again: restore the current-fiber marker and refresh the
    // resumer-stack bounds (the resumer may differ between activations).
    finishSwitch(self->fiberFakeStack_, &self->returnBottom_,
                 &self->returnSize_);
    currentFiber = self;
    if (self->cancelling_) {
        throw Cancelled{};
    }
}

Fiber*
Fiber::current()
{
    return currentFiber;
}

} // namespace sim
} // namespace plus
