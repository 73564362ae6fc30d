#include "sim/fiber.hpp"

#include <cstdint>
#include <cstring>

#include "common/panic.hpp"

#if !defined(__x86_64__) || defined(__ILP32__) || defined(_WIN32)
#error "sim/fiber.cpp: plus_fiber_switch is written for the System V x86-64 ABI; this target needs a port of it"
#endif

// plus_fiber_switch(save_sp, next_sp): push the System V callee-saved
// registers (rbp, rbx, r12-r15) and the MXCSR and x87 control words onto
// the current stack, store the stack pointer in *save_sp, load next_sp,
// and pop the same set from there. The return lands wherever the incoming
// stack was suspended, or in Fiber::entry for a fresh fiber whose first
// frame the constructor laid out in this order. Everything else is
// caller-saved, so the compiler already spills it around the call.
asm(R"(
    .pushsection .text
    .globl plus_fiber_switch
    .hidden plus_fiber_switch
    .type plus_fiber_switch, @function
    .p2align 4
plus_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size plus_fiber_switch, .-plus_fiber_switch
    .popsection
)");

extern "C" void plus_fiber_switch(void** save_sp, void* next_sp);

// When built with AddressSanitizer, every stack switch must be announced
// so ASan tracks the fake-stack of the context being entered; otherwise
// the switches look like wild stack changes and produce false
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

// Under ThreadSanitizer every stack switch must likewise be announced
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

/** Announce the stack switch about to happen; call right before it. */
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

    // First frame, popped by the first plus_fiber_switch into the fiber:
    // the creator's FP control words, zeroed callee-saved registers
    // (rbp = 0 ends frame-pointer backtraces), Fiber::entry as the return
    // address and a null return address above it for entry itself. The
    // frame ends at the 16-byte-aligned stack top, so entry starts with
    // rsp = 8 mod 16 as if it had been called.
    std::uint32_t mxcsr = 0;
    std::uint16_t fpucw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fpucw));
    const std::uint64_t frame[] = {
        mxcsr | std::uint64_t{fpucw} << 32,
        0, 0, 0, 0, 0, 0, // r15 r14 r13 r12 rbx rbp
        reinterpret_cast<std::uintptr_t>(&Fiber::entry),
        0,
    };
    PLUS_ASSERT(stack_bytes >= sizeof(frame) + 16,
                "fiber stack of ", stack_bytes,
                " bytes cannot hold its initial frame");
    const std::uintptr_t top =
        (reinterpret_cast<std::uintptr_t>(stack_.get()) + stack_bytes) &
        ~std::uintptr_t{15};
    sp_ = reinterpret_cast<void*>(top - sizeof(frame));
    std::memcpy(sp_, frame, sizeof(frame));
    tsanFiber_ = tsanCreateFiber();
}

Fiber::~Fiber()
{
    cancel();
    tsanDestroyFiber(tsanFiber_);
}

void
Fiber::entry()
{
    Fiber* self = currentFiber;
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
        // An exception cannot unwind across the stack switch; park the
        // exception and let resume() rethrow it on the resumer's stack.
        pending_ = std::current_exception();
    }
    finished_ = true;
    // Return control to the resumer for the last time. The switch
    // never comes back here; a null fake-stack save tells ASan to destroy
    // this fiber's fake stack.
    Fiber* self = currentFiber;
    currentFiber = nullptr;
    startSwitch(nullptr, self->returnBottom_, self->returnSize_);
    tsanSwitchTo(self->tsanReturn_);
    plus_fiber_switch(&self->sp_, self->returnSp_);
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
    plus_fiber_switch(&returnSp_, sp_);
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
    plus_fiber_switch(&self->sp_, self->returnSp_);
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
