/**
 * @file
 * Unit tests for the cooperative fibers underlying execution-driven
 * simulation.
 */

#include <gtest/gtest.h>
#include <xmmintrin.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/panic.hpp"
#include "sim/fiber.hpp"

namespace plus {
namespace sim {
namespace {

TEST(Fiber, RunsBodyToCompletion)
{
    bool ran = false;
    Fiber fiber([&] { ran = true; }, 64 * 1024);
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, YieldReturnsToResumer)
{
    std::vector<int> order;
    Fiber fiber([&] {
        order.push_back(1);
        Fiber::yield();
        order.push_back(3);
    }, 64 * 1024);
    fiber.resume();
    order.push_back(2);
    fiber.resume();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, ManyYields)
{
    int counter = 0;
    Fiber fiber([&] {
        for (int i = 0; i < 100; ++i) {
            ++counter;
            Fiber::yield();
        }
    }, 64 * 1024);
    for (int i = 0; i < 100; ++i) {
        fiber.resume();
        EXPECT_EQ(counter, i + 1);
    }
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, CurrentTracksRunningFiber)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber* seen = nullptr;
    Fiber fiber([&] { seen = Fiber::current(); }, 64 * 1024);
    fiber.resume();
    EXPECT_EQ(seen, &fiber);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, InterleavesTwoFibers)
{
    std::vector<std::string> log;
    Fiber a([&] {
        log.push_back("a1");
        Fiber::yield();
        log.push_back("a2");
    }, 64 * 1024);
    Fiber b([&] {
        log.push_back("b1");
        Fiber::yield();
        log.push_back("b2");
    }, 64 * 1024);
    a.resume();
    b.resume();
    a.resume();
    b.resume();
    EXPECT_EQ(log,
              (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
}

TEST(Fiber, DeepStackUsage)
{
    // Recursion must fit comfortably in the configured stack.
    std::function<int(int)> fib = [&](int n) {
        return n < 2 ? n : fib(n - 1) + fib(n - 2);
    };
    int result = 0;
    Fiber fiber([&] { result = fib(18); }, 256 * 1024);
    fiber.resume();
    EXPECT_EQ(result, 2584);
}

TEST(Fiber, LocalStateSurvivesYield)
{
    int out = 0;
    Fiber fiber([&] {
        int local = 11;
        Fiber::yield();
        local += 31;
        Fiber::yield();
        out = local;
    }, 64 * 1024);
    fiber.resume();
    fiber.resume();
    fiber.resume();
    EXPECT_EQ(out, 42);
}

TEST(Fiber, RejectsStackTooSmallForItsFirstFrame)
{
    EXPECT_THROW(Fiber([] {}, 64), PanicError);
}

TEST(Fiber, ExceptionAfterYieldIsRethrownByResume)
{
    Fiber fiber([] {
        Fiber::yield();
        throw std::runtime_error("from the fiber");
    }, 64 * 1024);
    fiber.resume();
    EXPECT_FALSE(fiber.finished());
    try {
        fiber.resume();
        FAIL() << "resume() did not rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "from the fiber");
    }
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, DestroyingSuspendedFiberUnwindsItsStack)
{
    struct Guard {
        int* count;
        ~Guard() { ++*count; }
    };
    int destroyed = 0;
    bool resumedPastYield = false;
    {
        Fiber fiber([&] {
            Guard outer{&destroyed};
            {
                Guard inner{&destroyed};
                Fiber::yield();
                resumedPastYield = true;
            }
        }, 64 * 1024);
        fiber.resume();
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 2);
    EXPECT_FALSE(resumedPastYield);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, RoundingModeStaysWithItsStack)
{
    constexpr unsigned kRoundingBits = 0x6000; // MXCSR.RC
    constexpr unsigned kRoundUp = 0x4000;
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    ASSERT_EQ(_mm_getcsr() & kRoundingBits, 0u);
    int fiberRound = -1;
    unsigned fiberCsr = 0;
    Fiber fiber([&] {
        std::fesetround(FE_UPWARD);
        Fiber::yield();
        fiberRound = std::fegetround();
        fiberCsr = _mm_getcsr() & kRoundingBits;
    }, 64 * 1024);
    fiber.resume();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(_mm_getcsr() & kRoundingBits, 0u);
    fiber.resume();
    EXPECT_EQ(fiberRound, FE_UPWARD);
    EXPECT_EQ(fiberCsr, kRoundUp);
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(_mm_getcsr() & kRoundingBits, 0u);
}

/** Checks stack alignment as seen by a fresh call on the fiber stack. */
[[gnu::noinline]] bool
stackIsAligned(double value)
{
    alignas(32) volatile unsigned char wide[32] = {};
    alignas(16) volatile unsigned char narrow[16] = {};
    char text[32];
    std::snprintf(text, sizeof text, "%f", value);
    const bool wideOk =
        reinterpret_cast<std::uintptr_t>(&wide[0]) % 32 == 0;
    const bool narrowOk =
        reinterpret_cast<std::uintptr_t>(&narrow[0]) % 16 == 0;
    return wideOk && narrowOk && std::strcmp(text, "3.250000") == 0;
}

TEST(Fiber, StackIsAlignedOnEntryAndAfterEachYield)
{
    std::vector<bool> aligned;
    Fiber fiber([&] {
        aligned.push_back(stackIsAligned(3.25));
        for (int i = 0; i < 3; ++i) {
            Fiber::yield();
            aligned.push_back(stackIsAligned(3.25));
        }
    }, 64 * 1024);
    while (!fiber.finished()) {
        fiber.resume();
    }
    EXPECT_EQ(aligned, std::vector<bool>(4, true));
}

} // namespace
} // namespace sim
} // namespace plus
