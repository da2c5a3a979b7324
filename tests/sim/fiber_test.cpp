#include "sim/fiber.hpp"

#include <gtest/gtest.h>

#include <signal.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "sim/page_mapping.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IB12X_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define IB12X_TEST_SANITIZED 1
#endif
#endif

namespace ib12x::sim {
namespace {

TEST(Fiber, StartsOnlyWhenResumed) {
  bool ran = false;
  Fiber f([&] { ran = true; });
  EXPECT_FALSE(f.started());
  EXPECT_FALSE(ran);
  f.resume();
  EXPECT_TRUE(f.started());
  EXPECT_TRUE(f.finished());
  EXPECT_TRUE(ran);
}

TEST(Fiber, YieldAlternatesWithHost) {
  std::vector<int> order;
  Fiber* fp = nullptr;
  Fiber f([&] {
    order.push_back(1);
    fp->yield();
    order.push_back(3);
    fp->yield();
    order.push_back(5);
  });
  fp = &f;
  f.resume();
  order.push_back(2);
  EXPECT_FALSE(f.finished());
  f.resume();
  order.push_back(4);
  f.resume();
  order.push_back(6);
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Fiber, ManyFibersInterleaveIndependently) {
  constexpr int kFibers = 32;
  constexpr int kYields = 8;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> progress(kFibers, 0);
  std::vector<Fiber*> handles(kFibers, nullptr);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&progress, &handles, i] {
      for (int k = 0; k < kYields; ++k) {
        ++progress[static_cast<std::size_t>(i)];
        handles[static_cast<std::size_t>(i)]->yield();
      }
    }));
    handles[static_cast<std::size_t>(i)] = fibers.back().get();
  }
  // Round-robin: every fiber advances one step per sweep, on its own stack.
  for (int k = 0; k <= kYields; ++k) {
    for (auto& f : fibers) {
      if (!f->finished()) f->resume();
    }
  }
  for (int i = 0; i < kFibers; ++i) {
    EXPECT_TRUE(fibers[static_cast<std::size_t>(i)]->finished());
    EXPECT_EQ(progress[static_cast<std::size_t>(i)], kYields);
  }
}

TEST(Fiber, StackSurvivesDeepLocals) {
  // Locals on the fiber stack must keep their values across yields.
  Fiber* fp = nullptr;
  long sum = 0;
  Fiber f([&] {
    long acc = 0;
    int scratch[1024];
    for (int i = 0; i < 1024; ++i) scratch[i] = i;
    for (int i = 0; i < 1024; ++i) {
      acc += scratch[i];
      if (i % 256 == 0) fp->yield();
    }
    sum = acc;
  });
  fp = &f;
  while (!f.finished()) f.resume();
  EXPECT_EQ(sum, 1023L * 1024 / 2);
}

// ---- stack overflow: the guard page below every fiber stack

constexpr std::size_t kSmallStack = 64 * 1024;

/// Never equal to a depth: keeps recurse_forever's base case opaque.
volatile int g_bottom = -1;

/// Recurses until the stack runs out; each frame holds 1 KiB of live
/// locals, less than a page, so the descent cannot step over the guard page.
int recurse_forever(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth == g_bottom) return 0;
  return recurse_forever(depth + 1) + frame[0];
}

#ifndef IB12X_TEST_SANITIZED
/// The guard page the overflowing fiber must fault on: the page directly
/// below its stack, found from the address of a local in its first frame.
std::uintptr_t g_guard_lo = 0;
std::uintptr_t g_guard_hi = 0;

/// Runs on an alternate stack (the fiber's own is exhausted).  A fault in
/// the guard page re-raises SIGSEGV with the default action, so the process
/// dies by that signal; a fault anywhere else exits with status 3.
void on_overflow_segv(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  if (addr < g_guard_lo || addr >= g_guard_hi) std::_Exit(3);
  signal(SIGSEGV, SIG_DFL);  // returning re-runs the faulting store
}

void overflow_fiber_stack() {
  static std::vector<char> alt(64 * 1024);
  stack_t ss{};
  ss.ss_sp = alt.data();
  ss.ss_size = alt.size();
  sigaltstack(&ss, nullptr);
  struct sigaction sa{};
  sa.sa_sigaction = on_overflow_segv;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);

  Fiber f([] {
    const std::size_t page = PageMapping::page_size();
    char top_marker = 0;
    const auto top = (reinterpret_cast<std::uintptr_t>(&top_marker) + page - 1) / page * page;
    g_guard_hi = top - kSmallStack;
    g_guard_lo = g_guard_hi - page;
    (void)recurse_forever(0);
  }, kSmallStack);
  f.resume();
}
#endif

TEST(FiberDeathTest, StackOverflowHitsTheGuardPage) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
#ifdef IB12X_TEST_SANITIZED
  // The sanitizer's own SEGV handler reports the overflow and exits.
  EXPECT_DEATH(
      {
        Fiber f([] { (void)recurse_forever(0); }, kSmallStack);
        f.resume();
      },
      "");
#else
  EXPECT_EXIT(overflow_fiber_stack(), testing::KilledBySignal(SIGSEGV), "");
#endif
}

}  // namespace
}  // namespace ib12x::sim
