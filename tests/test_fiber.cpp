#include "sim/fiber.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <memory>
#include <vector>

namespace lrc::sim {
namespace {

TEST(Fiber, RunsToCompletionOnResume) {
  int x = 0;
  Fiber f([&] { x = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumeContinues) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::yield();
    trace.push_back(3);
    Fiber::yield();
    trace.push_back(5);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  trace.push_back(4);
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksRunningFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] {
    seen = Fiber::current();
    Fiber::yield();
  });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
  f.resume();
}

TEST(Fiber, ManyInterleavedFibers) {
  constexpr int kFibers = 64;
  constexpr int kRounds = 10;
  std::vector<int> counters(kFibers, 0);
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&counters, i] {
      for (int r = 0; r < kRounds; ++r) {
        ++counters[static_cast<unsigned>(i)];
        Fiber::yield();
      }
    }));
  }
  // Round-robin resume until all complete.
  bool any = true;
  while (any) {
    any = false;
    for (auto& f : fibers) {
      if (!f->finished()) {
        f->resume();
        any = any || !f->finished();
      }
    }
  }
  for (int c : counters) EXPECT_EQ(c, kRounds);
}

TEST(Fiber, DeepStackUsage) {
  // Recursion deep enough to require a real stack but within the 256 KiB
  // default.
  std::function<int(int)> fib = [&](int n) {
    return n < 2 ? n : fib(n - 1) + fib(n - 2);
  };
  int result = 0;
  Fiber f([&] { result = fib(18); });
  f.resume();
  EXPECT_EQ(result, 2584);
}

TEST(Fiber, NestedFunctionCanYield) {
  int stage = 0;
  auto helper = [&stage] {
    stage = 1;
    Fiber::yield();
    stage = 2;
  };
  Fiber f([&] { helper(); });
  f.resume();
  EXPECT_EQ(stage, 1);
  f.resume();
  EXPECT_EQ(stage, 2);
  EXPECT_TRUE(f.finished());
}

// Per-page residency of [p, p + n) (bit 0 of each mincore byte).
std::vector<bool> resident_pages(const char* p, std::size_t n) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((n + page - 1) / page);
  EXPECT_EQ(mincore(const_cast<char*>(p), n, vec.data()), 0);
  std::vector<bool> out;
  for (unsigned char v : vec) out.push_back((v & 1) != 0);
  return out;
}

// The stack is address space until touched: a fresh stack has no resident
// page, and touching the top byte commits exactly the top page.
TEST(FiberStack, UntouchedStackIsNotResident) {
  FiberStack stack(256 * 1024);
  ASSERT_EQ(stack.size(), 256u * 1024u);
  auto pages = resident_pages(stack.base(), stack.size());
  for (std::size_t i = 0; i < pages.size(); ++i) {
    EXPECT_FALSE(pages[i]) << "page " << i;
  }
  stack.base()[stack.size() - 1] = 1;
  pages = resident_pages(stack.base(), stack.size());
  EXPECT_TRUE(pages.back());
  for (std::size_t i = 0; i + 1 < pages.size(); ++i) {
    EXPECT_FALSE(pages[i]) << "page " << i;
  }
}

volatile bool g_stop_dive = false;

// Recurses until the stack runs out; the volatile frame keeps the compiler
// from turning the recursion into a loop.
int dive(int depth) {
  volatile char frame[256];
  frame[0] = static_cast<char>(depth);
  if (g_stop_dive) return depth;
  return dive(depth + 1) + frame[0];
}

// Running off the bottom of a fiber stack hits the guard page and dies,
// instead of overwriting whatever the allocator placed below the stack.
TEST(FiberStack, OverflowHitsGuardPage) {
  EXPECT_DEATH(
      {
        Fiber f([] { dive(0); });
        f.resume();
      },
      "");
  // The byte just below the stack is the guard page itself.
  EXPECT_DEATH(
      {
        FiberStack stack(4096);
        static_cast<volatile char*>(stack.base())[-1] = 1;
      },
      "");
}

}  // namespace
}  // namespace lrc::sim
