// Cooperative user-level fibers. One fiber hosts each simulated processor's
// program; the event engine runs on the main context and resumes fibers
// explicitly. All switching for one simulation happens on one host thread
// (the current-fiber pointer is thread-local, so independent simulations may
// run on different threads concurrently) — each simulation is fully
// deterministic.
//
// On x86-64 the switch is a hand-rolled callee-saved-register swap
// (~20 instructions, no syscall). POSIX swapcontext makes a sigprocmask
// syscall on every switch, and the simulator switches once per processor
// stall — hundreds of thousands of times per run — so this matters.
// Other architectures, and AddressSanitizer builds (where the annotated
// ucontext path is the battle-tested one), fall back to ucontext.
//
// Both paths run on a FiberStack: a lazily committed mapping with a guard
// page below it, so a 64-processor machine keeps resident only the few
// KiB each fiber touches, and a stack overflow faults instead of
// overwriting the heap.
#pragma once

#include <cstddef>
#include <functional>

// AddressSanitizer must be told about stack switches, or its shadow-stack
// bookkeeping misattributes frames and reports false positives.
#if defined(__SANITIZE_ADDRESS__)
#define LRC_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LRC_FIBER_ASAN 1
#endif
#endif

// ThreadSanitizer likewise needs explicit fiber bookkeeping
// (__tsan_create_fiber / __tsan_switch_to_fiber): without it, a stack
// switch looks like one thread's shadow stack teleporting, which corrupts
// TSan's per-thread state and yields bogus reports. TSan has no fake-stack
// machinery, so the fast-switch path stays enabled — only the annotations
// are added around each switch.
#if defined(__SANITIZE_THREAD__)
#define LRC_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LRC_FIBER_TSAN 1
#endif
#endif

#if defined(__x86_64__) && !defined(LRC_FIBER_ASAN)
#define LRC_FIBER_FAST_SWITCH 1
#else
#include <ucontext.h>
#endif

namespace lrc::sim {

/// A fiber's stack: an anonymous private mapping (MAP_NORESERVE), so a page
/// becomes resident only when the fiber first touches it, with one
/// PROT_NONE guard page below the usable range, so running off the bottom
/// raises SIGSEGV. Unmapped on destruction.
class FiberStack {
 public:
  /// Maps `bytes` of stack (rounded up to whole pages) plus the guard page.
  /// Throws std::bad_alloc when the mapping fails.
  explicit FiberStack(std::size_t bytes);
  ~FiberStack();

  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  /// Lowest usable byte; the stack grows down from base() + size().
  char* base() const { return base_; }
  std::size_t size() const { return size_; }

 private:
  void* map_ = nullptr;  // guard page, then the usable range
  std::size_t map_bytes_ = 0;
  char* base_ = nullptr;
  std::size_t size_ = 0;
};

class Fiber {
 public:
  /// Creates a suspended fiber that will run `fn` when first resumed.
  explicit Fiber(std::function<void()> fn, std::size_t stack_bytes = 256 * 1024);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it yields or finishes. Must be called from the
  /// main context (never from inside another fiber).
  void resume();

  /// Suspends the currently running fiber, returning control to the main
  /// context. Must be called from inside a fiber.
  static void yield();

  /// Returns the fiber currently executing, or nullptr on the main context.
  static Fiber* current();

  bool finished() const { return finished_; }

 private:
  static void trampoline();

  std::function<void()> fn_;
  FiberStack stack_;
#ifdef LRC_FIBER_FAST_SWITCH
  void* ctx_sp_ = nullptr;     // suspended fiber's stack pointer
  void* caller_sp_ = nullptr;  // main context's stack pointer while running
#else
  ucontext_t ctx_{};
  ucontext_t caller_{};
#endif
  bool started_ = false;
  bool finished_ = false;

  // AddressSanitizer fiber bookkeeping (unused in plain builds): this
  // fiber's fake-stack handle and the caller stack bounds for yields back.
  void* asan_fake_stack_ = nullptr;
  const void* asan_caller_stack_ = nullptr;
  std::size_t asan_caller_size_ = 0;

  // ThreadSanitizer fiber bookkeeping (unused in plain builds): this
  // fiber's TSan context and the caller thread's context to switch back to.
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace lrc::sim
