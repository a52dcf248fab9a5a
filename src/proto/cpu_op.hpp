// The processor-side protocol entry points (cpu_read, cpu_write, acquire,
// release, barrier, fence, finalize) are C++20 stackless coroutines
// returning a CpuOp; an L1 hit never creates one (Protocol::l1_hit). The
// protocol code keeps its blocking style — `while (!cond) co_await
// Wait{kind};` for `while (!cond) cpu.block(kind);` — with no fiber stack
// needed, so the same protocol code serves two front ends:
//
//   * fiber mode: core::Cpu::drive() runs the op on the workload fiber,
//     translating every Wait suspension into the classic Cpu::block();
//   * trace replay: trace::ReplayCpu resumes the op directly from engine
//     events — no sim::Fiber, no context switch, no per-CPU stack.
//
// Ops nest (`co_await drain(cpu)`) with symmetric transfer: the child body
// starts inside the co_await expression, exactly where the old direct call
// ran, so host-call order — and therefore event order and every golden
// digest — is unchanged. Frames recycle through a thread-local freelist,
// so steady-state ops allocate nothing.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <utility>

#include "stats/counters.hpp"

namespace lrc::proto {

/// Suspension request: the op cannot make progress until the processor is
/// poked; subsequent cycles are charged to `kind`. Always awaited in a
/// `while (!condition)` loop, mirroring the Cpu::block contract.
struct Wait {
  stats::StallKind kind;
};

namespace op_detail {

// Coroutine-frame pool: 64-byte-granule buckets on a thread-local freelist.
// Ops are created, driven, and destroyed by the thread running their
// machine (one per --jobs worker), so no locking is needed; a frame
// abandoned at machine teardown simply migrates to the destroying thread's
// pool. The first op of each shape on a thread takes one global allocation;
// after that the hot path (one frame per access that misses L1) recycles —
// the zero-allocs-per-access gate in bench/micro_trace.cpp pins this.
inline constexpr std::size_t kFrameGranule = 64;
inline constexpr std::size_t kFrameBuckets = 64;  // pooled up to ~4 KiB

struct FreeFrame {
  FreeFrame* next;
};

struct FramePool {
  FreeFrame* buckets[kFrameBuckets] = {};
  ~FramePool() {
    for (FreeFrame*& b : buckets) {
      while (b != nullptr) {
        FreeFrame* n = b->next;
        ::operator delete(b);
        b = n;
      }
    }
  }
};

inline FramePool& frame_pool() {
  static thread_local FramePool pool;
  return pool;
}

// A 16-byte header keeps the frame max_align_t-aligned and remembers the
// bucket (0 = oversize, unpooled).
inline void* frame_alloc(std::size_t n) {
  const std::size_t total = n + 16;
  const std::size_t b = (total + kFrameGranule - 1) / kFrameGranule;
  void* raw;
  if (b >= kFrameBuckets) {
    raw = ::operator new(total);
    *static_cast<std::size_t*>(raw) = 0;
  } else {
    FramePool& pool = frame_pool();
    if (FreeFrame* f = pool.buckets[b]) {
      pool.buckets[b] = f->next;
      raw = f;
    } else {
      raw = ::operator new(b * kFrameGranule);
    }
    *static_cast<std::size_t*>(raw) = b;
  }
  return static_cast<char*>(raw) + 16;
}

inline void frame_free(void* p) {
  void* raw = static_cast<char*>(p) - 16;
  const std::size_t b = *static_cast<std::size_t*>(raw);
  if (b == 0) {
    ::operator delete(raw);
    return;
  }
  FramePool& pool = frame_pool();
  auto* f = static_cast<FreeFrame*>(raw);
  f->next = pool.buckets[b];
  pool.buckets[b] = f;
}

}  // namespace op_detail

/// One in-flight processor-side protocol operation. Created suspended;
/// the driver calls step() until it returns true:
///
///   while (!op.step()) block_until_poked(op.wait_kind());
///
/// step() runs the op up to its next Wait (returning false) or to
/// completion (returning true, destroying the frame on the next reset()/
/// destructor). Exceptions thrown by the op body resurface from step().
class [[nodiscard]] CpuOp {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  // Root-op state shared down the child chain: the leaf coroutine to
  // resume next and the stall category it suspended under.
  struct OpCtx {
    std::coroutine_handle<> current{};
    stats::StallKind wait_kind = stats::StallKind::kSync;
  };

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept {
      // A finished child transfers straight back into its parent's
      // co_await; a finished root returns to the driver.
      if (auto cont = h.promise().cont) return cont;
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  struct promise_type {
    OpCtx root_ctx;           // authoritative for the root op only
    OpCtx* ctx = &root_ctx;   // children point at the root's
    std::coroutine_handle<> cont{};  // parent coroutine (children only)
    std::exception_ptr error{};

    CpuOp get_return_object() { return CpuOp(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { error = std::current_exception(); }

    static void* operator new(std::size_t n) {
      return op_detail::frame_alloc(n);
    }
    static void operator delete(void* p, std::size_t) {
      op_detail::frame_free(p);
    }

    // Only Wait and nested CpuOps are awaitable inside a protocol op.
    auto await_transform(Wait w) {
      struct WaitAwaiter {
        OpCtx* ctx;
        stats::StallKind kind;
        bool await_ready() noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) noexcept {
          ctx->current = h;
          ctx->wait_kind = kind;
        }
        void await_resume() noexcept {}
      };
      return WaitAwaiter{ctx, w.kind};
    }

    auto await_transform(CpuOp child) {
      struct ChildAwaiter {
        CpuOp child;  // owns the child frame; freed in await_resume
        bool await_ready() noexcept { return false; }
        std::coroutine_handle<> await_suspend(
            std::coroutine_handle<>) noexcept {
          return child.h_;  // symmetric transfer: start the child body now
        }
        void await_resume() {
          std::exception_ptr e = child.h_.promise().error;
          child.reset();
          if (e) std::rethrow_exception(e);
        }
      };
      assert(child.h_ && "co_await on a moved-from CpuOp");
      promise_type& cp = child.h_.promise();
      cp.ctx = ctx;
      cp.cont = Handle::from_promise(*this);
      return ChildAwaiter{std::move(child)};
    }
  };

  CpuOp() = default;
  ~CpuOp() { reset(); }

  CpuOp(CpuOp&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  CpuOp& operator=(CpuOp&& o) noexcept {
    if (this != &o) {
      reset();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  CpuOp(const CpuOp&) = delete;
  CpuOp& operator=(const CpuOp&) = delete;

  bool valid() const { return static_cast<bool>(h_); }

  /// Runs until the op suspends (false; see wait_kind()) or completes
  /// (true). Must only be called on a root op.
  bool step() {
    assert(h_ && "step on an empty CpuOp");
    OpCtx& c = h_.promise().root_ctx;
    std::coroutine_handle<> leaf = c.current ? c.current : h_;
    c.current = {};
    leaf.resume();
    if (h_.done()) {
      if (h_.promise().error) {
        std::exception_ptr e = h_.promise().error;
        reset();
        std::rethrow_exception(e);
      }
      return true;
    }
    assert(c.current && "protocol op suspended outside a Wait");
    return false;
  }

  /// Stall category of the pending suspension (valid after step() == false).
  stats::StallKind wait_kind() const {
    return h_.promise().root_ctx.wait_kind;
  }

  /// Destroys the frame (including any suspended child chain).
  void reset() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

 private:
  explicit CpuOp(Handle h) : h_(h) {}

  Handle h_;
};

}  // namespace lrc::proto
