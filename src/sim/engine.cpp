#include "sim/engine.hpp"

#include <algorithm>

namespace lrc::sim {

namespace {

// Min-heap ordering for the overflow queue: the heap "top" is the event
// with the smallest (when, seq) — the same total order the ring enforces.
struct OverflowAfter {
  bool operator()(const Event* a, const Event* b) const {
    if (a->when() != b->when()) return a->when() > b->when();
    return a->seq() > b->seq();
  }
};

}  // namespace

Engine::~Engine() {
  // Destroy events still pending (stopped engines, exception unwinds) so
  // pooled/heap event destructors run exactly once.
  drop_pending();
#ifdef LRC_ENGINE_ASAN
  for (auto& slab : slabs_) LRC_UNPOISON(slab.mem.get(), slab.bytes);
#endif
}

void Engine::drop_pending() {
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    for (Event* ev = ring_[i].head; ev != nullptr;) {
      Event* next = ev->next_;
      ev->pending_ = false;
      release(ev);
      ev = next;
    }
    ring_[i].head = ring_[i].tail = nullptr;
    occ_clear(i);
  }
  ring_count_ = 0;
  for (Event* ev : overflow_) {
    ev->pending_ = false;
    release(ev);
  }
  overflow_.clear();
}

void Engine::enqueue(Event* ev, Cycle when) {
  assert(when >= now_ && "cannot schedule events in the past");
  if (when < now_) {
    // Release builds: clamp to now. The event still runs after everything
    // already queued for this cycle (its seq is younger), and the violation
    // is counted so reports can surface the inconsistent timestamp.
    ++stats_.past_violations;
    when = now_;
  }
  ev->when_ = when;
  ev->seq_ = next_seq_++;
  ev->pending_ = true;
  ev->next_ = nullptr;
  if (when - base_ < kBuckets) {
    bucket_append(ev);
    ++ring_count_;
  } else {
    push_overflow(ev);
    ++stats_.overflow_events;
  }
  ++pending_count_;
  if (pending_count_ > stats_.max_pending) stats_.max_pending = pending_count_;
}

void Engine::bucket_append(Event* ev) {
  Bucket& b = ring_[ev->when_ & kBucketMask];
  // Ring invariant: a bucket holds exactly one timestamp (width 1, single
  // lap), and arrivals append in seq order — direct schedules carry ever-
  // increasing seqs, and overflow migration completes before any direct
  // schedule can target the same cycle.
  assert(b.tail == nullptr ||
         (b.tail->when_ == ev->when_ && b.tail->seq_ < ev->seq_));
  if (b.tail != nullptr) {
    b.tail->next_ = ev;
  } else {
    b.head = ev;
    occ_set(ev->when_ & kBucketMask);
  }
  b.tail = ev;
}

void Engine::push_overflow(Event* ev) {
  overflow_.push_back(ev);
  std::push_heap(overflow_.begin(), overflow_.end(), OverflowAfter{});
}

void Engine::migrate_overflow() {
  while (!overflow_.empty() && overflow_.front()->when() - base_ < kBuckets) {
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowAfter{});
    Event* ev = overflow_.back();
    overflow_.pop_back();
    bucket_append(ev);
    ++ring_count_;
  }
}

Event* Engine::pop_min() {
  if (pending_count_ == 0) return nullptr;
  for (;;) {
    if (ring_count_ == 0) {
      // Nothing inside the horizon: jump the scan front to the earliest
      // overflow event instead of walking empty buckets. Common case
      // (sparse far-future schedules): that event is the only one within
      // its lap — pop it straight off the heap. Identical outcome to
      // migrating: the migration would move exactly this event, and the
      // bucket pop would return it immediately.
      Event* front = overflow_.front();
      const std::size_t n = overflow_.size();
      // Smallest `when` among the rest = min over the heap root's children.
      Cycle second = front->when() + kBuckets;  // sentinel: nothing else
      if (n > 1) second = overflow_[1]->when();
      if (n > 2 && overflow_[2]->when() < second) second = overflow_[2]->when();
      if (second - front->when() >= kBuckets) {
        std::pop_heap(overflow_.begin(), overflow_.end(), OverflowAfter{});
        overflow_.pop_back();
        base_ = front->when();
        --pending_count_;
        return front;
      }
      base_ = front->when();
      migrate_overflow();
    }
    Bucket& b = ring_[base_ & kBucketMask];
    if (b.head != nullptr) {
      // Schedule-control hook: with an arbiter installed every ring pop is
      // routed through it. Multi-candidate buckets are the decision points;
      // singleton pops are reported too (pick must return 0 for n == 1) so
      // an explorer can prune sleep-blocked paths. The overflow direct-pop
      // above bypasses this: such an event is alone within a whole lap, so
      // it was never co-enabled with anything and cannot be in a sleep set.
      if (arbiter_ != nullptr) {
        return pop_arbitrated(b);
      }
      Event* ev = b.head;
      b.head = ev->next_;
      if (b.head == nullptr) {
        b.tail = nullptr;
        occ_clear(base_ & kBucketMask);
      }
      --ring_count_;
      --pending_count_;
      return ev;
    }
    // Current bucket empty: jump the scan front to the next occupied
    // bucket, stopping at the overflow trigger — the first base_ value
    // that brings the earliest overflow event inside the horizon — so
    // migration happens at exactly the same scan position as a
    // one-bucket-at-a-time advance would make it (bucket seq order, and
    // therefore pop order, is identical).
    const Cycle next = next_occupied(base_);
    if (!overflow_.empty()) {
      const Cycle trigger = overflow_.front()->when() - (kBuckets - 1);
      if (trigger <= next) {
        base_ = trigger;
        migrate_overflow();
        continue;
      }
    }
    base_ = next;
  }
}

Event* Engine::pop_arbitrated(Bucket& b) {
  arb_cands_.clear();
  for (Event* ev = b.head; ev != nullptr; ev = ev->next_) {
    arb_cands_.push_back(ev);
  }
  const std::size_t idx = arbiter_->pick(
      base_, const_cast<const Event* const*>(arb_cands_.data()),
      arb_cands_.size());
  assert(idx < arb_cands_.size() && "arbiter returned an out-of-range pick");
  Event* ev = arb_cands_[idx];
  // Unlink `ev`; the remaining chain keeps its relative (seq) order, so a
  // pick of index 0 leaves behaviour identical to the default pop.
  if (ev == b.head) {
    b.head = ev->next_;
  } else {
    Event* prev = b.head;
    while (prev->next_ != ev) prev = prev->next_;
    prev->next_ = ev->next_;
    if (b.tail == ev) b.tail = prev;
  }
  if (b.head == nullptr) {
    b.tail = nullptr;
    occ_clear(base_ & kBucketMask);
  }
  --ring_count_;
  --pending_count_;
  return ev;
}

void Engine::run() {
  stopped_ = false;
  while (!stopped_) {
    Event* ev = pop_min();
    if (ev == nullptr) break;
    now_ = ev->when_;
    cur_seq_ = ev->seq_;
    ev->pending_ = false;
    ++stats_.executed;
    ev->fire(now_);
    release(ev);
  }
}

std::size_t Engine::run_some(std::size_t max_events) {
  stopped_ = false;
  std::size_t n = 0;
  while (n < max_events && !stopped_) {
    Event* ev = pop_min();
    if (ev == nullptr) break;
    now_ = ev->when_;
    cur_seq_ = ev->seq_;
    ev->pending_ = false;
    ++stats_.executed;
    ev->fire(now_);
    release(ev);
    ++n;
  }
  return n;
}

void Engine::release(Event* ev) {
  const std::uint8_t slot = ev->slot_;
  if (slot == kExternalSlot) return;
  ev->~Event();
  if (slot == kHeapSlot) {
    ::operator delete(static_cast<void*>(ev));
  } else {
    pool_free(static_cast<void*>(ev), slot);
  }
}

void Engine::refill_pool(unsigned c) {
  const std::size_t slot = kSlotSizes[c];
  Slab slab{std::make_unique<std::byte[]>(slot * kSlotsPerSlab),
            slot * kSlotsPerSlab};
  std::byte* base = slab.mem.get();
  slabs_.push_back(std::move(slab));
  // Chain in address order (LIFO reuse keeps recently-fired slots hot).
  for (std::size_t i = kSlotsPerSlab; i-- > 0;) {
    auto* node = reinterpret_cast<FreeNode*>(base + i * slot);
    node->next = free_[c];
    free_[c] = node;
    LRC_POISON(base + i * slot + sizeof(FreeNode), slot - sizeof(FreeNode));
  }
}

}  // namespace lrc::sim
