#include "proto/lrc.hpp"

#include <cassert>

#include "check/hooks.hpp"

namespace lrc::proto {

using cache::LineState;
using mesh::Message;
using mesh::MsgKind;

Lrc::Lrc(core::Machine& m) : ProtocolBase(m), pending_inval_(m.nprocs()) {
  // Acquire-side completion: apply buffered write notices when the grant
  // (or barrier release) reaches the node, overlapped with any notice
  // processing already performed while waiting.
  auto acquire_side = [this](NodeId p, SyncId, Cycle t) {
    Cycle done = apply_invals(p, t);
    done = std::max(done, m_.pp_free_at(p));
    set_sync_done(p, true);
    m_.cpu(p).poke(done);
  };
  m_.sync().on_lock_granted = acquire_side;
  m_.sync().on_barrier_released = acquire_side;
}

// ---- CPU side ----------------------------------------------------------------

CpuOp Lrc::cpu_read(core::Cpu& cpu, Addr a, std::uint32_t bytes) {
  const NodeId p = cpu.id();
  const LineId line = line_of(a);
  auto& cache = cpu.dcache();

  // Lazy reads: a locally cached line is usable even if globally Weak.
  if (cache.lookup(line, cpu.now()) != nullptr) {
    ++cache.stats().read_hits;
    cpu.tick(1 + cache.hit_penalty());
    co_return;
  }
  if (int s = cpu.wb().find(line); s >= 0) {
    const WordMask need = words_of(a, bytes);
    if ((cpu.wb().slot(s).words & need) == need) {
      ++cache.stats().read_hits;
      cpu.tick(1);
      co_return;
    }
  }

  ++cache.stats().read_misses;
  m_.classifier().classify(p, line, word_of(a), /*upgrade=*/false);

  bool created = false;
  cache::OtEntry& e = cpu.ot().get_or_create(line, &created);
  e.cpu_read_waiting = true;
  if (created) {
    e.data_pending = true;
    send(cpu.now(), MsgKind::kReadReq, p, home_of(line, p), line);
  } else if (!e.data_pending) {
    // Ack-only entry with the line gone (evicted while a write-announce was
    // outstanding): fetch the data again. The eviction already removed us
    // from the directory's writer set, so the refetch is a plain read.
    e.data_pending = true;
    e.want_write = false;
    send(cpu.now(), MsgKind::kReadReq, p, home_of(line), line);
  }
  while (true) {
    cache::OtEntry* cur = cpu.ot().find(line);
    if (cur == nullptr || !cur->data_pending) break;
    co_await Wait{stats::StallKind::kRead};
  }
  cpu.tick(1);
}

void Lrc::start_write_req(core::Cpu& cpu, LineId line, bool need_data,
                          int wb_slot, WordMask words) {
  const NodeId p = cpu.id();
  bool created = false;
  cache::OtEntry& e = cpu.ot().get_or_create(line, &created);
  e.want_write = true;
  e.acks_pending += 1;
  e.words |= words;
  if (need_data) {
    e.data_pending = true;
    e.wb_slot = wb_slot;
  }
  send(cpu.now(), MsgKind::kWriteReq, p, home_of(line, p), line, 0,
       need_data ? kTagNeedData : 0, words);
}

CpuOp Lrc::cpu_write(core::Cpu& cpu, Addr a, std::uint32_t bytes) {
  const NodeId p = cpu.id();
  const LineId line = line_of(a);
  const WordMask words = words_of(a, bytes);
  auto& cache = cpu.dcache();

  while (true) {
    cache::CacheLine* cl = cache.lookup(line, cpu.now());
    if (cl != nullptr && cl->state == LineState::kReadWrite) {
      ++cache.stats().write_hits;
      cb_add(cpu, line, words, cpu.now());
      note_local_write(p, line, words);
      cpu.tick(1 + cache.hit_penalty());
      co_return;
    }
    if (cl != nullptr) {
      // Present read-only: announce the write but retire immediately — the
      // multiple-writer protocol needs no ownership, so there is nothing to
      // wait for (this eliminates ERC's write-after-read buffer stalls).
      ++cache.stats().upgrade_misses;
      m_.classifier().classify(p, line, word_of(a), /*upgrade=*/true);
      cl->state = LineState::kReadWrite;
      start_write_req(cpu, line, /*need_data=*/false, -1, words);
      cb_add(cpu, line, words, cpu.now());
      note_local_write(p, line, words);
      cpu.tick(1 + cache.hit_penalty());
      co_return;
    }
    // Absent. Coalesce into a pending buffered write if one exists.
    if (cpu.wb().find(line) >= 0) {
      cpu.wb().push(line, words);
      if (cache::OtEntry* e = cpu.ot().find(line)) e->words |= words;
      ++cache.stats().write_hits;
      cpu.tick(1);
      co_return;
    }
    // A transaction in flight for this line: a data fetch is waited out and
    // retried as an upgrade; an ack-only announce whose line has died is
    // waited to completion before starting fresh.
    if (cache::OtEntry* e0 = cpu.ot().find(line); e0 != nullptr) {
      if (e0->data_pending) {
        while (true) {
          cache::OtEntry* cur = cpu.ot().find(line);
          if (cur == nullptr || !cur->data_pending) break;
          co_await Wait{stats::StallKind::kWrite};
        }
      } else {
        while (cpu.ot().find(line) != nullptr) {
          co_await Wait{stats::StallKind::kWrite};
        }
      }
      continue;
    }
    const int slot = cpu.wb().push(line, words);
    if (slot < 0) {
      co_await Wait{stats::StallKind::kWrite};
      continue;
    }
    ++cache.stats().write_misses;
    m_.classifier().classify(p, line, word_of(a), /*upgrade=*/false);
    start_write_req(cpu, line, /*need_data=*/true, slot, words);
    cpu.tick(1);
    co_return;
  }
}

Cycle Lrc::apply_invals(NodeId p, Cycle at) {
  auto& set = pending_inval_[p];
  if (set.empty()) return at;
#ifdef LRCSIM_CHECK
  // Negative-test mutation: drop the buffered notices instead of applying
  // them. The value oracle must catch the resulting stale reads.
  if (check::active_mutation() == check::Mutation::kSkipAcquireInvalidation) {
    return at;
  }
#endif
  const Cycle cost = set.size() * params().write_notice_cost;
  const Cycle start = m_.pp_claim(p, at, cost);
  const Cycle done = start + cost;
  for (LineId line : set) {
    before_line_death(p, line, done);
    if (m_.cpu(p).dcache().invalidate(line)) {
      m_.classifier().on_copy_lost(p, line, /*coherence=*/true);
    }
    LRCSIM_HOOK(m_, on_copy_dropped(p, line));
    send(done, MsgKind::kInvalNotify, p, home_of(line), line);
  }
  set.clear();
  return done;
}

void Lrc::cb_add(core::Cpu& cpu, LineId line, WordMask words, Cycle at) {
  if (auto victim = cpu.cb().add(line, words)) {
    send_write_through(cpu.id(), victim->line, victim->words, at);
  }
}

void Lrc::send_write_through(NodeId p, LineId line, WordMask words, Cycle at) {
  const auto payload = static_cast<std::uint32_t>(
      std::popcount(words) * mem::AddressMap::kWordBytes);
  send(at, MsgKind::kWriteThrough, p, home_of(line), line, payload, 0, words);
  ++m_.cpu(p).wt_outstanding;
}

void Lrc::do_fill(NodeId p, LineId line, LineState st, Cycle at) {
  m_.cpu(p).dcache().fill(line, st, at);
  LRCSIM_HOOK(m_, on_fill(p, line));
  m_.classifier().on_fill(p, line);
}

void Lrc::evict_victim(NodeId p, const cache::CacheLine& victim, Cycle at) {
  LRCSIM_HOOK(m_, on_copy_dropped(p, victim.line));
  before_line_death(p, victim.line, at);
  if (auto entry = m_.cpu(p).cb().pop_line(victim.line)) {
    send_write_through(p, victim.line, entry->words, at);
  }
  send(at, MsgKind::kEvictNotify, p, home_of(victim.line), victim.line);
  m_.classifier().on_copy_lost(p, victim.line, /*coherence=*/false);
  pending_inval_[p].erase(victim.line);
}

void Lrc::note_local_write(NodeId p, LineId line, WordMask words) {
  m_.classifier().on_write_committed(p, line, words);
}

void Lrc::flush_for_release(core::Cpu&) {}

bool Lrc::drained(core::Cpu& cpu) const {
  return cpu.wb().empty() && cpu.ot().empty() && cpu.wt_outstanding == 0 &&
         cpu.cb().empty();
}

void Lrc::before_line_death(NodeId, LineId, Cycle) {}

CpuOp Lrc::drain_for_release(core::Cpu& cpu) {
  while (true) {
    flush_for_release(cpu);
    while (auto e = cpu.cb().pop()) {
      send_write_through(cpu.id(), e->line, e->words, cpu.now());
    }
    if (drained(cpu)) break;
    co_await Wait{stats::StallKind::kSync};
  }
}

CpuOp Lrc::acquire(core::Cpu& cpu, SyncId s) {
  // Start applying already-buffered notices now; their processing overlaps
  // with the lock-grant latency (§2 of the paper). The ablation knob
  // lrc_overlap_acquire defers everything to grant time instead.
  if (params().lrc_overlap_acquire) {
    apply_invals(cpu.id(), cpu.now());
  }
  set_sync_done(cpu.id(), false);
  m_.sync().request_lock(cpu.id(), s, cpu.now());
  while (!sync_done(cpu.id())) co_await Wait{stats::StallKind::kSync};
}

CpuOp Lrc::fence(core::Cpu& cpu) {
  // Process all buffered write notices now; the processor waits for the
  // invalidations to complete (acquire semantics without a lock).
  const Cycle done = apply_invals(cpu.id(), cpu.now());
  if (done > cpu.now()) {
    m_.schedule_poke(cpu.id(), done);
    while (cpu.now() < done) co_await Wait{stats::StallKind::kSync};
  }
}

CpuOp Lrc::release(core::Cpu& cpu, SyncId s) {
  co_await drain_for_release(cpu);
  m_.sync().release_lock(cpu.id(), s, cpu.now());
}

CpuOp Lrc::barrier(core::Cpu& cpu, SyncId s) {
  co_await drain_for_release(cpu);
  set_sync_done(cpu.id(), false);
  m_.sync().barrier_arrive(cpu.id(), s, cpu.now());
  while (!sync_done(cpu.id())) co_await Wait{stats::StallKind::kSync};
}

CpuOp Lrc::finalize(core::Cpu& cpu) { co_await drain_for_release(cpu); }

// ---- Message dispatch ----------------------------------------------------------

Cycle Lrc::handle(const Message& msg, Cycle start) {
  switch (msg.kind) {
    case MsgKind::kReadReq:
      return home_read(msg, start);
    case MsgKind::kWriteReq:
      return home_write_req(msg, start);
    case MsgKind::kNoticeAck:
      return home_notice_ack(msg, start);
    case MsgKind::kEvictNotify:
    case MsgKind::kInvalNotify:
      return home_membership_update(msg, start);
    case MsgKind::kWriteThrough:
      return home_write_through(msg, start);
    case MsgKind::kWriteNotice:
      return node_write_notice(msg, start);
    case MsgKind::kWriteAck:
      return node_write_ack(msg, start);
    case MsgKind::kReadReply:
    case MsgKind::kReadExReply:
      return node_fill(msg, start);
    case MsgKind::kWriteThroughAck:
      return node_wt_ack(msg, start);
    // proto-lint: unreachable(kReadExReq, kUpgradeReq, kWritebackData,
    //   kSharingWriteback, kInval, kFwdReadReq, kFwdReadExReq, kFwdDataReply,
    //   kInvalAck, kUpgradeAck : exclusive-ownership vocabulary of the MSI
    //   family; LRC never acquires ownership or forwards, so none is emitted)
    default:
      assert(false && "unexpected message kind in LRC protocol");
      return 1;
  }
}

// ---- Home side ------------------------------------------------------------------

unsigned Lrc::send_notices(DirEntry& e, LineId line, NodeId home,
                           NodeId except, Cycle at) {
  const ProcMask targets = e.sharers & ~e.notified & ~proc_bit(except);
  unsigned n = 0;
  for (NodeId t = 0; t < m_.nprocs(); ++t) {
    if (targets & proc_bit(t)) {
      send(at, MsgKind::kWriteNotice, home, t, line);
      ++n;
    }
  }
  e.notified |= targets;
  e.notices_outstanding += n;
  return n;
}

Cycle Lrc::home_read(const Message& msg, Cycle start) {
  const NodeId home = msg.dst;
  const NodeId req = msg.src;
  DirEntry& e = dir_.entry(msg.line);
  const Cycle cost = params().lrc_dir_cost;
  std::uint64_t tag = 0;

  switch (e.state) {
    case DirState::kUncached:
      e.state = DirState::kShared;
      break;
    case DirState::kShared:
      break;
    case DirState::kDirty:
      if (e.owner() != req) {
        // Footnote 1: a read can push a Dirty line Weak; the current writer
        // gets the extra notice. The home never forwards — memory's copy is
        // sufficient because no synchronization separates the write from
        // this read (true sharing is not occurring).
        e.state = DirState::kWeak;
        e.sharers |= proc_bit(req);
        send_notices(e, msg.line, home, req, start + cost);
        tag = kTagWeak;
      }
      break;
    case DirState::kWeak:
      tag = kTagWeak;
      break;
  }
  e.sharers |= proc_bit(req);
  if (tag & kTagWeak) e.notified |= proc_bit(req);
  const Cycle mem = dram_line(home, msg.line, start, /*write=*/false);
  send(std::max(mem, start + cost), MsgKind::kReadReply, home, req, msg.line,
       line_bytes(), tag);
  return cost;
}

Cycle Lrc::home_write_req(const Message& msg, Cycle start) {
  const NodeId home = msg.dst;
  const NodeId writer = msg.src;
  DirEntry& e = dir_.entry(msg.line);
  const Cycle cost = params().lrc_dir_cost;
  const bool need_data = (msg.tag & kTagNeedData) != 0;

  e.sharers |= proc_bit(writer);
  e.writers |= proc_bit(writer);
  if (e.sharer_count() == 1) {
    e.state = DirState::kDirty;
  } else {
    e.state = DirState::kWeak;
    send_notices(e, msg.line, home, writer, start + cost);
  }

  // The writer's release depends on every notice outstanding right now —
  // its own plus any earlier ones whose sharers are not yet informed — but
  // never on notices later writers will generate.
  const unsigned depends = e.notices_outstanding;
  const bool weak = e.state == DirState::kWeak;
  std::uint64_t tag = weak ? kTagWeak : 0;
  if (weak) e.notified |= proc_bit(writer);

  if (need_data) {
    const Cycle mem = dram_line(home, msg.line, start, /*write=*/false);
    if (depends > 0) {
      e.collections.push_back({writer, depends}, dir_.col_pool());
    } else {
      tag |= kTagAcked;
    }
    send(std::max(mem, start + cost), MsgKind::kReadExReply, home, writer,
         msg.line, line_bytes(), tag);
  } else {
    if (depends > 0) {
      e.collections.push_back({writer, depends}, dir_.col_pool());
    } else {
      send(start + cost, MsgKind::kWriteAck, home, writer, msg.line, 0, tag);
    }
  }
  return cost;
}

Cycle Lrc::home_notice_ack(const Message& msg, Cycle start) {
  DirEntry& e = dir_.entry(msg.line);
  const NodeId home = msg.dst;
  const Cycle cost = params().dir_update_cost;
  assert(e.notices_outstanding > 0);
  --e.notices_outstanding;
  const std::uint64_t tag = e.state == DirState::kWeak ? kTagWeak : 0;
  e.collections.erase_if(dir_.col_pool(),
                         [&](DirEntry::NoticeCollection& c) {
    if (--c.remaining != 0) return false;
    send(start + cost, MsgKind::kWriteAck, home, c.writer, msg.line, 0, tag);
    if (tag & kTagWeak) e.notified |= proc_bit(c.writer);
    return true;
  });
  return cost;
}

Cycle Lrc::home_membership_update(const Message& msg, Cycle /*start*/) {
  DirEntry& e = dir_.entry(msg.line);
  const NodeId p = msg.src;
  e.sharers &= ~proc_bit(p);
  e.writers &= ~proc_bit(p);
  e.notified &= ~proc_bit(p);
#ifdef LRCSIM_CHECK
  // Schedule-dependent negative-test mutation: a membership update that
  // lost a same-cycle arrival race skips the state recomputation, leaving
  // the entry's state field inconsistent with its masks.
  if (msg.tie_inverted && check::active_mutation() ==
                              check::Mutation::kTieSkipMembershipRecompute) {
    return params().dir_update_cost;
  }
#endif
  e.recompute_lrc_state();
  return params().dir_update_cost;
}

Cycle Lrc::home_write_through(const Message& msg, Cycle start) {
  const Cycle mem =
      mem_write_through(msg.dst, msg.line, start, msg.payload_bytes);
  send(mem, MsgKind::kWriteThroughAck, msg.dst, msg.src, msg.line);
  return 1;
}

// ---- Node side ------------------------------------------------------------------

Cycle Lrc::node_write_notice(const Message& msg, Cycle start) {
  const NodeId p = msg.dst;
  const Cycle cost = params().write_notice_cost;
  const bool buffer_inval =
      m_.cpu(p).dcache().find(msg.line) != nullptr
#ifdef LRCSIM_CHECK
      // Schedule-dependent negative-test mutation: a notice that lost a
      // same-cycle arrival race is acked but its invalidation is dropped.
      && !(msg.tie_inverted && check::active_mutation() ==
                                   check::Mutation::kTieDropWriteNotice)
#endif
      ;
  if (buffer_inval) {
    pending_inval_[p].insert(msg.line);
  }
  if ((msg.tag & kTagNoAck) == 0) {
    send(start + cost, MsgKind::kNoticeAck, p, msg.src, msg.line);
  }
  return cost;
}

Cycle Lrc::node_write_ack(const Message& msg, Cycle start) {
  const NodeId p = msg.dst;
  auto& cpu = m_.cpu(p);
  cache::OtEntry* e = cpu.ot().find(msg.line);
  assert(e != nullptr && "write ack without outstanding transaction");
  assert(e->acks_pending > 0);
  --e->acks_pending;
  if ((msg.tag & kTagWeak) != 0 &&
      cpu.dcache().find(msg.line) != nullptr) {
    pending_inval_[p].insert(msg.line);
  }
  if (e->done()) cpu.ot().erase(msg.line);
  cpu.poke(start + 1);
  return 1;
}

Cycle Lrc::node_fill(const Message& msg, Cycle start) {
  const NodeId p = msg.dst;
  auto& cpu = m_.cpu(p);
  cache::OtEntry* e = cpu.ot().find(msg.line);
  assert(e != nullptr && "data reply without outstanding transaction");
  const Cycle fill = bus_fill_cost();
  const Cycle done = start + fill;

  do_fill(p, msg.line,
          e->want_write ? LineState::kReadWrite : LineState::kReadOnly, done);
  if (e->want_write && e->wb_slot >= 0) {
    const auto entry = cpu.wb().retire(e->wb_slot);
    e->wb_slot = -1;
    cb_add(cpu, msg.line, entry.words, done);
    note_local_write(p, msg.line, entry.words);
  }
  if ((msg.tag & kTagWeak) != 0) pending_inval_[p].insert(msg.line);
  if ((msg.tag & kTagAcked) != 0 && e->acks_pending > 0) --e->acks_pending;
  e->data_pending = false;
  if (e->done()) cpu.ot().erase(msg.line);
  cpu.poke(done);
  return fill;
}

Cycle Lrc::node_wt_ack(const Message& msg, Cycle start) {
  auto& cpu = m_.cpu(msg.dst);
  assert(cpu.wt_outstanding > 0);
  --cpu.wt_outstanding;
  cpu.poke(start + 1);
  return 1;
}

// ---- L1-hit path ----------------------------------------------------------

// The first branch of cpu_read / Lrc::cpu_write / LrcExt::cpu_write, run
// without an op (Protocol::l1_hit).
bool Lrc::l1_hit(core::Cpu& cpu, Addr a, std::uint32_t bytes, bool write) {
  auto& cache = cpu.dcache();
  const LineId line = line_of(a);
  if (cache.lookup_l1(line, write) == nullptr) return false;
  if (write) {
    const WordMask words = words_of(a, bytes);
    ++cache.stats().write_hits;
    cb_add(cpu, line, words, cpu.now());
    note_local_write(cpu.id(), line, words);
  } else {
    ++cache.stats().read_hits;
  }
  cpu.tick(1);
  return true;
}

}  // namespace lrc::proto
