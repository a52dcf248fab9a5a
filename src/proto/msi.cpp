#include "proto/msi.hpp"

#include <cassert>

#include "check/hooks.hpp"

namespace lrc::proto {

using cache::LineState;
using mesh::Message;
using mesh::MsgKind;

namespace {
// InvalAck tag: the former owner confirms a 3-hop dirty transfer completed
// (data went straight to the requester; the home only updates state).
constexpr std::uint64_t kTagOwnershipXfer = 16;
// InvalAck tag: a forward found no copy at the believed owner (the copy was
// lost without a writeback — e.g. granted exclusivity to a silently evicted
// read-only line). The home serves the requester from memory, which is
// current: any dirty writeback from that owner precedes this NACK in the
// per-pair FIFO.
constexpr std::uint64_t kTagFwdNack = 32;
}  // namespace

MsiBase::MsiBase(core::Machine& m) : ProtocolBase(m) {
  m_.sync().on_lock_granted = [this](NodeId p, SyncId, Cycle t) {
    set_sync_done(p, true);
    m_.cpu(p).poke(t);
  };
  m_.sync().on_barrier_released = [this](NodeId p, SyncId, Cycle t) {
    set_sync_done(p, true);
    m_.cpu(p).poke(t);
  };
}

// ---- CPU side --------------------------------------------------------------

CpuOp MsiBase::cpu_read(core::Cpu& cpu, Addr a, std::uint32_t bytes) {
  const NodeId p = cpu.id();
  const LineId line = line_of(a);
  auto& cache = cpu.dcache();

  while (true) {
    if (cache.lookup(line, cpu.now()) != nullptr) {
      ++cache.stats().read_hits;
      cpu.tick(1 + cache.hit_penalty());
      co_return;
    }
    // Read bypass: a buffered write to the same words satisfies the read.
    if (int s = cpu.wb().find(line); s >= 0) {
      const WordMask need = words_of(a, bytes);
      if ((cpu.wb().slot(s).words & need) == need) {
        ++cache.stats().read_hits;
        cpu.tick(1);
        co_return;
      }
    }
    // An ack-only transaction with the copy gone (evicted mid-upgrade): its
    // completion will fetch the data itself; wait it out, then retry.
    if (cache::OtEntry* e = cpu.ot().find(line);
        e != nullptr && !e->data_pending) {
      while (cpu.ot().find(line) != nullptr) {
        co_await Wait{stats::StallKind::kRead};
      }
      continue;
    }
    break;
  }

  ++cache.stats().read_misses;
  m_.classifier().classify(p, line, word_of(a), /*upgrade=*/false);

  bool created = false;
  cache::OtEntry& e = cpu.ot().get_or_create(line, &created);
  e.cpu_read_waiting = true;
  if (created) {
    e.data_pending = true;
    send(cpu.now(), MsgKind::kReadReq, p, home_of(line, p), line);
  }
  while (true) {
    cache::OtEntry* cur = cpu.ot().find(line);
    if (cur == nullptr || !cur->data_pending) break;
    co_await Wait{stats::StallKind::kRead};
  }
  cpu.tick(1);
}

void MsiBase::start_write_tx(core::Cpu& cpu, LineId line, WordMask words,
                             int wb_slot, bool present_ro) {
  const NodeId p = cpu.id();
  bool created = false;
  cache::OtEntry& e = cpu.ot().get_or_create(line, &created);
  assert(created && "write transaction started while one is in flight");
  e.want_write = true;
  e.wb_slot = wb_slot;
  e.words = words;
  if (present_ro) {
    e.acks_pending = 1;
    send(cpu.now(), MsgKind::kUpgradeReq, p, home_of(line, p), line);
  } else {
    e.data_pending = true;
    send(cpu.now(), MsgKind::kReadExReq, p, home_of(line, p), line);
  }
}

CpuOp Sc::cpu_write(core::Cpu& cpu, Addr a, std::uint32_t bytes) {
  const NodeId p = cpu.id();
  const LineId line = line_of(a);
  const WordMask words = words_of(a, bytes);
  auto& cache = cpu.dcache();

  cache::CacheLine* cl = cache.lookup(line, cpu.now());
  if (cl != nullptr && cl->state == LineState::kReadWrite) {
    ++cache.stats().write_hits;
    commit_write(p, line, words);
    cpu.tick(1 + cache.hit_penalty());
    co_return;
  }

  const bool present_ro = cl != nullptr;
  if (present_ro) {
    ++cache.stats().upgrade_misses;
  } else {
    ++cache.stats().write_misses;
  }
  m_.classifier().classify(p, line, word_of(a), present_ro);

  start_write_tx(cpu, line, words, /*wb_slot=*/-1, present_ro);
  cpu.ot().find(line)->cpu_write_waiting = true;
  while (cpu.ot().find(line) != nullptr) {
    co_await Wait{stats::StallKind::kWrite};
  }
  cpu.tick(1);
}

CpuOp Erc::cpu_write(core::Cpu& cpu, Addr a, std::uint32_t bytes) {
  const NodeId p = cpu.id();
  const LineId line = line_of(a);
  const WordMask words = words_of(a, bytes);
  auto& cache = cpu.dcache();

  while (true) {
    cache::CacheLine* cl = cache.lookup(line, cpu.now());
    if (cl != nullptr && cl->state == LineState::kReadWrite) {
      ++cache.stats().write_hits;
      commit_write(p, line, words);
      cpu.tick(1 + cache.hit_penalty());
      co_return;
    }
    // Coalesce into an in-flight buffered write to the same line.
    if (cpu.wb().find(line) >= 0) {
      cpu.wb().push(line, words);
      if (cache::OtEntry* e = cpu.ot().find(line)) e->words |= words;
      ++cache.stats().write_hits;  // buffered, no new transaction
      cpu.tick(1);
      co_return;
    }
    // A read fetch in flight for this line: wait for it, then retry.
    if (cache::OtEntry* e = cpu.ot().find(line); e != nullptr) {
      while (true) {
        cache::OtEntry* cur = cpu.ot().find(line);
        if (cur == nullptr || !cur->data_pending) break;
        co_await Wait{stats::StallKind::kWrite};
      }
      continue;
    }
    // Need a fresh write-buffer slot.
    const int slot = cpu.wb().push(line, words);
    if (slot < 0) {
      co_await Wait{stats::StallKind::kWrite};  // buffer full; poked on retire
      continue;
    }
    const bool present_ro = cl != nullptr;
    if (present_ro) {
      ++cache.stats().upgrade_misses;
    } else {
      ++cache.stats().write_misses;
    }
    m_.classifier().classify(p, line, word_of(a), present_ro);
    start_write_tx(cpu, line, words, slot, present_ro);
    cpu.tick(1);
    co_return;
  }
}

CpuOp MsiBase::drain(core::Cpu& cpu) {
  while (!cpu.wb().empty() || !cpu.ot().empty()) {
    co_await Wait{stats::StallKind::kSync};
  }
}

CpuOp MsiBase::acquire(core::Cpu& cpu, SyncId s) {
  set_sync_done(cpu.id(), false);
  m_.sync().request_lock(cpu.id(), s, cpu.now());
  while (!sync_done(cpu.id())) co_await Wait{stats::StallKind::kSync};
}

CpuOp MsiBase::release(core::Cpu& cpu, SyncId s) {
  co_await drain(cpu);
  m_.sync().release_lock(cpu.id(), s, cpu.now());
}

CpuOp MsiBase::barrier(core::Cpu& cpu, SyncId s) {
  co_await drain(cpu);
  set_sync_done(cpu.id(), false);
  m_.sync().barrier_arrive(cpu.id(), s, cpu.now());
  while (!sync_done(cpu.id())) co_await Wait{stats::StallKind::kSync};
}

CpuOp MsiBase::finalize(core::Cpu& cpu) { co_await drain(cpu); }

// ---- Common completion helpers ---------------------------------------------

void MsiBase::commit_write(NodeId p, LineId line, WordMask words) {
  cache::CacheLine* cl = m_.cpu(p).dcache().find(line);
  assert(cl != nullptr && cl->state == LineState::kReadWrite);
  cl->dirty |= words;
  m_.classifier().on_write_committed(p, line, words);
}

void MsiBase::do_fill(NodeId p, LineId line, LineState st, Cycle at) {
  // Any line the hierarchy displaces out of the node comes back through
  // evict_victim() below (the machine wires the victim sink there).
  m_.cpu(p).dcache().fill(line, st, at);
  LRCSIM_HOOK(m_, on_fill(p, line));
  m_.classifier().on_fill(p, line);
}

void MsiBase::evict_victim(NodeId p, const cache::CacheLine& victim,
                           Cycle at) {
  LRCSIM_HOOK(m_, on_copy_dropped(p, victim.line));
  m_.classifier().on_copy_lost(p, victim.line, /*coherence=*/false);
  if (victim.dirty != 0) {
    send(at, MsgKind::kWritebackData, p, home_of(victim.line), victim.line,
         line_bytes());
  }
  // Clean evictions are silent in the MSI family (DASH-style): the
  // directory keeps a stale sharer and later invalidations are ack'd
  // without a copy.
}

void MsiBase::unbusy_and_replay(DirEntry& e, Cycle at) {
  e.busy = false;
  e.pending_requester = kInvalidNode;
  e.pending_owner = kInvalidNode;
  e.pending_acks = 0;
  e.pending_mem_done = 0;
  // redeliver() only schedules a RedeliverEvent (no reentrant dispatch), so
  // the queue can be walked in place and then reclaimed.
  e.deferred.for_each(dir_.msg_pool(),
                      [&](const Message& msg) { m_.redeliver(msg, at); });
  e.deferred.clear(dir_.msg_pool());
}

// ---- Message dispatch --------------------------------------------------------

Cycle MsiBase::handle(const Message& msg, Cycle start) {
  switch (msg.kind) {
    case MsgKind::kReadReq:
      return home_read(msg, start);
    case MsgKind::kReadExReq:
    case MsgKind::kUpgradeReq:
      return home_write(msg, start);
    case MsgKind::kWritebackData:
      return home_writeback(msg, start);
    case MsgKind::kSharingWriteback:
      return home_sharing_wb(msg, start);
    case MsgKind::kInvalAck:
      return home_inval_ack(msg, start);
    case MsgKind::kInval:
      return node_inval(msg, start);
    case MsgKind::kFwdReadReq:
    case MsgKind::kFwdReadExReq:
      return node_forward(msg, start);
    case MsgKind::kReadReply:
    case MsgKind::kReadExReply:
    case MsgKind::kFwdDataReply:
      return node_fill(msg, start);
    case MsgKind::kUpgradeAck:
      return node_upgrade_ack(msg, start);
    // proto-lint: unreachable(kWriteReq, kWriteThrough, kEvictNotify,
    //   kInvalNotify, kWriteNotice, kWriteAck, kNoticeAck, kWriteThroughAck
    //   : LRC-family multiple-writer and write-through vocabulary; no MSI
    //   handler ever emits these, so none can arrive here)
    default:
      assert(false && "unexpected message kind in MSI protocol");
      return 1;
  }
}

// ---- Home-side handlers -----------------------------------------------------

Cycle MsiBase::home_read(const Message& msg, Cycle start) {
  const NodeId home = msg.dst;
  const NodeId req = msg.src;
  DirEntry& e = dir_.entry(msg.line);
  if (e.busy) {
    e.deferred.push_back(msg, dir_.msg_pool());
    return 1;
  }
  switch (e.state) {
    case DirState::kUncached:
    case DirState::kShared: {
      e.state = DirState::kShared;
      e.sharers |= proc_bit(req);
      const Cycle mem = dram_line(home, msg.line, start, /*write=*/false);
      send(std::max(mem, start + dir_cost()), MsgKind::kReadReply, home, req,
           msg.line, line_bytes());
      return dir_cost();
    }
    case DirState::kDirty: {
      const NodeId owner = e.owner();
      if (owner == req) {
        // Owner silently lost its copy (clean eviction of a granted-but-
        // unwritten line, or its writeback already arrived — per-pair FIFO
        // guarantees it). Memory is current; demote to Shared.
        e.state = DirState::kShared;
        e.writers = 0;
        e.sharers = proc_bit(req);
        const Cycle mem = dram_line(home, msg.line, start, false);
        send(std::max(mem, start + dir_cost()), MsgKind::kReadReply, home, req,
             msg.line, line_bytes());
        return dir_cost();
      }
      e.busy = true;
      e.pending_requester = req;
      e.pending_owner = owner;
      e.pending_kind = MsgKind::kFwdReadReq;
      send(start + dir_cost(), MsgKind::kFwdReadReq, home, owner, msg.line, 0,
           0, 0, /*requester=*/req);
      return dir_cost();
    }
    // proto-lint: unreachable(kWeak : only the LRC family's multiple-writer
    //   recomputation produces Weak; MSI directories never enter it)
    case DirState::kWeak:
      assert(false && "Weak state unused by MSI protocols");
  }
  return dir_cost();
}

Cycle MsiBase::home_write(const Message& msg, Cycle start) {
  const NodeId home = msg.dst;
  const NodeId req = msg.src;
  DirEntry& e = dir_.entry(msg.line);
  if (e.busy) {
    e.deferred.push_back(msg, dir_.msg_pool());
    return 1;
  }
  // An upgrade only remains an upgrade if the requester still holds a copy.
  const bool upgrade =
      msg.kind == MsgKind::kUpgradeReq && e.is_sharer(req) &&
      e.state == DirState::kShared;

  switch (e.state) {
    case DirState::kUncached: {
      e.state = DirState::kDirty;
      e.sharers = proc_bit(req);
      e.writers = proc_bit(req);
      const Cycle mem = dram_line(home, msg.line, start, false);
      send(std::max(mem, start + dir_cost()), MsgKind::kReadExReply, home, req,
           msg.line, line_bytes());
      return dir_cost();
    }
    case DirState::kShared: {
      const ProcMask targets = e.sharers & ~proc_bit(req);
      if (targets == 0) {
        e.state = DirState::kDirty;
        e.sharers = proc_bit(req);
        e.writers = proc_bit(req);
        if (upgrade) {
          send(start + dir_cost(), MsgKind::kUpgradeAck, home, req, msg.line);
        } else {
          const Cycle mem = dram_line(home, msg.line, start, false);
          send(std::max(mem, start + dir_cost()), MsgKind::kReadExReply, home,
               req, msg.line, line_bytes());
        }
        return dir_cost();
      }
      e.busy = true;
      e.pending_requester = req;
      e.pending_kind = upgrade ? MsgKind::kUpgradeReq : MsgKind::kReadExReq;
      e.pending_acks = static_cast<unsigned>(std::popcount(targets));
      e.pending_mem_done = upgrade ? 0 : dram_line(home, msg.line, start, false);
      for (NodeId t = 0; t < m_.nprocs(); ++t) {
        if (targets & proc_bit(t)) {
          send(start + dir_cost(), MsgKind::kInval, home, t, msg.line);
        }
      }
      return dir_cost();
    }
    case DirState::kDirty: {
      const NodeId owner = e.owner();
      if (owner == req) {
        // Owner lost its copy silently; memory is current (FIFO argument).
        e.sharers = proc_bit(req);
        e.writers = proc_bit(req);
        const Cycle mem = dram_line(home, msg.line, start, false);
        send(std::max(mem, start + dir_cost()), MsgKind::kReadExReply, home,
             req, msg.line, line_bytes());
        return dir_cost();
      }
      e.busy = true;
      e.pending_requester = req;
      e.pending_owner = owner;
      e.pending_kind = MsgKind::kFwdReadExReq;
      send(start + dir_cost(), MsgKind::kFwdReadExReq, home, owner, msg.line,
           0, 0, 0, /*requester=*/req);
      return dir_cost();
    }
    // proto-lint: unreachable(kWeak : only the LRC family's multiple-writer
    //   recomputation produces Weak; MSI directories never enter it)
    case DirState::kWeak:
      assert(false && "Weak state unused by MSI protocols");
  }
  return dir_cost();
}

Cycle MsiBase::home_writeback(const Message& msg, Cycle start) {
  const NodeId home = msg.dst;
  const NodeId writer = msg.src;
  DirEntry& e = dir_.entry(msg.line);
  const Cycle mem = dram_line(home, msg.line, start, /*write=*/true);

  if (e.busy && (e.pending_kind == MsgKind::kFwdReadReq ||
                 e.pending_kind == MsgKind::kFwdReadExReq) &&
      e.pending_owner == writer) {
    // The forward in flight will find nothing at the (ex-)owner; serve the
    // pending requester from the freshly written-back memory.
    const NodeId req = e.pending_requester;
    if (e.pending_kind == MsgKind::kFwdReadReq) {
      e.state = DirState::kShared;
      e.sharers = proc_bit(req);
      e.writers = 0;
      send(std::max(mem, start + dir_cost()), MsgKind::kReadReply, home, req,
           msg.line, line_bytes());
    } else {
      e.state = DirState::kDirty;
      e.sharers = proc_bit(req);
      e.writers = proc_bit(req);
      send(std::max(mem, start + dir_cost()), MsgKind::kReadExReply, home, req,
           msg.line, line_bytes());
    }
    unbusy_and_replay(e, start + dir_cost());
    return dir_cost();
  }

  e.sharers &= ~proc_bit(writer);
  e.writers &= ~proc_bit(writer);
  if (e.sharers == 0) {
    e.state = DirState::kUncached;
  } else if (e.writers == 0 && e.state == DirState::kDirty) {
    e.state = DirState::kShared;
  }
  return dir_cost();
}

Cycle MsiBase::home_sharing_wb(const Message& msg, Cycle start) {
  const NodeId home = msg.dst;
  const NodeId owner = msg.src;
  DirEntry& e = dir_.entry(msg.line);
  dram_line(home, msg.line, start, /*write=*/true);
  require_forward(e, MsgKind::kFwdReadReq, msg);
  e.state = DirState::kShared;
  e.writers = 0;
  e.sharers |= proc_bit(owner) | proc_bit(e.pending_requester);
  unbusy_and_replay(e, start + dir_cost());
  return dir_cost();
}

Cycle MsiBase::home_inval_ack(const Message& msg, Cycle start) {
  DirEntry& e = dir_.entry(msg.line);
  const Cycle cost = params().dir_update_cost;

  if (msg.tag == kTagOwnershipXfer) {
    // 3-hop dirty transfer complete: data went owner -> requester directly.
    require_forward(e, MsgKind::kFwdReadExReq, msg);
    const NodeId req = e.pending_requester;
    e.state = DirState::kDirty;
    e.sharers = proc_bit(req);
    e.writers = proc_bit(req);
    unbusy_and_replay(e, start + cost);
    return cost;
  }

  if (msg.tag == kTagFwdNack) {
    // A forward found nothing at the believed owner. If the writeback race
    // already completed the transaction this is stale — ignore. Otherwise
    // serve the requester from (current) memory.
    if (!e.busy || e.pending_owner != msg.src ||
        (e.pending_kind != MsgKind::kFwdReadReq &&
         e.pending_kind != MsgKind::kFwdReadExReq)) {
      return cost;
    }
    const NodeId req = e.pending_requester;
    const NodeId home = msg.dst;
    const Cycle mem = dram_line(home, msg.line, start, /*write=*/false);
    if (e.pending_kind == MsgKind::kFwdReadReq) {
      e.state = DirState::kShared;
      e.sharers = proc_bit(req);
      e.writers = 0;
      send(std::max(mem, start + cost), MsgKind::kReadReply, home, req,
           msg.line, line_bytes());
    } else {
      e.state = DirState::kDirty;
      e.sharers = proc_bit(req);
      e.writers = proc_bit(req);
      send(std::max(mem, start + cost), MsgKind::kReadExReply, home, req,
           msg.line, line_bytes());
    }
    unbusy_and_replay(e, start + cost);
    return cost;
  }

  assert(e.busy && e.pending_acks > 0);
  if (--e.pending_acks == 0) {
    const NodeId req = e.pending_requester;
    const NodeId home = msg.dst;
    if (e.pending_kind == MsgKind::kUpgradeReq) {
      send(start + cost, MsgKind::kUpgradeAck, home, req, msg.line);
    } else {
      send(std::max(e.pending_mem_done, start + cost), MsgKind::kReadExReply,
           home, req, msg.line, line_bytes());
    }
    e.state = DirState::kDirty;
    e.sharers = proc_bit(req);
    e.writers = proc_bit(req);
    unbusy_and_replay(e, start + cost);
  }
  return cost;
}

// ---- Node-side handlers -----------------------------------------------------

Cycle MsiBase::node_inval(const Message& msg, Cycle start) {
  const NodeId p = msg.dst;
  const Cycle cost = params().write_notice_cost;
  if (m_.cpu(p).dcache().invalidate(msg.line)) {
    m_.classifier().on_copy_lost(p, msg.line, /*coherence=*/true);
  }
  LRCSIM_HOOK(m_, on_copy_dropped(p, msg.line));
  send(start + cost, MsgKind::kInvalAck, p, msg.src, msg.line);
  return cost;
}

Cycle MsiBase::node_forward(const Message& msg, Cycle start) {
  const NodeId p = msg.dst;  // the (believed) owner
  const Cycle cost = params().write_notice_cost;
  auto& cache = m_.cpu(p).dcache();
  cache::CacheLine* cl = cache.find(msg.line);
  if (cl == nullptr) {
    // No copy here (writeback raced ahead, or we were granted exclusivity
    // after silently losing the read-only copy). Tell the home so it can
    // serve the requester from memory.
    send(start + cost, MsgKind::kInvalAck, p, msg.src, msg.line, 0,
         kTagFwdNack);
    return cost;
  }
  if (msg.kind == MsgKind::kFwdReadReq) {
    cl->state = LineState::kReadOnly;
    cl->dirty = 0;
    send(start + cost, MsgKind::kFwdDataReply, p, msg.requester, msg.line,
         line_bytes());
    send(start + cost, MsgKind::kSharingWriteback, p, msg.src, msg.line,
         line_bytes());
  } else {
    cache.invalidate(msg.line);
    LRCSIM_HOOK(m_, on_copy_dropped(p, msg.line));
    m_.classifier().on_copy_lost(p, msg.line, /*coherence=*/true);
    send(start + cost, MsgKind::kFwdDataReply, p, msg.requester, msg.line,
         line_bytes());
    send(start + cost, MsgKind::kInvalAck, p, msg.src, msg.line, 0,
         kTagOwnershipXfer);
  }
  return cost;
}

Cycle MsiBase::node_fill(const Message& msg, Cycle start) {
  const NodeId p = msg.dst;
  auto& cpu = m_.cpu(p);
  cache::OtEntry* e = cpu.ot().find(msg.line);
  if (!e) handler_error(msg, "data reply without outstanding transaction");
  const Cycle fill = bus_fill_cost();
  const Cycle done = start + fill;

  do_fill(p, msg.line, e->want_write ? LineState::kReadWrite
                                     : LineState::kReadOnly,
          done);
  if (e->want_write) {
    WordMask words = e->words;
    if (e->wb_slot >= 0) words = cpu.wb().retire(e->wb_slot).words;
    commit_write(p, msg.line, words);
  }
  e->data_pending = false;
  e->acks_pending = 0;  // exclusivity rides along with the data
  cpu.ot().erase(msg.line);
  cpu.poke(done);
  return fill;
}

Cycle MsiBase::node_upgrade_ack(const Message& msg, Cycle start) {
  const NodeId p = msg.dst;
  auto& cpu = m_.cpu(p);
  const Cycle cost = params().dir_update_cost;
  cache::OtEntry* e = cpu.ot().find(msg.line);
  if (!e) handler_error(msg, "upgrade ack without outstanding transaction");
  cache::CacheLine* cl = cpu.dcache().find(msg.line);
  if (cl == nullptr) {
    // Our read-only copy was evicted while the upgrade was in flight; we
    // now own the line per the directory but hold no data. Fetch it.
    e->acks_pending = 0;
    e->data_pending = true;
    send(start + cost, MsgKind::kReadExReq, p, msg.src, msg.line);
    return cost;
  }
  cl->state = LineState::kReadWrite;
  WordMask words = e->words;
  if (e->wb_slot >= 0) words = cpu.wb().retire(e->wb_slot).words;
  commit_write(p, msg.line, words);
  cpu.ot().erase(msg.line);
  cpu.poke(start + cost);
  return cost;
}

// ---- L1-hit path ----------------------------------------------------------

// The first branch of cpu_read / Sc::cpu_write / Erc::cpu_write, run
// without an op (Protocol::l1_hit).
bool MsiBase::l1_hit(core::Cpu& cpu, Addr a, std::uint32_t bytes,
                     bool write) {
  auto& cache = cpu.dcache();
  const LineId line = line_of(a);
  if (cache.lookup_l1(line, write) == nullptr) return false;
  if (write) {
    ++cache.stats().write_hits;
    commit_write(cpu.id(), line, words_of(a, bytes));
  } else {
    ++cache.stats().read_hits;
  }
  cpu.tick(1);
  return true;
}

}  // namespace lrc::proto
