#include <algorithm>
#include <bit>
#include <cassert>

#include "check/hooks.hpp"
#include "proto/msi.hpp"

namespace lrc::proto {

using cache::LineState;
using mesh::Message;
using mesh::MsgKind;

void ErcWt::send_write_through(NodeId p, LineId line, WordMask words,
                               Cycle at) {
  const auto payload = static_cast<std::uint32_t>(
      std::popcount(words) * mem::AddressMap::kWordBytes);
  mesh::Message msg;
  msg.kind = MsgKind::kWriteThrough;
  msg.src = p;
  msg.dst = home_of(line);
  msg.line = line;
  msg.payload_bytes = payload;
  msg.words = words;
  m_.nic().send(at, msg);
  ++m_.cpu(p).wt_outstanding;
}

void ErcWt::commit_write(NodeId p, LineId line, WordMask words) {
  // Write-through data path: words stream to memory via the coalescing
  // buffer instead of dirtying the cache line. This runs both in fiber
  // context (write hits) and in event context (write-buffer retires), where
  // the processor's local clock may lag the event clock — flushes happen at
  // whichever is current.
  auto& cpu = m_.cpu(p);
  assert(cpu.dcache().find(line) != nullptr);
  if (auto victim = cpu.cb().add(line, words)) {
    send_write_through(p, victim->line, victim->words,
                       std::max(cpu.now(), m_.engine().now()));
  }
  m_.classifier().on_write_committed(p, line, words);
}

void ErcWt::evict_victim(NodeId p, const cache::CacheLine& victim, Cycle at) {
  LRCSIM_HOOK(m_, on_copy_dropped(p, victim.line));
  m_.classifier().on_copy_lost(p, victim.line, /*coherence=*/false);
  // Lines are never dirty; pending words leave through the coalescing
  // buffer instead of a writeback.
  if (auto entry = m_.cpu(p).cb().pop_line(victim.line)) {
    send_write_through(p, victim.line, entry->words, at);
  }
}

void ErcWt::flush_cb(core::Cpu& cpu) {
  while (auto e = cpu.cb().pop()) {
    send_write_through(cpu.id(), e->line, e->words, cpu.now());
  }
}

CpuOp ErcWt::drain(core::Cpu& cpu) {
  while (true) {
    flush_cb(cpu);
    if (cpu.wb().empty() && cpu.ot().empty() && cpu.wt_outstanding == 0 &&
        cpu.cb().empty()) {
      break;
    }
    co_await Wait{stats::StallKind::kSync};
  }
}

CpuOp ErcWt::release(core::Cpu& cpu, SyncId s) {
  co_await drain(cpu);
  m_.sync().release_lock(cpu.id(), s, cpu.now());
}

CpuOp ErcWt::barrier(core::Cpu& cpu, SyncId s) {
  co_await drain(cpu);
  set_sync_done(cpu.id(), false);
  m_.sync().barrier_arrive(cpu.id(), s, cpu.now());
  while (!sync_done(cpu.id())) co_await Wait{stats::StallKind::kSync};
}

CpuOp ErcWt::finalize(core::Cpu& cpu) { co_await drain(cpu); }

Cycle ErcWt::handle(const Message& msg, Cycle start) {
  switch (msg.kind) {
    case MsgKind::kWriteThrough: {
      const Cycle mem =
          mem_write_through(msg.dst, msg.line, start, msg.payload_bytes);
      mesh::Message ack;
      ack.kind = MsgKind::kWriteThroughAck;
      ack.src = msg.dst;
      ack.dst = msg.src;
      ack.line = msg.line;
      m_.nic().send(mem, ack);
      return 1;
    }
    case MsgKind::kWriteThroughAck: {
      auto& cpu = m_.cpu(msg.dst);
      assert(cpu.wt_outstanding > 0);
      --cpu.wt_outstanding;
      cpu.poke(start + 1);
      return 1;
    }
    default:
      return MsiBase::handle(msg, start);
  }
}

}  // namespace lrc::proto
