// Shared plumbing for all protocol implementations: message construction,
// address helpers, classifier hooks, and the per-node sync-completion flag
// every protocol uses to block a processor across lock/barrier traffic.
#pragma once

#include <stdexcept>
#include <vector>

#include "core/cpu.hpp"
#include "core/machine.hpp"
#include "proto/directory.hpp"
#include "proto/protocol.hpp"
#include "proto/sync_manager.hpp"

namespace lrc::proto {

/// A handler received a message its preconditions rule out, e.g. a reply
/// with no outstanding transaction. Thrown in every build type in place of
/// an assert, so the failure names the node, the line and the message kind
/// instead of dereferencing a null entry.
class ProtocolError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class ProtocolBase : public Protocol {
 public:
  explicit ProtocolBase(core::Machine& m);

  // Introspection for tests.
  Directory& directory() { return dir_; }

 protected:
  const core::SystemParams& params() const { return m_.params(); }
  std::uint32_t line_bytes() const { return params().line_bytes; }

  LineId line_of(Addr a) const { return m_.amap().line_of(a); }
  NodeId home_of(LineId l) { return m_.amap().home_of_line(l); }
  /// Home resolution on a processor-initiated miss: under the first-touch
  /// policy the first accessor becomes the page's home.
  NodeId home_of(LineId l, NodeId toucher) {
    return m_.amap().home_of_line(l, toucher);
  }
  unsigned word_of(Addr a) const { return m_.amap().word_in_line(a); }
  WordMask words_of(Addr a, std::uint32_t bytes) const {
    return m_.amap().word_mask(a, bytes);
  }

  /// Builds and sends a message at time `t`. Inline: this sits on the
  /// per-message hot path of every protocol.
  void send(Cycle t, mesh::MsgKind kind, NodeId src, NodeId dst, LineId line,
            std::uint32_t payload_bytes = 0, std::uint64_t tag = 0,
            WordMask words = 0, NodeId requester = kInvalidNode) {
    mesh::Message msg;
    msg.kind = kind;
    msg.src = src;
    msg.dst = dst;
    msg.line = line;
    msg.payload_bytes = payload_bytes;
    msg.tag = tag;
    msg.words = words;
    msg.requester = requester;
    m_.nic().send(t, msg);
  }

  /// Cost of moving a full line across the node bus (cache fill).
  Cycle bus_fill_cost() const {
    return ceil_div(line_bytes(), params().bus_bandwidth);
  }

  /// Full-line memory access at `node` starting no earlier than `at`.
  /// Routes through the shared LLC when one is configured (reads that hit
  /// a slice skip DRAM; writes always reach DRAM so LLC copies stay
  /// clean), otherwise straight to DRAM.
  Cycle dram_line(NodeId node, LineId line, Cycle at, bool write) {
    return m_.mem_line(node, line, at, write);
  }

  /// Partial-line write-through to memory (LLC-aware, write-update).
  Cycle mem_write_through(NodeId node, LineId line, Cycle at,
                          std::uint32_t bytes) {
    return m_.mem_partial_write(node, line, at, bytes);
  }

  /// Throws ProtocolError for `msg` at its receiving node; `what` names the
  /// violated precondition.
  [[noreturn]] static void handler_error(const mesh::Message& msg,
                                         const char* what);

  // Per-node flag set by sync-completion callbacks; the blocked fiber's
  // wait loop tests it.
  bool sync_done(NodeId p) const { return sync_done_[p]; }
  void set_sync_done(NodeId p, bool v) { sync_done_[p] = v; }

  core::Machine& m_;
  Directory dir_;

 private:
  std::vector<std::uint8_t> sync_done_;
};

// Message tag bits shared by the protocol implementations.
inline constexpr std::uint64_t kTagNeedData = 1;  // WriteReq wants the line
inline constexpr std::uint64_t kTagWeak = 2;      // reply: line is Weak
inline constexpr std::uint64_t kTagAcked = 4;     // reply carries WriteAck
inline constexpr std::uint64_t kTagNoAck = 8;     // notice needs no ack

}  // namespace lrc::proto
