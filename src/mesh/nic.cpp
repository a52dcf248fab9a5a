#include "mesh/nic.hpp"

#include <algorithm>
#include <cassert>

namespace lrc::mesh {

// Pooled arrival event: messages that finish mesh traversal on one cycle.
// Capacity is sized so the event still fits the engine's largest pool slot.
class Nic::Arrival final : public sim::Event {
 public:
  static constexpr unsigned kCapacity = 3;

  Arrival(Nic& nic, const Message& msg) : nic_(nic) {
    msgs_[count_++] = msg;
    set_mc_actor(msg.dst, /*resumes_fiber=*/false);
    set_mc_src(msg.src);
  }

  bool add(const Message& msg) {
    if (count_ == kCapacity) return false;
    msgs_[count_++] = msg;
    // A batch mixing destinations touches several nodes' sink state.
    if (msg.dst != msgs_[0].dst) set_mc_actor(kNoActor, false);
    if (msg.src != msgs_[0].src) set_mc_src(kNoActor);
    return true;
  }

  void fire(Cycle t) override {
    if (nic_.pending_arrival_ == this) nic_.pending_arrival_ = nullptr;
    for (unsigned i = 0; i < count_; ++i) nic_.arbitrate_sink(msgs_[i], t);
  }

 private:
  Nic& nic_;
  unsigned count_ = 0;
  Message msgs_[kCapacity];
};

// Pooled re-delivery for a message that arrived while the sink endpoint was
// occupied: fires once the endpoint frees up.
class Nic::Delivery final : public sim::Event {
 public:
  Delivery(Nic& nic, const Message& msg) : nic_(nic), msg_(msg) {
    set_mc_actor(msg.dst, /*resumes_fiber=*/false);
    set_mc_src(msg.src);
  }

  void fire(Cycle t) override { nic_.deliver(msg_, t); }

 private:
  Nic& nic_;
  Message msg_;
};

Nic::Nic(sim::Engine& engine, const Topology& topo, NicParams params)
    : engine_(engine),
      topo_(topo),
      params_(params),
      out_free_(topo.nodes(), 0),
      in_free_(topo.nodes(), 0) {
#ifdef LRCSIM_CHECK
  tie_mark_.resize(topo.nodes());
#endif
  static_assert(sizeof(Arrival) <= sim::Engine::kMaxPooledBytes,
                "Arrival must fit a pool slot; shrink kCapacity");
  static_assert(sizeof(Delivery) <= sim::Engine::kMaxPooledBytes);
}

Cycle Nic::uncontended_latency(NodeId src, NodeId dst,
                               std::uint32_t payload_bytes) const {
  const unsigned h = topo_.hops(src, dst);
  Cycle lat = h * (params_.switch_latency + params_.wire_latency);
  if (payload_bytes > 0) lat += ceil_div(payload_bytes, params_.bandwidth);
  return lat;
}

void Nic::send(Cycle when, Message msg) {
  assert(msg.src < topo_.nodes() && msg.dst < topo_.nodes());
  assert(deliver_fn_ && "NIC delivery callback not installed");

  NicStats& st = stats_;
  ++st.messages;
  ++st.per_kind[static_cast<std::size_t>(msg.kind)];
  if (msg.payload_bytes > 0) {
    ++st.data_messages;
    st.payload_bytes += msg.payload_bytes;
  } else {
    ++st.control_messages;
  }

  const Cycle occ = occupancy(msg);

  // Source endpoint: serialize departures.
  const Cycle depart = std::max(when, out_free_[msg.src]);
  st.send_contention += depart - when;
  out_free_[msg.src] = depart + occ;

  // Mesh traversal (uncontended between endpoints, per the paper).
  const Cycle arrive = depart + uncontended_latency(msg.src, msg.dst,
                                                    msg.payload_bytes);

  // Batch onto the previous arrival event when (a) it is still pending for
  // this same cycle and (b) it holds the engine's most recent sequence
  // number. (b) proves no other event was scheduled in between, so the
  // batched messages would have fired back to back anyway — execution
  // order, and therefore timing, is bit-identical to one event per message.
  if (batching_ && pending_arrival_ != nullptr && pending_arrival_->pending() &&
      pending_arrival_->when() == arrive &&
      engine_.last_seq() == pending_arrival_->seq() &&
      pending_arrival_->add(msg)) {
    ++st.batched_arrivals;
    return;
  }
  pending_arrival_ = engine_.schedule_make<Arrival>(arrive, *this, msg);
}

void Nic::arbitrate_sink(const Message& msg, Cycle t) {
  Message m = msg;
#ifdef LRCSIM_CHECK
  // Same-cycle arrival-race watermark (see Message::tie_inverted). The
  // engine fires equal-time arrival events in ascending seq order, so in
  // ordinary runs same-cycle calls here carry non-decreasing current_seq()
  // (a batched Arrival repeats one seq) and the flag stays false. Only a
  // schedule explorer picking a non-default tie order can invert it.
  TieMark& tm = tie_mark_[msg.dst];
  const std::uint64_t seq = engine_.current_seq();
  if (tm.cycle == t) {
    m.tie_inverted = seq < tm.max_seq;
    if (seq > tm.max_seq) tm.max_seq = seq;
  } else {
    tm.cycle = t;
    tm.max_seq = seq;
  }
#endif
  // Sink endpoint: serialize deliveries. The current message is delivered at
  // max(arrival, sink-free); subsequent deliveries wait behind its occupancy.
  const Cycle deliver_at = std::max(t, in_free_[msg.dst]);
  stats_.recv_contention += deliver_at - t;
  in_free_[msg.dst] = deliver_at + occupancy(msg);
  if (deliver_at == t) {
    deliver(m, t);
  } else {
    engine_.schedule_make<Delivery>(deliver_at, *this, m);
  }
}

}  // namespace lrc::mesh
