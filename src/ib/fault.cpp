#include "ib/fault.hpp"

#include <algorithm>

#include "ib/hca.hpp"

namespace ib12x::ib {

void FaultPlan::add_link_event(sim::Time at, Hca* hca, int port_idx, bool up) {
  events_.push_back(LinkEvent{at, hca, port_idx, up});
}

void FaultPlan::arm(sim::Simulator& sim) {
  // Serial actions: a link event transitions QPs on both ends of every pair
  // crossing the port, which may live on different shards.  The event index
  // orders same-instant events as the unsharded run does (push order).
  for (std::size_t i = 0; i < events_.size(); ++i) {
    sim.post_serial(events_[i].at, i, [this, ev = events_[i]] { apply(ev); });
  }
}

void FaultPlan::enable_sharded_streams(int hca_count) {
  hca_rngs_.clear();
  hca_rngs_.reserve(static_cast<std::size_t>(hca_count));
  for (int uid = 0; uid < hca_count; ++uid) {
    // Splitmix-style decorrelation of the per-HCA seeds from the plan seed.
    hca_rngs_.emplace_back(params_.seed ^
                           (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(uid + 1)));
  }
  sharded_streams_ = true;
}

MsgFault FaultPlan::draw_msg_fault(const Hca& src) {
  if (params_.msg_error_rate <= 0.0) return MsgFault::None;
  sim::Rng& rng =
      sharded_streams_ ? hca_rngs_.at(static_cast<std::size_t>(src.uid())) : rng_;
  if (rng.next_double() >= params_.msg_error_rate) return MsgFault::None;
  injected_errors_.fetch_add(1, std::memory_order_relaxed);
  return rng.next_double() < params_.ack_drop_fraction ? MsgFault::AckDrop : MsgFault::Drop;
}

bool FaultPlan::port_down(const Hca* hca, int port_idx) const {
  return std::find(down_.begin(), down_.end(), std::pair<const Hca*, int>{hca, port_idx}) !=
         down_.end();
}

void FaultPlan::apply(const LinkEvent& ev) {
  const std::pair<const Hca*, int> key{ev.hca, ev.port};
  if (ev.up) {
    auto it = std::find(down_.begin(), down_.end(), key);
    if (it == down_.end()) return;  // spurious up event
    down_.erase(it);
    link_transitions_.fetch_add(1, std::memory_order_relaxed);
    // Re-arm each QP pair, but only once both endpoints' ports are up — a
    // half-recovered link stays unusable until the far side returns too.
    for (QueuePair* qp : ev.hca->port_qps(ev.port)) {
      QueuePair* peer = qp->peer();
      if (peer == nullptr) continue;
      if (port_down(&peer->port().hca(), peer->port().index())) continue;
      qp->reset();
      peer->reset();
    }
    return;
  }
  if (port_down(ev.hca, ev.port)) return;  // already down
  down_.push_back(key);
  link_transitions_.fetch_add(1, std::memory_order_relaxed);
  // Both directions of every RC pair crossing the dead link flush: the local
  // QP because its port died, the peer because its retries will exhaust.
  for (QueuePair* qp : ev.hca->port_qps(ev.port)) {
    qp->transition_to_error();
    QueuePair* peer = qp->peer();
    if (peer != nullptr) peer->transition_to_error();
  }
}

}  // namespace ib12x::ib
