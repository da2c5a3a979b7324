#include "mvx/conn_manager.hpp"

#include <stdexcept>
#include <string>

#include "mvx/endpoint.hpp"

namespace ib12x::mvx {

ConnManager::ConnManager(Endpoint& host)
    : host_(host),
      established_(host.telemetry().counter("conn.established")),
      inflight_hwm_(host.telemetry().counter("conn.handshakes_inflight")) {}

ConnManager::State ConnManager::state(int peer) const {
  const PeerConn* pc = peers_.find(peer);
  return pc == nullptr ? State::Unconnected : pc->st;
}

bool ConnManager::has_queued(int peer) const {
  const PeerConn* pc = peers_.find(peer);
  return pc != nullptr && !pc->q.empty();
}

std::size_t ConnManager::queued(int peer) const {
  const PeerConn* pc = peers_.find(peer);
  return pc == nullptr ? 0 : pc->q.size();
}

std::vector<int> ConnManager::queued_peers() const {
  return {queued_.begin(), queued_.end()};
}

void ConnManager::initiate(int peer) {
  PeerConn& pc = peers_[peer];
  if (pc.st != State::Unconnected) return;
  pc.st = State::Connecting;
  ++inflight_;
  inflight_hwm_.track_max(static_cast<std::uint64_t>(inflight_));
  host_.simulator().after(host_.config().conn_setup_latency,
                          [this, peer] { complete_handshake(peer); });
}

void ConnManager::complete_handshake(int peer) {
  --inflight_;
  PeerConn& pc = peers_[peer];
  if (pc.st == State::Ready) {
    // Simultaneous connect: the peer's handshake landed first and its wire
    // function already built this pair (and marked us Ready).  Nothing to
    // wire — just make sure anything queued meanwhile drains.
    host_.flush_queued(peer);
    return;
  }
  if (!wire_fn_) {
    throw std::logic_error("ConnManager: handshake completed with no wire function");
  }
  // wire_fn_ wires both endpoints of the pair and calls mark_ready on both
  // managers (which flushes this side's queue).
  wire_fn_(peer);
  if (pc.st != State::Ready) {
    throw std::logic_error("ConnManager: wire function left peer " + std::to_string(peer) +
                           " not Ready");
  }
}

void ConnManager::mark_ready(int peer) {
  PeerConn& pc = peers_[peer];
  if (pc.st == State::Ready) return;
  pc.st = State::Ready;
  established_.inc();
  host_.flush_queued(peer);
}

void ConnManager::check_settled() const {
  peers_.for_each([this](int peer, const PeerConn& pc) {
    const std::string who =
        "rank " + std::to_string(host_.rank()) + " -> peer " + std::to_string(peer);
    if (pc.st == State::Connecting) {
      throw std::logic_error("ConnManager: run ended with the handshake " + who +
                             " still Connecting (its completion never ran)");
    }
    if (!pc.q.empty()) {
      throw std::logic_error("ConnManager: run ended with " + std::to_string(pc.q.size()) +
                             " queued send(s) " + who + " never dispatched");
    }
  });
}

void ConnManager::enqueue(int peer, QueuedSend qs) {
  peers_[peer].q.push_back(std::move(qs));
  queued_.insert(peer);
}

QueuedSend& ConnManager::front(int peer) {
  PeerConn* pc = peers_.find(peer);
  if (pc == nullptr || pc->q.empty()) {
    throw std::logic_error("ConnManager: front() on empty queue");
  }
  return pc->q.front();
}

void ConnManager::pop_front(int peer) {
  PeerConn* pc = peers_.find(peer);
  if (pc == nullptr || pc->q.empty()) {
    throw std::logic_error("ConnManager: pop_front() on empty queue");
  }
  pc->q.pop_front();
  if (pc->q.empty()) queued_.erase(peer);
}

}  // namespace ib12x::mvx
