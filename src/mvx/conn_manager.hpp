// Lazy connection manager (the connection-scaling half of the refactor).
//
// MVAPICH-era MPI wired every pair of ranks at MPI_Init: O(ranks²) QPs and
// eager slots across the job, which is exactly the memory wall §2.1 of the
// paper's lineage attacks with SRQ.  This manager instead establishes a
// peer's QPs and rails on first contact — first send or first matched
// receive — through a modelled out-of-band handshake (UD/CM exchange in real
// MVAPICH) of `Config::conn_setup_latency`.
//
// Per peer the state machine is Unconnected → Connecting → Ready and every
// transition is idempotent: simultaneous connects (both sides initiate in
// the same window) resolve because the actual wiring (`wire_fn_`, provided
// by World) wires both endpoints of the pair at once and marks both sides
// Ready; the loser's handshake completion then just flushes.
//
// Sends posted while Connecting are queued FIFO per peer and flushed — in
// order, through the endpoint's send router in event context — when the
// peer turns Ready (`flush_fn_`, provided by Endpoint).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <vector>

#include "mvx/channel.hpp"
#include "mvx/peer_table.hpp"
#include "mvx/policy.hpp"
#include "mvx/request.hpp"
#include "mvx/telemetry.hpp"

namespace ib12x::mvx {

/// One send captured while its peer's handshake is in flight (or parked
/// behind exhausted eager resources).  `buf` stays owned by the MPI caller:
/// eager completion semantics fire only when the send actually dispatches.
struct QueuedSend {
  CommKind kind{};
  const void* buf = nullptr;
  std::int64_t bytes = 0;
  int tag = 0;
  int ctx = 0;
  Request req;
};

class ConnManager {
 public:
  enum class State : std::uint8_t { Unconnected, Connecting, Ready };

  explicit ConnManager(ChannelHost& host);

  ConnManager(const ConnManager&) = delete;
  ConnManager& operator=(const ConnManager&) = delete;

  /// Wires one pair end to end (both sides' QPs and rails) once a
  /// handshake completes; must call mark_ready on both sides' managers.
  void set_wire_fn(std::function<void(int)> fn) { wire_fn_ = std::move(fn); }
  /// Drains a Ready peer's send queue through the send router in event
  /// context.
  void set_flush_fn(std::function<void(int)> fn) { flush_fn_ = std::move(fn); }

  [[nodiscard]] State state(int peer) const;
  [[nodiscard]] bool ready(int peer) const { return state(peer) == State::Ready; }
  [[nodiscard]] bool has_queued(int peer) const;
  [[nodiscard]] std::size_t queued(int peer) const;
  /// Peers with at least one queued send, ascending (deterministic flush
  /// order when a shared resource frees up).
  [[nodiscard]] std::vector<int> queued_peers() const;

  /// Starts the handshake to `peer` unless one is already running or done.
  /// Callable from either process or event context.
  void initiate(int peer);

  /// Transition to Ready (idempotent).  Called by the wire function for both
  /// sides of a freshly wired pair — including the passive side, which may
  /// never have initiated anything.
  void mark_ready(int peer);

  void enqueue(int peer, QueuedSend qs);
  [[nodiscard]] QueuedSend& front(int peer);
  void pop_front(int peer);

 private:
  void complete_handshake(int peer);

  struct PeerConn {
    State st = State::Unconnected;
    std::deque<QueuedSend> q;
  };

  ChannelHost& host_;
  PeerTable<PeerConn> peers_;
  /// Peers whose queue is non-empty, kept ascending by enqueue/pop_front so
  /// queued_peers() costs O(queued), not O(peers).
  std::set<int> queued_;
  int inflight_ = 0;

  Counter& established_;
  Counter& inflight_hwm_;

  std::function<void(int)> wire_fn_;
  std::function<void(int)> flush_fn_;
};

}  // namespace ib12x::mvx
