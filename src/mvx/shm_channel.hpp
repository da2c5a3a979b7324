// The intra-node shared-memory channel: peers on the same node bypass the
// HCA entirely.  Each direction is a bandwidth server (the modelled shared
// segment) plus a fixed hand-off latency; delivery re-enters the common
// ingress path, so ordering and matching behave exactly like net traffic.
#pragma once

#include "mvx/channel.hpp"
#include "mvx/peer_table.hpp"
#include "mvx/policy.hpp"
#include "mvx/request.hpp"
#include "mvx/telemetry.hpp"
#include "sim/server.hpp"

namespace ib12x::mvx {

class Endpoint;

class ShmChannel {
 public:
  explicit ShmChannel(Endpoint& host);

  /// Connects two channels on the same node (both directions).
  static void connect(ShmChannel& a, ShmChannel& b);

  /// True if `peer` shares this node (and is connected).
  [[nodiscard]] bool accepts(int peer) const;

  /// Starts one message; the pipe is never refused, so it always returns
  /// true.
  bool send(SendContext sc, int peer, CommKind kind, const void* buf, std::int64_t bytes,
            int tag, int ctx, const Request& req);

 private:
  struct Peer {
    ShmChannel* remote = nullptr;
    sim::BandwidthServer pipe;  ///< this → peer direction
  };

  /// Delivery on the receiving side (invoked by the sender's event).
  void deliver(int src, MsgHeader hdr, std::vector<std::byte> payload);

  Endpoint& host_;
  PeerTable<Peer> peers_;
  Counter& sent_;
  Counter& bytes_sent_;
};

}  // namespace ib12x::mvx
