// MVAPICH's adaptive RDMA fast path as a channel: small eager messages are
// RDMA-written into a per-peer ring the receiver polls, bypassing the
// responder's receive-descriptor and CQE processing.  The channel owns the
// rings, staging buffers, and slot credits; the actual write is posted on
// rail 0 through the NetChannel so rail accounting stays in one place.
#pragma once

#include <cstddef>
#include <vector>

#include "ib/verbs.hpp"
#include "mvx/channel.hpp"
#include "mvx/peer_table.hpp"
#include "mvx/telemetry.hpp"

namespace ib12x::mvx {

class NetChannel;

class FastPathChannel final : public Channel {
 public:
  FastPathChannel(ChannelHost& host, NetChannel& net);

  /// Registers the rings between two channels (the addr/rkey exchange
  /// happens out of band at setup; real MVAPICH piggybacks it on connection
  /// establishment).  No-op unless cfg.use_rdma_fast_path.
  static void connect(FastPathChannel& a, FastPathChannel& b);

  /// Accepts small messages while the peer ring has free slots; exhaustion
  /// falls through to the net channel's eager path.
  [[nodiscard]] bool accepts(int peer, std::int64_t bytes) const override;

  bool send(SendContext sc, int peer, CommKind kind, const void* buf, std::int64_t bytes,
            int tag, int ctx, const Request& req) override;

 private:
  struct Peer {
    FastPathChannel* remote = nullptr;
    std::vector<std::byte> recv_ring;   ///< my inbound ring (peer writes here)
    std::vector<std::byte> send_stage;  ///< local staging for in-flight writes
    ib::LKey stage_lkey = 0;
    std::uint64_t raddr = 0;  ///< peer ring base address
    ib::RKey rkey = 0;
    std::size_t slot_bytes = 0;
    int head = 0;     ///< next slot to write
    int credits = 0;  ///< free peer-ring slots
  };

  /// Receiver side: the poll loop noticed a completed write in ring slot
  /// `slot` from `src` (invoked via the write's delivered_cb).
  void arrival(int src, int slot);
  /// Sender side: the receiver drained the slot — credit comes back
  /// (modelled as a piggybacked credit, no wire cost).
  void credit_return(int peer);

  NetChannel& net_;
  PeerTable<Peer> peers_;
  Counter& sent_;
  Counter& bytes_sent_;
};

}  // namespace ib12x::mvx
