// The inter-node network channel: rails (QPs across HCAs × ports), credit-
// based eager flow control over bounce buffers, control-message transport
// for the rendezvous protocol, and the CQE demultiplexers (paper fig. 2's
// "communication scheduler" + "eager protocol" + "completion filter" boxes).
//
// The channel owns everything rail-shaped that used to live tangled in the
// endpoint's PeerConn: per-peer rail vectors, credits, the round-robin
// cursor, the pending-control queue, the shared bounce pool, and the SRQ
// with its pooled eager receive slots per local HCA.  Rendezvous data movement is planned by the
// Rendezvous module but posted through this channel (post_write), so all
// rail accounting stays in one place.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "ib/verbs.hpp"
#include "mvx/channel.hpp"
#include "mvx/peer_table.hpp"
#include "mvx/policy.hpp"
#include "mvx/request.hpp"
#include "mvx/telemetry.hpp"
#include "sim/fifo.hpp"
#include "sim/page_mapping.hpp"

namespace ib12x::mvx {

class Endpoint;

class NetChannel {
 public:
  NetChannel(Endpoint& host, std::vector<ib::Hca*> hcas);
  ~NetChannel();

  /// Connects two channels, driven by the connection manager: creates each
  /// side's peer entry and — once per channel, at its first connection —
  /// the shared send/receive resources (bounce pool; SRQ + pooled eager
  /// arena per local HCA), then wires every VCI's rail set (hcas × ports ×
  /// qps QP pairs per VCI).  VCI v owns the contiguous slice
  /// [v·rails(), (v+1)·rails()) of the flat rail vector.
  static void establish(NetChannel& a, NetChannel& b);

  /// True once `peer` (on another node) is connected.
  [[nodiscard]] bool accepts(int peer) const;

  /// Eager send (bytes < rndv_threshold); larger messages go through the
  /// Rendezvous module, which sends its RTS through the same core
  /// (admit + post_msg).  Returns false only in event context, with the
  /// rail cursor restored and nothing claimed.
  bool send(SendContext sc, int peer, CommKind kind, const void* buf, std::int64_t bytes,
            int tag, int ctx, const Request& req);

  // ---- the send core for sequenced messages (eager and RTS) ----
  //
  // The caller picks `rail` from its cursor, asks admit(), builds the header
  // (claiming the sequence number) only once admitted, then calls post_msg.
  // Claiming the sequence number at dispatch, not when the CPU charge ends,
  // keeps a flushed queue in MPI order whenever its post events run.

  /// Event context's resource gate: true when a credit and a bounce buffer
  /// are free on `rail` — remapped to a live rail of its own VCI slice under
  /// faults — right now.  Always true in process context, which waits in
  /// post_msg instead.
  [[nodiscard]] bool admit(SendContext sc, int peer, int rail, MsgType type) const;

  /// Reserves the credit and bounce buffer on `rail` (after the failover
  /// remap; process context waits for a live rail and then for both), copies
  /// header and payload into the bounce buffer, charges `cpu`, and posts.
  /// A non-null `done` is a buffered eager send, completed once posted.
  void post_msg(SendContext sc, int peer, int rail, const MsgHeader& hdr, const void* payload,
                std::int64_t bytes, sim::Time cpu, const Request& done);

  // ---- services for the Rendezvous module ----

  /// Control-message send from event context: takes credit/bounce if
  /// available, otherwise queues until a credit returns.
  void send_ctl(int peer, const MsgHeader& hdr, const CtsRkeys& rkeys);

  /// Rails per VCI (the schedulable width one message sees); the flat rail
  /// vector holds vci.count × nrails entries.
  [[nodiscard]] int nrails(int peer) const;
  /// Data cursor of one VCI's rail slice (local indices 0..nrails-1).
  [[nodiscard]] RailCursor& cursor(int peer, int vci);
  /// Dedicated round-robin cursor for control traffic (RTS/CTS/FIN) so it
  /// spreads over the rails without disturbing the data cursor.  Only
  /// consulted when Config::rndv_pipeline is on; the legacy protocol keeps
  /// its historical placement (a non-advancing copy of the data cursor).
  [[nodiscard]] RailCursor& ctl_cursor(int peer, int vci);
  /// Per-rail outstanding bytes of one VCI's slice (the gauge the Adaptive
  /// policy balances on), indexed locally 0..nrails-1.
  [[nodiscard]] std::vector<std::int64_t> rail_outstanding(int peer, int vci) const;
  /// Per-rail health mask of one VCI's slice (1 = up).  All-ones unless
  /// fault injection is on.
  [[nodiscard]] std::vector<std::uint8_t> rail_up(int peer, int vci) const;
  /// Flat indices of the currently-up rails in one VCI's slice (may be empty
  /// mid-outage).
  [[nodiscard]] std::vector<int> live_rails(int peer, int vci) const;
  [[nodiscard]] bool fault_enabled() const { return fault_enabled_; }

  void post_write(int peer, const RndvStripe& st);
  /// Posts a chunk's stripes as one doorbell batch: every WQE is built and
  /// appended deferred, then each involved rail's doorbell rings once
  /// (QueuePair::post_send_deferred / ring_doorbell).
  void post_write_batch(int peer, const std::vector<RndvStripe>& sts);

  /// Read-rendezvous: posts one RDMA Read pulling `st.len` bytes from the
  /// sender.  Stripe field roles flip relative to a write — st.src names the
  /// *local destination* slice and st.raddr/st.rkeys the remote source.
  /// Reads consume no responder receive WQE, so no credit is taken.
  void post_read(int peer, const RndvStripe& st);
  void post_read_batch(int peer, const std::vector<RndvStripe>& sts);

  /// Write-imm rendezvous: posts `st` as an RDMA write with immediate `imm`.
  /// The immediate consumes a receive WQE at the responder, so the post takes
  /// an eager credit on a live rail of the stripe's VCI slice; with none
  /// available the post queues and drains when a credit returns.
  void post_write_imm(int peer, const RndvStripe& st, std::uint32_t imm);

  [[nodiscard]] const std::vector<ib::Hca*>& hcas() const { return hcas_; }

 private:
  /// Read access to the eager pools' layout for the tests that check it.
  friend class NetChannelProbe;

  /// A preposted receive slot in one HCA's pool arena; it belongs to no
  /// peer and is recycled through its SRQ after each inbound message.
  struct RecvSlot {
    ib::SharedReceiveQueue* srq = nullptr;  ///< repost target
    std::byte* data = nullptr;
    std::uint32_t len = 0;
    ib::LKey lkey = 0;
    int hca = 0;
  };

  /// The pooled eager receive side of one local HCA — the shared receive
  /// queue, one registered arena of srq_pool_slots slots, and the
  /// batched-replenish state driven by the srq_limit low-watermark event.
  struct HcaPool {
    ib::SharedReceiveQueue* srq = nullptr;
    sim::PageMapping arena;  ///< srq_pool_slots slots (map_slots layout)
    ib::LKey lkey = 0;
    std::vector<RecvSlot*> drained;  ///< consumed slots awaiting batched repost
    bool want_replenish = false;     ///< a limit event fired since the last repost
  };

  /// One rail to one peer: a connected QP plus sender-side credits and the
  /// outstanding-byte gauge the Adaptive policy balances on.
  struct Rail {
    ib::QueuePair* qp = nullptr;
    int hca_index = 0;
    int credits = 0;
    std::int64_t outstanding = 0;
    // ---- failover state (inert unless fault injection is on) ----
    bool up = true;
    bool recovery_scheduled = false;  ///< a try_recover_rail event is pending
    int recovery_polls = 0;           ///< consecutive still-down probes (bounded)
  };

  /// An eager bounce buffer — one slot of bounce_arena_ — registered on its
  /// own in every local HCA domain.
  struct BounceBuf {
    std::byte* data = nullptr;
    ib::LKey lkey[kMaxHcas] = {0, 0, 0, 0};
  };

  /// Per-(peer, VCI) channel state: each VCI has its own cursors and
  /// pending-control queue over its own rail slice.
  struct VciLane {
    RailCursor cursor;
    RailCursor ctl;  ///< control-traffic cursor (rndv_pipeline mode)
    /// Control messages waiting for rail credit (no heap until one waits).
    sim::Fifo<std::pair<MsgHeader, CtsRkeys>> pending_ctl;
  };

  struct Peer {
    std::vector<Rail> rails;  ///< flat, VCI-major: VCI v owns [v·R, (v+1)·R)
    std::vector<VciLane> lanes;  ///< one per VCI
  };

  /// Sender-side context attached to each send WQE via wr_id, drawn from
  /// send_ctx_pool_.  The full stripe descriptor an error CQE needs for
  /// re-planning lives in the inflight_stripe_ side map instead, populated
  /// only when fault injection is on.
  struct SendCtx {
    enum class Kind : std::uint8_t {
      Bounce,
      RndvWrite,
      RndvRead,
      RndvImm,
    } kind = Kind::Bounce;
    int peer = -1;
    int rail = -1;
    int bounce = -1;           // Bounce: index into bounce pool
    std::uint64_t req_id = 0;  // RndvWrite: outstanding request
    std::int64_t bytes = 0;    // outstanding-byte accounting
    int attempts = 0;          // failover replays of this message so far
  };

  /// An eager/ctl message whose retry found no usable rail; drained when a
  /// rail recovers.
  struct PendingRetry {
    int peer = -1;
    int bounce = -1;
    std::int64_t bytes = 0;
    int attempts = 0;
  };

  /// A write-imm post waiting for an eager credit; drained when one returns.
  struct PendingImm {
    int peer = -1;
    RndvStripe st;
    std::uint32_t imm = 0;
  };

  Peer& peer(int rank);
  [[nodiscard]] const Peer& peer(int rank) const;

  /// One-time lazy allocation of the shared send/receive resources: the
  /// sender bounce pool and one SRQ + preposted slot arena per local HCA.
  /// Runs at the first establish — a rank that never touches the network
  /// allocates nothing.
  void ensure_net_resources();
  /// Maps `count` eager slots of `slot_bytes` each.  Every slot starts on a
  /// page boundary (slot i at i · slot_stride(slot_bytes)), so a small
  /// message touches one page and an untouched slot costs no memory; under
  /// ASan the padding after each slot is poisoned, as a heap redzone would be.
  static sim::PageMapping map_slots(int count, std::size_t slot_bytes);
  [[nodiscard]] static std::size_t slot_stride(std::size_t slot_bytes) {
    return sim::PageMapping::round_to_pages(slot_bytes);
  }
  /// Wires one more VCI's QP group between two sides' peer entries: the
  /// next hcas × ports × qps rail block is appended to each rail vector.
  static void wire_vci_group(NetChannel& a, NetChannel& b);
  /// Creates one rail QP towards `peer` (bookkeeping only; the caller wires
  /// it to the remote side via ib::Fabric::connect).
  ib::QueuePair& open_rail(int peer, int hca_index, int port);
  /// Per-rail credits: the shared pool (srq_pool_slots spread over every
  /// VCI's rails) capped at eager_credits.
  [[nodiscard]] int rail_credits() const;

  /// SRQ low-watermark machinery: the async limit event marks the pool
  /// wanting a replenish; try_replenish batch-reposts every drained slot and
  /// re-arms once both conditions hold.
  void on_srq_limit(int hca_index);
  void try_replenish(int hca_index);

  /// Reserves a send credit on rail `r` and a bounce buffer, waiting on
  /// progress() until both are free; returns the bounce index.  Never waits
  /// in event context, where admit() has checked both.
  int acquire_bounce_and_credit(Peer& c, int rail);

  /// Copies header + payload into a reserved bounce buffer; returns the
  /// wire length.
  std::int64_t write_bounce(int bounce, const MsgHeader& hdr, const void* payload,
                            std::int64_t bytes);
  /// Posts a filled bounce buffer on `rail`, whose credit the caller has
  /// already taken.  Also replays failed messages (attempts > 0).
  void post_bounce(Peer& c, int peer_rank, int rail, int bounce, std::int64_t wire_bytes,
                   int attempts);
  /// A SendCtx from the pool, initialised to `init`; on_send_cqe returns it.
  SendCtx* new_send_ctx(const SendCtx& init);
  /// Builds the SendWr for one rendezvous stripe; deferred WQEs need an
  /// explicit ring_doorbell on the rail's QP afterwards.
  void post_write_impl(Peer& c, int peer_rank, const RndvStripe& st, bool deferred);
  /// Builds the SendWr for one rendezvous read stripe (read-rendezvous).
  void post_read_impl(Peer& c, int peer_rank, const RndvStripe& st, bool deferred);
  void flush_pending_ctl(int peer_rank);
  void flush_pending_imm();

  void on_send_cqe(const ib::Wc& wc);
  void on_recv_cqe(const ib::Wc& wc);

  // ---- failover machinery (reachable only with fault injection on) ----

  /// First up rail at-or-after `rail` within its VCI's slice, wrapping
  /// inside the slice; `rail` itself if none is up.
  [[nodiscard]] int remap_live(const Peer& c, int rail) const;
  [[nodiscard]] bool any_rail_up(const Peer& c, int vci) const;
  /// Blocks the calling process until some rail of VCI `vci` of `c` is up.
  void wait_any_rail_up(const Peer& c, int vci);
  /// Error CQE seen on (peer, rail): mark it down and start the timed
  /// recovery probe.
  void mark_rail_down(int peer_rank, int rail);
  void schedule_recovery(int peer_rank, int rail);
  void try_recover_rail(int peer_rank, int rail);
  /// Replays a failed eager/ctl message (the bounce buffer still holds the
  /// wire image) on a live rail of its own VCI slice — read from the
  /// header — or parks it until one recovers or a credit returns.
  void retry_eager(int peer_rank, int bounce, std::int64_t wire_bytes, int attempts);
  void flush_pending_retries();

  Endpoint& host_;
  std::vector<ib::Hca*> hcas_;

  ib::CompletionQueue scq_;
  ib::CompletionQueue rcq_;

  PeerTable<Peer> peers_;
  std::vector<std::unique_ptr<RecvSlot>> recv_slots_;
  std::vector<HcaPool> pools_;  ///< per local HCA

  sim::PageMapping bounce_arena_;  ///< send_bounce_bufs slots (map_slots layout)
  std::vector<BounceBuf> bounce_;
  std::vector<int> free_bounce_;
  /// Owns every SendCtx, so contexts still in flight when the channel is
  /// torn down (a run aborted mid-transfer) are freed with it.  A deque keeps
  /// wr_id pointers stable as the pool grows.
  std::deque<SendCtx> send_ctx_pool_;
  std::vector<SendCtx*> free_send_ctx_;
  bool resources_ready_ = false;  ///< ensure_net_resources has run

  const bool fault_enabled_;
  /// QP number → (peer rank, rail index): routes error CQEs — which carry
  /// only the qp_num — back to the rail they belong to.
  std::map<ib::QpNum, std::pair<int, int>> qp_rail_;
  /// A vector, not a deque: an empty deque heap-allocates its map block on
  /// construction, and this member must cost nothing when faults are off.
  std::vector<PendingRetry> pending_retry_;
  /// Credit-starved write-imm posts (WriteImm protocol only; empty — and
  /// unallocated — in the default configuration).
  std::vector<PendingImm> pending_imm_;
  /// RndvWrite stripe descriptors for in-flight WQEs, so an error CQE can
  /// hand the write back to the Rendezvous module for re-planning.  Only
  /// populated under fault injection.
  std::map<const SendCtx*, RndvStripe> inflight_stripe_;
  /// SendCtxs whose CQE carried an error status, recorded between the CQE
  /// callback and its deferred CPU processing.  Only populated under fault
  /// injection (the fault-free model produces no error CQEs).
  std::set<const SendCtx*> failed_send_;

  Counter& eager_sent_;
  Counter& ctl_sent_;
  Counter& bytes_sent_;
  Counter& credit_stalls_;
  Counter& rail_up_;         ///< rail activations (connect time)
  Counter& rail_down_;       ///< up → down transitions
  Counter& rail_recovered_;  ///< down → up transitions
  Counter& send_errors_;     ///< error CQEs on the send side
  Counter& recv_flushes_;    ///< flushed receive WQEs (slots back in the pool)
  Counter& eager_retries_;   ///< eager/ctl messages replayed after an error
  Counter& qps_created_;     ///< own-side rail QPs created (conn.qps_created)
  Counter& eager_pool_bytes_;  ///< eager receive-buffer bytes allocated
  Counter& srq_replenishes_;   ///< batched SRQ reposts (low-watermark events served)
  Counter& srq_pool_dry_;      ///< inbound messages stalled on an empty pool
  /// Gated VCI counter (null in the default config so snapshots are
  /// unchanged): per-rail credits after the split across vci.count groups.
  Counter* vci_credit_split_ = nullptr;
};

}  // namespace ib12x::mvx
