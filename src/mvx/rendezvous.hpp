// The rendezvous protocol module: RTS → CTS(rkeys) → striped RDMA writes →
// FIN (paper fig. 2's "rendezvous protocol" box plus the striping half of
// the communication scheduler).
//
// Three wire protocols share the module, selected by Config::rndv.protocol
// (the sender's choice rides in the RTS, so mixed configurations interop):
//
//  * WriteRtsCts (default): the four-step RTS / CTS / RDMA-write / FIN above;
//  * ReadRts: the RTS carries the sender's pinned-buffer rkeys, the receiver
//    pulls by striped RDMA Read and answers with a Done control message —
//    one control round-trip fewer on the critical path;
//  * WriteImm: like WriteRtsCts, but the FIN is elided — the last (or only)
//    write is posted with an immediate carrying {vci, receiver cookie}, and
//    the receiver completes straight off that CQE.
//
// With Config::rndv.adaptive the per-message choice moves to RndvPolicy, an
// epsilon-greedy bandit over protocol × stripe width per (peer, size class).
//
// Two pacing variants share the write path, selected by Config::rndv_pipeline:
//
//  * one-shot (legacy, the default): the receiver registers the whole target
//    buffer before replying with a single CTS, and the sender registers its
//    whole buffer before posting every stripe with a full post_cpu each;
//  * pipelined zero-copy: the receiver registers the buffer in
//    rndv_pipeline_chunk pieces and streams one CTS per chunk as its
//    registration completes, the sender registers chunk-by-chunk behind the
//    arriving CTSes, and each chunk's stripes are posted as one
//    doorbell-batched batch (k × wqe_build_cpu + one doorbell_cpu).
//
// Buffer pinning goes through the PinCache (exact-pointer semantics in
// legacy mode, interval lookup + LRU eviction in pipelined mode).  Data and
// control movement go through the NetChannel so rail credits and
// outstanding-byte accounting stay in one place.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "ib/verbs.hpp"
#include "mvx/channel.hpp"
#include "mvx/pin_cache.hpp"
#include "mvx/policy.hpp"
#include "mvx/request.hpp"
#include "mvx/rndv_policy.hpp"
#include "mvx/telemetry.hpp"

namespace ib12x::mvx {

class Endpoint;
class NetChannel;

class Rendezvous {
 public:
  Rendezvous(Endpoint& host, NetChannel& net);
  ~Rendezvous();

  Rendezvous(const Rendezvous&) = delete;
  Rendezvous& operator=(const Rendezvous&) = delete;

  /// Sender entry for bytes >= rndv_threshold: picks the control rail,
  /// claims the sequence number and cookie, and posts the RTS through the
  /// net channel's send core.  In event context it returns false, with the
  /// control cursor restored and nothing claimed, when no credit, bounce
  /// buffer or live rail is available.
  bool send_rts(SendContext sc, int peer, CommKind kind, std::int64_t bytes, int tag, int ctx,
                const Request& req);

  /// Receiver side of a matched RTS: dispatches on the RTS's protocol field.
  /// Write protocols register the buffer and reply CTS; ReadRts pulls the
  /// payload by RDMA Read using the rkeys carried in `payload`.
  void accept(const MsgHeader& rts, const Request& req,
              const std::vector<std::byte>& payload = {});

  /// Control arrival from the net channel (event context): a CTS is
  /// processed once its ctl_cpu has been charged on the message's VCI
  /// progress server; FIN and Done are handled at once.
  void on_ctl(const MsgHeader& hdr, const CtsRkeys& rkeys);
  /// Write-with-imm landed on this receiving rank (WriteImm protocol): the
  /// imm word packs (vci << 28) | receiver_cookie and replaces the FIN.
  void on_imm(std::uint32_t imm_data);
  /// One stripe write completed on the wire (requester CQE, CPU charged).
  void on_write_done(int peer, std::uint64_t req_id);
  /// One stripe write failed (error CQE under fault injection): re-plan it
  /// over the surviving rails and re-post (event context, CPU charged).
  void on_write_failed(int peer, const RndvStripe& st);
  /// One rendezvous read completed / failed (ReadRts; receiver-side CQE).
  void on_read_done(int peer, std::uint64_t req_id);
  void on_read_failed(int peer, const RndvStripe& st);

  /// End-of-run audit: throws std::logic_error, naming this rank and each
  /// non-empty structure with its count, if a cookie, progress record,
  /// protocol ticket or sender pin is still held, or if the pin cache still
  /// has a pinned region.  After a drained run any of these means a
  /// completion was lost.
  void check_settled() const;

  /// One planned RDMA-write stripe (the planning math lives in
  /// mvx::plan_stripes; the alias keeps Rendezvous::Stripe spelling valid
  /// for the stripe-planning tests).
  using Stripe = mvx::Stripe;

 private:
  /// CTS arrival at the sender (event context, CPU already charged).
  void on_cts(const MsgHeader& hdr, const CtsRkeys& rkeys);
  /// FIN arrival at the receiver (event context).
  void on_fin(const MsgHeader& hdr);
  /// Done arrival at the sender (ReadRts; event context).
  void on_done(const MsgHeader& hdr);

  /// Sender-side pipeline state, keyed by sender cookie (only present while
  /// Config::rndv_pipeline is driving the transfer).
  struct SendProgress {
    std::uint32_t chunks_total = 0;
    std::uint32_t cts_seen = 0;
    /// Per-chunk stripes still in flight; an entry disappears when its chunk
    /// fully lands, and the map's size is the live pipeline depth.
    std::map<std::uint32_t, int> chunk_writes;
    std::vector<PinCache::Region*> pins;
  };
  /// Receiver-side pin bookkeeping, keyed by receiver cookie (both modes).
  struct RecvProgress {
    std::vector<PinCache::Region*> pins;
  };
  /// Receiver-side read-rendezvous state, keyed by receiver cookie.  A
  /// separate map — not new RecvProgress fields — so the default protocol's
  /// allocation sizes stay untouched.
  struct ReadProgress {
    int pending = 0;                 ///< read stripes still in flight
    std::uint64_t sender_cookie = 0; ///< echoed in the Done control message
    int peer = -1;
    int vci = 0;
    std::vector<PinCache::Region*> pins;
  };
  /// Sender-side per-message protocol record (adaptive arm + chosen
  /// protocol), keyed by sender cookie.  Only populated when the rendezvous
  /// diversity machinery is active.
  struct SendMeta {
    RndvProto proto = RndvProto::WriteRtsCts;
    int arm = -1;     ///< RndvPolicy arm, -1 for static selection
    int width = 0;    ///< forced stripe width, 0 = policy default
    sim::Time start = 0;
  };
  /// Sender-side WriteImm state, keyed by sender cookie.
  struct ImmState {
    std::uint32_t imm = 0;  ///< (vci << 28) | receiver_cookie
    bool folded = false;    ///< imm rides the single data write itself
    int vci = 0;
    bool posted = false;    ///< trailing imm already on the wire
  };

  /// Splits `bytes` at message offset `base_off` into rail stripes following
  /// the configured policy (even/weighted/adaptive, multi-lane pinning).
  /// Stripe lengths never fall below min_stripe and always sum to `bytes`;
  /// when fewer stripes than rails are cut, the base rail rotates through
  /// the peer's cursor so all rails see load.
  std::vector<Stripe> plan_stripes(int peer, const Request& req, std::int64_t base_off,
                                   std::int64_t bytes);

  /// Sender side of CTS: register, plan stripes and post them.  Legacy mode
  /// covers the whole message; pipelined mode runs once per chunk.
  void start_writes(int peer, const Request& req, const MsgHeader& cts, const CtsRkeys& rkeys);
  void start_chunk_writes(int peer, const Request& req, const MsgHeader& cts,
                          const CtsRkeys& rkeys);
  /// Sends FIN (unless the protocol elided it) and completes the local send.
  void finish_send(int peer, std::uint64_t cookie, const Request& req);
  /// Re-plans a failed stripe over the live rails and posts the pieces; if
  /// no rail is alive, parks itself until the recovery interval elapses.
  void repost_stripe(int peer, const RndvStripe& st);

  /// Picks the protocol (and forced width) for one outgoing rendezvous and
  /// records the SendMeta ticket; WriteRtsCts with everything off.
  RndvProto select_proto(int peer, std::int64_t bytes, const Request& req,
                         std::uint64_t cookie, int* width_out);
  /// Pins the send buffer for a ReadRts RTS and fills raddr/width/rkeys.
  /// Returns the pin cost to charge.
  sim::Time prepare_read_rts(MsgHeader& hdr, const Request& req, std::int64_t bytes, int width,
                             CtsRkeys& rkeys);
  /// Receiver side of a ReadRts RTS: pin, plan read stripes, post the pulls.
  void accept_read(const MsgHeader& rts, const Request& req, const CtsRkeys& rkeys);
  /// Stripe planning over at most `width` rails of the VCI slice (0 = the
  /// legacy full-slice plan), shared by reads and width-forced writes.
  std::vector<Stripe> plan_limited(int peer, int vci, std::int64_t base_off, std::int64_t bytes,
                                   int width);
  /// All read stripes landed: release pins, send Done, complete the receive.
  void finish_read(std::uint64_t rcookie);
  /// Re-plans a failed read stripe over the live rails (receiver side).
  void repost_read(int peer, const RndvStripe& st);
  /// Posts the zero-byte trailing write-with-imm once every data write of a
  /// multi-stripe WriteImm transfer has completed.
  void post_trailing_imm(int peer, std::uint64_t cookie, const Request& req, const ImmState& im);
  /// Feeds the adaptive policy the observed completion time and drops the
  /// SendMeta ticket.  No-op when the machinery is off.
  void record_policy(std::uint64_t cookie, const Request& req);

  std::uint64_t new_cookie(const Request& req);
  Request take_cookie(std::uint64_t id);
  Request peek_cookie(std::uint64_t id);

  Endpoint& host_;
  NetChannel& net_;

  std::unique_ptr<PinCache> pin_cache_;
  std::map<std::uint64_t, Request> outstanding_;
  std::map<std::uint64_t, SendProgress> send_progress_;
  /// Chunks whose CTS has been processed, keyed by sender cookie — replayed
  /// CTSes (fault-injection retries of control messages that did arrive) are
  /// dropped here.  Kept out of SendProgress, and only touched under fault
  /// injection, so fault-free allocation sizes are unchanged.
  std::map<std::uint64_t, std::set<std::uint32_t>> chunks_seen_;
  std::map<std::uint64_t, RecvProgress> recv_progress_;
  std::map<std::uint64_t, PinCache::Region*> send_pins_;  ///< legacy-mode sender pins
  /// Protocol-diversity state: all empty (and never touched) while the
  /// default static WriteRtsCts configuration runs.
  std::map<std::uint64_t, ReadProgress> read_progress_;
  std::map<std::uint64_t, SendMeta> send_meta_;
  std::map<std::uint64_t, ImmState> imm_state_;
  std::unique_ptr<RndvPolicy> policy_;  ///< only with Config::rndv.adaptive
  bool rndv_active_ = false;  ///< adaptive or a non-default static protocol
  std::uint64_t next_cookie_ = 1;

  Counter& rts_sent_;
  Counter& bytes_sent_;
  Counter& stripes_posted_;
  Counter& reg_hits_;
  Counter& reg_misses_;
  Counter& reg_evictions_;
  Counter& cts_chunks_;
  Counter& pipeline_depth_;  ///< high-water mark of chunks in flight (track_max)
  Counter& dup_ctl_dropped_;  ///< replayed CTS/FIN duplicates discarded
  Counter& restriped_;        ///< failed stripes re-planned over live rails

  // Gated counters (null in the default configuration so the telemetry
  // snapshot of legacy runs is unchanged).
  Counter* read_stripes_ = nullptr;    ///< rndv.read_stripes
  Counter* imm_sent_ = nullptr;        ///< rndv.imm_sent (trailing imm posts)
  Counter* imm_folded_ = nullptr;      ///< rndv.imm_folded (imm rode the data write)
  Counter* done_sent_ = nullptr;       ///< rndv.done_sent
  Counter* policy_explore_ = nullptr;  ///< rndv.policy_explore
  Counter* policy_exploit_ = nullptr;  ///< rndv.policy_exploit
};

}  // namespace ib12x::mvx
