#include "mvx/rendezvous.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mvx/endpoint.hpp"
#include "mvx/net_channel.hpp"
#include "sim/log.hpp"

namespace ib12x::mvx {

namespace {

/// Stripe-write req_ids carry the chunk index in the top 16 bits so the
/// completion path can retire pipelined chunks individually; legacy writes
/// use the bare cookie (cookies are sequential and never reach 2^48).
constexpr std::uint64_t kCookieMask = (std::uint64_t{1} << 48) - 1;

std::uint64_t chunk_req_id(std::uint64_t cookie, std::uint32_t chunk) {
  return cookie | (static_cast<std::uint64_t>(chunk) << 48);
}

std::int64_t chunk_bytes(const Config& cfg, std::int64_t total) {
  return cfg.rndv_pipeline_chunk > 0 ? cfg.rndv_pipeline_chunk : total;
}

std::uint32_t chunk_count(const Config& cfg, std::int64_t total) {
  if (total <= 0) return 1;  // zero-byte rendezvous still needs one CTS
  const std::int64_t c = chunk_bytes(cfg, total);
  return static_cast<std::uint32_t>((total + c - 1) / c);
}

}  // namespace

Rendezvous::Rendezvous(Endpoint& host, NetChannel& net)
    : host_(host),
      net_(net),
      rts_sent_(host.telemetry().counter("rndv.rts_sent")),
      bytes_sent_(host.telemetry().counter("rndv.bytes_sent")),
      stripes_posted_(host.telemetry().counter("rndv.stripes_posted")),
      reg_hits_(host.telemetry().counter("rndv.reg_cache_hits")),
      reg_misses_(host.telemetry().counter("rndv.reg_cache_misses")),
      reg_evictions_(host.telemetry().counter("rndv.reg_cache_evictions")),
      cts_chunks_(host.telemetry().counter("rndv.cts_chunks")),
      pipeline_depth_(host.telemetry().counter("rndv.pipeline_depth")),
      dup_ctl_dropped_(host.telemetry().counter("rndv.dup_ctl_dropped")),
      restriped_(host.telemetry().counter("fault.rndv_restriped")) {
  const Config& cfg = host.config();
  PinCache::Options opts;
  opts.interval = cfg.rndv_pipeline;  // legacy mode keeps exact-pointer semantics
  opts.capacity = cfg.reg_cache_capacity;
  opts.hit_cpu = cfg.reg_cache_hit;
  opts.miss_cpu = cfg.reg_cache_miss;
  opts.page_cpu = cfg.reg_page_cpu;
  pin_cache_ = std::make_unique<PinCache>(net.hcas(), opts, reg_hits_, reg_misses_,
                                          reg_evictions_);

  // Protocol diversity: counters and the adaptive policy exist only when the
  // machinery can actually run, so default-configuration telemetry snapshots
  // (and allocation sequences) are unchanged.
  rndv_active_ =
      cfg.rndv.adaptive || cfg.rndv.protocol != Config::RndvConfig::Protocol::WriteRtsCts;
  if (rndv_active_) {
    read_stripes_ = &host.telemetry().counter("rndv.read_stripes");
    imm_sent_ = &host.telemetry().counter("rndv.imm_sent");
    imm_folded_ = &host.telemetry().counter("rndv.imm_folded");
    done_sent_ = &host.telemetry().counter("rndv.done_sent");
  }
  if (cfg.rndv.adaptive) {
    policy_ = std::make_unique<RndvPolicy>(cfg, host.rank(), cfg.rails());
    policy_explore_ = &host.telemetry().counter("rndv.policy_explore");
    policy_exploit_ = &host.telemetry().counter("rndv.policy_exploit");
  }
}

Rendezvous::~Rendezvous() = default;

void Rendezvous::check_settled() const {
  std::string left;
  auto note = [&left](const char* what, std::size_t n) {
    if (n != 0) left += (left.empty() ? "" : ", ") + std::string(what) + " = " + std::to_string(n);
  };
  note("outstanding_", outstanding_.size());
  note("send_progress_", send_progress_.size());
  note("recv_progress_", recv_progress_.size());
  note("read_progress_", read_progress_.size());
  note("send_meta_", send_meta_.size());
  note("imm_state_", imm_state_.size());
  note("chunks_seen_", chunks_seen_.size());
  note("send_pins_", send_pins_.size());
  note("pinned regions in the pin cache", pin_cache_->pinned());
  if (left.empty()) return;
  throw std::logic_error("World::audit: rank " + std::to_string(host_.rank()) +
                         " ended the run with rendezvous state left: " + left);
}

// ----------------------------------------------------------------- cookies

std::uint64_t Rendezvous::new_cookie(const Request& req) {
  std::uint64_t id = next_cookie_++;
  outstanding_[id] = req;
  return id;
}

Request Rendezvous::take_cookie(std::uint64_t id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) {
    throw std::logic_error("Rendezvous: unknown request cookie " + std::to_string(id));
  }
  Request r = it->second;
  outstanding_.erase(it);
  return r;
}

Request Rendezvous::peek_cookie(std::uint64_t id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) {
    throw std::logic_error("Rendezvous: unknown request cookie " + std::to_string(id));
  }
  return it->second;
}

// ------------------------------------------------------ protocol selection

RndvProto Rendezvous::select_proto(int peer, std::int64_t bytes, const Request& req,
                                   std::uint64_t cookie, int* width_out) {
  *width_out = 0;
  if (!rndv_active_) return RndvProto::WriteRtsCts;
  const Config& cfg = host_.config();
  SendMeta meta;
  meta.start = host_.simulator().now();
  if (policy_) {
    const int live = net_.fault_enabled()
                         ? static_cast<int>(net_.live_rails(peer, req->vci).size())
                         : net_.nrails(peer);
    bool explored = false;
    meta.arm = policy_->choose(peer, bytes, live, &explored);
    const RndvArm& arm = policy_->arm(meta.arm);
    meta.proto = arm.proto;
    meta.width = arm.width;
    (explored ? policy_explore_ : policy_exploit_)->inc();
  } else {
    meta.proto = static_cast<RndvProto>(static_cast<std::uint8_t>(cfg.rndv.protocol));
  }
  send_meta_[cookie] = meta;
  *width_out = meta.width;
  return meta.proto;
}

sim::Time Rendezvous::prepare_read_rts(MsgHeader& hdr, const Request& req, std::int64_t bytes,
                                       int width, CtsRkeys& rkeys) {
  // The RTS itself carries everything the receiver needs to pull: the pinned
  // source address (raddr), the per-HCA rkeys (payload), and the adaptive
  // arm's forced stripe width (chunk field; 0 = receiver's choice).
  hdr.chunk = width > 0 ? static_cast<std::uint32_t>(width) : 0;
  sim::Time cost = 0;
  if (bytes > 0) {
    PinCache::Region* reg = pin_cache_->acquire(req->send_buf, bytes, &cost);
    send_pins_[hdr.sender_cookie] = reg;
    for (std::size_t h = 0; h < net_.hcas().size(); ++h) rkeys.rkey[h] = reg->mr[h].rkey;
    hdr.raddr = reinterpret_cast<std::uint64_t>(req->send_buf);
  }
  return cost;
}

void Rendezvous::record_policy(std::uint64_t cookie, const Request& req) {
  if (send_meta_.empty()) return;
  auto it = send_meta_.find(cookie);
  if (it == send_meta_.end()) return;
  if (policy_ && it->second.arm >= 0) {
    policy_->record(req->peer, req->bytes, it->second.arm,
                    host_.simulator().now() - it->second.start);
  }
  send_meta_.erase(it);
}

// ---------------------------------------------------------------- protocol

bool Rendezvous::send_rts(SendContext sc, int peer, CommKind kind, std::int64_t bytes, int tag,
                          int ctx, const Request& req) {
  const Config& cfg = host_.config();
  const int vci = req->vci;
  // Control messages round-robin over the VCI's rail slice; the data
  // schedule is decided at CTS time by the marker-driven policy.  In
  // pipeline mode control traffic owns its own per-(peer, vci) cursor, so
  // RTSes rotate over the rails instead of pinning to wherever the data
  // cursor sits; the legacy protocol rotates a copy of the data cursor and
  // never disturbs it.
  RailCursor legacy_cursor = net_.cursor(peer, vci);
  RailCursor& cur = cfg.rndv_pipeline ? net_.ctl_cursor(peer, vci) : legacy_cursor;
  const RailCursor saved = cur;
  const Schedule s = choose_schedule(Policy::RoundRobin, kind, 0, net_.nrails(peer),
                                     cfg.stripe_threshold, cur);
  const int rail = vci * net_.nrails(peer) + s.rail;
  if (!net_.admit(sc, peer, rail, MsgType::Rts)) {
    cur = saved;  // claims no sequence number or cookie
    return false;
  }

  MsgHeader hdr = host_.sequenced_header(MsgType::Rts, peer, kind, vci, tag, ctx, bytes);
  hdr.sender_cookie = new_cookie(req);
  int width = 0;
  const RndvProto proto = select_proto(peer, bytes, req, hdr.sender_cookie, &width);
  hdr.proto = static_cast<std::uint8_t>(proto);
  CtsRkeys rts_rkeys;
  if (proto == RndvProto::ReadRts) {
    // The pin cost occupies the sender's CPU ahead of the RTS post.
    const sim::Time pin_cost = prepare_read_rts(hdr, req, bytes, width, rts_rkeys);
    if (pin_cost > 0) host_.charge_send_cpu(sc, vci, pin_cost, [] {});
  } else if (cfg.rndv_pipeline) {
    send_progress_[hdr.sender_cookie].chunks_total = chunk_count(cfg, bytes);
  }
  // A ReadRts RTS carries the sender-side rkeys as payload.
  const bool with_rkeys = proto == RndvProto::ReadRts;
  net_.post_msg(sc, peer, rail, hdr, &rts_rkeys,
                with_rkeys ? static_cast<std::int64_t>(sizeof(CtsRkeys)) : 0, cfg.post_cpu,
                /*done=*/nullptr);  // an RTS completes with its transfer, not its post
  rts_sent_.inc();
  bytes_sent_.add(static_cast<std::uint64_t>(bytes));
  return true;
}

void Rendezvous::accept(const MsgHeader& rts, const Request& req,
                        const std::vector<std::byte>& payload) {
  req->status = {rts.src_rank, rts.tag, static_cast<std::int64_t>(rts.size)};
  req->peer = rts.src_rank;

  const Config& cfg = host_.config();
  const int peer = rts.src_rank;
  const std::int64_t total = static_cast<std::int64_t>(rts.size);

  if (rts.proto == static_cast<std::uint8_t>(RndvProto::ReadRts)) {
    // The sender chose the read protocol: its rkeys ride in the RTS payload
    // and the receiver pulls.  WriteRtsCts and WriteImm are receiver-
    // identical (pin + CTS); the imm-vs-FIN difference only shows at
    // completion time.
    CtsRkeys rkeys;
    if (payload.size() >= sizeof(CtsRkeys)) {
      std::memcpy(&rkeys, payload.data(), sizeof(rkeys));
    }
    accept_read(rts, req, rkeys);
    return;
  }

  if (!cfg.rndv_pipeline) {
    // One-shot protocol: pin the whole target buffer, then a single CTS.
    sim::Time cost = 0;
    CtsRkeys rkeys;
    const std::uint64_t rcookie = new_cookie(req);
    if (total > 0) {
      PinCache::Region* reg = pin_cache_->acquire(req->recv_buf, total, &cost);
      recv_progress_[rcookie].pins.push_back(reg);
      for (std::size_t h = 0; h < net_.hcas().size(); ++h) rkeys.rkey[h] = reg->mr[h].rkey;
    }

    MsgHeader cts;
    cts.type = MsgType::Cts;
    cts.vci = rts.vci;  // the reply stays on the message's VCI
    cts.src_rank = host_.rank();
    cts.ctx = rts.ctx;
    cts.size = rts.size;
    cts.sender_cookie = rts.sender_cookie;
    cts.receiver_cookie = rcookie;
    cts.raddr = reinterpret_cast<std::uint64_t>(req->recv_buf);

    host_.schedule_cpu_vci(rts.vci, cost + cfg.ctl_cpu + cfg.post_cpu,
                           [this, peer, cts, rkeys] { net_.send_ctl(peer, cts, rkeys); });
    return;
  }

  // Pipelined protocol: pin the target buffer chunk by chunk, streaming one
  // CTS as each chunk's registration completes.  The schedule_cpu calls
  // serialize on this rank's CPU, so CTS k departs after the cumulative
  // registration cost of chunks 0..k — the sender's first write overlaps the
  // pinning of everything after chunk 0.
  const std::uint64_t rcookie = new_cookie(req);
  RecvProgress& rp = recv_progress_[rcookie];
  const std::int64_t csz = chunk_bytes(cfg, total);
  const std::uint32_t nchunks = chunk_count(cfg, total);
  const std::uint64_t base = reinterpret_cast<std::uint64_t>(req->recv_buf);
  for (std::uint32_t i = 0; i < nchunks; ++i) {
    const std::int64_t off = static_cast<std::int64_t>(i) * csz;
    const std::int64_t len = total > 0 ? std::min<std::int64_t>(csz, total - off) : 0;
    sim::Time cost = (i == 0 ? cfg.ctl_cpu : 0) + cfg.post_cpu;
    CtsRkeys rkeys;
    if (len > 0) {
      PinCache::Region* reg = pin_cache_->acquire(
          reinterpret_cast<const void*>(base + static_cast<std::uint64_t>(off)), len, &cost);
      rp.pins.push_back(reg);
      for (std::size_t h = 0; h < net_.hcas().size(); ++h) rkeys.rkey[h] = reg->mr[h].rkey;
    }

    MsgHeader cts;
    cts.type = MsgType::Cts;
    cts.vci = rts.vci;  // the reply stays on the message's VCI
    cts.src_rank = host_.rank();
    cts.ctx = rts.ctx;
    cts.size = static_cast<std::uint64_t>(len);
    cts.sender_cookie = rts.sender_cookie;
    cts.receiver_cookie = rcookie;
    cts.raddr = base + static_cast<std::uint64_t>(off);
    cts.chunk = i;
    host_.schedule_cpu_vci(rts.vci, cost,
                           [this, peer, cts, rkeys] { net_.send_ctl(peer, cts, rkeys); });
  }
}

// ---------------------------------------------------------- read rendezvous

std::vector<Rendezvous::Stripe> Rendezvous::plan_limited(int peer, int vci,
                                                         std::int64_t base_off,
                                                         std::int64_t bytes, int width) {
  const Config& cfg = host_.config();
  const int nrails = net_.nrails(peer);
  const int base = vci * nrails;
  std::vector<int> cand;
  if (net_.fault_enabled()) cand = net_.live_rails(peer, vci);
  if (cand.empty()) {
    cand.reserve(static_cast<std::size_t>(nrails));
    for (int i = 0; i < nrails; ++i) cand.push_back(base + i);
  }
  if (width > 0 && width < static_cast<int>(cand.size())) {
    // Forced width: keep `width` candidates starting at the lane cursor so
    // successive narrow transfers still rotate over the whole slice.
    RailCursor& cur = net_.cursor(peer, vci);
    std::vector<int> pick;
    pick.reserve(static_cast<std::size_t>(width));
    for (int k = 0; k < width; ++k) {
      pick.push_back(cand[static_cast<std::size_t>((cur.next + k) % static_cast<int>(cand.size()))]);
    }
    cur.next = (cur.next + width) % static_cast<int>(cand.size());
    cand.swap(pick);
  }
  return mvx::plan_stripes(bytes, base_off, cand, cfg.min_stripe, {}, net_.cursor(peer, vci));
}

void Rendezvous::accept_read(const MsgHeader& rts, const Request& req, const CtsRkeys& rkeys) {
  const Config& cfg = host_.config();
  const int peer = rts.src_rank;
  const int vci = rts.vci;
  const std::int64_t total = static_cast<std::int64_t>(rts.size);
  const std::uint64_t rcookie = new_cookie(req);
  ReadProgress& rp = read_progress_[rcookie];
  rp.sender_cookie = rts.sender_cookie;
  rp.peer = peer;
  rp.vci = vci;

  sim::Time cost = cfg.ctl_cpu;
  if (total <= 0) {
    // Zero-byte rendezvous: nothing to pull, straight to Done.
    host_.schedule_cpu_vci(vci, cost, [this, rcookie] { finish_read(rcookie); });
    return;
  }

  PinCache::Region* reg = pin_cache_->acquire(req->recv_buf, total, &cost);
  rp.pins.push_back(reg);
  std::array<ib::LKey, kMaxHcas> lkeys{};
  for (int h = 0; h < kMaxHcas; ++h) lkeys[static_cast<std::size_t>(h)] = reg->mr[h].lkey;

  // rts.chunk carries the sender's forced stripe width (adaptive arm);
  // 0 leaves the cut to this receiver's own policy inputs.
  std::vector<Stripe> stripes = plan_limited(peer, vci, 0, total, static_cast<int>(rts.chunk));
  if (stripes.empty()) stripes.push_back({vci * net_.nrails(peer), 0, total});
  rp.pending = static_cast<int>(stripes.size());
  if (read_stripes_ != nullptr) read_stripes_->add(stripes.size());

  // Reads ignore rndv_pipeline chunking: the pull is one doorbell-batched
  // shot (sender-side pinning already happened before the RTS, so there is
  // no registration pipeline to overlap with).
  cost += cfg.wqe_build_cpu * static_cast<std::int64_t>(stripes.size()) + cfg.doorbell_cpu;

  const std::uint64_t base_raddr = rts.raddr;
  std::vector<RndvStripe> batch;
  batch.reserve(stripes.size());
  for (const Stripe& st : stripes) {
    RndvStripe wr;
    wr.rail = st.rail;
    // Read convention: src names the *local destination* slice, raddr/rkeys
    // the remote source (the sender's pinned buffer).
    wr.src = static_cast<const std::byte*>(req->recv_buf) + st.offset;
    wr.len = st.len;
    wr.raddr = base_raddr + static_cast<std::uint64_t>(st.offset);
    wr.req_id = rcookie;
    wr.lkeys = lkeys;
    wr.rkeys = rkeys;
    batch.push_back(wr);
  }
  host_.schedule_cpu_vci(vci, cost, [this, peer, batch = std::move(batch)] {
    net_.post_read_batch(peer, batch);
  });
}

void Rendezvous::finish_read(std::uint64_t rcookie) {
  auto it = read_progress_.find(rcookie);
  if (it == read_progress_.end()) {
    throw std::logic_error("Rendezvous: finish_read for unknown cookie " +
                           std::to_string(rcookie));
  }
  ReadProgress rp = std::move(it->second);
  read_progress_.erase(it);
  for (PinCache::Region* r : rp.pins) pin_cache_->release(r);
  Request req = take_cookie(rcookie);
  IB12X_DEBUG(host_.simulator().now(), "rank%d: read rendezvous %llu complete", host_.rank(),
              (unsigned long long)rcookie);

  MsgHeader done;
  done.type = MsgType::Done;
  done.vci = static_cast<std::uint8_t>(rp.vci);
  done.src_rank = host_.rank();
  done.sender_cookie = rp.sender_cookie;
  net_.send_ctl(rp.peer, done, CtsRkeys{});
  if (done_sent_ != nullptr) done_sent_->inc();
  host_.complete_request(req);
}

void Rendezvous::on_read_done(int /*peer*/, std::uint64_t req_id) {
  auto it = read_progress_.find(req_id);
  if (it == read_progress_.end()) {
    // Reads are idempotent and only ever retried after an *error* CQE, so a
    // success completion for an unknown cookie is a protocol bug, not a dup.
    throw std::logic_error("Rendezvous: read CQE for unknown cookie " + std::to_string(req_id));
  }
  if (--it->second.pending == 0) finish_read(req_id);
}

void Rendezvous::on_read_failed(int peer, const RndvStripe& st) {
  restriped_.inc();
  RndvStripe retry = st;
  ++retry.attempts;
  if (retry.attempts > host_.config().fault.stripe_retry_limit) {
    throw std::runtime_error("Rendezvous: read retry limit exceeded to rank " +
                             std::to_string(peer));
  }
  repost_read(peer, retry);
}

void Rendezvous::repost_read(int peer, const RndvStripe& st) {
  const Config& cfg = host_.config();
  const int vci = st.rail / net_.nrails(peer);
  std::vector<int> live = net_.live_rails(peer, vci);
  if (live.empty()) {
    RndvStripe retry = st;
    ++retry.attempts;
    if (retry.attempts > cfg.fault.stripe_retry_limit) {
      throw std::runtime_error("Rendezvous: no rail recovered within the read retry budget");
    }
    sim::Simulator& sim = host_.simulator();
    sim.at(sim.now() + cfg.fault.rail_recovery,
           sim::boxed([this, peer, retry] { repost_read(peer, retry); }));
    return;
  }

  std::vector<Stripe> parts =
      mvx::plan_stripes(st.len, 0, live, cfg.min_stripe, {}, net_.cursor(peer, vci));
  if (parts.empty()) parts.push_back({live.front(), 0, st.len});

  // Same in-flight accounting rule as write failover: the failed read was
  // counted once; k replacement pulls add k-1.
  read_progress_.at(st.req_id).pending += static_cast<int>(parts.size()) - 1;
  if (read_stripes_ != nullptr) read_stripes_->add(parts.size());

  std::vector<RndvStripe> batch;
  batch.reserve(parts.size());
  for (const Stripe& p : parts) {
    RndvStripe wr = st;  // inherits req_id, lkeys, rkeys, attempts
    wr.rail = p.rail;
    wr.src = st.src + p.offset;
    wr.len = p.len;
    wr.raddr = st.raddr + static_cast<std::uint64_t>(p.offset);
    batch.push_back(wr);
  }
  host_.schedule_cpu_vci(
      vci, cfg.wqe_build_cpu * static_cast<std::int64_t>(batch.size()) + cfg.doorbell_cpu,
      [this, peer, batch = std::move(batch)] { net_.post_read_batch(peer, batch); });
}

void Rendezvous::on_cts(const MsgHeader& hdr, const CtsRkeys& rkeys) {
  auto it = outstanding_.find(hdr.sender_cookie);
  if (it == outstanding_.end()) {
    if (net_.fault_enabled()) {
      // A replayed CTS (its first copy did arrive; the sender's CQE errored)
      // for a send that has since completed.
      dup_ctl_dropped_.inc();
      return;
    }
    throw std::logic_error("Rendezvous: unknown request cookie " +
                           std::to_string(hdr.sender_cookie));
  }
  Request req = it->second;
  IB12X_DEBUG(host_.simulator().now(), "rank%d: CTS for cookie %llu size %llu chunk %u",
              host_.rank(), (unsigned long long)hdr.sender_cookie, (unsigned long long)hdr.size,
              (unsigned)hdr.chunk);
  req->peer_cookie = hdr.receiver_cookie;
  if (send_progress_.count(hdr.sender_cookie) != 0) {
    start_chunk_writes(req->peer, req, hdr, rkeys);
  } else {
    if (net_.fault_enabled() && req->pending_writes > 0) {
      dup_ctl_dropped_.inc();  // replayed CTS while the writes are in flight
      return;
    }
    start_writes(req->peer, req, hdr, rkeys);
  }
}

std::vector<Rendezvous::Stripe> Rendezvous::plan_stripes(int peer, const Request& req,
                                                         std::int64_t base_off,
                                                         std::int64_t bytes) {
  const Config& cfg = host_.config();
  const int nrails = net_.nrails(peer);
  const int vci = req->vci;
  const int base = vci * nrails;  // the VCI's flat rail-slice origin

  // Candidate rails: all of the VCI's slice normally — through the identity
  // overload of mvx::plan_stripes, so the fault-free path allocates no
  // candidate list — or the live subset under failover (already flat rail
  // indices).  If an outage leaves none, plan over the full set anyway: the
  // writes fail and the error path re-plans once something recovers.
  std::vector<int> live;
  if (net_.fault_enabled()) live = net_.live_rails(peer, vci);
  const bool masked = !live.empty() && static_cast<int>(live.size()) < nrails;
  const int sched_n = masked ? static_cast<int>(live.size()) : nrails;
  const auto pick = [&](int pos) {
    return masked ? live[static_cast<std::size_t>(pos)] : base + pos;
  };

  std::vector<Stripe> stripes;
  if (req->lane >= 0) {
    // Multi-lane collective transfer: one un-striped write on the lane's
    // rail, bypassing the policy and leaving its cursor undisturbed (the
    // lanes themselves are the striping).
    stripes.push_back({pick(req->lane % sched_n), base_off, bytes});
    return stripes;
  }

  Schedule s = choose_schedule(cfg.policy, static_cast<CommKind>(req->kind), bytes, sched_n,
                               cfg.stripe_threshold, net_.cursor(peer, vci));
  if (s.stripe && bytes > 0) {
    // Striping over the candidate rails (never cutting below min_stripe);
    // stripe sizes follow the configured rail weights for WeightedStriping,
    // equal shares otherwise.  The split math lives in mvx::plan_stripes so
    // the failover re-plan and the property tests exercise the same code.
    static const std::vector<double> kNoWeights;
    const std::vector<double>& w =
        cfg.policy == Policy::WeightedStriping ? cfg.rail_weights : kNoWeights;
    if (masked) {
      return mvx::plan_stripes(bytes, base_off, live, cfg.min_stripe, w, net_.cursor(peer, vci));
    }
    std::vector<Stripe> planned =
        mvx::plan_stripes(bytes, base_off, sched_n, cfg.min_stripe, w, net_.cursor(peer, vci));
    if (base != 0) {  // lift the positional plan into the VCI's slice
      for (Stripe& st : planned) st.rail += base;
    }
    return planned;
  }
  if (cfg.policy == Policy::Adaptive) {
    const int rail =
        base + (net_.fault_enabled()
                    ? least_loaded_rail(net_.rail_outstanding(peer, vci), net_.rail_up(peer, vci))
                    : least_loaded_rail(net_.rail_outstanding(peer, vci)));
    stripes.push_back({rail, base_off, bytes});
  } else {
    stripes.push_back({pick(s.rail % sched_n), base_off, bytes});
  }
  return stripes;
}

void Rendezvous::start_writes(int peer, const Request& req, const MsgHeader& cts,
                              const CtsRkeys& rkeys) {
  const Config& cfg = host_.config();
  const std::int64_t bytes = req->bytes;

  // A forced stripe width (adaptive arm) overrides the marker policy's cut.
  const SendMeta* meta = nullptr;
  if (rndv_active_) {
    auto mit = send_meta_.find(cts.sender_cookie);
    if (mit != send_meta_.end()) meta = &mit->second;
  }
  std::vector<Stripe> stripes;
  if (meta != nullptr && meta->width > 0) {
    stripes = plan_limited(peer, req->vci, 0, bytes, meta->width);
    if (stripes.empty()) stripes.push_back({req->vci * net_.nrails(peer), 0, bytes});
  } else {
    stripes = plan_stripes(peer, req, 0, bytes);
  }

  sim::Time cost = cfg.ctl_cpu;
  std::array<ib::LKey, kMaxHcas> lkeys{};
  if (bytes > 0) {
    PinCache::Region* reg = pin_cache_->acquire(req->send_buf, bytes, &cost);
    send_pins_[cts.sender_cookie] = reg;
    for (int h = 0; h < kMaxHcas; ++h) lkeys[static_cast<std::size_t>(h)] = reg->mr[h].lkey;
  }

  // WriteImm: a single-stripe transfer folds the immediate into the data
  // write itself (true three-step rendezvous); multi-stripe transfers keep
  // plain writes and append a zero-byte trailing imm once all land.
  bool fold = false;
  std::uint32_t imm = 0;
  if (meta != nullptr && meta->proto == RndvProto::WriteImm) {
    if ((cts.receiver_cookie >> 28) != 0) {
      throw std::logic_error("Rendezvous: receiver cookie exceeds imm capacity");
    }
    imm = (static_cast<std::uint32_t>(req->vci) << 28) |
          static_cast<std::uint32_t>(cts.receiver_cookie);
    fold = stripes.size() == 1;
    imm_state_[cts.sender_cookie] = ImmState{imm, fold, req->vci, fold};
    if (fold && imm_folded_ != nullptr) imm_folded_->inc();
  }

  req->pending_writes = static_cast<int>(stripes.size());
  stripes_posted_.add(stripes.size());
  const std::uint64_t req_id = cts.sender_cookie;

  // Descriptor posting is serialized on the host CPU (WQE build + doorbell
  // per stripe), queued behind any other protocol work this rank is doing.
  // This is one of the per-stripe costs that make striping lose to
  // round-robin for medium messages (paper §3.2).
  for (std::size_t i = 0; i < stripes.size(); ++i) {
    const Stripe st = stripes[i];
    const sim::Time when = (i == 0 ? cost : 0) + cfg.post_cpu;
    const std::uint64_t raddr = cts.raddr;
    host_.schedule_cpu_vci(req->vci, when,
                           [this, peer, st, req_id, raddr, rkeys, lkeys, fold, imm] {
      Request req = peek_cookie(req_id);
      RndvStripe wr;
      wr.rail = st.rail;
      wr.src = static_cast<const std::byte*>(req->send_buf) + st.offset;
      wr.len = st.len;
      wr.raddr = raddr + static_cast<std::uint64_t>(st.offset);
      wr.req_id = req_id;
      wr.lkeys = lkeys;
      wr.rkeys = rkeys;
      if (fold) {
        net_.post_write_imm(peer, wr, imm);
      } else {
        net_.post_write(peer, wr);
      }
    });
  }
}

void Rendezvous::start_chunk_writes(int peer, const Request& req, const MsgHeader& cts,
                                    const CtsRkeys& rkeys) {
  const Config& cfg = host_.config();
  SendProgress& sp = send_progress_.at(cts.sender_cookie);
  // Dedup bookkeeping only under fault injection: replays cannot happen in
  // the fault-free model, and skipping it keeps the fault-free allocation
  // sequence untouched.
  if (net_.fault_enabled() &&
      !chunks_seen_[cts.sender_cookie].insert(cts.chunk).second) {
    dup_ctl_dropped_.inc();  // replayed CTS for a chunk already in progress
    return;
  }
  // Pipelined WriteImm: chunks move as plain writes; the FIN replacement is
  // a zero-byte trailing imm injected when the last chunk retires.
  if (rndv_active_ && imm_state_.count(cts.sender_cookie) == 0) {
    auto mit = send_meta_.find(cts.sender_cookie);
    if (mit != send_meta_.end() && mit->second.proto == RndvProto::WriteImm) {
      if ((cts.receiver_cookie >> 28) != 0) {
        throw std::logic_error("Rendezvous: receiver cookie exceeds imm capacity");
      }
      const std::uint32_t imm = (static_cast<std::uint32_t>(req->vci) << 28) |
                                static_cast<std::uint32_t>(cts.receiver_cookie);
      imm_state_[cts.sender_cookie] = ImmState{imm, false, req->vci, false};
    }
  }
  ++sp.cts_seen;
  cts_chunks_.inc();

  const std::int64_t off =
      static_cast<std::int64_t>(cts.chunk) * chunk_bytes(cfg, req->bytes);
  const std::int64_t len = static_cast<std::int64_t>(cts.size);

  // Pin the sender-side chunk (overlapped with the receiver pinning later
  // chunks), then build all of the chunk's stripe WQEs and ring one doorbell.
  sim::Time cost = cfg.ctl_cpu;
  std::array<ib::LKey, kMaxHcas> lkeys{};
  if (len > 0) {
    PinCache::Region* reg = pin_cache_->acquire(
        static_cast<const std::byte*>(req->send_buf) + off, len, &cost);
    sp.pins.push_back(reg);
    for (int h = 0; h < kMaxHcas; ++h) lkeys[static_cast<std::size_t>(h)] = reg->mr[h].lkey;
  }

  std::vector<Stripe> stripes = plan_stripes(peer, req, off, len);
  sp.chunk_writes[cts.chunk] = static_cast<int>(stripes.size());
  pipeline_depth_.track_max(sp.chunk_writes.size());
  stripes_posted_.add(stripes.size());

  // Doorbell batching: per-stripe WQE build, one uncached-MMIO doorbell for
  // the whole batch (instead of legacy's full post_cpu per stripe).
  cost += cfg.wqe_build_cpu * static_cast<std::int64_t>(stripes.size()) + cfg.doorbell_cpu;

  const std::uint64_t req_id = chunk_req_id(cts.sender_cookie, cts.chunk);
  const std::uint64_t chunk_base = cts.raddr;
  host_.schedule_cpu_vci(req->vci, cost, [this, peer, stripes = std::move(stripes), req_id,
                                          chunk_base, off, rkeys, lkeys] {
    const std::uint64_t cookie = req_id & kCookieMask;
    Request req = peek_cookie(cookie);
    std::vector<RndvStripe> batch;
    batch.reserve(stripes.size());
    for (const Stripe& st : stripes) {
      RndvStripe wr;
      wr.rail = st.rail;
      wr.src = static_cast<const std::byte*>(req->send_buf) + st.offset;
      wr.len = st.len;
      wr.raddr = chunk_base + static_cast<std::uint64_t>(st.offset - off);
      wr.req_id = req_id;
      wr.lkeys = lkeys;
      wr.rkeys = rkeys;
      batch.push_back(wr);
    }
    net_.post_write_batch(peer, batch);
  });
}

void Rendezvous::finish_send(int peer, std::uint64_t cookie, const Request& req) {
  // All stripes placed remotely (CQE implies remote visibility): tell the
  // receiver and complete the local send.  Under WriteImm the notification
  // already travelled with the immediate, so the FIN is elided.
  bool elide_fin = false;
  if (!imm_state_.empty()) {
    auto im = imm_state_.find(cookie);
    if (im != imm_state_.end()) {
      elide_fin = true;
      imm_state_.erase(im);
    }
  }
  if (!elide_fin) {
    MsgHeader fin;
    fin.type = MsgType::Fin;
    fin.vci = static_cast<std::uint8_t>(req->vci);
    fin.src_rank = host_.rank();
    fin.receiver_cookie = req->peer_cookie;
    net_.send_ctl(peer, fin, CtsRkeys{});
  }
  record_policy(cookie, req);
  outstanding_.erase(cookie);
  host_.complete_request(req);
}

void Rendezvous::post_trailing_imm(int peer, std::uint64_t cookie, const Request& /*req*/,
                                   const ImmState& im) {
  // Zero-byte write-with-imm: consumes a receiver slot but carries no data;
  // post_write_imm scans the VCI slice for a live rail with a credit.
  RndvStripe wr;
  wr.rail = im.vci * net_.nrails(peer);
  wr.len = 0;
  wr.req_id = cookie;
  if (imm_sent_ != nullptr) imm_sent_->inc();
  const std::uint32_t imm = im.imm;
  host_.schedule_cpu_vci(im.vci, host_.config().post_cpu,
                         [this, peer, wr, imm] { net_.post_write_imm(peer, wr, imm); });
}

void Rendezvous::on_write_done(int peer, std::uint64_t req_id) {
  const std::uint64_t cookie = req_id & kCookieMask;
  auto pit = send_progress_.find(cookie);
  if (pit == send_progress_.end()) {
    // Legacy one-shot protocol: a flat count of stripes in flight.
    Request req = peek_cookie(req_id);
    IB12X_DEBUG(host_.simulator().now(), "rank%d: write CQE cookie %llu remaining %d",
                host_.rank(), (unsigned long long)req_id, req->pending_writes - 1);
    if (--req->pending_writes == 0) {
      if (!imm_state_.empty()) {
        // Multi-stripe WriteImm: all data writes landed — the FIN
        // replacement (zero-byte trailing imm) goes out now and counts as
        // one more pending write; its CQE re-enters here and finishes.
        auto im = imm_state_.find(cookie);
        if (im != imm_state_.end() && !im->second.folded && !im->second.posted) {
          im->second.posted = true;
          req->pending_writes = 1;
          post_trailing_imm(peer, cookie, req, im->second);
          return;
        }
      }
      auto sit = send_pins_.find(req_id);
      if (sit != send_pins_.end()) {
        pin_cache_->release(sit->second);
        send_pins_.erase(sit);
      }
      finish_send(peer, req_id, req);
    }
    return;
  }

  SendProgress& sp = pit->second;
  const auto chunk = static_cast<std::uint32_t>(req_id >> 48);
  auto cit = sp.chunk_writes.find(chunk);
  if (cit == sp.chunk_writes.end()) {
    throw std::logic_error("Rendezvous: write CQE for unknown chunk");
  }
  if (--cit->second == 0) sp.chunk_writes.erase(cit);
  if (sp.cts_seen == sp.chunks_total && sp.chunk_writes.empty()) {
    Request req = peek_cookie(cookie);
    if (!imm_state_.empty()) {
      // Pipelined WriteImm: last chunk retired — inject the trailing imm as
      // a synthetic chunk-0 write before finishing.
      auto im = imm_state_.find(cookie);
      if (im != imm_state_.end() && !im->second.folded && !im->second.posted) {
        im->second.posted = true;
        sp.chunk_writes[0] = 1;
        post_trailing_imm(peer, cookie, req, im->second);
        return;
      }
    }
    IB12X_DEBUG(host_.simulator().now(), "rank%d: pipelined send %llu complete (%u chunks)",
                host_.rank(), (unsigned long long)cookie, sp.chunks_total);
    for (PinCache::Region* r : sp.pins) pin_cache_->release(r);
    send_progress_.erase(pit);
    if (net_.fault_enabled()) chunks_seen_.erase(cookie);
    finish_send(peer, cookie, req);
  }
}

void Rendezvous::on_write_failed(int peer, const RndvStripe& st) {
  restriped_.inc();
  RndvStripe retry = st;
  ++retry.attempts;
  if (retry.attempts > host_.config().fault.stripe_retry_limit) {
    throw std::runtime_error("Rendezvous: stripe retry limit exceeded to rank " +
                             std::to_string(peer));
  }
  if (!imm_state_.empty()) {
    // A failed imm-carrying write (folded data write, or the zero-byte
    // trailing imm) replays as an imm write: the receiver never saw the
    // immediate, and the data — if any — is idempotent to rewrite.  A dead
    // rail or empty credit pool is absorbed by post_write_imm's own scan
    // and pending queue.
    auto im = imm_state_.find(st.req_id & kCookieMask);
    if (im != imm_state_.end() && (im->second.folded || st.len == 0)) {
      const Config& cfg = host_.config();
      const std::uint32_t imm = im->second.imm;
      host_.schedule_cpu_vci(im->second.vci, cfg.wqe_build_cpu + cfg.doorbell_cpu,
                             [this, peer, retry, imm] { net_.post_write_imm(peer, retry, imm); });
      return;
    }
  }
  repost_stripe(peer, retry);
}

void Rendezvous::repost_stripe(int peer, const RndvStripe& st) {
  const Config& cfg = host_.config();
  const int vci = st.rail / net_.nrails(peer);  // recover the slice from the flat rail
  std::vector<int> live = net_.live_rails(peer, vci);
  if (live.empty()) {
    // Total outage: wait one recovery interval and try again (bounded by the
    // per-stripe attempt budget).
    RndvStripe retry = st;
    ++retry.attempts;
    if (retry.attempts > cfg.fault.stripe_retry_limit) {
      throw std::runtime_error("Rendezvous: no rail recovered within the stripe retry budget");
    }
    sim::Simulator& sim = host_.simulator();
    sim.at(sim.now() + cfg.fault.rail_recovery,
           sim::boxed([this, peer, retry] { repost_stripe(peer, retry); }));
    return;
  }

  std::vector<Stripe> parts =
      mvx::plan_stripes(st.len, 0, live, cfg.min_stripe, {}, net_.cursor(peer, vci));
  if (parts.empty()) parts.push_back({live.front(), 0, st.len});  // zero-byte stripe

  // The failed stripe was already counted once in the in-flight bookkeeping;
  // splitting it over k live rails adds k-1 writes.  Account them before any
  // completion can retire the chunk.
  const int extra = static_cast<int>(parts.size()) - 1;
  const std::uint64_t cookie = st.req_id & kCookieMask;
  auto pit = send_progress_.find(cookie);
  if (pit != send_progress_.end()) {
    pit->second.chunk_writes.at(static_cast<std::uint32_t>(st.req_id >> 48)) += extra;
  } else {
    peek_cookie(cookie)->pending_writes += extra;
  }
  stripes_posted_.add(parts.size());

  std::vector<RndvStripe> batch;
  batch.reserve(parts.size());
  for (const Stripe& p : parts) {
    RndvStripe wr = st;  // inherits req_id, lkeys, rkeys, attempts
    wr.rail = p.rail;
    wr.src = st.src + p.offset;
    wr.len = p.len;
    wr.raddr = st.raddr + static_cast<std::uint64_t>(p.offset);
    batch.push_back(wr);
  }
  host_.schedule_cpu_vci(
      vci, cfg.wqe_build_cpu * static_cast<std::int64_t>(batch.size()) + cfg.doorbell_cpu,
      [this, peer, batch = std::move(batch)] { net_.post_write_batch(peer, batch); });
}

void Rendezvous::on_ctl(const MsgHeader& hdr, const CtsRkeys& rkeys) {
  if (hdr.type == MsgType::Cts) {
    // CTS handling consumes host CPU before the stripes are posted.
    host_.schedule_cpu_vci(hdr.vci, host_.config().ctl_cpu,
                           [this, hdr, rkeys] { on_cts(hdr, rkeys); });
  } else if (hdr.type == MsgType::Done) {
    on_done(hdr);
  } else {  // Fin
    on_fin(hdr);
  }
}

void Rendezvous::on_fin(const MsgHeader& hdr) {
  auto oit = outstanding_.find(hdr.receiver_cookie);
  if (oit == outstanding_.end()) {
    if (net_.fault_enabled()) {
      dup_ctl_dropped_.inc();  // replayed FIN for an already-finished receive
      return;
    }
    throw std::logic_error("Rendezvous: unknown request cookie " +
                           std::to_string(hdr.receiver_cookie));
  }
  Request req = oit->second;
  outstanding_.erase(oit);
  IB12X_DEBUG(host_.simulator().now(), "rank%d: FIN for cookie %llu", host_.rank(),
              (unsigned long long)hdr.receiver_cookie);
  auto it = recv_progress_.find(hdr.receiver_cookie);
  if (it != recv_progress_.end()) {
    for (PinCache::Region* r : it->second.pins) pin_cache_->release(r);
    recv_progress_.erase(it);
  }
  host_.schedule_cpu_vci(hdr.vci, host_.config().ctl_cpu,
                         [this, req] { host_.complete_request(req); });
}

void Rendezvous::on_done(const MsgHeader& hdr) {
  // Sender side of ReadRts: the receiver finished pulling.  Mirrors on_fin,
  // but keyed by the *sender* cookie and releasing the sender-side pin.
  auto oit = outstanding_.find(hdr.sender_cookie);
  if (oit == outstanding_.end()) {
    if (net_.fault_enabled()) {
      dup_ctl_dropped_.inc();  // replayed Done for an already-finished send
      return;
    }
    throw std::logic_error("Rendezvous: unknown request cookie " +
                           std::to_string(hdr.sender_cookie));
  }
  Request req = oit->second;
  outstanding_.erase(oit);
  IB12X_DEBUG(host_.simulator().now(), "rank%d: Done for cookie %llu", host_.rank(),
              (unsigned long long)hdr.sender_cookie);
  auto sit = send_pins_.find(hdr.sender_cookie);
  if (sit != send_pins_.end()) {
    pin_cache_->release(sit->second);
    send_pins_.erase(sit);
  }
  record_policy(hdr.sender_cookie, req);
  host_.schedule_cpu_vci(hdr.vci, host_.config().ctl_cpu,
                         [this, req] { host_.complete_request(req); });
}

void Rendezvous::on_imm(std::uint32_t imm_data) {
  // WriteImm receiver completion: the FIN is elided, so everything needed to
  // finish — the VCI for CPU routing and the receiver cookie — is decoded
  // from the immediate itself, never from CTS-echoed header fields (which do
  // not exist on this path).  Releasing the pins here is what keeps the
  // PinCache balanced without a FIN.
  const int vci = static_cast<int>(imm_data >> 28);
  const std::uint64_t rcookie = imm_data & ((std::uint32_t{1} << 28) - 1);
  auto oit = outstanding_.find(rcookie);
  if (oit == outstanding_.end()) {
    if (net_.fault_enabled()) {
      dup_ctl_dropped_.inc();  // replayed imm (its first copy did land)
      return;
    }
    throw std::logic_error("Rendezvous: unknown request cookie " + std::to_string(rcookie));
  }
  Request req = oit->second;
  outstanding_.erase(oit);
  IB12X_DEBUG(host_.simulator().now(), "rank%d: imm completion for cookie %llu vci %d",
              host_.rank(), (unsigned long long)rcookie, vci);
  auto it = recv_progress_.find(rcookie);
  if (it != recv_progress_.end()) {
    for (PinCache::Region* r : it->second.pins) pin_cache_->release(r);
    recv_progress_.erase(it);
  }
  host_.schedule_cpu_vci(vci, host_.config().ctl_cpu,
                         [this, req] { host_.complete_request(req); });
}

}  // namespace ib12x::mvx
