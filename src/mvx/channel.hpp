// The channel layer of the decomposed ADI endpoint (paper fig. 2).
//
// A Channel moves bytes to a set of peers over one transport; the endpoint
// is a thin facade that routes each send to the channel that accepts it
// (shm → net) and glues inbound arrivals back into the matcher and the
// rendezvous protocol.
//
// Channels never see the Endpoint class itself — only the narrow
// ChannelHost surface below — so each transport is independently testable
// and replaceable, and new transports slot in without touching the facade's
// callers (Communicator / Collectives).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "ib/types.hpp"
#include "mvx/config.hpp"
#include "mvx/request.hpp"
#include "mvx/wire.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace ib12x::mvx {

class Matcher;
class TelemetryRegistry;

/// One rendezvous RDMA-write stripe; lkeys/rkeys are per HCA domain and the
/// net channel resolves them through the rail's HCA index.  Lives at
/// namespace scope (not inside NetChannel) because the failover hand-back —
/// ChannelHost::on_rndv_write_failed — must carry the full descriptor so the
/// Rendezvous module can re-plan and re-post it.
struct RndvStripe {
  int rail = 0;
  const std::byte* src = nullptr;
  std::int64_t len = 0;
  std::uint64_t raddr = 0;
  std::uint64_t req_id = 0;  ///< reported back via ChannelHost::on_rndv_write_done
  std::array<ib::LKey, kMaxHcas> lkeys{};
  CtsRkeys rkeys;
  int attempts = 0;  ///< failover re-posts of this stripe so far
};

/// Where a send runs.  Process context is the issuing rank's own fiber: it
/// may wait on progress() for a credit, bounce buffer or live rail, and its
/// CPU is charged inline (Process::compute).  Event context is the
/// connection manager's queued-send flush, running inside a completion or
/// handshake event: it must not block, so a send that finds its resources
/// dry leaves every cursor as it was and reports false, and its CPU is
/// charged on the message's VCI progress server (schedule_cpu_vci).
enum class SendContext : std::uint8_t { Process, Event };

/// What a channel (or protocol module) may ask of its owning endpoint.
class ChannelHost {
 public:
  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual const Config& config() const = 0;
  [[nodiscard]] virtual sim::Simulator& simulator() const = 0;
  [[nodiscard]] virtual sim::Process& process() const = 0;
  virtual Matcher& matcher() = 0;
  virtual TelemetryRegistry& telemetry() = 0;
  /// The progress waitable blocking calls park on; channels notify it when
  /// resources (credits, bounce buffers, live rails) free up.
  virtual sim::Waitable& progress() = 0;

  /// Serializes event-context protocol work (stripe posting, CQE handling,
  /// control processing, receive copies) on this rank's host CPU: `fn` runs
  /// once the CPU has spent `cost` on it, queued behind earlier work.
  virtual void schedule_cpu(sim::Time cost, std::function<void()> fn) = 0;

  /// VCI-routed variant of schedule_cpu: protocol work belonging to VCI
  /// `vci` is serialized on that VCI's own progress server instead of the
  /// rank-wide one, so independent VCIs process completions in parallel.
  /// Default forwards to schedule_cpu (single-channel hosts).
  virtual void schedule_cpu_vci(int vci, sim::Time cost, std::function<void()> fn) {
    (void)vci;
    schedule_cpu(cost, std::move(fn));
  }
  [[nodiscard]] virtual sim::Time memcpy_time(std::int64_t bytes) const = 0;

  /// Entry point for every sequenced inbound message (Eager/Rts): ordering,
  /// matching, and protocol dispatch.  Event context.
  virtual void ingress(int peer, const MsgHeader& hdr, std::vector<std::byte> payload) = 0;
  /// Rendezvous control arrival (Cts/Fin) from the net channel.
  virtual void on_ctl(const MsgHeader& hdr, const CtsRkeys& rkeys) = 0;
  /// A rendezvous stripe write finished on the wire (requester CQE).
  virtual void on_rndv_write_done(int peer, std::uint64_t req_id) = 0;
  /// A rendezvous stripe write failed (error CQE under fault injection) and
  /// needs re-planning over the surviving rails.  Default no-op: only hosts
  /// with failover support override it, and it can only fire when a
  /// FaultPlan is attached.
  virtual void on_rndv_write_failed(int peer, const RndvStripe& st) {
    (void)peer;
    (void)st;
  }

  /// A rendezvous RDMA-read stripe finished (read-rendezvous; the receiver
  /// is the requester).  Default no-op: only hosts with the read protocol
  /// enabled override it.
  virtual void on_rndv_read_done(int peer, std::uint64_t req_id) {
    (void)peer;
    (void)req_id;
  }
  /// A rendezvous RDMA-read stripe failed (error CQE under fault injection).
  /// Same contract as on_rndv_write_failed, receiver-side.  Default no-op.
  virtual void on_rndv_read_failed(int peer, const RndvStripe& st) {
    (void)peer;
    (void)st;
  }
  /// A write-with-immediate landed on this (receiving) rank: the imm word
  /// carries the packed {vci, receiver cookie} that completes the rendezvous
  /// without a FIN.  Event context.  Default no-op.
  virtual void on_rndv_imm(std::uint32_t imm_data) { (void)imm_data; }

  /// A send-side eager resource (bounce buffer, credit, rail) returned to
  /// the pool.  Hosts with a lazy connection manager override this to flush
  /// sends queued behind resource exhaustion; the pool is shared across
  /// peers, so an implementation must consider every queued peer, not just
  /// `peer`.  Event context.  Default no-op.
  virtual void on_eager_resources_freed(int peer) { (void)peer; }

  /// Marks `req` complete and wakes waiters.
  virtual void complete_request(const Request& req) = 0;

 protected:
  ~ChannelHost() = default;
};

/// Charges `cost` of send-side host CPU, then runs `post`: inline on the
/// calling process in process context, on VCI `vci`'s progress server in
/// event context.
template <class Fn>
void charge_send_cpu(ChannelHost& host, SendContext sc, int vci, sim::Time cost, Fn&& post) {
  if (sc == SendContext::Process) {
    host.process().compute(cost);
    post();
  } else {
    host.schedule_cpu_vci(vci, cost, std::forward<Fn>(post));
  }
}

/// Completes a buffered send once it is posted.  Process context sets the
/// request done directly (the issuing fiber is running, so nobody waits on
/// it yet); event context goes through complete_request, which wakes waiters.
void finish_buffered_send(ChannelHost& host, SendContext sc, const Request& req);

/// The header of one sequenced message (Eager or Rts) to `peer`, claiming
/// the next sequence number of (peer, ctx, vci).
MsgHeader sequenced_header(ChannelHost& host, MsgType type, int peer, CommKind kind, int vci,
                           int tag, int ctx, std::int64_t bytes);

/// One transport to a set of peers.
class Channel {
 public:
  explicit Channel(ChannelHost& host) : host_(host) {}
  virtual ~Channel() = default;

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// True if this channel can carry `bytes` to `peer` (routing is evaluated
  /// per message).
  [[nodiscard]] virtual bool accepts(int peer, std::int64_t bytes) const = 0;

  /// Starts one message.  In process context this may block on channel
  /// resources and always returns true; in event context it returns false,
  /// having claimed nothing, when the resources are dry.
  virtual bool send(SendContext sc, int peer, CommKind kind, const void* buf, std::int64_t bytes,
                    int tag, int ctx, const Request& req) = 0;

 protected:
  ChannelHost& host_;
};

}  // namespace ib12x::mvx
