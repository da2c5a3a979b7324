// The ADI-layer endpoint: one per MPI rank (paper fig. 2, DESIGN.md
// "Architecture").  It owns the parts of the ADI — ShmChannel and NetChannel
// (each with its per-peer transport state), the Matcher, the Rendezvous
// engine, the ConnManager and the CollEngine — and the parts hold an
// `Endpoint&` and call it directly.
//
// The endpoint routes each send to shm when the peer shares the node and to
// the net channel otherwise (eager below the rendezvous threshold, an RTS
// above it), glues in-order arrivals into matching and protocol dispatch,
// and owns the two cross-cutting resources: one serialized host-CPU
// progress server per VCI for event-context protocol work, and the progress
// waitable blocking calls park on.
//
// Threading model: the owning rank's code runs in process context (and is
// charged CPU via Process::compute); network completions arrive in event
// context and communicate with the process through the progress Waitable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "mvx/channel.hpp"
#include "mvx/config.hpp"
#include "mvx/policy.hpp"
#include "mvx/request.hpp"
#include "mvx/wire.hpp"
#include "sim/process.hpp"
#include "sim/server.hpp"
#include "sim/simulator.hpp"

namespace ib12x::ib {
class Hca;
}

namespace ib12x::mvx {

namespace coll {
class CollEngine;
}

class ConnManager;
struct QueuedSend;
class Counter;
class Matcher;
class NetChannel;
class Rendezvous;
class ShmChannel;
class TelemetryRegistry;

class Endpoint {
 public:
  Endpoint(sim::Simulator& sim, int rank, int node, std::vector<ib::Hca*> node_hcas,
           const Config& cfg, TelemetryRegistry& tel);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Builds the rail set (hcas × ports × qps QP pairs per VCI) between two
  /// endpoints on different nodes.
  static void connect_net(Endpoint& a, Endpoint& b);

  /// Connects two endpoints on the same node through the shm channel.
  static void connect_shm(Endpoint& a, Endpoint& b);

  /// The connection manager: every peer is wired on first contact.  World
  /// injects the wire function.
  [[nodiscard]] ConnManager& conn() { return *conn_; }
  /// The inter-node channel (rails, credits, eager pools).
  [[nodiscard]] NetChannel& net() { return *net_; }
  /// The rendezvous engine (the net channel's completion filter feeds it).
  [[nodiscard]] Rendezvous& rndv() { return *rndv_; }

  /// Binds the simulated process that runs this rank's code.
  void attach_process(sim::Process* p) { proc_ = p; }

  /// Registers one modeled application thread's fiber (vci.threads > 1).
  /// Thread 0 is the rank's main fiber; every registered fiber may issue
  /// sends/recvs concurrently and is mapped to a VCI by vci_for().
  void register_thread(sim::Process* p, int tid);

  /// Index of the modeled app thread running right now (0 when the current
  /// fiber is not a registered app thread — e.g. the collective-progress
  /// helper, or any fiber in the default single-threaded configuration).
  [[nodiscard]] int current_thread() const;

  /// The VCI carrying an operation issued from the current thread on
  /// communicator context `ctx`, per the configured thread → VCI mapping.
  [[nodiscard]] int vci_for(int ctx) const;

  // ---- process-context API (called by Communicator) ----

  /// `lane >= 0` pins the transfer to rail (lane % nrails) instead of letting
  /// the EPC policy schedule it — the multi-lane collective decomposition.
  Request start_send(CommKind kind, const void* buf, std::int64_t bytes, int dst, int tag, int ctx,
                     int lane = -1);
  Request start_recv(void* buf, std::int64_t capacity, int src, int tag, int ctx);
  void wait(const Request& r);
  [[nodiscard]] bool test(const Request& r) const { return r->done; }

  /// Non-blocking probe of the unexpected queue (MPI_Iprobe semantics: an
  /// in-order message matching (src, tag, ctx) has arrived but not been
  /// received).  Fills `st` on a hit.
  bool iprobe(int src, int tag, int ctx, Status* st);
  /// Blocking probe: waits until iprobe succeeds.
  void probe(int src, int tag, int ctx, Status* st);

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int node() const { return node_; }
  /// The process to charge CPU to: the currently executing fiber when there
  /// is one (the rank's own, or its collective-progress helper), otherwise
  /// the attached rank process.  This is what routes channel-level compute()
  /// charges to whichever fiber is actually driving the endpoint.
  [[nodiscard]] sim::Process& process() const {
    if (sim::Process* cur = sim::Process::current()) return *cur;
    return *proc_;
  }
  /// The schedule executor for this rank's collectives.
  [[nodiscard]] coll::CollEngine& coll_engine() { return *coll_engine_; }
  [[nodiscard]] sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  // ---- services for the endpoint's parts (channels, rendezvous, conn) ----

  Matcher& matcher() { return *matcher_; }
  TelemetryRegistry& telemetry() { return tel_; }
  /// The progress waitable blocking calls park on; channels notify it when
  /// resources (credits, bounce buffers, live rails) free up.
  sim::Waitable& progress() { return progress_; }
  /// Serializes event-context protocol work (stripe posting, CQE handling,
  /// control processing, receive copies) on VCI `vci`'s progress server:
  /// `fn` runs once the server has spent `cost` on it.
  void schedule_cpu_vci(int vci, sim::Time cost, std::function<void()> fn);
  [[nodiscard]] sim::Time memcpy_time(std::int64_t bytes) const;

  /// Charges `cost` of send-side host CPU, then runs `post`: inline on the
  /// calling process in process context, on VCI `vci`'s progress server in
  /// event context.
  template <class Fn>
  void charge_send_cpu(SendContext sc, int vci, sim::Time cost, Fn&& post) {
    if (sc == SendContext::Process) {
      process().compute(cost);
      post();
    } else {
      schedule_cpu_vci(vci, cost, std::forward<Fn>(post));
    }
  }
  /// Completes a buffered send once it is posted: directly in process
  /// context (nobody waits on it yet), through complete_request in event
  /// context.
  void finish_buffered_send(SendContext sc, const Request& req);
  /// The header of one sequenced message (Eager or Rts) to `peer`, claiming
  /// the next sequence number of (peer, ctx, vci).
  MsgHeader sequenced_header(MsgType type, int peer, CommKind kind, int vci, int tag, int ctx,
                             std::int64_t bytes);

  /// Entry point for every sequenced inbound message (Eager/Rts): ordering,
  /// matching, and protocol dispatch.  Event context.
  void ingress(int peer, const MsgHeader& hdr, std::vector<std::byte> payload);
  /// Drains `peer`'s queued sends in FIFO order through route_send in event
  /// context, stopping at the first one that cannot get resources (a later
  /// CQE re-flushes).
  void flush_queued(int peer);
  /// A send-side eager resource (bounce buffer, credit, rail) returned to
  /// the shared pool: flushes every queued Ready peer.  Event context.
  void on_eager_resources_freed();
  /// Marks `req` complete and wakes waiters.
  void complete_request(const Request& req);

 private:
  /// Routes one send to the channel that accepts it (shm → net eager →
  /// rendezvous RTS).  start_send calls it in
  /// process context, flush_queued in event context; false means event
  /// context found the resources dry and claimed nothing.
  bool route_send(SendContext sc, int dst, const QueuedSend& s);
  /// Matched eager arrival: copy out, then complete after the copy's CPU
  /// time has been charged (on the message's VCI progress server).
  void complete_recv(const Request& req, const MsgHeader& hdr, const std::byte* payload,
                     sim::Time extra_delay);

  /// Fiber-level VCI critical section, modeled only when vci.threads > 1:
  /// a thread entering a VCI's issue path acquires the VCI's lock (charging
  /// vci.lock_cpu) and contended acquisitions serialize behind the holder —
  /// the Zambre shared-VCI flatline.  No-ops in single-threaded ranks.
  void lock_vci(int vci);
  void unlock_vci(int vci);

  sim::Simulator& sim_;
  int rank_;
  int node_;
  Config cfg_;
  TelemetryRegistry& tel_;
  sim::Process* proc_ = nullptr;

  std::unique_ptr<Matcher> matcher_;
  std::unique_ptr<ConnManager> conn_;
  std::unique_ptr<NetChannel> net_;
  std::unique_ptr<ShmChannel> shm_;
  std::unique_ptr<Rendezvous> rndv_;
  std::unique_ptr<coll::CollEngine> coll_engine_;

  /// One progress server per VCI (max(1, vci.count) of them): each
  /// serializes its own VCI's event-context protocol work on this rank's
  /// host CPU and runs in parallel with the others.
  std::vector<sim::Server> vci_cpu_;
  sim::Waitable progress_;

  // ---- VCI state (all empty/null in the default configuration) ----
  /// Registered app-thread fibers, indexed by thread id.
  std::vector<sim::Process*> thread_procs_;
  /// Per-VCI lock word (allocated only when vci.threads > 1).
  std::vector<std::uint8_t> vci_locked_;
  /// Gated vci.* counters — null/empty by default so snapshots are unchanged.
  std::vector<Counter*> vci_sends_;
  Counter* vci_lock_contentions_ = nullptr;
  Counter* vci_wakeups_ = nullptr;
};

}  // namespace ib12x::mvx
