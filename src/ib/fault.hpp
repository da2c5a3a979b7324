// Deterministic fault injection for the fabric model.
//
// A FaultPlan owns every source of modelled failure:
//   * scheduled link events — a port goes down (all QPs behind it, and their
//     peers, transition to the error state and flush) and later comes back up
//     (QPs re-arm once both endpoints' ports are up);
//   * per-message completion errors — each serviced send WQE draws from a
//     seeded RNG and may be dropped (retries exhaust, data never arrives) or
//     ack-dropped (data arrives but the requester still completes in error);
//   * RNR drops — with a plan attached, an inbound message meeting an empty
//     receive queue is counted and dropped instead of aborting the run.
//
// Everything is driven by seeded sim::Rng streams, so a given plan replays
// identically run to run.  Without an attached plan the HCA pipeline's fault
// hooks are single null checks and behaviour is bit-identical to the
// fault-free model.
//
// Parallel engine (sim/shard.hpp): under arm_sharded() every shard gets its
// own link-state view replica — each shard applies every link event at the
// same virtual time but only transitions the QPs living on its own
// simulator, so no shard ever touches another shard's QP state.  Message
// faults switch to per-HCA RNG streams (enable_sharded_streams) because the
// global service order that fed the single stream no longer exists across
// shards; each HCA's own service order is still deterministic, so sharded
// faulty runs stay bit-reproducible per seed (but draw a different fault
// sequence than the single-stream legacy mode).  The counters are relaxed
// atomics, off the fault-free hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ib12x::ib {

class Hca;
class QueuePair;

/// Fate of one serviced send WQE.
enum class MsgFault : std::uint8_t {
  None,     ///< delivered normally
  Drop,     ///< transport retries exhausted; no data delivered, error CQE
  AckDrop,  ///< data delivered, ACK lost; error CQE despite remote success
};

class FaultPlan {
 public:
  struct Params {
    std::uint64_t seed = 1;
    /// Per-WQE probability of a transport fault (0 disables message faults).
    double msg_error_rate = 0.0;
    /// Of faulted WQEs, the fraction whose data still lands (lost ACK).
    double ack_drop_fraction = 0.25;
    /// Modelled time between servicing a faulted WQE and its error CQE
    /// (retry exhaustion on the wire).
    sim::Time retry_latency = sim::microseconds(2.0);
  };

  explicit FaultPlan(const Params& p) : params_(p), rng_(p.seed), views_(1) {}

  /// Schedules a link transition for port `port_idx` of `hca` at time `at`.
  void add_link_event(sim::Time at, Hca* hca, int port_idx, bool up);

  /// Registers every scheduled link event with the simulator.  Call once,
  /// after all add_link_event calls and before the simulation runs.
  void arm(sim::Simulator& sim);

  /// Sharded alternative to arm(): every shard's simulator gets a replica of
  /// every link event against its own link-state view, transitioning only
  /// the QPs that live on that shard.
  void arm_sharded(const std::vector<sim::Simulator*>& sims);

  /// Switches message-fault draws to one independent RNG stream per HCA
  /// (keyed by Hca::uid(), seeds derived from the plan seed).  Required
  /// before a sharded run with msg_error_rate > 0.
  void enable_sharded_streams(int hca_count);

  /// Draws the fate of one serviced send WQE on `src` (advances an RNG
  /// stream only when msg_error_rate is non-zero).
  MsgFault draw_msg_fault(const Hca& src);

  [[nodiscard]] sim::Time retry_latency() const { return params_.retry_latency; }
  /// Link state as seen by shard 0's view (also the legacy single view).
  /// Only meaningful from shard 0 / pre-run contexts (NetChannel::establish).
  [[nodiscard]] bool port_down(const Hca* hca, int port_idx) const;

  void count_rnr_drop() { rnr_drops_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t injected_errors() const {
    return injected_errors_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t link_transitions() const {
    return link_transitions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t rnr_drops() const {
    return rnr_drops_.load(std::memory_order_relaxed);
  }

 private:
  struct LinkEvent {
    sim::Time at = 0;
    Hca* hca = nullptr;
    int port = 0;
    bool up = false;
  };

  /// One shard's private picture of which ports are down.  `self` is the
  /// shard's simulator, or nullptr for the legacy single-threaded view
  /// (which owns every QP).
  struct LinkView {
    std::vector<std::pair<const Hca*, int>> down;
    const sim::Simulator* self = nullptr;
  };

  void apply(const LinkEvent& ev, LinkView& view);
  static bool down_in(const LinkView& view, const Hca* hca, int port_idx);
  /// True when `view` (not nullptr-self) excludes QPs on other shards.
  static bool owns_qp(const LinkView& view, const QueuePair* qp);

  Params params_;
  sim::Rng rng_;
  std::vector<sim::Rng> hca_rngs_;  ///< per-HCA streams (sharded mode)
  bool sharded_streams_ = false;
  std::vector<LinkEvent> events_;
  std::vector<LinkView> views_;  ///< one per shard; [0] doubles as legacy
  std::atomic<std::uint64_t> injected_errors_{0};
  std::atomic<std::uint64_t> link_transitions_{0};
  std::atomic<std::uint64_t> rnr_drops_{0};
};

}  // namespace ib12x::ib
