// World: the "mpirun" of the simulation.  Builds the cluster (fabric, HCAs,
// endpoints, rails, shm channels), spawns one simulated process per rank,
// and runs the user's rank function to completion in virtual time.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "ib/verbs.hpp"
#include "mvx/comm.hpp"
#include "mvx/config.hpp"
#include "mvx/endpoint.hpp"
#include "mvx/telemetry.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace ib12x::sim {
class ShardEngine;
}

namespace ib12x::mvx {

class World {
 public:
  World(ClusterSpec spec, Config cfg);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs `rank_main` on every rank; returns when all ranks finish.  The
  /// simulation clock keeps its value across multiple run() calls.
  void run(const std::function<void(Communicator&)>& rank_main);

  [[nodiscard]] int ranks() const { return spec_.total_ranks(); }
  [[nodiscard]] const ClusterSpec& spec() const { return spec_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  /// Simulator shards actually in use (1 without the parallel engine).
  [[nodiscard]] int shard_count() const { return static_cast<int>(sims_.size()); }
  /// Shard index node `node`'s objects live on (0 when unsharded).  Filled by
  /// the placement policy (Config::shard_placement): round-robin or fabric
  /// locality.
  [[nodiscard]] int node_shard(int node) const {
    return node_shard_.empty() ? 0 : node_shard_[static_cast<std::size_t>(node)];
  }
  /// The shard node `node`'s objects live on (== simulator() when unsharded).
  [[nodiscard]] sim::Simulator& shard_sim(int node) {
    return *sims_[static_cast<std::size_t>(node_shard(node))];
  }
  /// Events processed across every shard (the oracle-comparable total).
  [[nodiscard]] std::uint64_t events_processed() const {
    std::uint64_t n = 0;
    for (const sim::Simulator* s : sims_) n += s->events_processed();
    return n;
  }
  [[nodiscard]] ib::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] Endpoint& endpoint(int rank) { return *eps_.at(static_cast<std::size_t>(rank)); }

  /// Process-wide telemetry: counters from every rank's channels, matcher,
  /// and rendezvous engine, plus gauges sampled from the ib HCA model.
  [[nodiscard]] TelemetryRegistry& telemetry() { return tel_; }
  [[nodiscard]] const TelemetryRegistry& telemetry() const { return tel_; }

  /// Virtual time when the last rank finished the most recent run().
  [[nodiscard]] sim::Time end_time() const { return end_time_; }

  // Context-id allocation for dup/split (see Communicator).  Atomic because
  // ranks on different shards may dup/split concurrently; the CAS-max keeps
  // allocations monotone (concurrent allocations on distinct shards remain a
  // documented timing-dependent corner, exactly as interleaved allocations
  // were under the single-threaded engine).
  [[nodiscard]] int peek_next_ctx() const { return next_ctx_.load(std::memory_order_relaxed); }
  void bump_ctx(int at_least) {
    int cur = next_ctx_.load(std::memory_order_relaxed);
    while (cur < at_least &&
           !next_ctx_.compare_exchange_weak(cur, at_least, std::memory_order_relaxed)) {
    }
  }

 private:
  /// Builds every channel between ranks `i` and `j` (shm or net) and marks
  /// both connection managers Ready.  Idempotent; the connection managers'
  /// wire function, run as a serial action under the parallel engine.
  void wire_pair(int i, int j);

  /// End-of-run wiring audit: throws if any rank still has a handshake
  /// Connecting or a queued send (names the rank and the peer).
  void audit_wiring() const;

  ClusterSpec spec_;
  Config cfg_;
  sim::Simulator sim_;
  // Parallel engine state.  Declared before fabric_/eps_ on purpose: members
  // destroy in reverse order, so the fabric (whose HCAs point at shard
  // simulators) and endpoints go away before the extra simulators and the
  // engine do.  shard_sims_ owns shards 1..N-1; shard 0 is sim_ itself so
  // sim_shards = 1 shares every code path with the legacy engine.
  std::vector<std::unique_ptr<sim::Simulator>> shard_sims_;
  std::unique_ptr<sim::ShardEngine> engine_;
  std::vector<sim::Simulator*> sims_;  ///< all shards; size 1 when unsharded
  std::vector<int> node_shard_;        ///< node -> shard index (placement policy)
  std::unique_ptr<ib::Fabric> fabric_;
  std::vector<std::vector<ib::Hca*>> node_hcas_;
  TelemetryRegistry tel_;  ///< declared before eps_: endpoints hold handles into it
  std::vector<std::unique_ptr<Endpoint>> eps_;
  sim::Time end_time_ = 0;
  std::atomic<int> next_ctx_{2};  // ctx 0/1 belong to the world communicator
};

}  // namespace ib12x::mvx
