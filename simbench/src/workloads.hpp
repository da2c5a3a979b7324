// The benchmark's workloads and the repetition that runs one of them.
//
// A repetition is one closed-loop job: construct a World, run the set-up
// round (lazy wiring, eager/SRQ arenas and first registrations are paid
// here, once, as a real job pays them), run the timed rounds back to back,
// and tear the World down.  Each round is one World::run: every modelled
// rank executes the round body, waits on its own calls, and the next round
// starts only when every rank has finished.  Every received byte is checked
// against the seed-derived pattern.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ib/params.hpp"
#include "ib/topology.hpp"
#include "mvx/mpi.hpp"
#include "trace.hpp"

namespace simbench {

/// Operations a round attempted and how many of them failed verification.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, std::uint64_t n = 1) {
    attempted += n;
    if (!ok) failed += n;
  }
};

/// The shapes a workload hands to the layer probes (layers.hpp), so each
/// probe runs at the size the workload itself produces.
struct Shapes {
  int ranks = 0;
  std::size_t eager_bytes = 0;                 ///< typical eager payload
  std::vector<std::pair<std::size_t, std::size_t>> rndv_buffers;  ///< (offset, bytes)
  std::size_t alltoall_bytes = 0;              ///< per-peer alltoall block
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual mvx::ClusterSpec spec() const = 0;
  [[nodiscard]] virtual mvx::Config config() const = 0;
  [[nodiscard]] virtual int timed_rounds() const = 0;
  /// Operations one round attempts (all of them fail if the round throws).
  [[nodiscard]] virtual std::uint64_t ops_per_round() const = 0;
  /// True when the repository holds an absolute reference for the
  /// workload's modelled numbers (the paper's measured peaks).
  [[nodiscard]] virtual bool validated() const { return false; }
  [[nodiscard]] virtual Shapes shapes() const = 0;

  /// Allocates per-rank buffers for a fresh World.  They stay at fixed
  /// addresses until release(), so registration-cache behaviour depends only
  /// on the workload, never on where the host allocator puts a buffer.
  virtual void prepare() = 0;
  virtual void release() = 0;
  /// Body of round `round` (0 = set-up) for one rank.
  virtual void rank_round(mvx::Communicator& c, int round, Calls& calls, Tally& t) = 0;
};

/// Workload names in the order the benchmark lists them.
const std::vector<std::string>& workload_names();

/// Builds workload `name` from `seed`; `shrunk` gives the small copy the
/// self-test runs.  Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool shrunk = false);

/// Telemetry sample map (name -> value) of one snapshot.
using Snapshot = std::vector<mvx::TelemetryRegistry::Sample>;

struct RepResult {
  bool ok = true;            ///< no round threw
  std::string error;         ///< first exception message
  double ctor_s = 0;         ///< World construction
  double first_round_s = 0;  ///< set-up round
  double timed_s = 0;        ///< timed rounds
  double teardown_s = 0;     ///< World destruction
  sim::Time virt_timed = 0;  ///< modelled time of the timed rounds
  std::uint64_t digest = 0;  ///< simulated-statistics digest
  Tally tally;
  Snapshot before;           ///< telemetry after the set-up round
  Snapshot after;            ///< telemetry after the timed rounds
  std::size_t max_mr_regions = 0;  ///< largest MR table of any HCA
  ib::TopologySpec topo;           ///< the fabric's (normalized) topology
  ib::FabricParams fabric;
  int hosts = 0;                   ///< attached host ports
};

/// Change of telemetry sample `name` over the timed rounds of `r`.
double counter_delta(const RepResult& r, const std::string& name);
/// Value of telemetry sample `name` at the end of the timed rounds of `r`.
double counter_level(const RepResult& r, const std::string& name);

/// Runs one repetition of `w`.  With a tracer, records world, round and
/// per-call spans.
RepResult run_rep(Workload& w, Tracer* tracer);

/// Digest of a run: FNV-1a over the virtual end time and every telemetry
/// sample except host wall-clock gauges (sim.wall.*, sim.shard.wall.*).
std::uint64_t digest_of(sim::Time end_time, const Snapshot& snap);

}  // namespace simbench
