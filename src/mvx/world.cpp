#include "mvx/world.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "ib/fault.hpp"
#include "ib/hca.hpp"
#include "ib/topology.hpp"
#include "mvx/coll/engine.hpp"
#include "mvx/conn_manager.hpp"
#include "sim/shard.hpp"
#include "sim/time.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace ib12x::mvx {

namespace {

/// The pin-down cache models registration reuse by real buffer address, so
/// bit-reproducibility of repeated in-process runs needs the host allocator
/// to place identical allocation sequences identically.  glibc's *dynamic*
/// mmap threshold breaks that: the first free of a >=128 KiB mmap'd block
/// raises the threshold, silently moving later same-sized buffers from mmap
/// to the brk heap — so a second, identical run sees a different aliasing
/// pattern than the first and reg-cache hit counts diverge.  Pinning the
/// threshold at its default disables the adjustment (the placement policy,
/// not the placements, becomes run-invariant).  No-op off glibc.
void pin_host_allocator_policy() {
#if defined(__GLIBC__)
  static const bool once = [] {
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    return true;
  }();
  (void)once;
#endif
}

}  // namespace

World::World(ClusterSpec spec, Config cfg) : spec_(spec), cfg_(cfg) {
  pin_host_allocator_policy();
  if (cfg_.ports_per_hca > cfg_.hca.ports) {
    // Make the modelled HCA expose as many ports as the rail layout uses.
    cfg_.hca.ports = cfg_.ports_per_hca;
  }

  // Normalize the topology spec against the cluster shape: auto-derived
  // fat-tree/dragonfly parameters must seat every host port, fixed ones must
  // be big enough.  The normalized spec is written back so config() exposes
  // the derived geometry.
  const int ports_per_node = cfg_.hcas_per_node * cfg_.hca.ports;
  cfg_.topo.min_hosts = spec_.nodes * ports_per_node;
  cfg_.topo = ib::Topology::normalize(cfg_.topo);
  const std::int64_t cap = ib::Topology::capacity_of(cfg_.topo);
  if (cap >= 0 && cap < cfg_.topo.min_hosts) {
    throw std::invalid_argument(
        "Config: topo shape seats " + std::to_string(cap) + " host ports but the cluster needs " +
        std::to_string(cfg_.topo.min_hosts) +
        " (nodes * hcas_per_node * hca.ports); raise the fixed shape parameters "
        "(topo.fattree_k / topo.df_*) or leave them 0 to auto-derive");
  }

  // VCI knobs: fail fast on shapes the model cannot represent.
  if (cfg_.vci.count < 1 || cfg_.vci.count > kMaxVcis) {
    throw std::invalid_argument(
        "Config: vci.count = " + std::to_string(cfg_.vci.count) +
        " is out of range: each rank hosts between 1 and " + std::to_string(kMaxVcis) +
        " virtual communication interfaces.  Supported combinations: 1 <= vci.count <= " +
        std::to_string(kMaxVcis));
  }
  if (cfg_.vci.threads < 1) {
    throw std::invalid_argument(
        "Config: vci.threads = " + std::to_string(cfg_.vci.threads) +
        " is out of range: every rank needs at least its main thread.  Supported "
        "combinations: vci.threads >= 1");
  }
  if (cfg_.vci.count > 1 &&
      cfg_.srq_pool_slots / std::max(1, cfg_.rails() * cfg_.vci.count) < 1) {
    throw std::invalid_argument(
        "Config: vci.count = " + std::to_string(cfg_.vci.count) +
        " conflicts with srq_pool_slots = " + std::to_string(cfg_.srq_pool_slots) +
        ": splitting the SRQ arena over " + std::to_string(cfg_.rails() * cfg_.vci.count) +
        " rail slices (rails() * vci.count) rounds the per-rail credit share "
        "to zero.  Supported combinations: srq_pool_slots >= rails() * "
        "vci.count, or fewer VCIs");
  }

  // Rendezvous-protocol knobs: fail fast on nonsense arm spaces.
  if (cfg_.rndv.epsilon < 0.0 || cfg_.rndv.epsilon > 1.0) {
    throw std::invalid_argument(
        "Config: rndv.epsilon = " + std::to_string(cfg_.rndv.epsilon) +
        " is out of range: the exploration rate is a probability.  Supported "
        "combinations: 0 <= rndv.epsilon <= 1");
  }
  if (cfg_.rndv.max_width < 0 || cfg_.rndv.max_width > cfg_.rails()) {
    throw std::invalid_argument(
        "Config: rndv.max_width = " + std::to_string(cfg_.rndv.max_width) +
        " conflicts with rails() = " + std::to_string(cfg_.rails()) +
        ": a stripe cannot spread over more rails than a peer pair has.  "
        "Supported combinations: 0 (no cap) <= rndv.max_width <= rails()");
  }

  // Parallel engine: min(sim_shards, nodes) shards.  Nodes are placed whole
  // (endpoints, shm channels, HCAs of one node always share a shard, so only
  // fabric traffic crosses shards); *which* shard is the placement policy
  // below.  Shard 0 is sim_ itself: with one shard nothing below ever
  // branches off the legacy path.
  const int shards = std::min(std::max(cfg_.sim_shards, 1), std::max(spec_.nodes, 1));
  using SP = Config::ShardPlacement;
  SP place = cfg_.shard_placement;
  if (place == SP::Auto) {
    // On a crossbar every placement is equivalent (one switch, uniform
    // distance) — RoundRobin keeps legacy sharded runs bit-identical.  The
    // multi-switch shapes default to fabric locality.
    place = cfg_.topo.shape == ib::TopoShape::Crossbar ? SP::RoundRobin : SP::Locality;
  }
  sims_.push_back(&sim_);
  if (shards > 1 && cfg_.topo.contention) {
    if (cfg_.topo.shape == ib::TopoShape::Crossbar) {
      throw std::invalid_argument(
          "Config: topo.contention = true with topo.shape = Crossbar conflicts "
          "with sim_shards = " + std::to_string(cfg_.sim_shards) +
          ": a single-switch fabric serializes every hop through one arbiter "
          "and cannot be partitioned across shards.  Supported combinations: "
          "contention on FatTree/Dragonfly with sim_shards > 1, or a Crossbar "
          "with sim_shards = 1");
    }
    if (place == SP::RoundRobin) {
      throw std::invalid_argument(
          "Config: shard_placement = RoundRobin conflicts with topo.contention "
          "= true and sim_shards = " + std::to_string(cfg_.sim_shards) +
          ": hop events mutate switch queue state, so every host must share a "
          "shard with its edge switch.  Use shard_placement = Locality (or "
          "Auto, which picks it on switched shapes)");
    }
  }

  fabric_ = std::make_unique<ib::Fabric>(sim_, cfg_.hca, cfg_.fabric, cfg_.topo);

  // The out-of-band handshake cannot beat one fabric hop.  The bound also
  // keeps its serial completion outside the window that posts it under the
  // parallel engine, whose lookahead is exactly this hop.
  const sim::Time min_hop = fabric_->topology().min_hop_latency();
  if (cfg_.conn_setup_latency < min_hop) {
    throw std::invalid_argument(
        "Config: conn_setup_latency = " + std::to_string(cfg_.conn_setup_latency) +
        " ps is below the minimum hop latency of " + std::to_string(min_hop) +
        " ps (fabric.wire_latency + fabric.switch_latency): a connection "
        "handshake cannot complete faster than one message crosses the "
        "fabric.  Supported combinations: conn_setup_latency >= "
        "fabric.wire_latency + fabric.switch_latency");
  }

  if (shards > 1) {
    for (int s = 1; s < shards; ++s) {
      shard_sims_.push_back(std::make_unique<sim::Simulator>());
      sims_.push_back(shard_sims_.back().get());
    }
    // Conservative lookahead: one wire + switch hop is the minimum virtual
    // time any cross-shard interaction spans (see Port::stage_uplink and
    // Switch::hop).
    engine_ = std::make_unique<sim::ShardEngine>(sims_, fabric_->topology().min_hop_latency());
  }

  // Node -> shard placement.  LIDs are assigned in node order below, so node
  // n's ports occupy lids [n*ports_per_node, (n+1)*ports_per_node).
  node_shard_.assign(static_cast<std::size_t>(std::max(spec_.nodes, 1)), 0);
  if (shards > 1) {
    if (place == SP::RoundRobin) {
      for (int n = 0; n < spec_.nodes; ++n) node_shard_[static_cast<std::size_t>(n)] = n % shards;
    } else {
      // Locality: nodes hanging off the same edge switch (dragonfly router)
      // must land on one shard, and neighbouring switches should too.  LIDs
      // ascend with node index and edge_switch_of is monotone in the lid, so
      // grouping is a single pass: a node opens a new group only when its
      // first port's switch is past every switch the previous nodes touched
      // (a node whose ports straddle two switches fuses them into one group).
      // Groups are then block-partitioned over the shards in order.
      const ib::Topology& topo = fabric_->topology();
      std::vector<int> node_group(static_cast<std::size_t>(spec_.nodes), 0);
      int groups = 0;
      int last_edge = -1;
      for (int n = 0; n < spec_.nodes; ++n) {
        const auto first = static_cast<ib::Lid>(n * ports_per_node);
        const auto last = static_cast<ib::Lid>((n + 1) * ports_per_node - 1);
        const int first_edge = topo.edge_switch_of(first);
        if (first_edge > last_edge) ++groups;
        node_group[static_cast<std::size_t>(n)] = groups - 1;
        last_edge = std::max(last_edge, topo.edge_switch_of(last));
      }
      for (int n = 0; n < spec_.nodes; ++n) {
        node_shard_[static_cast<std::size_t>(n)] =
            static_cast<int>(static_cast<std::int64_t>(node_group[static_cast<std::size_t>(n)]) *
                             shards / groups);
      }
    }
  }

  node_hcas_.resize(static_cast<std::size_t>(spec_.nodes));
  for (int n = 0; n < spec_.nodes; ++n) {
    for (int h = 0; h < cfg_.hcas_per_node; ++h) {
      node_hcas_[static_cast<std::size_t>(n)].push_back(&fabric_->add_hca(n, shard_sim(n)));
    }
  }

  // Sharded contention mode: each switch's queue state must live on the
  // shard thread of the hosts it serves (the Locality placement above makes
  // the assignment well-defined).
  if (engine_ && fabric_->topology().contention()) {
    std::vector<sim::Simulator*> sim_of_lid;
    sim_of_lid.reserve(static_cast<std::size_t>(spec_.nodes * ports_per_node));
    for (int n = 0; n < spec_.nodes; ++n) {
      for (int p = 0; p < ports_per_node; ++p) sim_of_lid.push_back(&shard_sim(n));
    }
    fabric_->topology().assign_switch_sims(sim_of_lid, sims_);
  }

  if (cfg_.fault.enabled) {
    ib::FaultPlan::Params fp;
    fp.seed = cfg_.fault.seed;
    fp.msg_error_rate = cfg_.fault.msg_error_rate;
    fp.ack_drop_fraction = cfg_.fault.ack_drop_fraction;
    fp.retry_latency = cfg_.fault.retry_latency;
    auto plan = std::make_unique<ib::FaultPlan>(fp);
    for (const Config::FaultConfig::LinkFlap& f : cfg_.fault.link_flaps) {
      ib::Hca* hca = node_hcas_.at(static_cast<std::size_t>(f.node))
                         .at(static_cast<std::size_t>(f.hca));
      plan->add_link_event(f.down_at, hca, f.port, /*up=*/false);
      if (f.up_at > f.down_at) plan->add_link_event(f.up_at, hca, f.port, /*up=*/true);
    }
    if (engine_) plan->enable_sharded_streams(fabric_->hca_count());
    plan->arm(sim_);
    ib::FaultPlan* raw = plan.get();
    fabric_->attach_fault(std::move(plan));
    tel_.gauge("fault.injected_errors",
               [raw] { return static_cast<double>(raw->injected_errors()); });
    tel_.gauge("fault.link_transitions",
               [raw] { return static_cast<double>(raw->link_transitions()); });
    tel_.gauge("fault.rnr_drops", [raw] { return static_cast<double>(raw->rnr_drops()); });
  }

  for (int r = 0; r < spec_.total_ranks(); ++r) {
    const int node = r / spec_.procs_per_node;
    eps_.push_back(std::make_unique<Endpoint>(shard_sim(node), r, node,
                                              node_hcas_[static_cast<std::size_t>(node)], cfg_,
                                              tel_));
  }

  // Hardware-layer gauges, sampled when a telemetry snapshot is taken.
  for (auto& node : node_hcas_) {
    for (ib::Hca* hca : node) {
      tel_.gauge("ib.send_engine_busy_us",
                 [hca] { return sim::to_s(hca->total_send_engine_busy()) * 1e6; });
      tel_.gauge("ib.qp_send_depth",
                 [hca] { return static_cast<double>(hca->total_send_queue_depth()); });
      tel_.gauge("ib.wqes_serviced",
                 [hca] { return static_cast<double>(hca->total_wqes_serviced()); });
      tel_.gauge("ib.bytes_tx", [hca] { return static_cast<double>(hca->total_bytes_tx()); });
      tel_.gauge("hca.doorbells",
                 [hca] { return static_cast<double>(hca->total_doorbells()); });
    }
  }

  // Switched-fabric telemetry.  Registered only when the topology actually
  // routes (multi-switch shape) or arbitrates (contention), so the default
  // crossbar-without-contention snapshot stays byte-identical to previous
  // releases.  The queue/stall counters move only in contention mode; the
  // hops histogram counts on every shape.
  if (cfg_.topo.shape != ib::TopoShape::Crossbar || cfg_.topo.contention) {
    ib::Topology* topo = &fabric_->topology();
    tel_.gauge("fabric.switch.count",
               [topo] { return static_cast<double>(topo->switch_count()); });
    tel_.gauge("fabric.switch.routed_pkts",
               [topo] { return static_cast<double>(topo->total_routed_pkts()); });
    tel_.gauge("fabric.switch.stalls",
               [topo] { return static_cast<double>(topo->total_stalls()); });
    tel_.gauge("fabric.switch.drops",
               [topo] { return static_cast<double>(topo->total_drops()); });
    tel_.gauge("fabric.switch.queue_hwm_bytes",
               [topo] { return static_cast<double>(topo->max_queue_hwm_bytes()); });
    for (int h = 1; h <= ib::kMaxRouteHops; ++h) {
      tel_.gauge("fabric.switch.hops.h" + std::to_string(h), [this, h] {
        std::uint64_t n = 0;
        for (const auto& node : node_hcas_) {
          for (const ib::Hca* hca : node) n += hca->total_hops_taken(h);
        }
        return static_cast<double>(n);
      });
    }
  }

  // Event-kernel self-telemetry, summed over every shard (size-1 sums keep
  // the unsharded values bit-identical to the legacy single-simulator
  // gauges).  Gauges derived from wall-clock time live under "sim.wall." so
  // determinism checks can exclude them when comparing snapshots of two runs
  // (virtual-time state must match bit for bit; host speed obviously need
  // not).  With the parallel engine the run phases overlap in wall time, so
  // rate gauges divide by the *slowest* shard's wall time.
  auto sum_u64 = [this](std::uint64_t (sim::Simulator::*f)() const) {
    std::uint64_t n = 0;
    for (const sim::Simulator* s : sims_) n += (s->*f)();
    return static_cast<double>(n);
  };
  auto max_wall = [this] {
    double w = 0.0;
    for (const sim::Simulator* s : sims_) w = std::max(w, s->run_wall_seconds());
    return w;
  };
  tel_.gauge("sim.events", [sum_u64] { return sum_u64(&sim::Simulator::events_processed); });
  tel_.gauge("sim.lane_events", [sum_u64] { return sum_u64(&sim::Simulator::lane_events); });
  tel_.gauge("sim.heap_events", [sum_u64] { return sum_u64(&sim::Simulator::heap_events); });
  tel_.gauge("sim.kernel_allocs",
             [sum_u64] { return sum_u64(&sim::Simulator::kernel_allocs); });
  tel_.gauge("sim.allocs_per_event", [sum_u64] {
    const double events = sum_u64(&sim::Simulator::events_processed);
    return events == 0.0 ? 0.0 : sum_u64(&sim::Simulator::kernel_allocs) / events;
  });
  tel_.gauge("sim.fiber_switches",
             [sum_u64] { return sum_u64(&sim::Simulator::fiber_switches); });
  tel_.gauge("sim.wall.run_seconds", max_wall);
  tel_.gauge("sim.wall.events_per_sec", [sum_u64, max_wall] {
    const double w = max_wall();
    return w == 0.0 ? 0.0 : sum_u64(&sim::Simulator::events_processed) / w;
  });
  tel_.gauge("sim.wall.switches_per_sec", [sum_u64, max_wall] {
    const double w = max_wall();
    return w == 0.0 ? 0.0 : sum_u64(&sim::Simulator::fiber_switches) / w;
  });

  // Parallel-engine telemetry (registered only when sharding is active, so
  // unsharded snapshots stay byte-identical to previous releases).  The
  // barrier waits are wall-clock quantities and live under a ".wall."
  // segment for the same exclusion reason as above.
  if (engine_) {
    sim::ShardEngine* eng = engine_.get();
    tel_.gauge("sim.shard.count", [eng] { return static_cast<double>(eng->shards()); });
    tel_.gauge("sim.shard.epochs", [eng] { return static_cast<double>(eng->epochs()); });
    tel_.gauge("sim.shard.serial_actions",
               [eng] { return static_cast<double>(eng->serial_actions()); });
    tel_.gauge("sim.shard.cross_events",
               [eng] { return static_cast<double>(eng->cross_events()); });
    tel_.gauge("sim.shard.mailbox_hwm",
               [eng] { return static_cast<double>(eng->mailbox_high_water()); });
    for (int s = 0; s < engine_->shards(); ++s) {
      tel_.gauge("sim.shard.wall.barrier_ns.s" + std::to_string(s),
                 [eng, s] { return static_cast<double>(eng->barrier_wait_ns(s)); });
    }
  }

  // No pair is built here.  Each endpoint's connection manager drives
  // wire_pair on first contact, after the modelled handshake; wire_pair
  // marks both sides Ready (flushing their queues).
  for (int r = 0; r < spec_.total_ranks(); ++r) {
    Endpoint* ep = eps_[static_cast<std::size_t>(r)].get();
    ep->conn().set_wire_fn([this, r](int peer) { wire_pair(r, peer); });
  }
}

void World::wire_pair(int i, int j) {
  Endpoint& a = *eps_.at(static_cast<std::size_t>(i));
  Endpoint& b = *eps_.at(static_cast<std::size_t>(j));
  // Idempotent: simultaneous connects resolve to one wiring (the second
  // handshake finds both sides already Ready and only flushes).
  if (a.conn().ready(j)) return;
  if (a.node() == b.node()) {
    Endpoint::connect_shm(a, b);
  } else {
    Endpoint::connect_net(a, b);
  }
  a.conn().mark_ready(j);
  b.conn().mark_ready(i);
}

World::~World() = default;

void World::run(const std::function<void(Communicator&)>& rank_main) {
  // One ProcessSet per shard (one in all when unsharded): every rank's
  // fibers are owned (created, run, torn down) by the shard its node lives
  // on.  Sharded, the post-run failure and deadlock checks walk the
  // *global* add order so the first error reported matches what the
  // single-threaded run_all would have raised.
  std::vector<std::unique_ptr<sim::ProcessSet>> sets;
  sets.reserve(sims_.size());
  for (sim::Simulator* s : sims_) sets.push_back(std::make_unique<sim::ProcessSet>(*s));

  std::vector<int> group(static_cast<std::size_t>(ranks()));
  std::iota(group.begin(), group.end(), 0);
  std::vector<sim::Process*> order;
  order.reserve(static_cast<std::size_t>(ranks()) * 2);

  const int nthreads = std::max(1, cfg_.vci.threads);
  for (int r = 0; r < ranks(); ++r) {
    const int node = r / spec_.procs_per_node;
    sim::ProcessSet& procs = *sets[static_cast<std::size_t>(node_shard(node))];
    Endpoint* ep = eps_[static_cast<std::size_t>(r)].get();
    ep->coll_engine().begin_run();
    if (nthreads == 1) {
      order.push_back(
          &procs.add("rank" + std::to_string(r), [this, ep, group, &rank_main](sim::Process& p) {
            ep->attach_process(&p);
            Communicator comm(this, ep, group, ep->rank(), /*ctx_base=*/0);
            rank_main(comm);
            // Rank code is done: let the collective-progress fiber drain any
            // schedules still in flight, then exit.
            ep->coll_engine().request_shutdown();
          }));
    } else {
      // Multi-threaded rank: every modeled app thread is its own fiber, all
      // running rank_main against the shared endpoint (user code branches on
      // comm.thread_id()).  The last thread out shuts the collective engine.
      auto remaining = std::make_shared<int>(nthreads);
      for (int t = 0; t < nthreads; ++t) {
        order.push_back(&procs.add("rank" + std::to_string(r) + ".t" + std::to_string(t),
                                   [this, ep, group, t, remaining, &rank_main](sim::Process& p) {
                                     if (t == 0) ep->attach_process(&p);
                                     ep->register_thread(&p, t);
                                     Communicator comm(this, ep, group, ep->rank(),
                                                       /*ctx_base=*/0);
                                     rank_main(comm);
                                     if (--*remaining == 0) ep->coll_engine().request_shutdown();
                                   }));
      }
    }
    // The rank's collective-progress fiber: models the asynchronous progress
    // thread that advances in-flight collective schedules while the rank's
    // own fiber computes or waits.
    order.push_back(&procs.add("collprog" + std::to_string(r), [ep](sim::Process& p) {
      ep->coll_engine().progress_main(p);
    }));
  }

  if (!engine_) {
    sets.front()->run_all(sim_.now());
    end_time_ = sim_.now();
    audit_wiring();
    return;
  }

  // Clocks may differ across shards after a previous run (each stops at its
  // own last event); start the next wave at the global frontier so no shard
  // schedules into its past.
  sim::Time start = 0;
  for (const sim::Simulator* s : sims_) start = std::max(start, s->now());
  for (auto& set : sets) set->start_all(start);

  engine_->run();

  bool all_done = true;
  std::string stuck;
  for (sim::Process* p : order) {
    if (!p->finished()) {
      all_done = false;
      if (!stuck.empty()) stuck += ", ";
      stuck += p->name();
    }
  }
  for (sim::Process* p : order) p->rethrow_if_failed();
  if (!all_done) {
    throw std::runtime_error(
        "World::run: deadlock — event queues empty but processes blocked: " + stuck);
  }
  sim::Time end = 0;
  for (const sim::Simulator* s : sims_) end = std::max(end, s->now());
  end_time_ = end;
  audit_wiring();
}

void World::audit_wiring() const {
  for (const auto& ep : eps_) ep->conn().check_settled();
}

}  // namespace ib12x::mvx
