// The switched topology layer driven through the full MPI substrate:
// sharded-oracle equivalence on a fat-tree at 64 ranks, bit-reproducibility
// of the routed shapes, locality shard placement, and the Config validation
// that names conflicting fields.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "mvx/mpi.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

bool is_wall_gauge(const std::string& name) {
  return name.find(".wall.") != std::string::npos;
}

/// Metrics legitimately different between shard counts (see
/// sharded_determinism_test.cpp for the rationale).
bool excluded_from_oracle(const std::string& name) {
  return is_wall_gauge(name) || name.rfind("sim.shard.", 0) == 0 ||
         name == "sim.kernel_allocs" || name == "sim.allocs_per_event";
}

struct Digest {
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  std::map<std::string, double> telemetry;
};

Digest digest_of(World& w) {
  Digest d;
  d.events = w.events_processed();
  d.end_time = w.end_time();
  for (const auto& s : w.telemetry().snapshot()) {
    if (excluded_from_oracle(s.name)) continue;
    d.telemetry[s.name] = s.value;
  }
  return d;
}

void expect_same_digest(const Digest& a, const Digest& b, const std::string& what) {
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.end_time, b.end_time) << what;
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size()) << what;
  for (const auto& [name, value] : a.telemetry) {
    auto it = b.telemetry.find(name);
    ASSERT_NE(it, b.telemetry.end()) << what << ": metric missing: " << name;
    EXPECT_EQ(it->second, value) << what << ": metric diverged: " << name;
  }
}

/// Seeded 64-rank alltoall on an auto-derived fat-tree: every rank
/// contributes 64 doubles per peer, verifies the gathered matrix, then
/// barriers.  Eager-sized blocks keep the smoke fast.
Digest run_fattree_alltoall64(int shards, std::uint64_t seed) {
  Config cfg = Config::enhanced(1, Policy::Binding);
  cfg.sim_shards = shards;
  cfg.seed = seed;
  cfg.topo.shape = ib::TopoShape::FatTree;
  World w(ClusterSpec{/*nodes=*/16, /*procs_per_node=*/4}, cfg);
  w.run([](Communicator& c) {
    ASSERT_EQ(c.size(), 64);
    constexpr std::size_t kPer = 64;
    std::vector<double> sbuf(kPer * 64), rbuf(kPer * 64);
    for (int peer = 0; peer < 64; ++peer) {
      for (std::size_t i = 0; i < kPer; ++i) {
        sbuf[static_cast<std::size_t>(peer) * kPer + i] =
            c.rank() * 1e6 + peer * 1e3 + static_cast<double>(i);
      }
    }
    c.alltoall(sbuf.data(), rbuf.data(), kPer, DOUBLE);
    for (int peer = 0; peer < 64; ++peer) {
      for (std::size_t i = 0; i < kPer; ++i) {
        ASSERT_EQ(rbuf[static_cast<std::size_t>(peer) * kPer + i],
                  peer * 1e6 + c.rank() * 1e3 + static_cast<double>(i))
            << "rank " << c.rank() << " from " << peer << " elem " << i;
      }
    }
    c.barrier();
  });
  return digest_of(w);
}

TEST(TopologyMvx, FatTreeAlltoall64RanksShardedMatchesOracle) {
  const Digest oracle = run_fattree_alltoall64(/*shards=*/1, /*seed=*/0xA11A);
  for (int shards : {2, 4}) {
    const Digest sharded = run_fattree_alltoall64(shards, /*seed=*/0xA11A);
    expect_same_digest(oracle, sharded, "fat-tree alltoall, " + std::to_string(shards) + " shards");
  }
  // The topology group must be present and show multi-hop routing.
  ASSERT_TRUE(oracle.telemetry.count("fabric.switch.count"));
  EXPECT_GT(oracle.telemetry.at("fabric.switch.count"), 1.0);
  double multi_hop = 0.0;
  for (int h = 2; h <= ib::kMaxRouteHops; ++h) {
    multi_hop += oracle.telemetry.at("fabric.switch.hops.h" + std::to_string(h));
  }
  EXPECT_GT(multi_hop, 0.0) << "no message ever crossed more than one switch";
}

/// Routed shapes with contention: same config run twice must digest
/// identically (bit-reproducibility per seed), unsharded and sharded alike.
Digest run_contended(ib::TopoShape shape, ib::RoutePolicy routing, std::uint64_t seed,
                     int shards = 1) {
  Config cfg = Config::enhanced(2, Policy::EPC);
  cfg.sim_shards = shards;
  cfg.seed = seed;
  cfg.topo.shape = shape;
  cfg.topo.routing = routing;
  cfg.topo.contention = true;
  World w(ClusterSpec{/*nodes=*/8, /*procs_per_node=*/2}, cfg);
  w.run([](Communicator& c) {
    const int peer = (c.rank() + c.size() / 2) % c.size();
    std::vector<std::byte> out = testutil::payload(96 * 1024, c.rank());
    std::vector<std::byte> in(96 * 1024);
    c.sendrecv(out.data(), out.size(), BYTE, peer, 7, in.data(), in.size(), BYTE, peer, 7);
    ASSERT_EQ(in, testutil::payload(96 * 1024, peer)) << "rank " << c.rank();
    c.barrier();
  });
  return digest_of(w);
}

TEST(TopologyMvx, ContendedRoutedShapesAreBitReproducible) {
  for (auto [shape, routing, what] :
       {std::tuple{ib::TopoShape::FatTree, ib::RoutePolicy::Minimal, "fat-tree"},
        std::tuple{ib::TopoShape::Dragonfly, ib::RoutePolicy::Minimal, "dragonfly minimal"},
        std::tuple{ib::TopoShape::Dragonfly, ib::RoutePolicy::Valiant, "dragonfly valiant"}}) {
    const Digest a = run_contended(shape, routing, 0xD15C);
    const Digest b = run_contended(shape, routing, 0xD15C);
    expect_same_digest(a, b, what);
    // Sharded runs on the default wiring reproduce themselves per seed.
    // (They do not match the unsharded digest on this shape: two-port HCAs
    // under contention diverge from the oracle with any wiring.)
    for (int shards : {2, 4}) {
      expect_same_digest(run_contended(shape, routing, 0xD15C, shards),
                         run_contended(shape, routing, 0xD15C, shards),
                         std::string(what) + ", " + std::to_string(shards) + " shards");
    }
    EXPECT_GT(a.telemetry.at("fabric.switch.routed_pkts"), 0.0) << what;
    EXPECT_EQ(a.telemetry.at("fabric.switch.drops"), 0.0) << what;
  }
}

/// Ring-neighbour traffic on a fat-tree, 16 nodes over 4 shards: block
/// (locality) placement keeps most neighbour pairs on one shard, round-robin
/// makes every pair cross.  The conservative engine's cross_events counter is
/// the direct measure.
double cross_events_with(Config::ShardPlacement place) {
  Config cfg = Config::enhanced(1, Policy::Binding);
  cfg.sim_shards = 4;
  cfg.hca.ports = 1;  // one lid per node: nodes n, n+1 share edge switches
  cfg.topo.shape = ib::TopoShape::FatTree;
  cfg.shard_placement = place;
  World w(ClusterSpec{/*nodes=*/16, /*procs_per_node=*/1}, cfg);
  w.run([](Communicator& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    std::vector<std::byte> out = testutil::payload(32 * 1024, c.rank());
    std::vector<std::byte> in(32 * 1024);
    for (int it = 0; it < 4; ++it) {
      c.sendrecv(out.data(), out.size(), BYTE, next, it, in.data(), in.size(), BYTE, prev, it);
      ASSERT_EQ(in, testutil::payload(32 * 1024, prev));
    }
    c.barrier();
  });
  double cross = 0.0;
  for (const auto& s : w.telemetry().snapshot()) {
    if (s.name == "sim.shard.cross_events") cross = s.value;
  }
  return cross;
}

TEST(TopologyMvx, LocalityPlacementCutsCrossShardEvents) {
  const double rr = cross_events_with(Config::ShardPlacement::RoundRobin);
  const double loc = cross_events_with(Config::ShardPlacement::Locality);
  EXPECT_GT(rr, 0.0);
  EXPECT_LT(loc, rr) << "locality placement should cut cross-shard traffic "
                     << "(round-robin crosses on every ring edge)";
}

TEST(TopologyMvx, AutoPlacementPicksLocalityOnFatTree) {
  // Auto on a switched shape must behave like Locality (same digest).
  Config cfg = Config::enhanced(1, Policy::Binding);
  cfg.sim_shards = 4;
  cfg.hca.ports = 1;
  cfg.topo.shape = ib::TopoShape::FatTree;
  World w(ClusterSpec{16, 1}, cfg);
  EXPECT_EQ(w.config().shard_placement, Config::ShardPlacement::Auto);
  // Block placement: first and last node on different shards, neighbours of
  // node 0 co-sharded with it.
  EXPECT_EQ(w.node_shard(0), 0);
  EXPECT_EQ(w.node_shard(1), 0);
  EXPECT_EQ(w.node_shard(15), 3);
}

// ---- Config validation: conflicting fields are named ----------------------

TEST(TopologyMvx, ContendedCrossbarWithShardsErrorNamesFields) {
  Config cfg = Config::enhanced(2, Policy::EPC);
  cfg.sim_shards = 2;
  cfg.topo.contention = true;
  try {
    World w(ClusterSpec{4, 1}, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("topo.contention"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Crossbar"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sim_shards"), std::string::npos) << msg;
  }
}

TEST(TopologyMvx, RoundRobinWithContentionErrorNamesPlacement) {
  Config cfg = Config::enhanced(2, Policy::EPC);
  cfg.sim_shards = 2;
  cfg.topo.shape = ib::TopoShape::FatTree;
  cfg.topo.contention = true;
  cfg.shard_placement = Config::ShardPlacement::RoundRobin;
  try {
    World w(ClusterSpec{4, 1}, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("shard_placement"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Locality"), std::string::npos) << msg;
  }
}

TEST(TopologyMvx, UndersizedFixedShapeErrorNamesTopoFields) {
  Config cfg;
  cfg.topo.shape = ib::TopoShape::FatTree;
  cfg.topo.fattree_k = 2;  // 2 host ports, cluster needs 4 nodes * 2 ports
  try {
    World w(ClusterSpec{4, 1}, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("topo"), std::string::npos) << msg;
    EXPECT_NE(msg.find("hca.ports"), std::string::npos) << msg;
  }
}

TEST(TopologyMvx, ContendedShardedFatTreeMatchesUnshardedRun) {
  // Contention + Locality sharding: switch hop chains run on shard threads;
  // the digest must still match the single-threaded run of the same config.
  auto run = [](int shards) {
    Config cfg = Config::enhanced(1, Policy::Binding);
      cfg.sim_shards = shards;
    cfg.hca.ports = 1;
    cfg.topo.shape = ib::TopoShape::FatTree;
    cfg.topo.contention = true;
    World w(ClusterSpec{8, 1}, cfg);
    w.run([](Communicator& c) {
      const int peer = (c.rank() + c.size() / 2) % c.size();
      std::vector<std::byte> out = testutil::payload(64 * 1024, c.rank());
      std::vector<std::byte> in(64 * 1024);
      c.sendrecv(out.data(), out.size(), BYTE, peer, 3, in.data(), in.size(), BYTE, peer, 3);
      ASSERT_EQ(in, testutil::payload(64 * 1024, peer));
      c.barrier();
    });
    return digest_of(w);
  };
  const Digest oracle = run(1);
  for (int shards : {2, 4}) {
    expect_same_digest(oracle, run(shards),
                       "contended fat-tree, " + std::to_string(shards) + " shards");
  }
  EXPECT_GT(oracle.telemetry.at("fabric.switch.routed_pkts"), 0.0);
}

}  // namespace
}  // namespace ib12x::mvx
