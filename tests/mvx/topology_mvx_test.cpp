// The switched topology layer driven through the full MPI substrate:
// bit-reproducibility of a 64-rank fat-tree alltoall, of the contended
// routed shapes and of steady-state alltoall rounds, and the Config
// validation that names conflicting fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "mvx/mpi.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

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
    if (s.name.rfind("sim.wall.", 0) == 0) continue;  // host speed, not the model
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
Digest run_fattree_alltoall64(std::uint64_t seed) {
  Config cfg = Config::enhanced(1, Policy::Binding);
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

TEST(TopologyMvx, FatTreeAlltoall64RanksIsBitReproducible) {
  const Digest a = run_fattree_alltoall64(/*seed=*/0xA11A);
  expect_same_digest(a, run_fattree_alltoall64(/*seed=*/0xA11A), "fat-tree alltoall");
  // The topology group must be present and show multi-hop routing.
  ASSERT_TRUE(a.telemetry.count("fabric.switch.count"));
  EXPECT_GT(a.telemetry.at("fabric.switch.count"), 1.0);
  double multi_hop = 0.0;
  for (int h = 2; h <= ib::kMaxRouteHops; ++h) {
    multi_hop += a.telemetry.at("fabric.switch.hops.h" + std::to_string(h));
  }
  EXPECT_GT(multi_hop, 0.0) << "no message ever crossed more than one switch";
}

/// Routed shapes with contention: same config run twice must digest
/// identically (bit-reproducibility per seed).
Digest run_contended(ib::TopoShape shape, ib::RoutePolicy routing, std::uint64_t seed) {
  Config cfg = Config::enhanced(2, Policy::EPC);
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
    EXPECT_GT(a.telemetry.at("fabric.switch.routed_pkts"), 0.0) << what;
    EXPECT_EQ(a.telemetry.at("fabric.switch.drops"), 0.0) << what;
  }
}

// ---- Config validation: conflicting fields are named ----------------------

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

TEST(TopologyMvx, ContendedSinglePortFatTreeIsBitReproducible) {
  // Contention on one-port HCAs: every host owns a whole edge-switch port,
  // and the switch hop chains must replay identically run to run.
  auto run = [] {
    Config cfg = Config::enhanced(1, Policy::Binding);
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
  const Digest a = run();
  expect_same_digest(a, run(), "contended one-port fat-tree");
  EXPECT_GT(a.telemetry.at("fabric.switch.routed_pkts"), 0.0);
}

/// Steady state: 64 ranks (16 nodes x 4) on a contended fat-tree with four
/// EPC QPs per pair run three back-to-back 2 KiB alltoalls.  The first round
/// also carries every handshake; rounds two and three run on settled
/// wiring, which is where order-dependent bugs in cross-node traffic show.
Digest run_steady_alltoall() {
  Config cfg = Config::enhanced(4, Policy::EPC);
  cfg.topo.shape = ib::TopoShape::FatTree;
  cfg.topo.contention = true;
  World w(ClusterSpec{/*nodes=*/16, /*procs_per_node=*/4}, cfg);
  w.run([](Communicator& c) {
    constexpr std::size_t kBlock = 2048;
    const auto n = static_cast<std::size_t>(c.size());
    std::vector<std::byte> out(kBlock * n), in(kBlock * n);
    for (int round = 0; round < 3; ++round) {
      for (std::size_t p = 0; p < n; ++p) {
        const std::vector<std::byte> block =
            testutil::payload(kBlock, c.rank(), round * 1000 + static_cast<int>(p));
        std::copy(block.begin(), block.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(p * kBlock));
      }
      c.alltoall(out.data(), in.data(), kBlock, BYTE);
      for (std::size_t p = 0; p < n; ++p) {
        const std::vector<std::byte> want =
            testutil::payload(kBlock, static_cast<int>(p), round * 1000 + c.rank());
        ASSERT_TRUE(std::equal(want.begin(), want.end(),
                               in.begin() + static_cast<std::ptrdiff_t>(p * kBlock)))
            << "rank " << c.rank() << " round " << round << " block from " << p;
      }
    }
  });
  return digest_of(w);
}

TEST(TopologyMvx, SteadyStateAlltoallRoundsAreBitReproducible) {
  const Digest a = run_steady_alltoall();
  expect_same_digest(a, run_steady_alltoall(), "3 alltoall rounds, contended fat-tree");
  EXPECT_GT(a.telemetry.at("fabric.switch.routed_pkts"), 0.0);
}

}  // namespace
}  // namespace ib12x::mvx
