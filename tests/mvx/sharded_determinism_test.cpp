// The parallel engine's oracle contract: `sim_shards = N` must produce
// bit-identical simulated-time results to the single-threaded run, on the
// default wiring (connections made on first contact, each handshake
// completing as a serial action).  Three layers of evidence per workload:
//   1. every payload delivered under sharding is byte-exact (asserted inside
//      the rank bodies);
//   2. the full virtual-time digest — end time, global event count, every
//      telemetry metric — matches the sim_shards = 1 oracle exactly.  Only
//      host-speed gauges (any ".wall." metric), the sim.shard.* group and the
//      two allocator-shape gauges (per-shard slab growth differs, event
//      counts do not) are excluded;
//   3. faulty runs (link flaps + message errors) under sim_shards = 2 stay
//      bit-reproducible run to run per seed — the PR-5 soak property carried
//      into sharded mode.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "mvx/mpi.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

using testutil::payload;

bool is_wall_gauge(const std::string& name) {
  return name.find(".wall.") != std::string::npos;
}

/// True for metrics legitimately different between shard counts: host-speed
/// gauges, the shard group itself, and allocator-shape gauges (each shard
/// grows its own event slab, so *allocations* differ while event counts are
/// required to match).
bool excluded_from_oracle(const std::string& name) {
  return is_wall_gauge(name) || name.rfind("sim.shard.", 0) == 0 ||
         name == "sim.kernel_allocs" || name == "sim.allocs_per_event";
}

struct Digest {
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  std::map<std::string, double> telemetry;  ///< oracle-comparable metrics only
  std::map<std::string, double> shard;      ///< the sim.shard.* group
};

/// A fig06-sized workload on a 4-node cluster: windowed large-message
/// (rendezvous) bandwidth across nodes, small-message acks, intra-node shm
/// token passing, and a closing barrier — with byte-exact payload checks.
Digest run_fig06_sized(int shards) {
  Config cfg = Config::enhanced(4, Policy::EPC);
  cfg.sim_shards = shards;
  World w(ClusterSpec{/*nodes=*/4, /*procs_per_node=*/2}, cfg);
  constexpr std::size_t kBytes = 1 << 20;
  constexpr int kWindow = 4;
  constexpr int kIters = 3;
  w.run([](Communicator& c) {
    const int peer = c.rank() ^ 2;      // cross-node pairs (node = rank / 2)
    const int neighbor = c.rank() ^ 1;  // same-node pairs (shm channel)
    // One buffer per window slot, allocated once and reused every iteration:
    // the registration cache is keyed by exact pointer, so per-iteration
    // allocations would make hit rates (and thus virtual timing) depend on
    // heap-address reuse instead of on the engine under test.
    std::vector<std::vector<std::byte>> bufs(kWindow);
    for (int i = 0; i < kWindow; ++i) {
      bufs[static_cast<std::size_t>(i)] = payload(kBytes, c.rank(), i);
    }
    for (int it = 0; it < kIters; ++it) {
      if ((c.rank() & 2) == 0) {
        std::vector<Request> reqs;
        for (int i = 0; i < kWindow; ++i) {
          reqs.push_back(c.isend(bufs[static_cast<std::size_t>(i)].data(), kBytes, BYTE, peer,
                                 it * kWindow + i));
        }
        c.waitall(reqs);
        std::byte ack{};
        c.recv(&ack, 1, BYTE, peer, 100 + it);
      } else {
        std::vector<Request> reqs;
        for (int i = 0; i < kWindow; ++i) {
          reqs.push_back(c.irecv(bufs[static_cast<std::size_t>(i)].data(), kBytes, BYTE,
                                 peer, it * kWindow + i));
        }
        c.waitall(reqs);
        for (int i = 0; i < kWindow; ++i) {
          ASSERT_EQ(bufs[static_cast<std::size_t>(i)], payload(kBytes, peer, i))
              << "rank " << c.rank() << " iter " << it << " window " << i;
          // Re-fill so a stale buffer can't satisfy the next iteration's check.
          bufs[static_cast<std::size_t>(i)].assign(kBytes, std::byte{0});
        }
        std::byte ack{};
        c.send(&ack, 1, BYTE, peer, 100 + it);
      }
      // Intra-node shm traffic in the same virtual timeframe (never crosses
      // a shard: both ranks of a node land on the node's shard).
      std::byte tok{};
      if (c.rank() % 2 == 0) {
        c.send(&tok, 1, BYTE, neighbor, 200 + it);
        c.recv(&tok, 1, BYTE, neighbor, 200 + it);
      } else {
        c.recv(&tok, 1, BYTE, neighbor, 200 + it);
        c.send(&tok, 1, BYTE, neighbor, 200 + it);
      }
    }
    c.barrier();
  });

  Digest d;
  d.events = w.events_processed();
  d.end_time = w.end_time();
  for (const auto& s : w.telemetry().snapshot()) {
    if (s.name.rfind("sim.shard.", 0) == 0 && !is_wall_gauge(s.name)) {
      d.shard[s.name] = s.value;
    }
    if (excluded_from_oracle(s.name)) continue;
    d.telemetry[s.name] = s.value;
  }
  return d;
}

void expect_same_digest(const Digest& oracle, const Digest& sharded, int shards) {
  EXPECT_EQ(sharded.events, oracle.events) << shards << " shards";
  EXPECT_EQ(sharded.end_time, oracle.end_time) << shards << " shards";
  ASSERT_EQ(sharded.telemetry.size(), oracle.telemetry.size()) << shards << " shards";
  for (const auto& [name, value] : oracle.telemetry) {
    auto it = sharded.telemetry.find(name);
    ASSERT_NE(it, sharded.telemetry.end())
        << "metric missing under " << shards << " shards: " << name;
    EXPECT_EQ(it->second, value) << "metric diverged under " << shards << " shards: " << name;
  }
}

TEST(ShardedDeterminism, TwoAndFourShardsMatchSingleThreadOracle) {
  const Digest oracle = run_fig06_sized(1);
  const Digest two = run_fig06_sized(2);
  const Digest four = run_fig06_sized(4);

  // The oracle run must not have a parallel engine at all.
  EXPECT_TRUE(oracle.shard.empty());
  expect_same_digest(oracle, two, 2);
  expect_same_digest(oracle, four, 4);

  // Sanity: the workload crossed shards and the engine really ran epochs.
  EXPECT_EQ(two.shard.at("sim.shard.count"), 2.0);
  EXPECT_EQ(four.shard.at("sim.shard.count"), 4.0);
  EXPECT_GT(four.shard.at("sim.shard.epochs"), 0.0);
  EXPECT_GT(four.shard.at("sim.shard.cross_events"), 0.0);
  EXPECT_GE(four.shard.at("sim.shard.mailbox_hwm"), 1.0);
}

TEST(ShardedDeterminism, ShardCountClampsToNodes) {
  // 8 requested shards on 4 nodes → 4 shards, still oracle-identical.
  const Digest oracle = run_fig06_sized(1);
  const Digest eight = run_fig06_sized(8);
  expect_same_digest(oracle, eight, 8);
  EXPECT_EQ(eight.shard.at("sim.shard.count"), 4.0);
}

// ---- sharded handshake stress: wiring as serial actions ----

/// Connection handshakes under the parallel engine: pairs that connect
/// simultaneously (both ranks initiate at the same instant), handshakes that
/// complete while a link is down, and two VCIs per rank (each driven by its
/// own thread), so every handshake wires both VCI groups across shards.
/// Link flaps only (no per-message error draws), so the run stays
/// comparable to the oracle.
Digest run_handshake_stress(int shards) {
  Config cfg = Config::enhanced(2, Policy::EPC);
  cfg.hcas_per_node = 2;
  cfg.sim_shards = shards;
  cfg.vci.count = 2;
  cfg.vci.threads = 2;
  cfg.fault.enabled = true;
  // Node 1's first HCA is down while the first handshakes (t = 25 us)
  // complete: their QPs on that port start in the error state.
  Config::FaultConfig::LinkFlap flap;
  flap.node = 1;
  flap.hca = 0;
  flap.port = 0;
  flap.down_at = sim::microseconds(10.0);
  flap.up_at = sim::microseconds(70.0);
  cfg.fault.link_flaps.push_back(flap);
  World w(ClusterSpec{/*nodes=*/4, /*procs_per_node=*/2}, cfg);
  w.run([](Communicator& c) {
    const int t = c.thread_id();
    const int n = c.size();
    // Phase 1, at t = 0: pairwise exchange across nodes — both sides of
    // each pair initiate the same handshake at the same instant.
    const int partner = c.rank() ^ 2;
    {
      const std::vector<std::byte> out = payload(2048, c.rank(), 10 + t);
      std::vector<std::byte> in(2048);
      c.sendrecv(out.data(), out.size(), BYTE, partner, 10 + t, in.data(), in.size(), BYTE,
                 partner, 10 + t);
      ASSERT_EQ(in, payload(2048, partner, 10 + t)) << "rank " << c.rank() << " thread " << t;
    }
    // Phase 2, staggered by the first exchange: a ring shifted by three, so
    // new pairs connect mid-run, with eager and rendezvous sizes on this
    // thread's VCI.
    const int right = (c.rank() + 3) % n;
    const int left = (c.rank() + n - 3) % n;
    for (int i = 0; i < 3; ++i) {
      const std::size_t bytes = i == 1 ? 40 * 1024 : 700;
      const int tag = 100 * (t + 1) + i;
      const std::vector<std::byte> out = payload(bytes, c.rank(), tag);
      std::vector<std::byte> in(bytes);
      c.sendrecv(out.data(), bytes, BYTE, right, tag, in.data(), bytes, BYTE, left, tag);
      ASSERT_EQ(in, payload(bytes, left, tag)) << "rank " << c.rank() << " tag " << tag;
    }
  });

  Digest d;
  d.events = w.events_processed();
  d.end_time = w.end_time();
  for (const auto& s : w.telemetry().snapshot()) {
    if (s.name.rfind("sim.shard.", 0) == 0 && !is_wall_gauge(s.name)) {
      d.shard[s.name] = s.value;
    }
    if (excluded_from_oracle(s.name)) continue;
    d.telemetry[s.name] = s.value;
  }
  return d;
}

TEST(ShardedHandshake, StressMatchesSingleThreadOracle) {
  const Digest oracle = run_handshake_stress(1);
  for (int shards : {2, 4}) {
    const Digest sharded = run_handshake_stress(shards);
    expect_same_digest(oracle, sharded, shards);
    // Every handshake ran as a serial action: one per initiating side.
    EXPECT_GT(sharded.shard.at("sim.shard.serial_actions"), 0.0) << shards << " shards";
  }
  // The workload did what it claims: every pair crosses nodes and wires
  // both VCI groups (2 HCAs x 2 QPs x 2 VCIs = 8 QPs per side), and rails
  // born dead behind the flapped port recovered.
  const double pairs = oracle.telemetry.at("conn.established") / 2;
  EXPECT_GT(pairs, 0.0);
  EXPECT_EQ(oracle.telemetry.at("conn.qps_created"), pairs * 2 * 8);
  EXPECT_GT(oracle.telemetry.at("rail.down"), 0.0);
  EXPECT_GT(oracle.telemetry.at("rail.recovered"), 0.0);
  EXPECT_GT(oracle.telemetry.at("vci.sends.v1"), 0.0);
}

// ---- sharded fault soak: the PR-5 reproducibility property under shards ----

struct SoakDigest {
  sim::Time end_time = 0;
  std::vector<std::pair<std::string, double>> snapshot;  ///< wall gauges excluded
  std::uint64_t send_errors = 0;
  std::uint64_t handled = 0;
};

/// Mixed eager/rendezvous traffic with link flaps and a per-WQE error rate
/// under sim_shards = 2.  Sharded faulty runs draw per-HCA fault streams, so
/// they are not oracle-comparable — the property is bit-reproducibility per
/// seed plus payload integrity and a balanced recovery ledger.
SoakDigest run_sharded_soak(std::uint64_t seed) {
  Config cfg = Config::enhanced(2, Policy::EPC);
  cfg.hcas_per_node = 2;  // flapping one HCA's port leaves half the rails up
  cfg.sim_shards = 2;
  cfg.fault.enabled = true;
  cfg.fault.seed = seed ^ 0xfa17;
  cfg.fault.msg_error_rate = 0.03;
  for (int i = 0; i < 3; ++i) {
    Config::FaultConfig::LinkFlap f;
    f.node = i % 2;
    f.hca = (i / 2) % 2;
    f.port = 0;
    f.down_at = sim::microseconds(30.0 + 90.0 * i + static_cast<double>(seed % 40));
    f.up_at = f.down_at + sim::microseconds(60.0);
    cfg.fault.link_flaps.push_back(f);
  }

  World w(ClusterSpec{2, 2}, cfg);
  w.run([&](Communicator& c) {
    const int peer = c.rank() ^ 2;  // cross-node (and cross-shard) pairs
    constexpr int kMsgs = 10;
    auto msg_bytes = [](int it) -> std::size_t {
      return (it % 2 == 0) ? 256 : (96 * 1024);  // eager + striped rendezvous
    };
    // All buffers up front: the registration cache keys on exact pointers,
    // so mid-run allocation churn would couple virtual timing to host heap
    // layout (see run_fig06_sized).
    std::vector<std::vector<std::byte>> bufs(kMsgs);
    for (int it = 0; it < kMsgs; ++it) {
      bufs[static_cast<std::size_t>(it)] = c.rank() < 2
                                               ? payload(msg_bytes(it), c.rank(), it)
                                               : std::vector<std::byte>(msg_bytes(it));
    }
    for (int it = 0; it < kMsgs; ++it) {
      std::vector<std::byte>& buf = bufs[static_cast<std::size_t>(it)];
      if (c.rank() < 2) {
        c.send(buf.data(), buf.size(), BYTE, peer, it);
      } else {
        c.recv(buf.data(), buf.size(), BYTE, peer, it);
        ASSERT_EQ(buf, payload(msg_bytes(it), peer, it)) << "seed " << seed << " msg " << it;
      }
    }
    const std::size_t n = 16 * 1024;
    std::vector<double> in(n, 1.0 + c.rank()), out(n, 0.0);
    c.allreduce(in.data(), out.data(), n, DOUBLE, Op::Sum);
    const double want = static_cast<double>(c.size() * (c.size() + 1)) / 2.0;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], want) << "seed " << seed << " allreduce[" << i << "]";
    }
    c.barrier();
  });

  SoakDigest d;
  d.end_time = w.end_time();
  for (const auto& s : w.telemetry().snapshot()) {
    if (is_wall_gauge(s.name)) continue;
    d.snapshot.emplace_back(s.name, s.value);
  }
  d.send_errors = w.telemetry().counter_value("fault.send_errors");
  d.handled = w.telemetry().counter_value("fault.eager_retries") +
              w.telemetry().counter_value("fault.rndv_restriped");
  return d;
}

class ShardedFaultSoak : public ::testing::TestWithParam<int> {};

TEST_P(ShardedFaultSoak, BitReproduciblePerSeed) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ull + 11;
  const SoakDigest a = run_sharded_soak(seed);
  const SoakDigest b = run_sharded_soak(seed);
  EXPECT_EQ(a.end_time, b.end_time) << "seed " << seed;
  ASSERT_EQ(a.snapshot.size(), b.snapshot.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.snapshot.size(); ++i) {
    EXPECT_EQ(a.snapshot[i].first, b.snapshot[i].first);
    EXPECT_EQ(a.snapshot[i].second, b.snapshot[i].second)
        << "seed " << seed << ": " << a.snapshot[i].first
        << " diverged between identical sharded runs";
  }
  // The recovery ledger still balances under sharding.
  EXPECT_EQ(a.send_errors, a.handled) << "seed " << seed;
  EXPECT_GT(a.send_errors, 0u) << "seed " << seed << " injected no faults";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedFaultSoak, ::testing::Range(0, 4));

}  // namespace
}  // namespace ib12x::mvx
