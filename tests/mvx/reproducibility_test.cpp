// Run-twice reproducibility of the wiring, handshake and fault paths on
// multi-node clusters.  Each workload checks its payloads byte for byte
// inside the rank bodies, and two runs of one configuration must agree on
// the event count, the end time and every telemetry metric except the
// host-speed gauges (sim.wall.*):
//   * a fig06-sized windowed-bandwidth workload over net and shm channels;
//   * connection handshakes that start simultaneously, complete behind a
//     downed port, and wire two VCIs driven by two threads per rank;
//   * link flaps plus per-WQE message errors, per seed, with a balanced
//     recovery ledger.
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

struct Digest {
  std::uint64_t events = 0;
  sim::Time end_time = 0;
  std::map<std::string, double> telemetry;  ///< every metric but sim.wall.*
};

Digest digest_of(const World& w) {
  Digest d;
  d.events = w.events_processed();
  d.end_time = w.end_time();
  for (const auto& s : w.telemetry().snapshot()) {
    if (s.name.rfind("sim.wall.", 0) == 0) continue;
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

/// A fig06-sized workload on a 4-node cluster: windowed large-message
/// (rendezvous) bandwidth across nodes, small-message acks, intra-node shm
/// token passing, and a closing barrier — with byte-exact payload checks.
Digest run_fig06_sized() {
  World w(ClusterSpec{/*nodes=*/4, /*procs_per_node=*/2}, Config::enhanced(4, Policy::EPC));
  constexpr std::size_t kBytes = 1 << 20;
  constexpr int kWindow = 4;
  constexpr int kIters = 3;
  w.run([](Communicator& c) {
    const int peer = c.rank() ^ 2;      // cross-node pairs (node = rank / 2)
    const int neighbor = c.rank() ^ 1;  // same-node pairs (shm channel)
    // One buffer per window slot, allocated once and reused every iteration:
    // the registration cache is keyed by exact pointer, so per-iteration
    // allocations would make hit rates (and thus virtual timing) depend on
    // heap-address reuse.
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
      // Intra-node shm traffic in the same virtual timeframe.
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
  return digest_of(w);
}

TEST(Reproducibility, Fig06SizedRunIsBitReproducible) {
  const Digest a = run_fig06_sized();
  expect_same_digest(a, run_fig06_sized(), "fig06-sized run");
  // The workload crossed nodes on the rendezvous path and used shm.
  EXPECT_GT(a.telemetry.at("rndv.rts_sent"), 0.0);
  EXPECT_GT(a.telemetry.at("shm.sent"), 0.0);
}

// ---- handshake stress ----

/// Connection handshakes on the default (lazy) wiring: pairs that connect
/// simultaneously (both ranks initiate at the same instant), handshakes that
/// complete while a link is down, and two VCIs per rank (each driven by its
/// own thread), so every handshake wires both VCI groups.  Link flaps only,
/// no per-message error draws.
Digest run_handshake_stress() {
  Config cfg = Config::enhanced(2, Policy::EPC);
  cfg.hcas_per_node = 2;
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
  return digest_of(w);
}

TEST(HandshakeStress, SimultaneousConnectsBehindDownedPortAreBitReproducible) {
  const Digest a = run_handshake_stress();
  expect_same_digest(a, run_handshake_stress(), "handshake stress");
  // The workload did what it claims: every pair crosses nodes and wires
  // both VCI groups (2 HCAs x 2 QPs x 2 VCIs = 8 QPs per side), and rails
  // born dead behind the flapped port recovered.
  const double pairs = a.telemetry.at("conn.established") / 2;
  EXPECT_GT(pairs, 0.0);
  EXPECT_EQ(a.telemetry.at("conn.qps_created"), pairs * 2 * 8);
  EXPECT_GT(a.telemetry.at("rail.down"), 0.0);
  EXPECT_GT(a.telemetry.at("rail.recovered"), 0.0);
  EXPECT_GT(a.telemetry.at("vci.sends.v1"), 0.0);
}

// ---- fault soak: link flaps plus message errors, per seed ----

/// Mixed eager/rendezvous traffic and an allreduce with link flaps and a
/// per-WQE error rate on two HCAs per node.
Digest run_flap_soak(std::uint64_t seed) {
  Config cfg = Config::enhanced(2, Policy::EPC);
  cfg.hcas_per_node = 2;  // flapping one HCA's port leaves half the rails up
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
    const int peer = c.rank() ^ 2;  // cross-node pairs
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
  return digest_of(w);
}

class FlapSoak : public ::testing::TestWithParam<int> {};

TEST_P(FlapSoak, BitReproduciblePerSeed) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ull + 11;
  const Digest a = run_flap_soak(seed);
  expect_same_digest(a, run_flap_soak(seed), "seed " + std::to_string(seed));
  // Every send error was handled by exactly one eager replay or re-stripe.
  const double send_errors = a.telemetry.at("fault.send_errors");
  EXPECT_EQ(send_errors,
            a.telemetry.at("fault.eager_retries") + a.telemetry.at("fault.rndv_restriped"))
      << "seed " << seed;
  EXPECT_GT(send_errors, 0.0) << "seed " << seed << " injected no faults";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlapSoak, ::testing::Range(0, 4));

}  // namespace
}  // namespace ib12x::mvx
