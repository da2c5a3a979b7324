// Connection-scaling refactor coverage: the lazy connection manager's state
// machine (queue/flush FIFO, simultaneous connect, rendezvous-first contact)
// and the SRQ-backed pooled eager path (low-watermark replenish, RNR-style
// pool-dry backpressure), the end-of-run audit, plus the telemetry-asserted
// scaling properties — QPs and pinned eager bytes O(active peers), not
// O(ranks²).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ib/hca.hpp"
#include "mvx/conn_manager.hpp"
#include "mvx/mpi.hpp"
#include "mvx/wire.hpp"
#include "mvx_test_util.hpp"

namespace ib12x::mvx {
namespace {

using testutil::payload;

/// Nearest-neighbour ring exchange: every rank sendrecvs one message with
/// each ring neighbour, so exactly `ranks` pairs (the ring edges) ever talk.
void ring_exchange(Communicator& c, std::size_t bytes) {
  const int right = (c.rank() + 1) % c.size();
  const int left = (c.rank() + c.size() - 1) % c.size();
  const std::vector<std::byte> out = payload(bytes, c.rank(), /*tag=*/7);
  std::vector<std::byte> in(bytes);
  c.sendrecv(out.data(), bytes, BYTE, right, 7, in.data(), bytes, BYTE, left, 7);
  ASSERT_EQ(in, payload(bytes, left, 7));
}

TEST(ConnScaling, LazyWiresOnlyActivePeers) {
  // 32 ranks, ring traffic: 32 pairs are active out of 32*31/2 = 496.  Only
  // the active pairs are wired, each with every VCI's rail group: exactly
  // 2 sides × rails × VCIs QPs per active pair.
  const int kRanks = 32;
  for (int vcis : {1, 2}) {
    Config cfg = Config::original();
    cfg.vci.count = vcis;
    World w(ClusterSpec{kRanks, 1}, cfg);
    w.run([](Communicator& c) { ring_exchange(c, 512); });
    EXPECT_EQ(w.telemetry().counter_value("conn.qps_created"),
              static_cast<std::uint64_t>(kRanks * 2 * cfg.rails() * vcis))
        << vcis << " VCIs";
    EXPECT_EQ(w.telemetry().counter_value("rail.up"),
              static_cast<std::uint64_t>(kRanks * 2 * cfg.rails() * vcis))
        << vcis << " VCIs";
    // 2 sides per ring edge.
    EXPECT_EQ(w.telemetry().counter_value("conn.established"),
              static_cast<std::uint64_t>(kRanks * 2))
        << vcis << " VCIs";
    EXPECT_GE(w.telemetry().counter_value("conn.handshakes_inflight"), 1u);
  }
}

TEST(ConnScaling, SetupLatencyBelowOneHopNamesField) {
  // An out-of-band handshake cannot beat one fabric hop (wire + switch).
  Config cfg;
  const sim::Time hop = cfg.fabric.wire_latency + cfg.fabric.switch_latency;
  cfg.conn_setup_latency = hop - 1;
  try {
    World w(ClusterSpec{2, 1}, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("conn_setup_latency"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fabric.wire_latency"), std::string::npos) << msg;
  }
  // Exactly one hop is allowed.
  cfg.conn_setup_latency = hop;
  World w(ClusterSpec{2, 1}, cfg);
  w.run([](Communicator& c) { ring_exchange(c, 256); });
  EXPECT_EQ(w.telemetry().counter_value("conn.established"), 2u);
}

TEST(ConnScaling, RunEndsWithUnsettledWiringThrowsNamingRankAndPeer) {
  // The end-of-run audit: a queued send that nothing will ever dispatch is a
  // lost handshake completion (or flush), and the run must say so.
  World w = testutil::make_pair_world(Config{});
  w.run([](Communicator& c) { ring_exchange(c, 64); });
  ASSERT_TRUE(w.endpoint(0).conn().ready(1));
  w.endpoint(0).conn().enqueue(1, QueuedSend{});
  try {
    w.run([](Communicator&) {});
    FAIL() << "expected the wiring audit to throw";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("peer 1"), std::string::npos) << msg;
  }
}

/// Runs `body` on two ranks (two nodes) and returns the end-of-run audit's
/// message; fails the test if the run does not throw.
std::string audit_error(const std::function<void(Communicator&)>& body) {
  World w = testutil::make_pair_world(Config{});
  try {
    w.run(body);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected the end-of-run audit to throw";
  return {};
}

TEST(WorldAudit, UnreceivedSendThrowsNamingRank) {
  // Rank 0's eager message lands in rank 1's unexpected queue and stays.
  const std::string msg = audit_error([](Communicator& c) {
    if (c.rank() == 0) {
      const std::vector<std::byte> out = payload(64, 0, 5);
      c.send(out.data(), out.size(), BYTE, 1, 5);
    }
  });
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("posted_count = 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unexpected_count = 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reorder_count = 0"), std::string::npos) << msg;
}

TEST(WorldAudit, UnwaitedIrecvThrowsNamingRank) {
  // Rank 1 posts a receive that nothing sends to and never waits on it.
  std::vector<std::byte> in(64);  // outlives the run: the receive stays posted
  const std::string msg = audit_error([&in](Communicator& c) {
    if (c.rank() == 1) (void)c.irecv(in.data(), in.size(), BYTE, 0, 9);
  });
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("posted_count = 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unexpected_count = 0"), std::string::npos) << msg;
}

TEST(ConnScaling, LinearFootprintAt256Ranks) {
  // The acceptance bar: a 256-rank lazy+SRQ world constructs and runs with
  // O(ranks) QPs and pinned eager bytes.  The pool is deliberately small so
  // the (host) test itself stays cheap; the scaling exponent is what counts.
  const int kRanks = 256;
  Config cfg = Config::original();
  cfg.rndv_threshold = 2048;
  cfg.srq_pool_slots = 32;
  cfg.send_bounce_bufs = 32;
  World w(ClusterSpec{kRanks, 1}, cfg);
  w.run([](Communicator& c) { ring_exchange(c, 256); });

  EXPECT_EQ(w.telemetry().counter_value("conn.qps_created"),
            static_cast<std::uint64_t>(kRanks * 2 * cfg.rails()));
  // One SRQ arena per rank (per HCA), regardless of peer count.
  const std::uint64_t slot_bytes =
      kHeaderBytes + static_cast<std::uint64_t>(cfg.rndv_threshold);
  const std::uint64_t pool = w.telemetry().counter_value("eager.pool_bytes");
  EXPECT_EQ(pool, static_cast<std::uint64_t>(kRanks) *
                      static_cast<std::uint64_t>(cfg.srq_pool_slots) * slot_bytes);
  // What the legacy wiring would have pinned for the same job: eager_credits
  // slots per rail per side of every pair.  Computed, not run — constructing
  // the O(ranks²) world is exactly what this refactor makes unnecessary.
  const std::uint64_t legacy = static_cast<std::uint64_t>(kRanks) * (kRanks - 1) *
                               static_cast<std::uint64_t>(cfg.rails()) *
                               static_cast<std::uint64_t>(cfg.eager_credits) * slot_bytes;
  EXPECT_GT(legacy, pool * 10);
}

TEST(ConnScaling, SimultaneousConnectWiresPairOnce) {
  // Both ranks initiate in the same handshake window (sendrecv posts the
  // recv-side initiate and the send-side initiate on both ranks at t=0).
  // The pair must be wired exactly once: rails() QPs per side, one Ready
  // transition per side.
  Config cfg;
  World w = testutil::make_pair_world(cfg);
  w.run([](Communicator& c) {
    const int peer = 1 - c.rank();
    const std::vector<std::byte> out = payload(1024, c.rank(), 3);
    std::vector<std::byte> in(1024);
    c.sendrecv(out.data(), out.size(), BYTE, peer, 3, in.data(), in.size(), BYTE, peer, 3);
    ASSERT_EQ(in, payload(1024, peer, 3));
  });
  EXPECT_EQ(w.telemetry().counter_value("conn.qps_created"),
            static_cast<std::uint64_t>(2 * cfg.rails()));
  EXPECT_EQ(w.telemetry().counter_value("conn.established"), 2u);
}

TEST(ConnScaling, QueuedSendsFlushInFifoOrder) {
  // Sends posted before the handshake completes park in the per-peer queue
  // and must flush in posting order.  Same tag on every message: if the
  // flush reordered, sequence numbers (claimed at dispatch) would hand
  // message k's payload to receive j != k.
  const int kMsgs = 12;
  World w = testutil::make_pair_world();
  w.run([&](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        bufs.push_back(payload(64 + static_cast<std::size_t>(i) * 32, 0, i));
        reqs.push_back(c.isend(bufs.back().data(), bufs.back().size(), BYTE, 1, 5));
      }
      c.waitall(reqs);
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::byte> in(64 + static_cast<std::size_t>(i) * 32);
        c.recv(in.data(), in.size(), BYTE, 0, 5);
        ASSERT_EQ(in, payload(in.size(), 0, i)) << "message " << i << " out of order";
      }
    }
  });
}

// ------------------------------------------- one send core, two contexts

/// Every channel a send can be routed to: shm, the net eager protocol, and
/// the RTS of each rendezvous wire protocol.
enum class Route { Shm, Eager, RtsWriteCts, RtsRead, RtsWriteImm };

/// Which half of the stream carries the route's messages: the half posted
/// before the handshake completes (queued, then flushed from event context)
/// or the half posted on the ready connection (process context).
enum class Context { Queued, Ready };

struct RouteCase {
  ClusterSpec spec;
  Config cfg;
  const char* counter;  ///< telemetry proof that the route carried traffic
};

RouteCase route_case(Route r) {
  Config cfg = Config::enhanced(4, Policy::EPC);
  switch (r) {
    case Route::Shm:
      return {ClusterSpec{1, 2}, Config{}, "shm.sent"};
    case Route::Eager:
      return {ClusterSpec{2, 1}, cfg, "net.eager_sent"};
    case Route::RtsWriteCts:
      return {ClusterSpec{2, 1}, cfg, "rndv.stripes_posted"};
    case Route::RtsRead:
      cfg.rndv.protocol = Config::RndvConfig::Protocol::ReadRts;
      return {ClusterSpec{2, 1}, cfg, "rndv.read_stripes"};
    case Route::RtsWriteImm:
      cfg.rndv.protocol = Config::RndvConfig::Protocol::WriteImm;
      return {ClusterSpec{2, 1}, cfg, "rndv.imm_folded"};
  }
  return {};
}

/// Size of the route's i-th message.
std::size_t route_bytes(Route r, int i) {
  const auto k = static_cast<std::size_t>(i);
  switch (r) {
    case Route::Shm:
    case Route::Eager:
      return 64 + k * 512;
    default:
      return 17 * 1024 + k * 1024;  // over rndv_threshold
  }
}

using RouteParam = std::tuple<Route, Context>;

class SendRoutes : public ::testing::TestWithParam<RouteParam> {};

TEST_P(SendRoutes, InterleavedContextsKeepFifoOrder) {
  // One sender, one peer, one tag.  The first kMsgs sends are posted before
  // the handshake completes and flush from event context; once they have
  // all completed, kMsgs more go out on the ready connection from process
  // context.  The route under test carries the half named by the context,
  // small messages the other half.  Each receive must get exactly the
  // payload posted at its position: a reordered flush, a sequence number
  // claimed twice, or a byte off would hand message k's data to receive j.
  const auto [route, ctx] = GetParam();
  const RouteCase rc = route_case(route);
  constexpr int kMsgs = 12;
  auto size_of = [route, ctx](int i) -> std::size_t {
    const bool queued_half = i < kMsgs;
    return queued_half == (ctx == Context::Queued) ? route_bytes(route, i % kMsgs)
                                                   : 40 + static_cast<std::size_t>(i);
  };
  World w(rc.spec, rc.cfg);
  w.run([&](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs(2 * kMsgs);
      for (int half = 0; half < 2; ++half) {
        std::vector<Request> reqs;
        for (int i = half * kMsgs; i < (half + 1) * kMsgs; ++i) {
          bufs[static_cast<std::size_t>(i)] = payload(size_of(i), 0, i);
          reqs.push_back(c.isend(bufs[static_cast<std::size_t>(i)].data(), size_of(i), BYTE, 1, 5));
        }
        c.waitall(reqs);
      }
    } else {
      for (int i = 0; i < 2 * kMsgs; ++i) {
        std::vector<std::byte> in(size_of(i));
        c.recv(in.data(), in.size(), BYTE, 0, 5);
        ASSERT_EQ(in, payload(in.size(), 0, i)) << "message " << i << " out of order or corrupt";
      }
    }
  });
  EXPECT_GT(w.telemetry().counter_value(rc.counter), 0u) << rc.counter;
  EXPECT_EQ(w.telemetry().counter_value("conn.established"), 2u);  // one per side
}

std::string route_param_name(const ::testing::TestParamInfo<RouteParam>& info) {
  static const char* const kRoutes[] = {"shm", "eager", "rts_write_cts", "rts_read",
                                        "rts_write_imm"};
  return std::string(kRoutes[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) == Context::Queued ? "_queued" : "_ready");
}

INSTANTIATE_TEST_SUITE_P(
    RoutesAndContexts, SendRoutes,
    ::testing::Combine(::testing::Values(Route::Shm, Route::Eager, Route::RtsWriteCts,
                                         Route::RtsRead, Route::RtsWriteImm),
                       ::testing::Values(Context::Queued, Context::Ready)),
    route_param_name);

/// Send WQEs posted on each of rank 0's rails to rank 1 (node 0, HCA 0: its
/// QPs in creation order are exactly those rails).
std::vector<std::uint64_t> rank0_rail_wqes(World& w) {
  std::vector<std::uint64_t> out;
  for (const ib::QueuePair* qp : w.fabric().hca(0).port_qps(0)) {
    out.push_back(qp->send_wqes_posted());
  }
  return out;
}

TEST(ConnScaling, StarvedFlushLeavesCursorsInPlace) {
  // Ten sends queue behind the handshake on four round-robin rails, but the
  // bounce pool holds only eight messages: the flush dispatches eight, the
  // ninth finds the pool dry and must return false with its cursor restored,
  // so when a bounce buffer frees it retries the same rail.  Message k then
  // rides rail k % 4 and the rails carry 3, 3, 2, 2 messages.  A cursor left
  // advanced by the failed attempt shifts the tail onto other rails.
  auto run = [](Config cfg, std::size_t bytes) {
    cfg.send_bounce_bufs = 8;
    World w(ClusterSpec{2, 1}, cfg);
    constexpr int kMsgs = 10;
    w.run([&](Communicator& c) {
      if (c.rank() == 0) {
        std::vector<std::vector<std::byte>> bufs;
        std::vector<Request> reqs;
        for (int i = 0; i < kMsgs; ++i) {
          bufs.push_back(payload(bytes, 0, i));
          reqs.push_back(c.isend(bufs.back().data(), bytes, BYTE, 1, i));
        }
        c.waitall(reqs);
      } else {
        for (int i = 0; i < kMsgs; ++i) {
          std::vector<std::byte> in(bytes);
          c.recv(in.data(), bytes, BYTE, 0, i);
          ASSERT_EQ(in, payload(bytes, 0, i)) << "message " << i;
        }
      }
    });
    return std::make_pair(rank0_rail_wqes(w), w.telemetry().counter_value("net.credit_stalls"));
  };
  const std::vector<std::uint64_t> round_robin{3, 3, 2, 2};

  // Eager sends rotate the data cursor.
  const auto [eager_rails, eager_stalls] =
      run(Config::enhanced(4, Policy::RoundRobin), /*bytes=*/1024);
  EXPECT_EQ(eager_rails, round_robin) << "data cursor moved by a failed flush";
  EXPECT_GE(eager_stalls, 1u) << "the flush never ran dry";

  // ReadRts RTSes rotate the control cursor (pipelined pacing gives control
  // traffic its own cursor), and the receiver pulls the data, so rank 0's
  // rails carry the RTSes alone.
  Config rts = Config::enhanced(4, Policy::RoundRobin);
  rts.rndv.protocol = Config::RndvConfig::Protocol::ReadRts;
  rts.rndv_pipeline = true;
  const auto [rts_rails, rts_stalls] = run(rts, /*bytes=*/32 * 1024);
  EXPECT_EQ(rts_rails, round_robin) << "control cursor moved by a failed flush";
  EXPECT_EQ(rts_stalls, 0u) << "a flushed RTS that finds the pool dry is not a credit stall";
}

TEST(ConnScaling, RendezvousFirstContact) {
  // First-ever message to the peer is a rendezvous transfer, queued behind
  // the handshake and flushed through the non-blocking RTS path; an eager
  // message queued right behind it must still arrive after it (same tag).
  World w = testutil::make_pair_world();
  const std::size_t big = 64 * 1024;
  w.run([&](Communicator& c) {
    if (c.rank() == 0) {
      const std::vector<std::byte> a = payload(big, 0, 1);
      const std::vector<std::byte> b = payload(512, 0, 2);
      Request ra = c.isend(a.data(), a.size(), BYTE, 1, 9);
      Request rb = c.isend(b.data(), b.size(), BYTE, 1, 9);
      std::vector<Request> rs{ra, rb};
      c.waitall(rs);
    } else {
      std::vector<std::byte> a(big), b(512);
      c.recv(a.data(), a.size(), BYTE, 0, 9);
      c.recv(b.data(), b.size(), BYTE, 0, 9);
      ASSERT_EQ(a, payload(big, 0, 1));
      ASSERT_EQ(b, payload(512, 0, 2));
    }
  });
  EXPECT_GE(w.telemetry().counter_value("rndv.rts_sent"), 1u);
}

TEST(ConnScaling, SrqReplenishesOnLowWatermark) {
  // A burst deep enough to drain the pool below srq_limit must trigger the
  // asynchronous limit event and at least one batched repost.
  Config cfg;
  cfg.srq_pool_slots = 8;
  cfg.srq_limit = 4;
  World w = testutil::make_pair_world(cfg);
  const int kMsgs = 64;
  w.run([&](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        bufs.push_back(payload(1024, 0, i));
        reqs.push_back(c.isend(bufs.back().data(), bufs.back().size(), BYTE, 1, i));
      }
      c.waitall(reqs);
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::byte> in(1024);
        c.recv(in.data(), in.size(), BYTE, 0, i);
        ASSERT_EQ(in, payload(1024, 0, i));
      }
    }
  });
  EXPECT_GE(w.telemetry().counter_value("srq.replenishes"), 1u);
  EXPECT_EQ(w.telemetry().counter_value("srq.pool_dry"), 0u)
      << "a single sender's derived credits must never overrun the pool";
}

TEST(ConnScaling, ConcurrentSendersHitPoolDryBackpressure) {
  // Per-peer credits are derived from the shared pool, so ONE sender can
  // never overrun it — but five senders phase-locked on the same handshake
  // latency can land more simultaneous deliveries than the pool holds.  The
  // overrun must surface as RNR-style stalls (srq.pool_dry) that resolve as
  // slots repost, never as lost or corrupted messages.
  Config cfg;
  cfg.srq_pool_slots = 4;
  cfg.srq_limit = 0;  // immediate repost: isolate the stall path
  cfg.post_cpu = sim::nanoseconds(0);
  const int kMsgs = 24;
  World w(ClusterSpec{6, 1}, cfg);
  w.run([&](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs(5 * static_cast<std::size_t>(kMsgs));
      std::vector<Request> reqs;
      for (int src = 1; src <= 5; ++src) {
        for (int i = 0; i < kMsgs; ++i) {
          auto& buf = bufs[static_cast<std::size_t>((src - 1) * kMsgs + i)];
          buf.resize(64);
          reqs.push_back(c.irecv(buf.data(), buf.size(), BYTE, src, i));
        }
      }
      c.waitall(reqs);
      for (int src = 1; src <= 5; ++src) {
        for (int i = 0; i < kMsgs; ++i) {
          ASSERT_EQ(bufs[static_cast<std::size_t>((src - 1) * kMsgs + i)],
                    payload(64, src, i))
              << "from rank " << src << " msg " << i;
        }
      }
    } else {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i) {
        bufs.push_back(payload(64, c.rank(), i));
        reqs.push_back(c.isend(bufs.back().data(), bufs.back().size(), BYTE, 0, i));
      }
      c.waitall(reqs);
    }
  });
  EXPECT_GE(w.telemetry().counter_value("srq.pool_dry"), 1u);
}

TEST(ConnScaling, QueuedPeersExactAndAscending) {
  // queued_peers() is maintained incrementally by enqueue/pop_front; it must
  // list exactly the peers with a non-empty queue, ascending, after every
  // step — including a peer that drains and then queues again.
  World w(ClusterSpec{10, 1}, Config{});
  ConnManager mgr(w.endpoint(0));
  auto send_of = [](int tag) { return QueuedSend{CommKind::Nonblocking, nullptr, 0, tag, 0, {}}; };
  EXPECT_TRUE(mgr.queued_peers().empty());
  mgr.enqueue(9, send_of(90));
  EXPECT_EQ(mgr.queued_peers(), (std::vector<int>{9}));
  mgr.enqueue(2, send_of(20));
  mgr.enqueue(2, send_of(21));
  EXPECT_EQ(mgr.queued_peers(), (std::vector<int>{2, 9}));
  mgr.enqueue(5, send_of(50));
  EXPECT_EQ(mgr.queued_peers(), (std::vector<int>{2, 5, 9}));

  EXPECT_EQ(mgr.front(2).tag, 20);
  mgr.pop_front(2);
  EXPECT_EQ(mgr.queued_peers(), (std::vector<int>{2, 5, 9}));  // one send still queued
  EXPECT_EQ(mgr.front(2).tag, 21);
  mgr.pop_front(2);
  EXPECT_EQ(mgr.queued_peers(), (std::vector<int>{5, 9}));
  EXPECT_FALSE(mgr.has_queued(2));
  EXPECT_THROW(mgr.pop_front(2), std::logic_error);
  EXPECT_EQ(mgr.queued_peers(), (std::vector<int>{5, 9}));

  mgr.enqueue(2, send_of(22));
  EXPECT_EQ(mgr.queued_peers(), (std::vector<int>{2, 5, 9}));
  EXPECT_EQ(mgr.queued(2), 1u);
  mgr.pop_front(9);
  mgr.pop_front(5);
  mgr.pop_front(2);
  EXPECT_TRUE(mgr.queued_peers().empty());
}

TEST(ConnScaling, PoolDryFlushDrainsPeersInAscendingOrder) {
  // One sender bounce buffer: only one eager send can be in flight, so every
  // send CQE re-flushes the queued peers — in ascending rank order.  Rank 0
  // queues 3 sends each to ranks 9, 2, 5 (in that order) behind their
  // handshakes.  Peer 9's handshake completes first and its flush takes the
  // only buffer; from then on each freed buffer goes to the lowest queued
  // peer, so the dispatch order is 9, then all of 2, all of 5, rest of 9.
  Config cfg;
  cfg.send_bounce_bufs = 1;
  const int kMsgs = 3;
  const std::vector<int> dsts{9, 2, 5};
  std::vector<std::vector<sim::Time>> arrival(10);
  World w(ClusterSpec{10, 1}, cfg);
  w.run([&](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (int dst : dsts) {
        for (int i = 0; i < kMsgs; ++i) {
          bufs.push_back(payload(64, dst, i));
          reqs.push_back(c.isend(bufs.back().data(), bufs.back().size(), BYTE, dst, i));
        }
      }
      EXPECT_EQ(c.endpoint().conn().queued_peers(), (std::vector<int>{2, 5, 9}));
      c.waitall(reqs);
    } else if (std::find(dsts.begin(), dsts.end(), c.rank()) != dsts.end()) {
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<std::byte> in(64);
        Request r = c.irecv(in.data(), in.size(), BYTE, 0, i);
        c.wait(r);
        ASSERT_EQ(in, payload(64, c.rank(), i));
        arrival[static_cast<std::size_t>(c.rank())].push_back(r->completed_at);
      }
    }
  });
  EXPECT_TRUE(w.endpoint(0).conn().queued_peers().empty());
  const auto& a2 = arrival[2];
  const auto& a5 = arrival[5];
  const auto& a9 = arrival[9];
  ASSERT_EQ(a2.size(), 3u);
  ASSERT_EQ(a5.size(), 3u);
  ASSERT_EQ(a9.size(), 3u);
  EXPECT_LT(a9[0], a2[0]);
  EXPECT_LT(a2[2], a5[0]) << "peer 2 must drain before peer 5";
  EXPECT_LT(a5[2], a9[1]) << "peer 5 must drain before the rest of peer 9";
}

}  // namespace
}  // namespace ib12x::mvx
