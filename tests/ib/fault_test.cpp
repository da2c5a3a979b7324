// Negative-path tests for the fault-injection layer: error-state QP
// semantics (new posts flush, queued WQEs drain in order), per-message
// fault injection (drop vs. lost ACK), link events, and CQ ordering of
// error completions relative to successes.
#include "ib/fault.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "ib/verbs.hpp"
#include "ib_test_util.hpp"
#include "sim/time.hpp"

namespace ib12x::ib {
namespace {

using testutil::TwoNodeFabric;
using testutil::pattern_buffer;

TEST(Fault, ErrorQpCompletesNewPostsWithFlush) {
  TwoNodeFabric f;
  auto src = pattern_buffer(512);
  std::vector<std::byte> dst(512);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.a.hca->mem().register_memory(dst.data(), dst.size());

  f.a.qps[0]->transition_to_error();
  ASSERT_EQ(f.a.qps[0]->state(), QpState::Error);

  // Real RC semantics: posting to an error-state QP is legal, but the WQE
  // completes immediately with a flush error and never reaches the wire.
  f.a.qps[0]->post_send({.wr_id = 7, .opcode = Opcode::Send, .src = src.data(),
                         .length = 512, .lkey = src_mr.lkey});
  Wc wc;
  ASSERT_TRUE(f.a.scq.poll(wc));
  EXPECT_EQ(wc.wr_id, 7u);
  EXPECT_EQ(wc.status, WcStatus::WrFlushErr);
  EXPECT_EQ(wc.opcode, WcOpcode::SendComplete);
  EXPECT_EQ(wc.byte_len, 512u);
  EXPECT_EQ(wc.qp_num, f.a.qps[0]->num());

  // Deferred posting flushes too — a doorbell batch must not smuggle WQEs
  // past the error state.
  f.a.qps[0]->post_send_deferred({.wr_id = 8, .opcode = Opcode::RdmaWrite, .src = src.data(),
                                  .length = 512, .lkey = src_mr.lkey});
  ASSERT_TRUE(f.a.scq.poll(wc));
  EXPECT_EQ(wc.wr_id, 8u);
  EXPECT_EQ(wc.status, WcStatus::WrFlushErr);
  EXPECT_EQ(wc.opcode, WcOpcode::RdmaWriteComplete);

  f.a.qps[0]->post_recv({.wr_id = 9, .dst = dst.data(), .length = 512, .lkey = dst_mr.lkey});
  ASSERT_TRUE(f.a.rcq.poll(wc));
  EXPECT_EQ(wc.wr_id, 9u);
  EXPECT_EQ(wc.status, WcStatus::WrFlushErr);
  EXPECT_EQ(wc.byte_len, 0u);

  // Nothing reached the fabric: the run produces no further completions.
  EXPECT_TRUE(f.drain(f.a.scq).empty());
  EXPECT_TRUE(f.drain(f.b.rcq).empty());
}

TEST(Fault, TransitionFlushesQueuedWqesInPostOrder) {
  // Build queued work without letting the simulator run: three published
  // sends (the first is handed straight to the hardware scheduler and is no
  // longer flushable — real HCAs behave the same way once a WQE is in
  // flight), a deferred (un-doorbelled) send, and receive WQEs.  The
  // transition drains the send queue first — published then deferred, in
  // post order — then the receive queue, all with WrFlushErr and the
  // original wr_id.
  TwoNodeFabric f;
  auto src = pattern_buffer(256);
  std::vector<std::byte> dst(256);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.a.hca->mem().register_memory(dst.data(), dst.size());

  for (std::uint64_t id = 1; id <= 3; ++id) {
    f.a.qps[0]->post_send({.wr_id = id, .opcode = Opcode::Send, .src = src.data(),
                           .length = 256, .lkey = src_mr.lkey});
  }
  f.a.qps[0]->post_send_deferred({.wr_id = 4, .opcode = Opcode::Send, .src = src.data(),
                                  .length = 256, .lkey = src_mr.lkey});
  for (std::uint64_t id = 5; id <= 6; ++id) {
    f.a.qps[0]->post_recv({.wr_id = id, .dst = dst.data(), .length = 256, .lkey = dst_mr.lkey});
  }

  f.a.qps[0]->transition_to_error();

  // wr 1 is in the scheduler's hands; wr 2..3 (published, queued) flush
  // first, then wr 4 (deferred), in post order.
  Wc wc;
  for (std::uint64_t id = 2; id <= 4; ++id) {
    ASSERT_TRUE(f.a.scq.poll(wc)) << "send wr " << id;
    EXPECT_EQ(wc.wr_id, id);
    EXPECT_EQ(wc.status, WcStatus::WrFlushErr);
    EXPECT_EQ(wc.qp_num, f.a.qps[0]->num());
  }
  EXPECT_FALSE(f.a.scq.poll(wc));
  for (std::uint64_t id = 5; id <= 6; ++id) {
    ASSERT_TRUE(f.a.rcq.poll(wc)) << "recv wr " << id;
    EXPECT_EQ(wc.wr_id, id);
    EXPECT_EQ(wc.status, WcStatus::WrFlushErr);
  }
  EXPECT_FALSE(f.a.rcq.poll(wc));

  // A second transition is a no-op: the queues are already empty.
  f.a.qps[0]->transition_to_error();
  EXPECT_FALSE(f.a.scq.poll(wc));
}

TEST(Fault, TransitionFlushOrderSurvivesWrappedQueues) {
  // The work queues are ring buffers: let the receive queue's head advance
  // (two WQEs consumed by inbound sends), then post enough that every queue
  // grows while its contents wrap.  The flush order must still be send
  // queue, deferred batch, receive queue — each in post order.
  TwoNodeFabric f;
  auto src = pattern_buffer(64);
  std::vector<std::byte> dst(64);
  auto a_src = f.a.hca->mem().register_memory(src.data(), src.size());
  auto a_dst = f.a.hca->mem().register_memory(dst.data(), dst.size());
  auto b_src = f.b.hca->mem().register_memory(src.data(), src.size());
  QueuePair& qp = *f.a.qps[0];

  for (std::uint64_t id = 100; id <= 102; ++id) {
    qp.post_recv({.wr_id = id, .dst = dst.data(), .length = 64, .lkey = a_dst.lkey});
  }
  for (std::uint64_t id = 0; id < 2; ++id) {
    f.b.qps[0]->post_send({.wr_id = id, .opcode = Opcode::Send, .src = src.data(),
                           .length = 64, .lkey = b_src.lkey});
  }
  const auto consumed = f.drain(f.a.rcq);
  ASSERT_EQ(consumed.size(), 2u);
  EXPECT_EQ(consumed[0].wr_id, 100u);
  EXPECT_EQ(consumed[1].wr_id, 101u);

  for (std::uint64_t id = 103; id <= 111; ++id) {
    qp.post_recv({.wr_id = id, .dst = dst.data(), .length = 64, .lkey = a_dst.lkey});
  }
  for (std::uint64_t id = 1; id <= 10; ++id) {
    qp.post_send({.wr_id = id, .opcode = Opcode::Send, .src = src.data(), .length = 64,
                  .lkey = a_src.lkey});
  }
  for (std::uint64_t id = 11; id <= 19; ++id) {
    qp.post_send_deferred({.wr_id = id, .opcode = Opcode::Send, .src = src.data(),
                           .length = 64, .lkey = a_src.lkey});
  }

  qp.transition_to_error();

  // wr 1 is already in the scheduler's hands.
  Wc wc;
  for (std::uint64_t id = 2; id <= 19; ++id) {
    ASSERT_TRUE(f.a.scq.poll(wc)) << "send wr " << id;
    EXPECT_EQ(wc.wr_id, id);
    EXPECT_EQ(wc.status, WcStatus::WrFlushErr);
  }
  EXPECT_FALSE(f.a.scq.poll(wc));
  for (std::uint64_t id = 102; id <= 111; ++id) {
    ASSERT_TRUE(f.a.rcq.poll(wc)) << "recv wr " << id;
    EXPECT_EQ(wc.wr_id, id);
    EXPECT_EQ(wc.status, WcStatus::WrFlushErr);
  }
  EXPECT_FALSE(f.a.rcq.poll(wc));
}

TEST(Fault, ResetReturnsQpToService) {
  TwoNodeFabric f;
  auto src = pattern_buffer(1024);
  std::vector<std::byte> dst(1024);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());

  f.a.qps[0]->transition_to_error();
  f.a.qps[0]->reset();
  ASSERT_EQ(f.a.qps[0]->state(), QpState::Ready);

  f.b.qps[0]->post_recv({.wr_id = 1, .dst = dst.data(), .length = 1024, .lkey = dst_mr.lkey});
  f.a.qps[0]->post_send({.wr_id = 2, .opcode = Opcode::Send, .src = src.data(),
                         .length = 1024, .lkey = src_mr.lkey});
  auto wcs = f.drain(f.a.scq);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, WcStatus::Success);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 1024), 0);
}

TEST(Fault, MsgDropErrsWithoutDelivering) {
  // msg_error_rate = 1 with ack_drop_fraction = 0: every serviced WQE
  // exhausts its transport retries — error CQE, no data, recv WQE unconsumed.
  TwoNodeFabric f;
  FaultPlan::Params p;
  p.msg_error_rate = 1.0;
  p.ack_drop_fraction = 0.0;
  f.fabric.attach_fault(std::make_unique<FaultPlan>(p));

  auto src = pattern_buffer(2048);
  std::vector<std::byte> dst(2048, std::byte{0});
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());
  f.b.qps[0]->post_recv({.wr_id = 1, .dst = dst.data(), .length = 2048, .lkey = dst_mr.lkey});
  f.a.qps[0]->post_send({.wr_id = 2, .opcode = Opcode::Send, .src = src.data(),
                         .length = 2048, .lkey = src_mr.lkey});

  auto wcs = f.drain(f.a.scq);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].wr_id, 2u);
  EXPECT_EQ(wcs[0].status, WcStatus::RetryExcErr);
  Wc rwc;
  EXPECT_FALSE(f.b.rcq.poll(rwc));
  for (std::byte b : dst) ASSERT_EQ(b, std::byte{0});
  EXPECT_EQ(f.fabric.fault_plan()->injected_errors(), 1u);
}

TEST(Fault, AckDropDeliversDataButErrsRequester) {
  // ack_drop_fraction = 1: the data lands and the responder completes
  // normally, but the lost ACK still errs the requester's CQE — the
  // failover layer must tolerate "failed" sends that actually arrived.
  TwoNodeFabric f;
  FaultPlan::Params p;
  p.msg_error_rate = 1.0;
  p.ack_drop_fraction = 1.0;
  f.fabric.attach_fault(std::make_unique<FaultPlan>(p));

  auto src = pattern_buffer(2048);
  std::vector<std::byte> dst(2048);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());
  f.b.qps[0]->post_recv({.wr_id = 1, .dst = dst.data(), .length = 2048, .lkey = dst_mr.lkey});
  f.a.qps[0]->post_send({.wr_id = 2, .opcode = Opcode::Send, .src = src.data(),
                         .length = 2048, .lkey = src_mr.lkey});

  auto wcs = f.drain(f.a.scq);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, WcStatus::RetryExcErr);
  Wc rwc;
  ASSERT_TRUE(f.b.rcq.poll(rwc));
  EXPECT_EQ(rwc.status, WcStatus::Success);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 2048), 0);
}

TEST(Fault, LinkDownErrsBothSidesAndRecoversOnUp) {
  TwoNodeFabric f;
  FaultPlan::Params p;
  auto plan = std::make_unique<FaultPlan>(p);
  plan->add_link_event(sim::microseconds(10), f.a.hca, 0, /*up=*/false);
  plan->add_link_event(sim::microseconds(30), f.a.hca, 0, /*up=*/true);
  plan->arm(f.sim);
  FaultPlan* raw = plan.get();
  f.fabric.attach_fault(std::move(plan));

  f.sim.run_until(sim::microseconds(20));
  EXPECT_TRUE(raw->port_down(f.a.hca, 0));
  // Both endpoints of every QP behind the port enter the error state.
  EXPECT_EQ(f.a.qps[0]->state(), QpState::Error);
  EXPECT_EQ(f.b.qps[0]->state(), QpState::Error);

  f.sim.run();
  EXPECT_FALSE(raw->port_down(f.a.hca, 0));
  EXPECT_EQ(f.a.qps[0]->state(), QpState::Ready);
  EXPECT_EQ(f.b.qps[0]->state(), QpState::Ready);
  EXPECT_EQ(raw->link_transitions(), 2u);

  // The recovered pair carries traffic again.
  auto src = pattern_buffer(256);
  std::vector<std::byte> dst(256);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());
  f.b.qps[0]->post_recv({.wr_id = 1, .dst = dst.data(), .length = 256, .lkey = dst_mr.lkey});
  f.a.qps[0]->post_send({.wr_id = 2, .opcode = Opcode::Send, .src = src.data(),
                         .length = 256, .lkey = src_mr.lkey});
  auto wcs = f.drain(f.a.scq);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, WcStatus::Success);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 256), 0);
}

TEST(Fault, ErrorCompletionsKeepCqOrderAfterSuccesses) {
  // A link-down mid-train: WQEs serviced before the event complete with
  // Success, the rest flush — and the CQ presents them strictly in that
  // order, successes first, flushed WQEs in post order.
  TwoNodeFabric f;
  FaultPlan::Params p;
  auto plan = std::make_unique<FaultPlan>(p);
  // 8 × 64 KiB back-to-back sends complete ~40 µs apart starting near 50 µs
  // on one default-rate link; a drop at 140 µs lands after the first
  // transfers but well before the train ends.
  plan->add_link_event(sim::microseconds(140), f.a.hca, 0, /*up=*/false);
  plan->arm(f.sim);
  f.fabric.attach_fault(std::move(plan));

  constexpr int kSends = 8;
  constexpr std::size_t kBytes = 64 * 1024;
  auto src = pattern_buffer(kBytes);
  std::vector<std::byte> dst(kBytes);
  auto src_mr = f.a.hca->mem().register_memory(src.data(), src.size());
  auto dst_mr = f.b.hca->mem().register_memory(dst.data(), dst.size());
  for (int i = 0; i < kSends; ++i) {
    f.b.qps[0]->post_recv({.wr_id = 100u + static_cast<std::uint64_t>(i), .dst = dst.data(),
                           .length = kBytes, .lkey = dst_mr.lkey});
    f.a.qps[0]->post_send({.wr_id = static_cast<std::uint64_t>(i + 1), .opcode = Opcode::Send,
                           .src = src.data(), .length = kBytes, .lkey = src_mr.lkey});
  }

  auto wcs = f.drain(f.a.scq);
  ASSERT_EQ(wcs.size(), static_cast<std::size_t>(kSends));  // every WQE completes exactly once
  std::vector<bool> seen(kSends, false);
  for (const Wc& wc : wcs) {
    ASSERT_GE(wc.wr_id, 1u);
    ASSERT_LE(wc.wr_id, static_cast<std::uint64_t>(kSends));
    EXPECT_FALSE(seen[wc.wr_id - 1]) << "wr " << wc.wr_id << " completed twice";
    seen[wc.wr_id - 1] = true;
  }

  // Successes form a strict prefix of the CQ: once the first error
  // completion is polled, no later completion may claim success.
  std::size_t first_err = wcs.size();
  for (std::size_t i = 0; i < wcs.size(); ++i) {
    if (wcs[i].status != WcStatus::Success) {
      first_err = i;
      break;
    }
  }
  ASSERT_GT(first_err, 0u) << "link dropped before any transfer completed";
  ASSERT_LT(first_err, wcs.size()) << "link dropped after the whole train completed";
  for (std::size_t i = first_err; i < wcs.size(); ++i) {
    EXPECT_NE(wcs[i].status, WcStatus::Success) << "success after error completion";
  }
  // CQ timestamps never run backwards, and the flushed WQEs (the queued
  // remainder; the in-flight one errs with RetryExcErr on its own clock)
  // complete in post order.
  std::uint64_t last_flushed = 0;
  for (std::size_t i = 1; i < wcs.size(); ++i) {
    EXPECT_LE(wcs[i - 1].timestamp, wcs[i].timestamp);
  }
  for (const Wc& wc : wcs) {
    if (wc.status != WcStatus::WrFlushErr) continue;
    EXPECT_GT(wc.wr_id, last_flushed) << "flushed WQEs out of post order";
    last_flushed = wc.wr_id;
  }
}

}  // namespace
}  // namespace ib12x::ib
