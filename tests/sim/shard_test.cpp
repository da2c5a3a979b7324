#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ib12x::sim {
namespace {

TEST(Mailbox, FifoDrainAndCounters) {
  Mailbox mb;
  EXPECT_TRUE(mb.empty());
  std::vector<int> order;
  mb.put(10, [&] { order.push_back(1); });
  mb.put(5, [&] { order.push_back(2); });  // FIFO, not time-sorted
  mb.put(20, [&] { order.push_back(3); });
  EXPECT_FALSE(mb.empty());
  EXPECT_EQ(mb.high_water(), 3u);

  std::vector<Time> times;
  mb.drain([&](Time when, Event fn) {
    times.push_back(when);
    fn();
  });
  EXPECT_TRUE(mb.empty());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(times, (std::vector<Time>{10, 5, 20}));
  EXPECT_EQ(mb.total(), 3u);

  // High water persists across drains; total accumulates.
  mb.put(1, [] {});
  mb.drain([](Time, Event fn) { fn(); });
  EXPECT_EQ(mb.high_water(), 3u);
  EXPECT_EQ(mb.total(), 4u);
}

TEST(EpochBarrier, RepeatedPhasesStayAligned) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  EpochBarrier barrier(kThreads);
  std::atomic<int> in_phase{0};
  std::atomic<bool> torn{false};

  auto body = [&] {
    bool sense = false;
    for (int r = 0; r < kRounds; ++r) {
      in_phase.fetch_add(1);
      barrier.arrive_and_wait(sense);
      // Everyone is past the barrier: the phase counter must show a full
      // round (a torn barrier would let a fast thread lap a slow one).
      if (in_phase.load() < kThreads * (r + 1)) torn = true;
      barrier.arrive_and_wait(sense);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < kThreads; ++t) threads.emplace_back(body);
  body();
  for (auto& t : threads) t.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(in_phase.load(), kThreads * kRounds);
}

// A deterministic relay: each hop logs (shard, time, value) on its current
// simulator and posts the next hop to the other simulator at now + gap.
// Running it with both "shards" aliased to one Simulator is the oracle.
struct Relay {
  Simulator* sims[2] = {nullptr, nullptr};
  Time gap = 0;
  int hops = 0;
  std::vector<std::tuple<int, Time, int>> log;

  void step(int which, int value) {
    Simulator& cur = *sims[which];
    log.emplace_back(which, cur.now(), value);
    if (value >= hops) return;
    Relay* self = this;
    const int next = sims[0] == sims[1] ? which : 1 - which;
    cur.post(*sims[1 - which], cur.now() + gap,
             [self, next, value] { self->step(next, value + 1); });
  }

  void start() {
    Relay* self = this;
    sims[0]->at(0, [self] { self->step(0, 0); });
  }
};

TEST(ShardEngine, TwoShardRelayMatchesSingleSimOracle) {
  const Time W = nanoseconds(700);

  Relay oracle;
  Simulator single;
  oracle.sims[0] = oracle.sims[1] = &single;
  oracle.gap = W;
  oracle.hops = 50;
  oracle.start();
  single.run();

  Relay sharded;
  Simulator a;
  Simulator b;
  sharded.sims[0] = &a;
  sharded.sims[1] = &b;
  sharded.gap = W;
  sharded.hops = 50;
  ShardEngine engine({&a, &b}, W);
  sharded.start();
  engine.run();

  // Same hop times and values; the shard column alternates in the sharded
  // run but the oracle logged everything on "shard 0".
  ASSERT_EQ(sharded.log.size(), oracle.log.size());
  for (std::size_t i = 0; i < oracle.log.size(); ++i) {
    EXPECT_EQ(std::get<1>(sharded.log[i]), std::get<1>(oracle.log[i])) << i;
    EXPECT_EQ(std::get<2>(sharded.log[i]), std::get<2>(oracle.log[i])) << i;
    EXPECT_EQ(std::get<0>(sharded.log[i]), static_cast<int>(i % 2)) << i;
  }
  EXPECT_EQ(a.now() > 0 || b.now() > 0, true);
  EXPECT_EQ(a.events_processed() + b.events_processed(), single.events_processed());

  // Telemetry: 50 hand-offs crossed shards, every epoch advanced.
  EXPECT_EQ(engine.cross_events(), 50u);
  EXPECT_GE(engine.epochs(), 1u);
  EXPECT_GE(engine.mailbox_high_water(), 1u);
}

TEST(ShardEngine, PreRunPostsDeliverDirectly) {
  Simulator a;
  Simulator b;
  ShardEngine engine({&a, &b}, nanoseconds(100));
  // Engine attached but not running: post() must behave like plain wiring
  // (used by World construction before run()).
  Time seen = -1;
  a.post(b, 42, [&] { seen = b.now(); });
  EXPECT_FALSE(b.idle());
  engine.run();
  EXPECT_EQ(seen, 42);
}

TEST(ShardEngine, WindowViolationThrowsThroughRun) {
  const Time W = nanoseconds(100);
  Simulator a;
  Simulator b;
  ShardEngine engine({&a, &b}, W);
  a.at(0, [&] {
    // now + 1 < window_end (= T0 + W): the conservative contract is broken
    // and the engine must refuse rather than silently de-synchronize.
    a.post(b, a.now() + 1, [] {});
  });
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(ShardEngine, ModelErrorOnSecondaryShardIsRethrown) {
  const Time W = nanoseconds(100);
  Simulator a;
  Simulator b;
  ShardEngine engine({&a, &b}, W);
  // Keep shard 0 busy past the failure instant so the abort path has to
  // interrupt it rather than find it already drained.
  for (int i = 0; i < 10; ++i) a.at(i * W, [] {});
  b.at(W, [] { throw std::runtime_error("shard 1 model error"); });
  EXPECT_THROW(engine.run(), std::runtime_error);
  EXPECT_FALSE(engine.running());
}

TEST(ShardEngine, FourShardRingIsDeterministicAcrossRuns) {
  const Time W = nanoseconds(300);
  auto run_ring = [&](std::vector<std::tuple<int, Time, int>>& log) {
    std::vector<Simulator> sims(4);
    std::vector<Simulator*> ptrs;
    for (auto& s : sims) ptrs.push_back(&s);
    ShardEngine engine(ptrs, W);
    struct Ring {
      std::vector<Simulator*>* sims;
      Time gap;
      std::vector<std::tuple<int, Time, int>>* log;
      void step(int which, int value) {
        Simulator& cur = *(*sims)[static_cast<std::size_t>(which)];
        log->emplace_back(which, cur.now(), value);
        if (value >= 40) return;
        Ring* self = this;
        const int next = (which + 1) % static_cast<int>(sims->size());
        cur.post(*(*sims)[static_cast<std::size_t>(next)], cur.now() + gap,
                 [self, next, value] { self->step(next, value + 1); });
      }
    };
    Ring ring{&ptrs, W, &log};
    sims[0].at(0, [&ring] { ring.step(0, 0); });
    engine.run();
  };
  std::vector<std::tuple<int, Time, int>> first;
  std::vector<std::tuple<int, Time, int>> second;
  run_ring(first);
  run_ring(second);
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 41u);
}

// ---- serial actions (Simulator::post_serial) ----

TEST(ShardEngine, SerialActionSeesEveryClockAtWhenBeforeRegularEvents) {
  const Time W = nanoseconds(100);
  const Time when = 5 * W;
  Simulator a;
  Simulator b;
  ShardEngine engine({&a, &b}, W);
  // One log per shard (the shards run concurrently); the action, which runs
  // with both stopped, writes to both.
  std::vector<std::string> log_a;
  std::vector<std::string> log_b;
  Time a_clock = -1;
  Time b_clock = -1;
  // Regular events at `when` on both shards, queued before the action is
  // even posted: the action still runs first.
  a.at(when, [&] { log_a.push_back("a@when"); });
  b.at(when, [&] { log_b.push_back("b@when"); });
  a.at(0, [&] {
    a.post_serial(when, /*order=*/0, [&] {
      a_clock = a.now();
      b_clock = b.now();
      log_a.push_back("serial");
      log_b.push_back("serial");
      // The action may act on any shard, at its own instant or later.
      b.at(b.now(), [&] { log_b.push_back("b@when from serial"); });
    });
  });
  engine.run();
  EXPECT_EQ(a_clock, when);
  EXPECT_EQ(b_clock, when);
  EXPECT_EQ(log_a, (std::vector<std::string>{"serial", "a@when"}));
  EXPECT_EQ(log_b, (std::vector<std::string>{"serial", "b@when", "b@when from serial"}));
  EXPECT_EQ(engine.serial_actions(), 1u);
}

TEST(ShardEngine, SerialActionCountsAsOneEvent) {
  // Same program, unsharded (post_serial is plain at()) and sharded: the
  // processed and heap-push totals agree.
  const Time W = nanoseconds(100);
  auto program = [W](Simulator& a, Simulator& b) {
    a.at(0, [&a, &b, W] {
      a.post_serial(3 * W, /*order=*/0, [&b, W] { b.at(b.now() + W, [] {}); });
    });
  };
  Simulator single;
  program(single, single);
  single.run();

  Simulator a;
  Simulator b;
  ShardEngine engine({&a, &b}, W);
  program(a, b);
  engine.run();
  EXPECT_EQ(a.events_processed() + b.events_processed(), single.events_processed());
  EXPECT_EQ(a.heap_events() + b.heap_events(), single.heap_events());
  EXPECT_EQ(a.events_scheduled() + b.events_scheduled(), single.events_scheduled());
  EXPECT_EQ(single.events_processed(), 3u);
}

TEST(ShardEngine, PendingSerialActionKeepsTheRunAlive) {
  // After the posting event no regular event is left anywhere; the engine
  // must not call the run drained while the action is pending.
  const Time W = nanoseconds(100);
  Simulator a;
  Simulator b;
  ShardEngine engine({&a, &b}, W);
  bool ran = false;
  Time follow_up = -1;
  a.at(0, [&] {
    a.post_serial(40 * W, /*order=*/0, [&] {
      ran = true;
      b.at(b.now() + W, [&] { follow_up = b.now(); });
    });
  });
  engine.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(follow_up, 41 * W);
}

TEST(ShardEngine, PreRunSerialPostWaitsForTheRun) {
  // Posted while the engine is attached but idle (construction time): the
  // action is held for run() and still runs with every shard stopped.
  const Time W = nanoseconds(100);
  Simulator a;
  Simulator b;
  ShardEngine engine({&a, &b}, W);
  Time b_clock = -1;
  a.post_serial(7 * W, /*order=*/0, [&] { b_clock = b.now(); });
  EXPECT_TRUE(a.idle());
  engine.run();
  EXPECT_EQ(b_clock, 7 * W);
  EXPECT_EQ(engine.serial_actions(), 1u);
}

TEST(ShardEngine, SerialPostInsideCurrentWindowThrows) {
  const Time W = nanoseconds(100);
  Simulator a;
  Simulator b;
  ShardEngine engine({&a, &b}, W);
  a.at(0, [&] { a.post_serial(a.now() + 1, /*order=*/0, [] {}); });
  EXPECT_THROW(engine.run(), std::logic_error);
  EXPECT_FALSE(engine.running());
}

TEST(ShardEngine, SameInstantSerialActionsRunInOrderKeyNotShardOrder) {
  const Time W = nanoseconds(100);
  Simulator a;
  Simulator b;
  ShardEngine engine({&a, &b}, W);
  std::vector<int> order;
  // Shard 1 posts the smaller key, shard 0 the larger one, and shard 0
  // posts a second action for the same instant with the smallest key.
  a.at(0, [&] {
    a.post_serial(4 * W, 7, [&] { order.push_back(7); });
    a.post_serial(4 * W, 1, [&] { order.push_back(1); });
  });
  b.at(0, [&] { b.post_serial(4 * W, 3, [&] { order.push_back(3); }); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 7}));
}

TEST(ShardEngine, SerialActionClipsWindowsSoNoShardPassesIt) {
  // A long-running event chain on shard 1 must not run past the action's
  // instant before the action has seen shard 1's state.
  const Time W = nanoseconds(100);
  Simulator a;
  Simulator b;
  ShardEngine engine({&a, &b}, W);
  int ticks_before_serial = -1;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 50) b.at(b.now() + W / 4, tick);
  };
  b.at(0, tick);
  a.at(0, [&] {
    a.post_serial(3 * W + W / 8, 0, [&] { ticks_before_serial = ticks; });
  });
  engine.run();
  // Ticks at 0, W/4, ..., 3W: 13 of them precede 3W + W/8.
  EXPECT_EQ(ticks_before_serial, 13);
  EXPECT_EQ(ticks, 50);
}

}  // namespace
}  // namespace ib12x::sim
