// The simulation kernel: a virtual clock plus the deterministic event queue.
//
// The kernel is strictly single-threaded *per simulator*: exactly one piece
// of model code runs at a time (either an event handler, or one simulated
// process — see process.hpp — which runs on a fiber and hands control back to
// the event loop at every suspension point).  No locking is needed around the
// queue or the clock.  The parallel engine (shard.hpp) runs several
// Simulators on separate OS threads; all cross-simulator traffic goes through
// post(), which degenerates to at() when source and destination coincide and
// otherwise hands the event to the engine's mailboxes.  post_serial() is
// the one way to act on several shards at once: the engine runs the action
// between windows, with every shard stopped.
//
// Besides virtual time the kernel tracks its own wall-clock throughput
// (events/sec, fiber switches/sec, kernel allocations) so the simulation
// substrate's speed is observable through the telemetry registry and the
// BENCH_kernel.json trajectory.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ib12x::sim {

class ShardEngine;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `when`.  Scheduling in the past is a
  /// model bug and throws.
  void at(Time when, Event fn) {
    if (when < now_) {
      throw std::logic_error("Simulator::at: scheduling in the past (when=" +
                             std::to_string(when) + " now=" + std::to_string(now_) + ")");
    }
    queue_.push(when, std::move(fn));
  }

  /// Schedules `fn` `delay` picoseconds from now.
  void after(Time delay, Event fn) { at(now_ + delay, std::move(fn)); }

  /// Schedules `fn` at `when` on `dst`, which may belong to another shard.
  /// For `&dst == this` this is exactly at() — the sharded engine costs
  /// nothing on the (overwhelmingly common) intra-shard path.  Cross-shard
  /// posts must target times >= the current epoch's window end; violations
  /// throw (the conservative-sync invariant, see shard.hpp).
  void post(Simulator& dst, Time when, Event fn) {
    if (&dst == this) {
      at(when, std::move(fn));
      return;
    }
    post_cross(dst, when, std::move(fn));
  }

  /// Schedules `fn` to run at `when` with the whole simulation stopped: no
  /// shard is mid-window, every shard's clock stands at `when`, and `fn` may
  /// touch any shard's state.  Without a parallel engine this is exactly
  /// at().  With one, an action posted before run() waits for it; during a
  /// run `when` must be >= the current window end (like a cross-shard post;
  /// violations throw).  Serial actions run before any regular event at
  /// `when`, same-instant ones in ascending `order`.  Callers that need a
  /// run to match the unsharded one make `order` unique per instant, so the
  /// order does not depend on which shard posted.  See shard.hpp.
  void post_serial(Time when, std::uint64_t order, Event fn);

  /// Runs the earliest pending event, advancing the clock to its timestamp.
  /// Returns false if the queue was empty.
  bool step() {
    if (queue_.empty()) return false;
    Time when = 0;
    Event fn = queue_.pop(when);
    now_ = when;
    ++processed_;
    fn();
    return true;
  }

  /// Runs events until the queue drains.
  void run() {
    const auto wall_start = std::chrono::steady_clock::now();
    while (step()) {
    }
    run_wall_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  }

  /// Runs events with timestamps <= `deadline`; leaves later events queued
  /// and advances the clock to exactly `deadline`.
  void run_until(Time deadline) {
    const auto wall_start = std::chrono::steady_clock::now();
    for (;;) {
      Time when = 0;
      Event fn;
      // One ordering query per iteration: the queue checks the deadline as
      // part of the pop instead of answering next_time() and pop separately.
      if (!queue_.pop_at_or_before(deadline, when, fn)) break;
      now_ = when;
      ++processed_;
      fn();
    }
    if (now_ < deadline) {
      now_ = deadline;
      queue_.advance_to(deadline);  // keep same-instant pushes on the fast lane
    }
    run_wall_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  }

  /// Parallel-engine run phase: processes strictly events with time < `end`
  /// (the epoch window [T0, T0+W)).  Unlike run_until the clock is NOT
  /// advanced to the window edge afterwards — now() stays at the last
  /// processed event, so the final simulated end time matches the
  /// single-threaded oracle exactly.
  void run_window(Time end) {
    window_end_ = end;
    const auto wall_start = std::chrono::steady_clock::now();
    for (;;) {
      Time when = 0;
      Event fn;
      if (!queue_.pop_at_or_before(end - 1, when, fn)) break;
      now_ = when;
      ++processed_;
      fn();
    }
    run_wall_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  }

  // ---- parallel-engine plumbing (see shard.hpp) ----

  /// Serial-action entry (ShardEngine only): stops this shard's clock at
  /// `when` — every event before it has run — and makes `when` the window
  /// end, so posts from the action must target `when` or later.
  void enter_serial(Time when) {
    if (now_ < when) now_ = when;
    queue_.advance_to(when);  // same-instant pushes take the lane, as at()'s would
    window_end_ = when;
  }
  /// Counts one serial action this simulator posted as a processed event.
  void note_serial_processed() { ++processed_; }

  /// Called by ShardEngine on construction/destruction.
  void attach_shard(ShardEngine* engine, int shard) {
    engine_ = engine;
    shard_ = shard;
  }
  [[nodiscard]] int shard_index() const { return shard_; }
  /// End of the current epoch window; 0 when no window has run yet.
  [[nodiscard]] Time window_end() const { return window_end_; }
  /// Earliest pending event time.  Precondition: !idle().
  [[nodiscard]] Time next_event_time() const { return queue_.next_time(); }

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  /// Serial posts count as scheduled heap events: they always target a
  /// later instant, where at() would have put them on the heap.
  [[nodiscard]] std::uint64_t events_scheduled() const {
    return queue_.pushed() + serial_posted_;
  }
  [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }

  // ---- kernel self-telemetry ----

  /// Pushes that took the same-instant FIFO lane / the time-ordered heap.
  [[nodiscard]] std::uint64_t lane_events() const { return queue_.lane_pushed(); }
  [[nodiscard]] std::uint64_t heap_events() const {
    return queue_.heap_pushed() + serial_posted_;
  }
  /// Allocations the event queue performed (storage growth only).
  [[nodiscard]] std::uint64_t kernel_allocs() const { return queue_.alloc_events(); }
  [[nodiscard]] double allocs_per_event() const {
    return processed_ == 0 ? 0.0
                           : static_cast<double>(queue_.alloc_events()) /
                                 static_cast<double>(processed_);
  }

  /// Fiber context switches (counted by Process::resume; 2 per round trip).
  [[nodiscard]] std::uint64_t fiber_switches() const { return fiber_switches_; }
  void note_fiber_switches(std::uint64_t n) { fiber_switches_ += n; }

  /// Wall-clock seconds spent inside run()/run_until() event loops.
  [[nodiscard]] double run_wall_seconds() const {
    return static_cast<double>(run_wall_ns_) / 1e9;
  }
  [[nodiscard]] double events_per_wall_sec() const {
    return run_wall_ns_ == 0 ? 0.0
                             : static_cast<double>(processed_) * 1e9 /
                                   static_cast<double>(run_wall_ns_);
  }
  [[nodiscard]] double switches_per_wall_sec() const {
    return run_wall_ns_ == 0 ? 0.0
                             : static_cast<double>(fiber_switches_) * 1e9 /
                                   static_cast<double>(run_wall_ns_);
  }

 private:
  // Out-of-line (shard.cpp) so this header needs no engine definition.
  void post_cross(Simulator& dst, Time when, Event fn);

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t serial_posted_ = 0;  ///< post_serial calls the engine took
  std::uint64_t fiber_switches_ = 0;
  std::int64_t run_wall_ns_ = 0;
  ShardEngine* engine_ = nullptr;
  int shard_ = 0;
  Time window_end_ = 0;
};

}  // namespace ib12x::sim
