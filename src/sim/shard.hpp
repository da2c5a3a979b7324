// Conservative parallel discrete-event engine: N Simulators, one OS thread
// each, synchronized with a barrier-epoch scheme.
//
// The lookahead window W is the minimum virtual-time distance any cross-shard
// interaction can span (for the ib model: wire latency + switch latency — a
// packet leaving shard A cannot affect shard B sooner than one hop).  Each
// epoch:
//
//   b1 ─ every shard has published its cross-shard posts from the previous
//        window into the SPSC mailboxes (mailbox.hpp)
//   drain own inboxes in fixed ascending source-shard order (determinism)
//   publish local_min = earliest pending event time (or kNoPending)
//   b2 ─ every shard reads all local_mins and computes the *same* global
//        minimum T0; if T0 == kNoPending everything is drained → terminate
//   run_window(T0 + W): process strictly events with time < T0 + W
//
// Because every event executed in [T0, T0+W) may only post cross-shard work
// at times >= T0 + W (enforced — Simulator::post_cross throws on violation),
// no shard can receive an event in its own current window, so each window is
// causally closed and the result is bit-identical to the single-threaded
// oracle.  The barriers provide all cross-thread happens-before edges; the
// mailboxes and per-shard state need no atomics on the hot path.
//
// Serial actions (Simulator::post_serial) are the one exception to "shards
// never touch each other's state": an action runs with every shard stopped.
// After b1 shard 0 merges the shards' serial posts into one pending set,
// ordered by (when, order, posting shard, post sequence), and publishes its
// earliest time S.  After b2 every shard compares S with T0:
//
//   S <= T0  serial epoch: shard 0 stops every clock at S and runs each
//            action due at S while the other shards go straight back to b1;
//   S >  T0  regular epoch, clipped to run_window(min(T0 + W, S)), so no
//            shard passes S before the action has run.
//
// Like a cross-shard post, a serial post must target >= the poster's window
// end.  The run only drains when no event *and* no action is left.
//
// Model-code error handling: a shard whose window throws records the
// exception, reports kNoPending from then on and keeps participating in
// barriers (so nobody deadlocks), and raises the abort flag.  The flag is
// checked only at the point right after b1 — every setter raises it before
// arriving at its next b1, so all shards observe it at the same protocol
// point and break together.  run() rethrows the first error in shard order.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/time.hpp"

namespace ib12x::sim {

class Simulator;

/// "No pending events" marker for local_min exchange.
inline constexpr Time kNoPending = std::numeric_limits<Time>::max();

/// Sense-reversing barrier.  Each thread keeps its own sense flag (passed by
/// reference) so the reversal never races with late arrivers.  Spins briefly
/// then yields — shard counts can exceed core counts (CI runners, laptops)
/// and a pure spin would livelock an oversubscribed box.
class EpochBarrier {
 public:
  explicit EpochBarrier(int total) : total_(total) {}

  void arrive_and_wait(bool& local_sense);

 private:
  const int total_;
  std::atomic<int> arrived_{0};
  std::atomic<bool> sense_{false};
};

class ShardEngine {
 public:
  /// `sims[i]` becomes shard i; `lookahead` is the window width W (> 0).
  /// The engine attaches itself to every simulator so Simulator::post can
  /// route cross-shard work through the mailboxes.
  ShardEngine(std::vector<Simulator*> sims, Time lookahead);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Runs all shards to completion (global drain) or first model error.
  /// Shard 0 runs on the calling thread; shards 1..N-1 get OS threads.
  void run();

  /// Producer-side entry, called from Simulator::post_cross on the shard
  /// `src`'s thread.  `when` must be >= the posting shard's window_end.
  void enqueue_cross(int src, int dst, Time when, Event fn);
  /// Producer-side entry for Simulator::post_serial on shard `src`.
  void enqueue_serial(int src, Time when, std::uint64_t order, Event fn);

  /// True while shard 0 runs serial actions (every other shard is parked).
  [[nodiscard]] bool in_serial() const { return in_serial_; }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] int shards() const { return static_cast<int>(sims_.size()); }
  [[nodiscard]] Time lookahead() const { return lookahead_; }

  // ---- telemetry (read after run() returns) ----
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t serial_actions() const { return serial_actions_; }
  [[nodiscard]] std::uint64_t cross_events() const;
  [[nodiscard]] std::size_t mailbox_high_water() const;
  [[nodiscard]] std::uint64_t barrier_wait_ns(int shard) const {
    return per_[static_cast<std::size_t>(shard)].barrier_wait_ns;
  }

 private:
  /// A pending serial action; the heap orders by (when, order, shard, seq).
  struct Serial {
    Time when = 0;
    std::uint64_t order = 0;
    int shard = 0;
    std::uint64_t seq = 0;
    Event fn;
  };
  /// Heap comparator: true when `a` runs after `b`.
  static bool runs_later(const Serial& a, const Serial& b);

  // Per-shard mutable state, cache-line separated so neighbouring shards'
  // writes don't false-share.
  struct alignas(64) PerShard {
    Time local_min = kNoPending;
    std::uint64_t barrier_wait_ns = 0;
    bool sense1 = false;  // private sense for b1_
    bool sense2 = false;  // private sense for b2_
    std::exception_ptr error;
    std::vector<Serial> serial_out;  ///< posted this window, merged after b1
    std::uint64_t serial_seq = 0;    ///< post order within this shard
  };

  void worker_loop(int shard);
  /// Shard 0 only, with the other shards outside their windows: moves every
  /// out-list into serial_.  (serial_next_ is published after b1 only: the
  /// other shards read it after b2, possibly while a serial epoch runs.)
  void collect_serial();
  /// Shard 0, in a serial epoch: runs every action due at `when`.
  void run_serial(Time when);
  void timed_wait(EpochBarrier& b, bool& sense, PerShard& me);
  Mailbox& mailbox(int src, int dst) {
    return mail_[static_cast<std::size_t>(src) * sims_.size() +
                 static_cast<std::size_t>(dst)];
  }

  std::vector<Simulator*> sims_;
  const Time lookahead_;
  std::vector<Mailbox> mail_;  // [src * N + dst]
  std::vector<PerShard> per_;
  EpochBarrier b1_;
  EpochBarrier b2_;
  std::atomic<bool> abort_{false};
  bool running_ = false;
  bool in_serial_ = false;            // written by shard 0 only
  std::vector<Serial> serial_;        // pending actions (heap); shard 0 only
  Time serial_next_ = kNoPending;     // written by shard 0 between b1 and b2
  std::uint64_t epochs_ = 0;          // written by shard 0 only
  std::uint64_t serial_actions_ = 0;  // written by shard 0 only
};

}  // namespace ib12x::sim
