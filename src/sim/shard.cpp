#include "sim/shard.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "sim/simulator.hpp"

namespace ib12x::sim {

void EpochBarrier::arrive_and_wait(bool& local_sense) {
  const bool target = !local_sense;
  local_sense = target;
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == total_) {
    // Last arriver: reset the counter for the next use, then release the
    // waiters.  The reset is safe before the release store because nobody
    // re-arrives until they have observed the new sense.
    arrived_.store(0, std::memory_order_relaxed);
    sense_.store(target, std::memory_order_release);
  } else {
    int spins = 0;
    while (sense_.load(std::memory_order_acquire) != target) {
      if (++spins >= 256) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }
}

ShardEngine::ShardEngine(std::vector<Simulator*> sims, Time lookahead)
    : sims_(std::move(sims)),
      lookahead_(lookahead),
      mail_(sims_.size() * sims_.size()),
      per_(sims_.size()),
      b1_(static_cast<int>(sims_.size())),
      b2_(static_cast<int>(sims_.size())) {
  if (sims_.empty()) throw std::invalid_argument("ShardEngine: need at least one shard");
  if (lookahead_ <= 0) throw std::invalid_argument("ShardEngine: lookahead must be > 0");
  for (std::size_t i = 0; i < sims_.size(); ++i) {
    sims_[i]->attach_shard(this, static_cast<int>(i));
  }
}

ShardEngine::~ShardEngine() {
  for (Simulator* s : sims_) s->attach_shard(nullptr, 0);
}

std::uint64_t ShardEngine::cross_events() const {
  std::uint64_t n = 0;
  for (const Mailbox& m : mail_) n += m.total();
  return n;
}

std::size_t ShardEngine::mailbox_high_water() const {
  std::size_t hwm = 0;
  for (const Mailbox& m : mail_) hwm = std::max(hwm, m.high_water());
  return hwm;
}

void ShardEngine::timed_wait(EpochBarrier& b, bool& sense, PerShard& me) {
  const auto t0 = std::chrono::steady_clock::now();
  b.arrive_and_wait(sense);
  me.barrier_wait_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

bool ShardEngine::runs_later(const Serial& a, const Serial& b) {
  return std::tie(a.when, a.order, a.shard, a.seq) > std::tie(b.when, b.order, b.shard, b.seq);
}

void ShardEngine::collect_serial() {
  for (PerShard& p : per_) {
    for (Serial& a : p.serial_out) {
      serial_.push_back(std::move(a));
      std::push_heap(serial_.begin(), serial_.end(), runs_later);
    }
    p.serial_out.clear();
  }
}

void ShardEngine::run_serial(Time when) {
  // Every shard has run every event before `when` (windows were clipped at
  // it) and is parked on its way to b1, so shard 0 may act on all of them.
  in_serial_ = true;
  for (Simulator* sim : sims_) sim->enter_serial(when);
  try {
    // Re-collect after each action: it may post further actions, and the
    // ones due now run in this epoch too.
    for (collect_serial(); !serial_.empty() && serial_.front().when == when; collect_serial()) {
      std::pop_heap(serial_.begin(), serial_.end(), runs_later);
      Serial a = std::move(serial_.back());
      serial_.pop_back();
      sims_[static_cast<std::size_t>(a.shard)]->note_serial_processed();
      ++serial_actions_;
      a.fn();
    }
  } catch (...) {
    per_[0].error = std::current_exception();
  }
  in_serial_ = false;
}

void ShardEngine::worker_loop(int s) {
  PerShard& me = per_[static_cast<std::size_t>(s)];
  Simulator& sim = *sims_[static_cast<std::size_t>(s)];
  const int n = shards();
  for (;;) {
    // b1: every shard has published all cross-shard posts and serial posts
    // from the previous window.  This is also the only abort checkpoint —
    // every setter raises the flag before arriving here, so all shards see
    // the same value.
    timed_wait(b1_, me.sense1, me);
    if (abort_.load(std::memory_order_relaxed)) break;
    if (s == 0) {
      collect_serial();
      serial_next_ = serial_.empty() ? kNoPending : serial_.front().when;
    }

    // Drain inboxes in ascending source-shard order so same-instant
    // cross-shard arrivals enqueue in a deterministic order.
    if (!me.error) {
      try {
        for (int src = 0; src < n; ++src) {
          mailbox(src, s).drain(
              [&sim](Time when, Event fn) { sim.at(when, std::move(fn)); });
        }
        me.local_min = sim.idle() ? kNoPending : sim.next_event_time();
      } catch (...) {
        me.error = std::current_exception();
        me.local_min = kNoPending;
      }
    } else {
      me.local_min = kNoPending;
    }

    // b2: all minima and the next serial time published; afterwards every
    // shard computes the same T0 and takes the same branch.
    timed_wait(b2_, me.sense2, me);
    Time t0 = kNoPending;
    for (const PerShard& p : per_) t0 = std::min(t0, p.local_min);
    const Time serial_at = serial_next_;
    if (t0 == kNoPending && serial_at == kNoPending) break;  // global drain
    if (s == 0) ++epochs_;

    if (serial_at <= t0) {
      // Serial epoch: shard 0 runs the actions, the others wait at b1.
      if (s == 0 && !me.error) run_serial(serial_at);
    } else if (!me.error) {
      try {
        sim.run_window(std::min(t0 + lookahead_, serial_at));
      } catch (...) {
        me.error = std::current_exception();
      }
    }
    if (me.error) abort_.store(true, std::memory_order_relaxed);
  }
}

void ShardEngine::run() {
  abort_.store(false, std::memory_order_relaxed);
  running_ = true;
  std::vector<std::thread> threads;
  threads.reserve(sims_.size() > 0 ? sims_.size() - 1 : 0);
  for (int i = 1; i < shards(); ++i) {
    threads.emplace_back([this, i] { worker_loop(i); });
  }
  worker_loop(0);
  for (std::thread& t : threads) t.join();
  running_ = false;
  if (abort_.load(std::memory_order_relaxed)) {
    // An aborted run leaves actions behind; they must not fire in the next.
    serial_.clear();
    for (PerShard& p : per_) p.serial_out.clear();
  }
  for (PerShard& p : per_) {
    if (p.error) {
      std::exception_ptr e = p.error;
      p.error = nullptr;
      std::rethrow_exception(e);
    }
  }
}

void ShardEngine::enqueue_cross(int src, int dst, Time when, Event fn) {
  mailbox(src, dst).put(when, std::move(fn));
}

void ShardEngine::enqueue_serial(int src, Time when, std::uint64_t order, Event fn) {
  PerShard& p = per_[static_cast<std::size_t>(src)];
  p.serial_out.push_back(Serial{when, order, src, p.serial_seq++, std::move(fn)});
}

// Defined here rather than in the (header-only) Simulator so simulator.hpp
// does not need the engine's definition.
void Simulator::post_cross(Simulator& dst, Time when, Event fn) {
  if (engine_ == nullptr || !engine_->running() || engine_->in_serial()) {
    // Construction/teardown-time scheduling and serial actions run with no
    // shard thread active; deliver directly, exactly like the single-engine
    // path.
    dst.at(when, std::move(fn));
    return;
  }
  if (when < window_end_) {
    throw std::logic_error(
        "Simulator::post_cross: event targets t=" + std::to_string(when) +
        " inside the current window (end=" + std::to_string(window_end_) +
        "); lookahead exceeds the model's true minimum cross-shard latency");
  }
  engine_->enqueue_cross(shard_, dst.shard_index(), when, std::move(fn));
}

void Simulator::post_serial(Time when, std::uint64_t order, Event fn) {
  if (engine_ == nullptr) {
    at(when, std::move(fn));
    return;
  }
  // Before (or between) runs the action waits for the engine's next run();
  // during a run it must clear the window the poster is in.
  const Time floor = engine_->running() ? window_end_ : now_;
  if (when < floor) {
    throw std::logic_error(
        "Simulator::post_serial: action targets t=" + std::to_string(when) +
        " inside the current window (end=" + std::to_string(floor) +
        "); a serial action must be at least one lookahead window out");
  }
  ++serial_posted_;
  engine_->enqueue_serial(shard_, when, order, std::move(fn));
}

}  // namespace ib12x::sim
