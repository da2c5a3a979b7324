// In-memory span recorder for the traced benchmark mode, written out at exit
// as Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
//
// Spans come from the benchmark's own code, around its calls into each
// layer: World construction and teardown, each round, every Communicator
// call of every rank, and each layer-probe batch.  A span with a virtual
// interval appears twice in the file: once on the host clock (process
// "host") and once on the modelled clock (process "virtual").  Call spans
// are inclusive: a rank parked in a blocking call accrues host time while
// other ranks progress, so their host durations attribute waiting, not self
// time; the virtual timeline is the one that attributes modelled time.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mvx/comm.hpp"
#include "sim/time.hpp"

namespace simbench {

namespace ib = ib12x::ib;
namespace mvx = ib12x::mvx;
namespace sim = ib12x::sim;

class Tracer {
 public:
  /// Track id for spans not owned by a rank (world lifecycle, rounds, probes).
  static constexpr int kBenchTrack = -1;

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Host nanoseconds since the tracer was created.
  [[nodiscard]] std::int64_t host_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Starts a new round; every span recorded until the next call carries
  /// its id.  Ids are unique across the whole run.
  void begin_round() { ++round_; }
  [[nodiscard]] int round() const { return round_; }

  /// Host-only span (no modelled interval).  `cat` and `name` must be
  /// string literals (or otherwise outlive the tracer).
  void host_span(const char* cat, const char* name, std::int64_t h0, std::int64_t h1);
  /// Span with both clocks; `track` is the rank or kBenchTrack.
  void span(const char* cat, const char* name, int track, std::int64_t h0, std::int64_t h1,
            sim::Time v0, sim::Time v1);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Spans recorded after the buffer was full (counted, not kept).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Spans kept in memory; enough for every span of the first traced
  /// repetitions of any workload while keeping the file readable.
  static constexpr std::size_t kMaxSpans = 100000;

  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* cat;
    const char* name;
    int track;
    int round;
    std::int64_t h0, h1;  ///< host ns since origin
    sim::Time v0, v1;     ///< modelled ps; v0 < 0 for host-only spans
  };
  std::chrono::steady_clock::time_point origin_;
  int round_ = 0;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Wraps each Communicator call a workload makes.  Untraced (null tracer)
/// it is a plain call; traced it records one "mpi" span per call.
class Calls {
 public:
  explicit Calls(Tracer* tracer) : tracer_(tracer) {}

  template <class F>
  void operator()(mvx::Communicator& c, const char* name, F&& f) {
    if (tracer_ == nullptr) {
      f();
      return;
    }
    const std::int64_t h0 = tracer_->host_now();
    const sim::Time v0 = c.now();
    f();
    tracer_->span("mpi", name, c.world_rank(c.rank()), h0, tracer_->host_now(), v0, c.now());
  }

 private:
  Tracer* tracer_;
};

}  // namespace simbench
