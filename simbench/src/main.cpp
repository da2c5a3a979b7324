// simbench: runs one benchmark workload.
//
//   simbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Untraced (--trace 0) it repeats the workload's closed-loop job (World
// construction, set-up round, timed rounds, teardown) until S seconds have
// passed and prints the end-to-end metrics as medians over repetitions.
// Traced (--trace 1) it alternates untraced and traced repetitions (their
// wall-time ratio is the tracing overhead), runs the layer probes, prints
// the per-layer metrics and writes the spans to FILE.  Either way the last
// line of standard output is the JSON result.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "layers.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace simbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\nworkloads:",
               why);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 120)) usage("--seconds takes 0 < S <= 120");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace_out.empty()) a.trace_out = a.workload + ".trace.json";
  return a;
}

using Clock = std::chrono::steady_clock;

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  auto w = make_workload(args.workload, args.seed);
  if (!w) usage(("unknown workload " + args.workload).c_str());

  std::printf("simbench %s  seed=%llu  seconds=%g  trace=%d\n", w->name(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  const mvx::ClusterSpec spec = w->spec();
  std::printf("  %d nodes x %d ranks, %d timed rounds per repetition, closed loop\n", spec.nodes,
              spec.procs_per_node, w->timed_rounds());

  Tracer tracer;
  const Usage u0 = usage_now();
  const auto start = Clock::now();
  std::vector<RepResult> plain, traced;
  bool ok = true;
  std::string error;
  // At least one repetition per mode; stop on the first failing one.
  while (ok) {
    const bool trace_this = args.trace == 1 && plain.size() > traced.size();
    RepResult r = run_rep(*w, trace_this ? &tracer : nullptr);
    if (!r.ok) {
      ok = false;
      error = r.error;
    }
    (trace_this ? traced : plain).push_back(std::move(r));
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= args.seconds && (args.trace == 0 || !traced.empty())) break;
  }
  const Usage u1 = usage_now();

  std::vector<const RepResult*> all;
  for (const auto& r : plain) all.push_back(&r);
  for (const auto& r : traced) all.push_back(&r);
  std::uint64_t attempted = 0, failed = 0;
  for (const RepResult* r : all) {
    attempted += r->tally.attempted;
    failed += r->tally.failed;
  }
  // Same seed, same job: every repetition must reproduce the first exactly.
  const RepResult& first = *all.front();
  bool deterministic = true;
  for (const RepResult* r : all) {
    deterministic &= r->digest == first.digest && r->virt_timed == first.virt_timed;
  }
  if (!error.empty()) std::printf("  ERROR: %s\n", error.c_str());
  if (!deterministic) std::printf("  ERROR: repetitions of one seed disagree (digest or virtual time)\n");

  std::vector<double> wall, setup, ctor, first_round, teardown, timed;
  for (const auto& r : plain) {
    std::printf("  rep: setup %.4f s (ctor %.4f, first round %.4f), timed %.4f s, teardown %.4f s\n",
                r.ctor_s + r.first_round_s, r.ctor_s, r.first_round_s, r.timed_s, r.teardown_s);
    wall.push_back(r.timed_s + r.teardown_s);
    setup.push_back(r.ctor_s + r.first_round_s);
    ctor.push_back(r.ctor_s);
    first_round.push_back(r.first_round_s);
    teardown.push_back(r.teardown_s);
    timed.push_back(r.timed_s);
  }
  const double virt_us = sim::to_us(first.virt_timed);
  std::printf("  repetitions: %zu untraced, %zu traced; digest %016llx\n", plain.size(),
              traced.size(), static_cast<unsigned long long>(first.digest));
  std::printf("  operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  if (w->validated()) {
    std::printf("  reference: the paper's measured peaks (model.* per-layer metrics, --trace 1)\n");
  } else {
    std::printf("  reference: unvalidated (the repository holds no absolute reference for this "
                "workload's modelled time)\n");
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", u1.peak_rss_mb, "MB"},
        {"virt_time_us", virt_us, "us"},
    };
  } else {
    auto delta = [&](const std::string& n) { return counter_delta(first, n); };
    auto level = [&](const std::string& n) { return counter_level(first, n); };
    const double reps = static_cast<double>(all.size());
    const double events = delta("sim.events");
    const double timed_s = median(timed);
    const double hits = delta("rndv.reg_cache_hits");
    const double lookups = hits + delta("rndv.reg_cache_misses");
    std::printf("  rndv.reg_cache_hit_ratio base: %.0f hits / %.0f lookups\n", hits, lookups);

    metrics = {
        {"proc.user_s", (u1.user_s - u0.user_s) / reps, "s"},
        {"proc.sys_s", (u1.sys_s - u0.sys_s) / reps, "s"},
        {"proc.minor_faults", (u1.minor_faults - u0.minor_faults) / reps, "count"},
        {"world.ctor_s", median(ctor), "s"},
        {"world.first_round_s", median(first_round), "s"},
        {"world.teardown_s", median(teardown), "s"},
        {"sim.events", events, "count"},
        {"sim.fiber_switches", delta("sim.fiber_switches"), "count"},
        {"sim.host_ns_per_event", events > 0 ? timed_s * 1e9 / events : 0, "ns"},
        {"sim.host_s_per_virt_ms", virt_us > 0 ? timed_s / (virt_us / 1e3) : 0, "s/ms"},
        {"ib.wqes_serviced", delta("ib.wqes_serviced"), "count"},
        {"hca.doorbells", delta("hca.doorbells"), "count"},
        {"ib.bytes_tx", delta("ib.bytes_tx"), "bytes"},
        {"ib.send_engine_busy_us", delta("ib.send_engine_busy_us"), "us"},
        {"fabric.switch.routed_pkts", delta("fabric.switch.routed_pkts"), "count"},
        {"fabric.switch.stalls", delta("fabric.switch.stalls"), "count"},
        {"fabric.switch.queue_hwm_bytes", level("fabric.switch.queue_hwm_bytes"), "bytes"},
        {"net.eager_sent", delta("net.eager_sent"), "count"},
        {"net.ctl_sent", delta("net.ctl_sent"), "count"},
        {"net.credit_stalls", delta("net.credit_stalls"), "count"},
        {"matcher.matched", delta("matcher.matched"), "count"},
        {"matcher.unexpected", delta("matcher.unexpected"), "count"},
        {"conn.established", level("conn.established"), "count"},
        {"conn.qps_created", level("conn.qps_created"), "count"},
        {"eager.pool_bytes", level("eager.pool_bytes"), "bytes"},
        {"srq.pool_dry", delta("srq.pool_dry"), "count"},
        {"shm.sent", delta("shm.sent"), "count"},
        {"shm.bytes_sent", delta("shm.bytes_sent"), "bytes"},
        {"rndv.rts_sent", delta("rndv.rts_sent"), "count"},
        {"rndv.cts_chunks", delta("rndv.cts_chunks"), "count"},
        {"rndv.stripes_posted", delta("rndv.stripes_posted"), "count"},
        {"rndv.reg_cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio"},
        {"coll.schedules", delta("coll.schedules"), "count"},
        {"coll.rounds", delta("coll.rounds"), "count"},
        {"coll.ops", delta("coll.ops"), "count"},
    };

    try {
      for (Metric& m : run_layer_probes(*w, first, &tracer)) metrics.push_back(std::move(m));
    } catch (const std::exception& e) {
      std::printf("  ERROR: layer probe: %s\n", e.what());
      ok = false;
    }

    std::vector<double> traced_wall;
    for (const auto& r : traced) traced_wall.push_back(r.timed_s + r.teardown_s);
    const double overhead = (median(traced_wall) / median(wall) - 1) * 100;
    metrics.push_back({"trace.overhead_pct", overhead, "%"});

    if (tracer.write_chrome(args.trace_out)) {
      std::printf("  trace: %zu spans (%llu more not kept) -> %s\n", tracer.size(),
                  static_cast<unsigned long long>(tracer.dropped()), args.trace_out.c_str());
    } else {
      std::printf("  ERROR: cannot write trace file %s\n", args.trace_out.c_str());
      ok = false;
    }
  }
  if (args.trace == 0) std::printf("  virt_time_us is modelled time; the rest is host time\n");

  bool finite = true;
  for (const Metric& m : metrics) finite &= std::isfinite(m.value);
  if (!finite) std::printf("  ERROR: a metric is not finite\n");

  print_metrics(metrics);
  const bool correct = ok && deterministic && finite && failed == 0;
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  return 0;  // a printed result, correct or not, is a completed run
}
