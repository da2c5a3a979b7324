// Determinism self-test of the benchmark workloads.  Runs a shrunk copy of
// every workload twice in one process and requires identical
// simulated-statistics digests and zero failed operations; a third run from
// a different seed must change the a2a_fattree_128 digest.
//
//   ctest --test-dir .bench_build      (or run simbench_selftest directly)
#include <cstdio>

#include "workloads.hpp"

using namespace simbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

RepResult rep(Workload& w, std::uint64_t seed) {
  RepResult r = run_rep(w, nullptr);
  expect(r.ok && r.tally.failed == 0 && r.tally.attempted > 0,
         std::string(w.name()) + " seed " + std::to_string(seed) + ": " +
             std::to_string(r.tally.attempted) + " ops, " + std::to_string(r.tally.failed) +
             " failed " + r.error);
  return r;
}

}  // namespace

int main() {
  for (const std::string& name : workload_names()) {
    auto w = make_workload(name, 1, /*shrunk=*/true);
    const RepResult a = rep(*w, 1);
    const RepResult b = rep(*w, 1);
    expect(a.digest == b.digest && a.virt_timed == b.virt_timed,
           name + ": same seed, same digest");
    if (name == "a2a_fattree_128") {
      auto other = make_workload(name, 2, /*shrunk=*/true);
      const RepResult c = rep(*other, 2);
      expect(c.digest != a.digest, name + ": another seed, another digest");
    }
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
