// Metric records and the result line the benchmark prints last.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace simbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Process resource usage so far (getrusage(RUSAGE_SELF)).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  double peak_rss_mb = 0;
};
Usage usage_now();

/// Prints "  name = value unit" for each metric.
void print_metrics(const std::vector<Metric>& metrics);

/// The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace simbench
