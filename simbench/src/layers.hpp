// Layer probes: each calls one module's public functions directly, at the
// shapes the workload itself produces, and reports host nanoseconds per call
// with the call count.  They run only in the traced mode, after the timed
// repetitions, so they never touch the end-to-end numbers.
#pragma once

#include <vector>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace simbench {

/// Runs every layer probe at the shapes of workload `w` and of its
/// repetition `rep`, and returns their metrics (each probe's batch is a
/// "layer" span when tracing).
std::vector<Metric> run_layer_probes(const Workload& w, const RepResult& rep, Tracer* tracer);

}  // namespace simbench
