// The benchmark's four workloads. Each builds its inputs from the seed,
// sets up (several times, reporting the median), measures for the given
// wall time, checks its outputs, and returns what it measured.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace e2e {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;  // record spans during the measured phase
};

/// A metric printed under the name the methodology note uses for it.
struct Named {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  // The workload's headline, in the benchmark's generic terms: one
  // "operation" per workload (see METHODOLOGY.md).
  double ops_per_sec = 0;
  double cpu_ns_per_op = 0;
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  size_t lat_samples = 0;
  double setup_s = 0;
  int setup_reps = 0;
  double peak_rss_mb = 0;
  std::vector<Named> named;  // the same numbers under workload-specific names

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check or error class

  // Diagnostics (not metrics).
  uint64_t steal_ticks = 0;
  uint64_t stalls = 0;       // driver iterations that started > 1 ms late
  double stall_ms = 0;
  std::vector<std::string> notes;

  // Traced run only.
  std::vector<Named> layer;
  std::vector<std::unique_ptr<ThreadTrace>> threads;
};

Result run_wan_bulk(const RunOptions& o);
Result run_ctl_loop(const RunOptions& o);
Result run_churn(const RunOptions& o);
Result run_scenario_matrix(const RunOptions& o);

/// Names and units of every per-layer metric, in output order.
std::vector<Named> per_layer_spec();

}  // namespace e2e
