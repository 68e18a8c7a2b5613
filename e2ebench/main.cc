// ccp_e2ebench: the repository's end-to-end benchmark.
//
//   ccp_e2ebench --workload <wan_bulk|ctl_loop|churn|scenario_matrix>
//                --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//   ccp_e2ebench --list-per-layer
//
// Prints a human-readable report, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs untraced and then traced, half the time each, and the
// metrics are the per-layer ones derived from the traced run's spans
// (plus the tracing overhead). Exit status is 0 only when every output
// check passed.
// See METHODOLOGY.md for what each workload and metric means.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using e2e::Named;
using e2e::Result;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_file;
  bool list = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list-per-layer") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else {
      return false;
    }
  }
  return a.list || (!a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1));
}

Result run(const std::string& w, const e2e::RunOptions& o) {
  if (w == "wan_bulk") return e2e::run_wan_bulk(o);
  if (w == "ctl_loop") return e2e::run_ctl_loop(o);
  if (w == "churn") return e2e::run_churn(o);
  if (w == "scenario_matrix") return e2e::run_scenario_matrix(o);
  throw std::invalid_argument("unknown workload: " + w);
}

double finite(double v) { return std::isfinite(v) ? v : 0.0; }

/// Direction of a per-layer metric: costs, waits, errors and waste are
/// better lower; batching ratios, shares and work counts higher.
const char* better(const Named& m) {
  static const char* kLower[] = {"error", "failure", "ring_full", "fallback", "eviction",
                                 "unknown", "unattributed", "busy_share", "grows",
                                 "rehash", "compiles_per_install", "overhead"};
  if (m.unit == "ns" || m.unit == "us" || m.unit == "s" || m.unit == "%") return "lower";
  for (const char* k : kLower) {
    if (m.name.find(k) != std::string::npos) return "lower";
  }
  return "higher";
}

void print_named(const std::vector<Named>& v) {
  for (const auto& m : v) {
    std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_report(const std::string& label, const Result& r) {
  std::printf("%s\n", label.c_str());
  print_named(r.named);
  std::printf("  %-38s %16.6g %s\n", "peak_rss_mb", r.peak_rss_mb, "MB");
  std::printf("  %-38s %16.6g %s  (median of %d set-ups)\n", "setup_s", r.setup_s, "s",
              r.setup_reps);
  std::printf("  %-38s %16.6g %s  (%llu failed of %llu attempted)\n", "fail_frac",
              r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0,
              "ratio", static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("  latency samples: %zu\n", r.lat_samples);
  for (const auto& f : r.failures) std::printf("  FAILED: %s\n", f.c_str());
  std::printf("  diagnostics: steal_ticks=%llu driver_stalls=%llu (%.1f ms)",
              static_cast<unsigned long long>(r.steal_ticks),
              static_cast<unsigned long long>(r.stalls), r.stall_ms);
  for (const auto& n : r.notes) std::printf(" %s", n.c_str());
  std::printf("\n");
}

void json_metric(std::string& out, const std::string& name, double v, const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name.c_str(), finite(v), unit.c_str());
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: ccp_e2ebench --workload <wan_bulk|ctl_loop|churn|scenario_matrix> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]\n");
    return 2;
  }
  if (a.list) {
    auto spec = e2e::per_layer_spec();
    spec.push_back({"trace.overhead_pct", 0, "%"});
    std::printf("[\n");
    for (size_t i = 0; i < spec.size(); ++i) {
      std::printf("  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
                  spec[i].name.c_str(), spec[i].unit.c_str(), better(spec[i]),
                  i + 1 < spec.size() ? "," : "");
    }
    std::printf("]\n");
    return 0;
  }

  try {
    e2e::RunOptions o;
    o.seed = a.seed;
    // A traced run spends half its time untraced, half traced.
    o.seconds = a.trace ? a.seconds / 2 : a.seconds;
    std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
    Result r = run(a.workload, o);
    print_report("untraced run:", r);
    uint64_t attempted = r.attempted;
    uint64_t failed = r.failed;
    std::string metrics;

    if (a.trace == 0) {
      json_metric(metrics, "ops_per_sec", r.ops_per_sec, "op/s");
      json_metric(metrics, "cpu_ns_per_op", r.cpu_ns_per_op, "ns");
      json_metric(metrics, "op_p50_us", r.lat_p50_us, "us");
      json_metric(metrics, "peak_rss_mb", r.peak_rss_mb, "MB");
      json_metric(metrics, "setup_s", r.setup_s, "s");
    } else {
      o.traced = true;
      Result t = run(a.workload, o);
      print_report("traced run:", t);
      attempted += t.attempted;
      failed += t.failed;
      const double overhead =
          r.ops_per_sec > 0 ? (r.ops_per_sec - t.ops_per_sec) / r.ops_per_sec * 100.0 : 0.0;
      std::printf("per-layer metrics (traced run):\n");
      print_named(t.layer);
      std::printf("  %-38s %16.6g %s\n", "trace.overhead_pct", overhead, "%");
      for (const auto& m : t.layer) json_metric(metrics, m.name, m.value, m.unit);
      json_metric(metrics, "trace.overhead_pct", overhead, "%");
      if (!a.trace_file.empty()) {
        if (e2e::write_trace_json(a.trace_file, t.threads)) {
          std::printf("span file: %s\n", a.trace_file.c_str());
        } else {
          std::printf("FAILED: could not write span file %s\n", a.trace_file.c_str());
          ++failed;
        }
      }
    }
    const bool correct = failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ccp_e2ebench: %s\n", e.what());
    return 2;
  }
}
