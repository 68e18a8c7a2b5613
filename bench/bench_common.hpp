// Shared output helpers for the figure/table reproduction benches, and
// the one paired A/B estimator every bench_hotpath comparison uses.
//
// Every bench prints: a header naming the paper artifact it regenerates,
// the workload parameters, and the rows/series the paper reports. The
// EXPERIMENTS.md file records these outputs next to the paper's values.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ccp::bench {

inline void banner(const char* artifact, const char* description) {
  std::printf("\n");
  std::printf("==============================================================\n");
  std::printf("%s\n", artifact);
  std::printf("  %s\n", description);
  std::printf("==============================================================\n");
}

inline void section(const char* title) {
  std::printf("\n--- %s ---\n", title);
}

/// Operations per second of one run, on two clocks.
struct Rate {
  double wall = 0;  // per wall-clock second (headlines, the ratchet)
  double cpu = 0;   // per second of this thread's CPU time (comparisons)
};

/// Runs `fn` (which performs `ops` operations) once and times it.
template <typename Fn>
Rate measure(uint64_t ops, Fn&& fn) {
  const auto cpu_secs = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  };
  const auto w0 = std::chrono::steady_clock::now();
  const double c0 = cpu_secs();
  fn();
  const double c1 = cpu_secs();
  const auto w1 = std::chrono::steady_clock::now();
  const double n = static_cast<double>(ops);
  return Rate{n / std::chrono::duration<double>(w1 - w0).count(), n / (c1 - c0)};
}

/// Host steal ticks summed over all CPUs (the aggregate `cpu` line of
/// /proc/stat, 8th value); 0 where the file is unreadable.
inline uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return 0;
  std::istringstream fields(line.substr(4));
  uint64_t v[8] = {};
  for (auto& x : v) fields >> x;
  return v[7];
}

/// Trials per paired comparison. On a shared 4-vCPU host a loop compared
/// with itself read within 0.3% of 1.0 at ~80 trials of 250k ACKs, and
/// up to 1.2% off at 20 trials of 1M; 101 keeps all of bench_hotpath
/// near 20 s at CI's population (docs/OBSERVABILITY.md, "Overhead
/// accounting", has the run-to-run spread of every gate).
constexpr int kPairedTrials = 101;

struct Paired {
  double ratio = 0;        // median over kept trials of b.cpu / a.cpu
  double added_ns = 0;     // median over kept trials of 1e9/b.cpu - 1e9/a.cpu
  double best_wall_a = 0;  // each side's best wall rate
  double best_wall_b = 0;
  int kept = 0;
  int dropped = 0;         // trials that saw steal while most trials did not
  uint64_t steal = 0;      // host steal ticks over all trials
};

/// The paired A/B estimator. Runs `run_a` and `run_b` back to back for
/// kPairedTrials trials, alternating which goes first so linear drift
/// cancels, and compares them on thread-CPU-time rates: on a shared box
/// wall rates swing more from preemption than most gates' margins. A
/// trial during which the host stole CPU time is dropped when at least
/// half of the trials saw no steal; otherwise all trials count.
template <typename RunA, typename RunB>
Paired paired(RunA&& run_a, RunB&& run_b) {
  struct Trial {
    double ratio, added_ns;
    uint64_t steal;
  };
  std::vector<Trial> trials;
  Paired p;
  for (int t = 0; t < kPairedTrials; ++t) {
    const uint64_t s0 = steal_ticks();
    Rate a, b;
    if (t % 2 == 0) {
      a = run_a();
      b = run_b();
    } else {
      b = run_b();
      a = run_a();
    }
    const uint64_t steal = steal_ticks() - s0;
    p.steal += steal;
    p.best_wall_a = std::max(p.best_wall_a, a.wall);
    p.best_wall_b = std::max(p.best_wall_b, b.wall);
    trials.push_back({b.cpu / a.cpu, 1e9 / b.cpu - 1e9 / a.cpu, steal});
  }
  const auto clean = std::count_if(trials.begin(), trials.end(),
                                   [](const Trial& t) { return t.steal == 0; });
  if (clean * 2 >= static_cast<long>(trials.size())) {
    std::erase_if(trials, [](const Trial& t) { return t.steal != 0; });
  }
  p.kept = static_cast<int>(trials.size());
  p.dropped = kPairedTrials - p.kept;
  const auto median = [&](double Trial::*field) {
    std::vector<double> v;
    for (const Trial& t : trials) v.push_back(t.*field);
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  p.ratio = median(&Trial::ratio);
  p.added_ns = median(&Trial::added_ns);
  return p;
}

}  // namespace ccp::bench
