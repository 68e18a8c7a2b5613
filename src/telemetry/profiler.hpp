// Sampled per-stage cycle profiler for the per-ACK hot path.
//
// Attributes cycles to the stages of one ACK's journey through the
// datapath — frame decode, measurement update, fold execution (split by
// interpreter vs JIT), watchdog check, and control/report emit — using
// rdtsc timestamps on 1-in-N sampled ACKs. Accumulators are the sharded
// Counter cells from metrics.hpp (per-core cache lines, never allocate),
// exported as ccp_prof_<stage>_cycles_total / _samples_total pairs so
// `ccp_stats --profile` can show mean cycles per stage and each stage's
// share of the budget.
//
// Sampling: CCP_PROFILE_SAMPLE=<n> (or set_profile_sample(n)) turns the
// profiler on at one sample per n ACKs, n rounded up to a power of two
// so the per-ACK check is one relaxed load, one AND, and one compare
// against the flow's ACK counter. 0 (the default) disables it, leaving
// the same load + never-taken branch as every other telemetry gate.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace ccp::telemetry {

enum class ProfStage : uint8_t {
  Decode = 0,      // decode_frame_into on the agent->datapath direction
  Measure = 1,     // per-ACK measurement update + PktInfo fill
  FoldInterp = 2,  // fold_.on_packet, interpreter engine
  FoldJit = 3,     // fold_.on_packet, JIT-compiled engine
  Watchdog = 4,    // agent-staleness check
  ReportEmit = 5,  // control-program step + report/urgent emit
};

inline constexpr size_t kProfStages = 6;

const char* prof_stage_name(ProfStage s) noexcept;

namespace detail {
inline std::atomic<uint32_t> g_prof_mask{0};  // 0 = off, else n-1 (n pow2)
}  // namespace detail

/// The per-ACK sampling gate: 0 means off, otherwise an ACK whose
/// sequence number satisfies (seq & mask) == 0 is sampled.
inline uint32_t profile_sample_mask() noexcept {
  return detail::g_prof_mask.load(std::memory_order_relaxed);
}

/// Enables 1-in-n sampling (n rounded up to a power of two, min 2);
/// n == 0 disables. Safe to flip at runtime.
void set_profile_sample(uint32_t n) noexcept;

/// The effective n (power of two), or 0 when off. For display.
uint32_t profile_sample_n() noexcept;

/// Raw cycle counter. rdtsc on x86-64; elsewhere falls back to the
/// steady clock, so "cycles" read as nanoseconds — relative stage
/// shares, the thing the profiler exists for, stay meaningful.
inline uint64_t prof_cycles() noexcept {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Stage stamps for one sampled ACK, filled on the stack by the flow's
/// event path (zero-alloc) and committed in one cold call.
struct ProfSample {
  uint64_t entry = 0;     // on_ack entry
  uint64_t measure = 0;   // after measurement update + fill_pkt_info
  uint64_t watchdog = 0;  // after check_watchdog
  uint64_t fold = 0;      // after fold_.on_packet
  uint64_t done = 0;      // after control/report emit (fold_event exit)
};

/// Adds one sampled ACK's stage deltas to the accumulators. `jit`
/// selects FoldInterp vs FoldJit for the fold stage. Cold path — runs
/// once per n ACKs.
void prof_commit(const ProfSample& ps, bool jit) noexcept;

/// Adds one standalone stage observation (the decode stage, which runs
/// per frame rather than per ACK and is sampled by its own counter).
void prof_record(ProfStage stage, uint64_t cycles) noexcept;

}  // namespace ccp::telemetry
