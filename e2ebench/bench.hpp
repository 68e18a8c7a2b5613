// Shared machinery of the end-to-end benchmark: clocks and process
// probes, the span tracer, and the Harness that runs a CcpDatapath on the
// calling (driver) thread against a CcpAgent on its own TransportLoop
// thread over a real ipc::Transport, pairing every datapath frame with
// the agent commands it provoked.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "agent/transport_loop.hpp"
#include "datapath/datapath.hpp"
#include "ipc/transport.hpp"

namespace e2e {

using ccp::Duration;
using ccp::TimePoint;
namespace agent = ccp::agent;
namespace datapath = ccp::datapath;
namespace ipc = ccp::ipc;

// ---------------------------------------------------------------- clocks

int64_t now_ns();
/// Process CPU time, all threads (CLOCK_PROCESS_CPUTIME_ID).
int64_t process_cpu_ns();
/// Peak resident set (VmHWM) in MiB, since start or the last reset.
double peak_rss_mb();
/// Restarts the peak at the current resident set (/proc/self/clear_refs).
void reset_peak_rss();
/// Host steal ticks (/proc/stat) summed over the CPUs the benchmark's
/// threads are pinned to, or over all CPUs when none are; 0 if unreadable.
uint64_t steal_ticks();

/// Pins the calling thread to the `rank`-th highest CPU the process may
/// run on (threads it creates inherit the pin). Leaves the thread
/// unpinned when fewer than two CPUs are allowed.
void pin_to_cpu(int rank);

/// Percentile (0..100) by nearest rank over an unsorted copy.
double percentile(std::vector<double> v, double pct);
double median(std::vector<double> v);

// ----------------------------------------------------------------- spans

/// Every span the benchmark records, one per call it wraps into a layer.
enum Kind : uint8_t {
  kGen,           // driver: building the next ACK burst
  kAckIntake,     // datapath on_ack_batch / scalar on_send+on_ack
  kTick,          // datapath tick
  kFlush,         // datapath flush
  kCreateFlow,    // datapath create_flow
  kCloseFlow,     // datapath close_flow
  kDrain,         // ipc drain_frames on the datapath end
  kRecvWait,      // ipc blocking recv on the datapath end (idle)
  kDpHandle,      // datapath handle_frame
  kUpSend,        // ipc send_frame, datapath -> agent
  kAgentHandle,   // agent handle_frame
  kDownSend,      // ipc send_frame, agent -> datapath
  kScenario,      // scenario run_scenario
  kAlgBase,       // algorithms: kAlgBase + 3 * alg + {init, meas, urgent}
  kNumKinds = kAlgBase + 12,
};

const char* kind_name(int k);

/// Built-in algorithms the benchmark times, index = position.
inline constexpr const char* kTimedAlgs[4] = {"reno", "cubic", "bbr", "dctcp"};

struct KindAgg {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

struct SpanRec {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same thread's kept spans
  uint8_t kind = 0;
};

/// One thread's spans: an open-span stack for self-time accounting, the
/// per-kind aggregates, and the first kKeep spans for the span file.
struct ThreadTrace {
  static constexpr size_t kKeep = 40000;
  struct Open {
    int64_t start_ns;
    int64_t child_ns;
    int32_t kept;  // index in `kept`, -1 if not kept
    uint8_t kind;
  };
  int tid = 0;
  std::string name;
  std::vector<Open> stack;
  KindAgg agg[kNumKinds];
  std::vector<SpanRec> kept;
};

/// Process-wide span recording. Enabled only between begin() and
/// collect(); the flag is flipped while no harness thread runs.
class Tracer {
 public:
  static bool on() { return on_.load(std::memory_order_relaxed); }
  static void begin();
  /// Stops recording and hands back every thread's spans. Call after
  /// every thread that recorded has been joined.
  static std::vector<std::unique_ptr<ThreadTrace>> collect();
  static ThreadTrace& local(const char* thread_name);

 private:
  static std::atomic<bool> on_;
};

/// RAII span; no-op when tracing is off.
class Span {
 public:
  explicit Span(int kind, const char* thread_name = "driver") {
    if (!Tracer::on()) return;
    t_ = &Tracer::local(thread_name);
    open(kind);
  }
  ~Span() {
    if (t_ != nullptr) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(int kind);
  void close();
  ThreadTrace* t_ = nullptr;
};

/// Writes spans as a Trace Event Format document ("X" events, the same
/// JSON family ccp_trace_export emits, so Perfetto opens both).
bool write_trace_json(const std::string& path,
                      const std::vector<std::unique_ptr<ThreadTrace>>& threads);

// --------------------------------------------------------------- harness

/// Single-producer single-consumer ring of trivially copyable items.
template <class T>
class Spsc {
 public:
  explicit Spsc(size_t capacity_pow2) : buf_(capacity_pow2), mask_(capacity_pow2 - 1) {}
  bool push(const T& v) {
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) > mask_) return false;
    buf_[t & mask_] = v;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }
  bool pop(T& v) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    v = buf_[h & mask_];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

 private:
  std::vector<T> buf_;
  uint64_t mask_;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

/// One frame the datapath sent, until every command it provoked has been
/// applied. `ctx` is whatever the workload attached (a flow slot, -1).
struct UpRec {
  int64_t send_ns = 0;
  int64_t ctx = -1;
  uint32_t received = 0;       // agent frames applied so far
  int64_t last_apply_ns = 0;   // when the latest returned from handle_frame
};

struct HarnessConfig {
  enum class Link { ShmBlocking, UnixSocket } link = Link::ShmBlocking;
  datapath::DatapathConfig dp;
  /// Re-register the timed built-ins behind span wrappers (traced run).
  bool timed_algorithms = false;
};

/// Failure counters the harness owns; read once the agent is stopped.
struct LinkFailures {
  // Driver thread.
  uint64_t up_send = 0;       // datapath send_frame returned false
  uint64_t up_overflow = 0;   // more unanswered frames than the tag rings hold
  uint64_t tag_missing = 0;   // an agent frame arrived with no usable tag
  // Agent thread.
  uint64_t down_send = 0;     // agent send_frame returned false
  uint64_t down_overflow = 0; // tag ring full
};

class Harness {
 public:
  explicit Harness(const HarnessConfig& cfg);
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  datapath::CcpDatapath& dp() { return *dp_; }
  /// Only after stop_agent(): the agent is owned by its thread until then.
  agent::CcpAgent& agent() { return *agent_; }

  /// Context recorded with the datapath frames sent from now on.
  void set_ctx(int64_t ctx) { ctx_ = ctx; }
  /// Virtual clock handed to handle_frame.
  void set_now(TimePoint t) { now_ = t; }

  /// Non-blocking: applies every agent frame already queued.
  size_t drain();
  /// Blocks until the agent finishes another frame, unless it has
  /// finished every frame sent (its answers are then already in flight).
  void wait_for_agent();
  /// Retires, in order, every frame whose commands have all been applied
  /// (a frame the agent answered with nothing retires once handled).
  /// Calls on_complete for each; returns the count.
  size_t resolve();
  std::function<void(const UpRec&)> on_complete;

  /// Flushes, then drains until every sent frame is retired.
  bool quiesce(double timeout_s);
  /// Joins the agent thread; after this agent() may be read.
  void stop_agent();

  size_t unresolved() const { return recs_.size(); }
  uint64_t up_frames() const { return up_sent_; }
  uint64_t down_frames() const { return down_frames_; }
  uint64_t drain_calls() const { return drain_calls_; }
  uint64_t drained_frames() const { return drained_frames_; }
  const LinkFailures& failures() const { return fail_; }
  /// Traced run only: send -> agent handler entry, agent send ->
  /// handle_frame entry (µs). up_wait is the agent thread's; read after
  /// stop_agent().
  const std::vector<double>& up_wait_us() const { return up_wait_us_; }
  const std::vector<double>& down_wait_us() const { return down_wait_us_; }

 private:
  static constexpr size_t kRing = size_t{1} << 18;
  static constexpr int64_t kSpinNs = 50'000;  // wait_for_agent's poll window
  static constexpr size_t kMask = kRing - 1;
  struct DownTag {
    uint64_t tag;
    int64_t send_ns;
  };

  void send_up(std::span<const uint8_t> frame);
  void on_down(std::span<const uint8_t> frame);
  void agent_on_frame(std::span<const uint8_t> frame);
  void agent_send(std::span<const uint8_t> frame);

  ipc::TransportPair ch_;
  Spsc<DownTag> tags_{kRing};
  std::unique_ptr<std::atomic<int64_t>[]> up_send_ns_;  // by tag & kMask
  std::unique_ptr<uint32_t[]> expected_;  // frames sent per tag, agent-written
  std::atomic<uint64_t> agent_done_{0};   // tags fully handled by the agent

  // Agent-thread state.
  uint64_t agent_handled_ = 0;
  uint64_t cur_tag_ = 0;
  uint32_t cur_frames_ = 0;
  std::vector<double> up_wait_us_;

  // Driver-thread state.
  std::deque<UpRec> recs_;
  uint64_t base_ = 0;     // tag of recs_.front()
  uint64_t up_sent_ = 0;
  uint64_t down_frames_ = 0;
  uint64_t drain_calls_ = 0;
  uint64_t drained_frames_ = 0;
  int64_t ctx_ = -1;
  TimePoint now_ = TimePoint::from_nanos(0);
  std::vector<double> down_wait_us_;
  ipc::FrameSink sink_;
  LinkFailures fail_;

  std::unique_ptr<agent::CcpAgent> agent_;
  std::unique_ptr<datapath::CcpDatapath> dp_;
  std::unique_ptr<agent::TransportLoop> loop_;  // last: stopped first
};

}  // namespace e2e
