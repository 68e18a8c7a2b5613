#include "bench.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "algorithms/registry.hpp"

namespace e2e {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

namespace {
std::atomic<uint64_t> g_pinned_cpus{0};  // bit i: a benchmark thread is pinned to CPU i
}  // namespace

uint64_t steal_ticks() {
  const uint64_t pinned = g_pinned_cpus.load(std::memory_order_relaxed);
  std::ifstream in("/proc/stat");
  std::string line;
  uint64_t total = 0;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0) break;
    std::istringstream fields(line);
    std::string cpu;
    uint64_t v[8] = {};
    fields >> cpu;
    for (auto& x : v) fields >> x;
    const bool all = cpu == "cpu";
    const int id = all ? -1 : std::atoi(cpu.c_str() + 3);
    if (pinned == 0 ? all : (id >= 0 && id < 64 && (pinned >> id) & 1)) total += v[7];
  }
  return total;
}

void pin_to_cpu(int rank) {
  static const cpu_set_t process_allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  if (CPU_COUNT(&process_allowed) < 2) return;
  int seen = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &process_allowed) || seen++ != rank) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) == 0 && cpu < 64) {
      g_pinned_cpus.fetch_or(uint64_t{1} << cpu, std::memory_order_relaxed);
    }
    return;
  }
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return v[rank];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

// ----------------------------------------------------------------- spans

const char* kind_name(int k) {
  static const char* kNames[kAlgBase] = {
      "bench.gen",          "datapath.ack_intake", "datapath.tick",
      "datapath.flush",     "datapath.create_flow", "datapath.close_flow",
      "ipc.drain",          "ipc.recv_wait",      "datapath.handle_frame",
      "ipc.up.send",        "agent.handle_frame", "ipc.down.send",
      "scenario.run",
  };
  static const char* kAlgNames[12] = {
      "algorithms.reno.init",  "algorithms.reno.on_measurement",  "algorithms.reno.on_urgent",
      "algorithms.cubic.init", "algorithms.cubic.on_measurement", "algorithms.cubic.on_urgent",
      "algorithms.bbr.init",   "algorithms.bbr.on_measurement",   "algorithms.bbr.on_urgent",
      "algorithms.dctcp.init", "algorithms.dctcp.on_measurement", "algorithms.dctcp.on_urgent",
  };
  return k < kAlgBase ? kNames[k] : kAlgNames[k - kAlgBase];
}

std::atomic<bool> Tracer::on_{false};

namespace {
std::mutex g_trace_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_threads;  // guarded by g_trace_mu
std::atomic<uint64_t> g_generation{1};  // bumped under g_trace_mu
thread_local ThreadTrace* t_trace = nullptr;
thread_local uint64_t t_generation = 0;
}  // namespace

void Tracer::begin() {
  std::lock_guard lock(g_trace_mu);
  g_threads.clear();
  ++g_generation;
  on_.store(true, std::memory_order_relaxed);
}

std::vector<std::unique_ptr<ThreadTrace>> Tracer::collect() {
  on_.store(false, std::memory_order_relaxed);
  std::lock_guard lock(g_trace_mu);
  ++g_generation;
  return std::move(g_threads);
}

ThreadTrace& Tracer::local(const char* thread_name) {
  if (t_trace != nullptr &&
      t_generation == g_generation.load(std::memory_order_acquire)) {
    return *t_trace;
  }
  std::lock_guard lock(g_trace_mu);
  {
    auto t = std::make_unique<ThreadTrace>();
    t->tid = static_cast<int>(g_threads.size()) + 1;
    t->name = thread_name;
    t->kept.reserve(ThreadTrace::kKeep);
    t_trace = t.get();
    t_generation = g_generation.load(std::memory_order_relaxed);
    g_threads.push_back(std::move(t));
  }
  return *t_trace;
}

void Span::open(int kind) {
  ThreadTrace& t = *t_;
  int32_t kept = -1;
  if (t.kept.size() < ThreadTrace::kKeep) {
    kept = static_cast<int32_t>(t.kept.size());
    t.kept.push_back({0, 0, t.stack.empty() ? -1 : t.stack.back().kept,
                      static_cast<uint8_t>(kind)});
  }
  t.stack.push_back({now_ns(), 0, kept, static_cast<uint8_t>(kind)});
}

void Span::close() {
  const int64_t end = now_ns();
  ThreadTrace& t = *t_;
  const ThreadTrace::Open o = t.stack.back();
  t.stack.pop_back();
  const int64_t dur = end - o.start_ns;
  KindAgg& a = t.agg[o.kind];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - o.child_ns;
  if (!t.stack.empty()) t.stack.back().child_ns += dur;
  if (o.kept >= 0) {
    t.kept[static_cast<size_t>(o.kept)].start_ns = o.start_ns;
    t.kept[static_cast<size_t>(o.kept)].end_ns = end;
  }
}

bool write_trace_json(const std::string& path,
                      const std::vector<std::unique_ptr<ThreadTrace>>& threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t t0 = INT64_MAX;
  for (const auto& t : threads) {
    for (const auto& s : t->kept) {
      if (s.end_ns != 0) t0 = std::min(t0, s.start_ns);
    }
  }
  if (t0 == INT64_MAX) t0 = 0;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const auto& t : threads) {
    std::fprintf(f, "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t->tid, t->name.c_str());
    first = false;
    for (size_t i = 0; i < t->kept.size(); ++i) {
      const SpanRec& s = t->kept[i];
      if (s.end_ns == 0) continue;  // still open when recording stopped
      std::fprintf(f, ",\n{\"name\":\"%s\",\"cat\":\"e2ebench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"span\":%zu,\"parent\":%d}}",
                   kind_name(s.kind), static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, t->tid, i,
                   s.parent);
    }
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ns\"}\n");
  return std::fclose(f) == 0;
}

// --------------------------------------------------------------- harness

namespace {

/// A built-in algorithm behind spans, so its handlers get their own self
/// time. The commands it issues are encoded inside the span.
class TimedAlgorithm final : public ccp::agent::Algorithm {
 public:
  TimedAlgorithm(std::unique_ptr<ccp::agent::Algorithm> inner, int index)
      : inner_(std::move(inner)), base_(kAlgBase + 3 * index) {}

  std::string_view name() const override { return inner_->name(); }
  ccp::agent::AlgorithmTraits traits() const override { return inner_->traits(); }
  void init(ccp::agent::FlowControl& flow) override {
    Span s(base_, "agent");
    inner_->init(flow);
  }
  void on_measurement(ccp::agent::FlowControl& flow,
                      const ccp::agent::Measurement& m) override {
    Span s(base_ + 1, "agent");
    inner_->on_measurement(flow, m);
  }
  void on_urgent(ccp::agent::FlowControl& flow, ccp::ipc::UrgentKind kind,
                 const ccp::agent::Measurement& m) override {
    Span s(base_ + 2, "agent");
    inner_->on_urgent(flow, kind, m);
  }

 private:
  std::unique_ptr<ccp::agent::Algorithm> inner_;
  int base_;
};

ccp::ipc::TransportPair make_link(const HarnessConfig& cfg) {
  if (cfg.link == HarnessConfig::Link::UnixSocket) return ccp::ipc::make_unix_socket_pair();
  // 4 MiB per direction: hundreds of milliseconds of agent stall at the
  // workloads' frame rates, and small enough that every trial wraps the
  // ring, so peak RSS does not depend on how much traffic a run managed.
  return ccp::ipc::make_shm_ring_pair(size_t{4} << 20, ccp::ipc::ShmWaitMode::Blocking);
}

}  // namespace

Harness::Harness(const HarnessConfig& cfg)
    : ch_(make_link(cfg)),
      up_send_ns_(new std::atomic<int64_t>[kRing]),
      expected_(new uint32_t[kRing]()) {
  sink_ = [this](std::span<const uint8_t> f) { on_down(f); };
  agent_ = std::make_unique<ccp::agent::CcpAgent>(
      ccp::agent::AgentConfig{}, [this](std::span<const uint8_t> f) { agent_send(f); });
  ccp::algorithms::register_builtin_algorithms(*agent_);
  if (cfg.timed_algorithms) {
    for (int i = 0; i < 4; ++i) {
      const std::string name = kTimedAlgs[i];
      agent_->register_algorithm(name, [name, i](const ccp::agent::FlowInfo& info) {
        return std::make_unique<TimedAlgorithm>(ccp::algorithms::make_algorithm(name, info), i);
      });
    }
  }
  dp_ = std::make_unique<ccp::datapath::CcpDatapath>(
      cfg.dp, [this](std::span<const uint8_t> f) { send_up(f); });
  // The agent thread gets its own CPU and the driver keeps another, so
  // runs do not differ by where the scheduler happened to put them.
  pin_to_cpu(1);
  loop_ = std::make_unique<ccp::agent::TransportLoop>(
      *ch_.b, [this](std::span<const uint8_t> f) { agent_on_frame(f); });
  pin_to_cpu(0);
}

Harness::~Harness() { stop_agent(); }

void Harness::stop_agent() {
  if (loop_) loop_->stop();
  loop_.reset();
}

void Harness::send_up(std::span<const uint8_t> frame) {
  Span s(kUpSend);
  const uint64_t n = up_sent_;
  if (n - base_ >= kRing) {  // would reuse a slot whose frame is unanswered
    ++fail_.up_overflow;
    return;
  }
  const int64_t t = now_ns();
  up_send_ns_[n & kMask].store(t, std::memory_order_relaxed);
  if (!ch_.a->send_frame(frame)) {
    ++fail_.up_send;
    return;
  }
  up_sent_ = n + 1;
  recs_.push_back({t, ctx_, 0, 0});
}

void Harness::on_down(std::span<const uint8_t> frame) {
  DownTag tag{};
  // The agent pushes the tag before sending, so it is normally there
  // already; allow the store to become visible.
  for (int spins = 0; !tags_.pop(tag); ++spins) {
    if (spins > (1 << 22)) {
      ++fail_.tag_missing;
      ++down_frames_;
      return;
    }
  }
  if (Tracer::on()) {
    down_wait_us_.push_back(static_cast<double>(now_ns() - tag.send_ns) / 1e3);
  }
  {
    Span s(kDpHandle);
    dp_->handle_frame(frame, now_);
  }
  ++down_frames_;
  if (tag.tag < base_ || tag.tag - base_ >= recs_.size()) {
    ++fail_.tag_missing;
    return;
  }
  UpRec& r = recs_[tag.tag - base_];
  ++r.received;
  r.last_apply_ns = now_ns();
}

size_t Harness::drain() {
  Span s(kDrain);
  const size_t n = ch_.a->drain_frames(sink_);
  ++drain_calls_;
  drained_frames_ += n;
  return n;
}

void Harness::wait_for_agent() {
  Span s(kRecvWait);
  const uint64_t done = agent_done_.load(std::memory_order_acquire);
  // Every frame the agent sends precedes its completion mark, so waking
  // on the mark is enough; no need to block on the transport as well.
  if (done >= up_sent_) return;
  // Poll briefly first, as a datapath polling its channel would: the
  // answer usually comes within microseconds, and a futex sleep would put
  // a cross-CPU wakeup (whose cost the host decides) into every loop.
  const int64_t spin_until = now_ns() + kSpinNs;
  while (agent_done_.load(std::memory_order_acquire) == done) {
    if (now_ns() > spin_until) {
      agent_done_.wait(done, std::memory_order_acquire);
      return;
    }
  }
}

size_t Harness::resolve() {
  const uint64_t done = agent_done_.load(std::memory_order_acquire);
  size_t n = 0;
  while (!recs_.empty() && base_ < done) {
    const UpRec& r = recs_.front();
    if (r.received < expected_[base_ & kMask]) break;
    if (on_complete) on_complete(r);
    recs_.pop_front();
    ++base_;
    ++n;
  }
  return n;
}

bool Harness::quiesce(double timeout_s) {
  dp_->flush();
  const int64_t deadline = now_ns() + static_cast<int64_t>(timeout_s * 1e9);
  while (now_ns() < deadline) {
    drain();
    resolve();
    if (recs_.empty()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return false;
}

void Harness::agent_on_frame(std::span<const uint8_t> frame) {
  const uint64_t tag = agent_handled_++;
  cur_tag_ = tag;
  cur_frames_ = 0;
  if (Tracer::on()) {
    const int64_t sent = up_send_ns_[tag & kMask].load(std::memory_order_relaxed);
    up_wait_us_.push_back(static_cast<double>(now_ns() - sent) / 1e3);
  }
  {
    Span s(kAgentHandle, "agent");
    agent_->handle_frame(frame);
  }
  expected_[tag & kMask] = cur_frames_;
  agent_done_.store(tag + 1, std::memory_order_release);
  agent_done_.notify_one();
}

void Harness::agent_send(std::span<const uint8_t> frame) {
  if (!tags_.push({cur_tag_, now_ns()})) ++fail_.down_overflow;
  ++cur_frames_;
  Span s(kDownSend, "agent");
  if (!ch_.b->send_frame(frame)) ++fail_.down_send;
}

}  // namespace e2e
