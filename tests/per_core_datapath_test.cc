// Per-core datapaths: the supported multi-core shape is one plain
// CcpDatapath per thread, each with its own flows and frame sink. Nothing
// is shared between them except the process-wide compile cache
// (lang::compile_text_shared) and the JIT code hanging off each cached
// program. These tests fold ACKs on several datapaths at once while each
// one installs programs, some texts common to all of them and one text of
// its own, and check that every text was compiled once and is held as one
// CompiledProgram by every flow running it.
//
// CI runs this suite under TSan: concurrent cache hits and misses, the
// lazy per-program JIT handle, and the shared read-only programs are the
// cross-thread surfaces.
#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datapath/datapath.hpp"
#include "ipc/wire.hpp"
#include "lang/compiler.hpp"
#include "lang/jit/jit.hpp"
#include "telemetry/telemetry.hpp"
#include "util/time.hpp"

namespace ccp::datapath {
namespace {

constexpr const char* kOneRegProgram = R"(
fold { r := r + Pkt.bytes_acked init 0; }
control { WaitRtts(1.0); Report(); }
)";

constexpr const char* kTwoRegProgram = R"(
fold {
  a := a + Pkt.bytes_acked init 0;
  b := ewma(b, Pkt.rtt, 0.125) init $b0;
}
control { WaitRtts(1.0); Report(); }
)";

constexpr size_t kCores = 3;
constexpr size_t kFlowsPerCore = 6;
constexpr int kRounds = 200;
constexpr size_t kAcksPerRound = 512;
constexpr size_t kBurst = 32;

/// The text only datapath `core` installs.
std::string own_program(size_t core) {
  return "fold { r := r + Pkt.bytes_acked init " + std::to_string(core + 1) +
         "; }\ncontrol { WaitRtts(1.0); Report(); }\n";
}

/// Which text flow `slot` of datapath `core` runs after round `round`.
std::string text_for(size_t core, int round, size_t slot) {
  switch ((static_cast<size_t>(round) + slot) % 3) {
    case 0: return kOneRegProgram;
    case 1: return kTwoRegProgram;
    default: return own_program(core);
  }
}

ipc::Message make_install(ipc::FlowId id, const std::string& text) {
  ipc::InstallMsg msg;
  msg.flow_id = id;
  msg.program_text = text;
  if (text == kTwoRegProgram) {
    msg.var_names = {"b0"};
    msg.var_values = {42.0};
  }
  return ipc::Message(msg);
}

/// Programs the JIT has taken: lowered to native code or latched onto
/// the interpreter.
uint64_t jit_programs() {
  const auto& m = telemetry::metrics();
  return m.jit_compiles.value() + m.jit_fallbacks.value();
}

struct Core {
  std::unique_ptr<CcpDatapath> dp;
  std::vector<ipc::FlowId> ids;
  uint64_t frames = 0;
  uint64_t acks = 0;
};

/// Runs kCores datapaths on their own threads: each creates its flows,
/// then alternates ACK bursts, a tick, and one Install frame covering
/// every flow. Returns, once all threads have joined, jit_programs() as
/// it stood before the first install.
uint64_t run_cores(std::vector<Core>& cores) {
  std::latch created(static_cast<std::ptrdiff_t>(kCores));
  std::latch go(1);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kCores; ++c) {
    threads.emplace_back([&, c] {
      Core& core = cores[c];
      DatapathConfig cfg;
      cfg.flush_interval = Duration::from_millis(1);
      core.dp = std::make_unique<CcpDatapath>(
          cfg, [&core](std::span<const uint8_t>) { ++core.frames; });
      TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
      for (size_t i = 0; i < kFlowsPerCore; ++i) {
        core.ids.push_back(core.dp->create_flow(FlowConfig{}, "test", now).id());
      }
      created.count_down();
      go.wait();

      std::vector<FlowAck> burst(kBurst);
      for (FlowAck& fa : burst) {
        fa.sent_bytes = 1500;
        fa.ev.bytes_acked = 1500;
        fa.ev.packets_acked = 1;
        fa.ev.bytes_in_flight = 64 * 1500;
        fa.ev.packets_in_flight = 64;
      }
      std::vector<ipc::Message> installs;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < kAcksPerRound; i += kBurst) {
          for (FlowAck& fa : burst) {
            now += Duration::from_micros(1);
            fa.flow_id = core.ids[core.acks % core.ids.size()];
            fa.ev.now = now;
            fa.ev.rtt_sample =
                Duration::from_millis(10) +
                Duration::from_nanos(static_cast<int64_t>(core.acks % 1024) * 1000);
            ++core.acks;
          }
          core.dp->on_ack_batch(burst);
        }
        core.dp->tick(now);
        installs.clear();
        for (size_t slot = 0; slot < core.ids.size(); ++slot) {
          installs.push_back(
              make_install(core.ids[slot], text_for(c, round, slot)));
        }
        core.dp->handle_frame(ipc::encode_frame(installs), now);
      }
      core.dp->flush();
    });
  }
  // Every flow now runs the default program, compiled at create; count
  // only the programs this run's installs bring in.
  created.wait();
  const uint64_t before = jit_programs();
  go.count_down();
  for (auto& t : threads) t.join();
  return before;
}

/// Asserts the end state of run_cores: no rejected installs, and every
/// flow holds the cache's one CompiledProgram for its last text.
void check_shared_programs(const std::vector<Core>& cores,
                           uint64_t jit_programs_before) {
  const int last = kRounds - 1;
  const auto one = lang::compile_text_shared(kOneRegProgram);
  const auto two = lang::compile_text_shared(kTwoRegProgram);
  for (size_t c = 0; c < kCores; ++c) {
    const Core& core = cores[c];
    EXPECT_GT(core.frames, 0u) << "datapath " << c << " sent nothing";
    EXPECT_EQ(core.dp->stats().install_errors, 0u);
    EXPECT_EQ(core.dp->stats().decode_errors, 0u);
    const auto own = lang::compile_text_shared(own_program(c));
    for (size_t slot = 0; slot < core.ids.size(); ++slot) {
      const std::string text = text_for(c, last, slot);
      const lang::CompiledProgram* want =
          text == kOneRegProgram ? one.get()
          : text == kTwoRegProgram ? two.get()
                                   : own.get();
      CcpFlow* fl = core.dp->flow(core.ids[slot]);
      ASSERT_NE(fl, nullptr);
      EXPECT_EQ(fl->fold().program(), want)
          << "datapath " << c << " flow " << core.ids[slot]
          << " does not hold the shared program for its text";
    }
  }

  // Each distinct text was lowered once (or latched onto the interpreter
  // once), however many datapaths and flows installed it. Without a JIT
  // backend installs never reach it.
  if (lang::jit::available()) {
    EXPECT_EQ(jit_programs() - jit_programs_before, 2 + kCores);
  }
}

class PerCoreDatapaths : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_mode_ = lang::jit::mode();
    telemetry::set_enabled(true);
    // Start each test with no compiled programs, so its texts compile
    // (and reach the JIT) afresh.
    lang::clear_program_cache();
  }
  void TearDown() override { lang::jit::set_mode(saved_mode_); }

  lang::jit::JitMode saved_mode_ = lang::jit::JitMode::On;
};

TEST_F(PerCoreDatapaths, InstallWhileFoldingShareOneProgramPerText) {
  lang::jit::set_mode(lang::jit::JitMode::On);
  std::vector<Core> cores(kCores);
  check_shared_programs(cores, run_cores(cores));
  if (lang::jit::available()) {
    for (const Core& core : cores) {
      for (const ipc::FlowId id : core.ids) {
        EXPECT_TRUE(core.dp->flow(id)->fold().jit_active());
      }
    }
  }
}

TEST_F(PerCoreDatapaths, JitVerifyModeWhileInstallingAcrossThreads) {
  // Verify runs native code and the interpreter on every ACK and compares
  // the fold state bit for bit; the shared native code must not diverge
  // on any thread.
  lang::jit::set_mode(lang::jit::JitMode::Verify);
  const uint64_t mismatches_before =
      telemetry::metrics().jit_verify_mismatches.value();
  std::vector<Core> cores(kCores);
  check_shared_programs(cores, run_cores(cores));
  uint64_t acks = 0;
  for (const Core& core : cores) {
    acks += core.acks;
    if (lang::jit::available()) {
      for (const ipc::FlowId id : core.ids) {
        EXPECT_TRUE(core.dp->flow(id)->fold().jit_verifying())
            << "program swaps must land back in Verify mode";
      }
    }
  }
  EXPECT_EQ(acks, kCores * static_cast<uint64_t>(kRounds) * kAcksPerRound);
  EXPECT_EQ(telemetry::metrics().jit_verify_mismatches.value(),
            mismatches_before)
      << "JIT diverged from the interpreter somewhere in " << acks
      << " verified ACKs";
}

TEST_F(PerCoreDatapaths, ActiveFlowsGaugeSumsAcrossDatapaths) {
  // ccp_active_flows is one process-wide sum: each datapath adds its
  // creates and subtracts its closes and, when destroyed, its live flows,
  // whether or not telemetry is recording.
  const auto active = [] { return telemetry::metrics().active_flows.value(); };
  const int64_t start = active();
  const TimePoint now = TimePoint::epoch();
  std::vector<std::unique_ptr<CcpDatapath>> dps;
  std::vector<ipc::FlowId> first_ids;
  for (size_t c = 0; c < kCores; ++c) {
    dps.push_back(std::make_unique<CcpDatapath>(
        DatapathConfig{}, [](std::span<const uint8_t>) {}));
    telemetry::set_enabled(c != 1);  // one datapath creates untelemetered
    for (size_t i = 0; i < kFlowsPerCore; ++i) {
      const ipc::FlowId id = dps[c]->create_flow(FlowConfig{}, "test", now).id();
      if (c == 0) first_ids.push_back(id);
    }
  }
  telemetry::set_enabled(true);
  EXPECT_EQ(active() - start, static_cast<int64_t>(kCores * kFlowsPerCore));

  // A create that replaces a live id is a close plus a create: no change.
  dps[0]->create_flow_with_id(first_ids[0], FlowConfig{}, "test", now);
  EXPECT_EQ(active() - start, static_cast<int64_t>(kCores * kFlowsPerCore));

  telemetry::set_enabled(false);
  for (const ipc::FlowId id : first_ids) dps[0]->close_flow(id, now);
  telemetry::set_enabled(true);
  EXPECT_EQ(active() - start,
            static_cast<int64_t>((kCores - 1) * kFlowsPerCore));

  dps.clear();
  EXPECT_EQ(active(), start);
}

}  // namespace
}  // namespace ccp::datapath
