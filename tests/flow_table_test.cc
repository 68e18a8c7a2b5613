// Tests for the slab flow store (datapath/flow_table.hpp): parked-slot
// recycling, hint interning, the incremental index rehash (bounded steps,
// wire-invisible), and a million-flow churn soak sized down under
// sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "datapath/datapath.hpp"
#include "datapath/flow_table.hpp"
#include "ipc/wire.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

#ifndef __has_feature
#define __has_feature(x) 0
#endif

namespace ccp::datapath {
namespace {

// The soak covers the same population the churn bench runs at; under
// ASan/TSan the shadow-memory cost of a multi-GB slab would dominate the
// suite, so sanitized builds soak a smaller (still multi-grow) table.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr size_t kSoakFlows = 65'536;
constexpr size_t kSoakChurnOps = 50'000;
#else
constexpr size_t kSoakFlows = 1'000'000;
constexpr size_t kSoakChurnOps = 200'000;
#endif

MessageSink null_sink() {
  return [](const ipc::Message&, bool) {};
}

FlowConfig small_cfg() {
  FlowConfig cfg;
  cfg.rate_ring_entries = 16;  // keep per-flow memory modest in the soak
  return cfg;
}

TEST(FlowTable, RecycleReusesTheFlowObject) {
  FlowTable table;
  table.set_sink(null_sink());
  FlowConfig cfg;
  cfg.agent_timeout = Duration::from_millis(50);
  FlowConfig next_cfg;
  next_cfg.init_cwnd_bytes = 4 * next_cfg.init_cwnd_bytes;

  // Leave per-ACK state behind: folded ACKs, and the watchdog fallback
  // entered after the agent programmed the flow and went silent.
  CcpFlow* first = &table.create(1, cfg, "reno");
  ipc::InstallMsg install;
  install.flow_id = 1;
  install.program_text = "control { Cwnd(50000); WaitRtts(1.0); Report(); }";
  first->install(install, TimePoint::epoch());
  for (int ms = 1; ms <= 100; ++ms) {
    AckEvent ev;
    ev.now = TimePoint::epoch() + Duration::from_millis(ms);
    ev.bytes_acked = 1000;
    ev.packets_acked = 1;
    ev.rtt_sample = Duration::from_millis(10);
    first->on_ack(ev);
  }
  ASSERT_GT(first->acks_folded_total(), 0u);
  ASSERT_TRUE(first->in_fallback()) << "test premise: fallback entered";
  ASSERT_TRUE(table.erase(1));

  CcpFlow* second = &table.create(2, next_cfg, "cubic");
  EXPECT_EQ(first, second)
      << "a parked slot must recycle its CcpFlow, not construct a new one";
  EXPECT_EQ(second->id(), 2u);
  EXPECT_EQ(second->cwnd_bytes(), next_cfg.init_cwnd_bytes);
  EXPECT_EQ(second->acks_folded_total(), 0u);
  EXPECT_FALSE(second->in_fallback());
  EXPECT_EQ(table.stats().recycles, 1u);
  EXPECT_EQ(table.stats().creates, 2u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, HintsAreInternedOnePooledStringPerName) {
  FlowTable table;
  table.set_sink(null_sink());
  FlowConfig cfg;
  for (ipc::FlowId id = 1; id <= 100; ++id) {
    table.create(id, cfg, (id % 2) == 0 ? "reno" : "cubic");
  }
  // Every flow reads its hint from the pool: one string per name,
  // regardless of flow count.
  const auto hints = [&table] {
    std::map<ipc::FlowId, const std::string*> out;
    table.for_each([&out](CcpFlow& f, const std::string& hint) {
      out[f.id()] = &hint;
    });
    return out;
  };
  std::map<ipc::FlowId, const std::string*> by_id = hints();
  ASSERT_EQ(by_id.size(), 100u);
  std::set<const std::string*> pooled;
  for (const auto& [id, hint] : by_id) {
    EXPECT_EQ(*hint, (id % 2) == 0 ? "reno" : "cubic");
    pooled.insert(hint);
  }
  EXPECT_EQ(pooled.size(), 2u);
  ASSERT_TRUE(table.erase(2));
  by_id = hints();
  EXPECT_EQ(by_id.count(2), 0u);
  EXPECT_EQ(by_id.size(), 99u);
}

TEST(FlowTable, LookupsStayCorrectWhileARehashDrains) {
  FlowTable table;
  table.set_sink(null_sink());
  FlowConfig cfg;

  // Fill past several doublings with the drain throttled to tiny steps,
  // so lookups and erases run against a live cur_/old_ split.
  constexpr size_t kFlows = 4096;
  constexpr size_t kStepBudget = 16;
  size_t next_id = 1;
  bool saw_pending = false;
  std::vector<ipc::FlowId> live;
  for (size_t i = 0; i < kFlows; ++i) {
    const ipc::FlowId id = static_cast<ipc::FlowId>(next_id++);
    table.create(id, cfg, "reno");
    live.push_back(id);
    if (table.rehash_pending()) {
      saw_pending = true;
      table.rehash_step(kStepBudget);
      // Mid-drain: a recent insert, an old insert, and a miss.
      EXPECT_NE(table.find(id), nullptr);
      EXPECT_NE(table.find(live[live.size() / 2]), nullptr);
      EXPECT_EQ(table.find(0xdead0000u + static_cast<uint32_t>(i)), nullptr);
      // Erase an old entry mid-drain; it must not resurrect from old_.
      const ipc::FlowId victim = live[live.size() / 3];
      EXPECT_TRUE(table.erase(victim));
      EXPECT_EQ(table.find(victim), nullptr);
      live.erase(live.begin() + static_cast<long>(live.size() / 3));
    }
  }
  ASSERT_TRUE(saw_pending) << "test premise: growth must overlap traffic";

  while (table.rehash_pending()) table.rehash_step(kStepBudget);
  for (const ipc::FlowId id : live) {
    EXPECT_NE(table.find(id), nullptr);
  }
  EXPECT_EQ(table.size(), live.size());

  const FlowTable::Stats& st = table.stats();
  EXPECT_GT(st.grows, 0u);
  EXPECT_EQ(st.forced_drains, 0u)
      << "the insert-time budget must drain old_ before the next grow";
  EXPECT_LE(st.max_step_buckets, kStepBudget)
      << "no single migration step may exceed the largest budget given";
}

/// The agent-visible contract of the incremental rehash: a datapath that
/// starts small and grows through every doubling emits byte-for-byte the
/// same frames as one pre-sized for the whole population
/// (DatapathConfig::expected_flows), under an identical workload of
/// creates, installs, ACK bursts, closes, and ticks.
TEST(FlowTable, IncrementalRehashIsByteIdenticalOnTheWire) {
  constexpr size_t kFlows = 512;
  constexpr uint64_t kBursts = 400;

  // Reports stamp emitted_ns from the real monotonic clock when
  // telemetry is on; turn it off so both runs are fully deterministic
  // and the comparison pins the flow table, not the clock.
  const bool telemetry_was_on = telemetry::enabled();
  telemetry::set_enabled(false);

  const auto run = [&](size_t expected_flows) {
    std::vector<uint8_t> wire;
    DatapathConfig dcfg;
    dcfg.flush_interval = Duration::from_millis(1);
    dcfg.max_batch_msgs = 32;
    dcfg.expected_flows = expected_flows;
    dcfg.rehash_step_buckets = 32;  // growing side: drain in small steps
    CcpDatapath dp(dcfg, [&wire](std::span<const uint8_t> frame) {
      wire.insert(wire.end(), frame.begin(), frame.end());
    });

    TimePoint now = TimePoint::epoch() + Duration::from_millis(1);
    Rng rng(1234);
    FlowConfig fcfg;
    std::vector<ipc::FlowId> ids;
    ipc::InstallMsg ins;
    ins.program_text =
        "fold { r := r + Pkt.bytes_acked init 0; }\n"
        "control { WaitRtts(1.0); Report(); }";
    for (size_t i = 0; i < kFlows; ++i) {
      now += Duration::from_micros(3);
      ids.push_back(dp.create_flow(fcfg, "reno", now).id());
      ins.flow_id = ids.back();
      dp.handle_frame(ipc::encode_frame(ipc::Message{ins}), now);
    }

    std::vector<FlowAck> burst(32);
    for (FlowAck& fa : burst) {
      fa.sent_bytes = 1500;
      fa.ev.bytes_acked = 1500;
      fa.ev.packets_acked = 1;
      fa.ev.bytes_in_flight = 64 * 1500;
      fa.ev.packets_in_flight = 64;
    }
    for (uint64_t b = 0; b < kBursts; ++b) {
      for (FlowAck& fa : burst) {
        now += Duration::from_micros(1);
        fa.flow_id = ids[rng.next_below(ids.size())];
        // No live flow may be missed or misresolved, drain or no drain.
        CcpFlow* f = dp.flow(fa.flow_id);
        EXPECT_NE(f, nullptr) << "live flow missed mid-drain, burst " << b;
        EXPECT_EQ(f->id(), fa.flow_id);
        fa.ev.now = now;
        fa.ev.rtt_sample = Duration::from_millis(10) +
                           Duration::from_nanos(static_cast<int64_t>(
                               rng.next_below(1024) * 1000));
      }
      dp.on_ack_batch(burst);
      // Steady churn keeps inserts landing while old_ drains.
      const size_t j = static_cast<size_t>(rng.next_below(ids.size()));
      dp.close_flow(ids[j], now);
      ids[j] = dp.create_flow(fcfg, "reno", now).id();
      ins.flow_id = ids[j];
      dp.handle_frame(ipc::encode_frame(ipc::Message{ins}), now);
      if ((b & 15) == 15) dp.tick(now);
    }
    dp.flush();
    return std::pair{std::move(wire), dp.flow_table().stats()};
  };

  auto [wire_presized, stats_presized] = run(kFlows * 2);
  auto [wire_grown, stats_grown] = run(0);

  ASSERT_EQ(stats_presized.grows, 0u)
      << "test premise: the pre-sized table must never grow";
  ASSERT_GT(stats_grown.grows, 2u)
      << "test premise: the growing table must rehash during traffic";
  EXPECT_EQ(stats_grown.forced_drains, 0u);
  EXPECT_LE(stats_grown.max_step_buckets, 32u);

  ASSERT_FALSE(wire_presized.empty());
  size_t first_diff = 0;
  const size_t common = std::min(wire_presized.size(), wire_grown.size());
  while (first_diff < common &&
         wire_presized[first_diff] == wire_grown[first_diff]) {
    ++first_diff;
  }
  EXPECT_EQ(wire_presized, wire_grown)
      << "incremental rehash must be invisible on the wire; sizes "
      << wire_presized.size() << " vs " << wire_grown.size()
      << ", first differing byte at offset " << first_diff;
  telemetry::set_enabled(telemetry_was_on);
}

TEST(FlowTable, MillionFlowChurnSoak) {
  FlowTable table;
  table.set_sink(null_sink());
  const FlowConfig cfg = small_cfg();

  // Build up: a fresh table grown incrementally through every doubling,
  // a few ids probed along the way.
  for (size_t i = 0; i < kSoakFlows; ++i) {
    table.create(static_cast<ipc::FlowId>(i + 1), cfg, "reno");
    if (table.rehash_pending()) table.rehash_step(128);
  }
  ASSERT_EQ(table.size(), kSoakFlows);
  EXPECT_EQ(table.stats().forced_drains, 0u);
  EXPECT_LE(table.stats().max_step_buckets, 128u);
  EXPECT_LE(table.load_factor(), 0.75);

  // Steady churn: uniform close->create over the whole population. The
  // table is at capacity, so every create must be served by a parked
  // slot (pure recycling) and the id index must stay exact.
  Rng rng(99);
  const uint64_t recycles_before = table.stats().recycles;
  ipc::FlowId next_id = static_cast<ipc::FlowId>(kSoakFlows + 1);
  std::vector<ipc::FlowId> resident(kSoakFlows);
  for (size_t i = 0; i < kSoakFlows; ++i) {
    resident[i] = static_cast<ipc::FlowId>(i + 1);
  }
  for (size_t op = 0; op < kSoakChurnOps; ++op) {
    const size_t j = static_cast<size_t>(rng.next_below(resident.size()));
    ASSERT_TRUE(table.erase(resident[j]));
    const ipc::FlowId id = next_id++;
    table.create(id, cfg, "reno");
    resident[j] = id;
    if (table.rehash_pending()) table.rehash_step(128);
  }
  EXPECT_EQ(table.size(), kSoakFlows);
  EXPECT_EQ(table.stats().recycles - recycles_before, kSoakChurnOps)
      << "churn at capacity must be 100% parked-slot recycling";
  EXPECT_EQ(table.stats().forced_drains, 0u);
  EXPECT_LE(table.stats().max_step_buckets, 128u);

  // Spot-check the index after churn: residents resolve, closed ids do
  // not.
  for (size_t k = 0; k < 1000; ++k) {
    const size_t j = static_cast<size_t>(rng.next_below(resident.size()));
    CcpFlow* f = table.find(resident[j]);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->id(), resident[j]);
  }
  EXPECT_EQ(table.find(0), nullptr);
}

}  // namespace
}  // namespace ccp::datapath
