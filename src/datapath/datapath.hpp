// The CCP datapath object: owns all flows on one host, batches their
// outgoing messages into frames, and dispatches the agent's commands.
//
// Transport-agnostic by design: outgoing frames go through a FrameTx
// callback and incoming frames arrive via handle_frame(). The simulator
// wires these through its event queue (with a modeled IPC delay); real
// deployments wire them to an ipc::Transport (see TransportDriver).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "datapath/events.hpp"
#include "datapath/flow.hpp"
#include "datapath/flow_table.hpp"
#include "ipc/wire.hpp"
#include "util/time.hpp"

namespace ccp::telemetry {
struct ShardStats;
}  // namespace ccp::telemetry

namespace ccp::datapath {

struct DatapathConfig {
  /// How long batched (non-urgent) messages may sit before a flush.
  /// Zero = send every message in its own frame immediately.
  Duration flush_interval = Duration::zero();
  /// Flush regardless of age once this many messages are pending.
  size_t max_batch_msgs = 64;

  /// Pre-sizes the flow index for this many flows (0 = start small and
  /// grow incrementally through every doubling). Either way the wire
  /// behavior is identical — the incremental rehash is invisible to the
  /// agent — which tests/flow_table_test.cc pins byte for byte.
  size_t expected_flows = 0;
  /// Old-table buckets migrated per on_ack_batch / tick call while an
  /// index grow is draining. Bounds the rehash work any single ACK burst
  /// can observe; the insert-time budget in FlowTable guarantees the
  /// drain completes before the next grow regardless of this knob.
  size_t rehash_step_buckets = 128;
  /// Flows visited per tick() for control-wait/watchdog maintenance.
  /// 0 = every flow, the historical behavior and right for datapaths
  /// with thousands of flows. Million-flow datapaths set a budget: the
  /// sweep cursor round-robins so every flow is still visited within
  /// live/budget ticks, and ACK arrival advances control waits anyway —
  /// a bounded maintenance delay for idle flows, never for active ones.
  size_t tick_flow_budget = 0;
};

struct DatapathStats {
  uint64_t frames_sent = 0;
  uint64_t msgs_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t frames_received = 0;
  uint64_t msgs_received = 0;
  uint64_t decode_errors = 0;
  uint64_t install_errors = 0;
};

class CcpDatapath {
 public:
  /// Outgoing-frame callback. The bytes are borrowed: a receiver that
  /// needs them past the call must copy (transports do; the simulator
  /// copies into its event closure).
  using FrameTx = std::function<void(std::span<const uint8_t>)>;

  CcpDatapath(DatapathConfig config, FrameTx tx);

  /// Registers a flow and announces it to the agent.
  CcpFlow& create_flow(const FlowConfig& cfg, const std::string& alg_hint,
                       TimePoint now);
  /// Same, with a caller-chosen flow id. The sharded datapath allocates
  /// ids centrally so a flow's id determines its owning shard (the way a
  /// real stack's 4-tuple hash determines the processing core).
  CcpFlow& create_flow_with_id(ipc::FlowId id, const FlowConfig& cfg,
                               const std::string& alg_hint, TimePoint now);
  void close_flow(ipc::FlowId id, TimePoint now);
  /// Per-packet demux; inline so the per-ACK lookup is one probe
  /// sequence with no call overhead.
  CcpFlow* flow(ipc::FlowId id) { return flows_.find(id); }

  /// Feeds a whole burst of ACKs: exactly the per-ACK on_send (when
  /// sent_bytes > 0) then on_ack sequence in arrival order (same messages,
  /// same bytes), with the flow lookups and the flows' cache lines
  /// prefetched a chunk ahead so cold flows' misses overlap. Unknown flow
  /// ids are skipped. Each call also pumps one bounded incremental-rehash
  /// step when a flow-index grow is draining, so table growth never
  /// stalls a burst.
  void on_ack_batch(std::span<const FlowAck> burst);

  /// Feeds one frame from the agent. Malformed frames and bad programs
  /// are counted and dropped — never fatal (§5).
  void handle_frame(std::span<const uint8_t> frame, TimePoint now);

  /// Resync protocol (docs/RESILIENCE.md): replays a FlowSummary for
  /// every active flow so a restarted agent can rebuild its per-flow
  /// state, echoing `token` so the agent can drop superseded replays.
  /// Flushes immediately; returns the number of flows replayed. Also
  /// invoked by handle_frame on a ResyncRequest message.
  size_t replay_flow_summaries(TimePoint now, uint64_t token);

  /// Periodic maintenance: advances every flow's control program and
  /// flushes aged batches. Call at least every flush_interval.
  void tick(TimePoint now);

  /// Sends everything pending now.
  void flush();

  const DatapathStats& stats() const { return stats_; }
  size_t num_flows() const { return flows_.size(); }
  /// The slab-backed flow store (benchmarks and tests read its stats,
  /// handles, and load factor; the churn bench drives its recycling).
  const FlowTable& flow_table() const { return flows_; }
  FlowTable& flow_table() { return flows_; }

  /// Attributes this datapath's report/urgent traffic to a shard's
  /// counter set (sharded mode; see src/datapath/shard.hpp). Accounting
  /// happens per enqueued message — never per ACK — so the hot path cost
  /// is one pointer test on the report path.
  void set_shard_stats(telemetry::ShardStats* stats) { shard_stats_ = stats; }

 private:
  void enqueue(const ipc::Message& msg, bool urgent, TimePoint now);
  /// One bounded incremental-rehash step + the telemetry that goes with
  /// it. Out of line: the callers' fast path is the rehash_pending()
  /// test, false for the table's whole steady state.
  void pump_rehash();
  /// Publishes flow-count / load-factor gauges after create/close.
  void publish_table_gauges();

  DatapathConfig config_;
  FrameTx tx_;
  // Two-tier slab flow storage (hot FlowHot slab + parked-recycled cold
  // CcpFlow slab) behind an incremental-rehash FlowId index. Also owns
  // the interned algorithm-hint pool resync replays read — one pooled
  // string per distinct hint, not a heap string per flow.
  FlowTable flows_;
  ipc::FlowId next_flow_id_ = 1;
  size_t tick_sweep_cursor_ = 0;  // round-robin slot cursor (bounded tick)

  // Outgoing batch: messages are encoded straight into `batch_enc_` as
  // they arrive (frame header first, msg count patched at flush), so a
  // flush is one u16 patch + one buffer swap — no per-flush encode pass
  // and no allocation once capacities settle.
  ipc::Encoder batch_enc_;
  size_t pending_msgs_ = 0;
  std::vector<uint8_t> flush_buf_;  // swapped with the encoder at flush
  TimePoint oldest_pending_{};
  TimePoint last_event_time_{};  // freshest tick time, stamps sink messages
  uint32_t tick_seq_ = 0;        // paces the slow-cadence metric drain

  // Outgoing control-plane scratch messages (create/close/resync),
  // mirrors of the flows' own report/urgent scratch: mutated in place
  // and handed to enqueue by reference, so steady-state churn reuses
  // their string/field capacities instead of allocating per flow event.
  ipc::Message create_msg_{ipc::CreateMsg{}};
  ipc::Message close_msg_{ipc::FlowCloseMsg{}};
  ipc::Message summary_msg_{ipc::FlowSummaryMsg{}};

  // Incoming decode scratch, reused across frames. `rx_busy_` guards
  // against reentrant handle_frame (a synchronously wired agent can loop
  // a response back while we are still iterating): nested calls fall
  // back to a local vector.
  std::vector<ipc::Message> rx_scratch_;
  bool rx_busy_ = false;

  uint32_t burst_stamp_ = 0;  // FlowTable::find_mark prefetch dedup (0 reserved)

  DatapathStats stats_;
  telemetry::ShardStats* shard_stats_ = nullptr;  // sharded mode only
};

}  // namespace ccp::datapath
