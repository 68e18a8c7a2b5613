// Slab storage for the datapath's flows.
//
// A host datapath owns every flow on the machine — front-end fleets hold
// a million-plus concurrent connections with ~100k connects/disconnects a
// second — and the per-flow storage has to carry that without disturbing
// the per-ACK path. FlowTable replaces the FlatMap<FlowId, unique_ptr>
// design (one heap object per flow, a full-table rehash on every grow)
// with two pieces:
//
//   slab        4096-slot chunks of CcpFlow storage. Chunks never move,
//               so a flow's address is stable for the life of the table.
//               A CcpFlow is constructed in place on first use of a slot
//               and *parked* — not destroyed — on close, so a steady-state
//               close->create cycle recycles the object
//               (CcpFlow::reset_for_reuse) and allocates nothing: every
//               internal buffer keeps its capacity.
//
//   index       open-addressing FlowId -> slot map with *incremental*
//               rehash. A grow snapshots the current bucket array as
//               `old_`, allocates a double-size `cur_`, and migrates a
//               bounded number of old buckets per rehash_step() call
//               (the datapath pumps it from on_ack_batch and tick) plus
//               a few per insert — so no ACK burst ever stalls behind a
//               full-table rehash, and the insert-time budget guarantees
//               the old table drains before the next grow can trigger.
//               Lookups probe cur_ then old_; migration copies entries
//               (old_ buckets are never vacated, so its probe chains stay
//               intact) and erase tombstones the old_ copy.
//
// Not thread-safe: one FlowTable per datapath, touched only by its owner
// thread. Chunk memory is allocated by create() on that thread, so
// first-touch policy places a per-core datapath's slab on its own NUMA
// node.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "datapath/flow.hpp"
#include "ipc/message.hpp"

namespace ccp::datapath {

class FlowTable {
 public:
  struct Stats {
    uint64_t creates = 0;        // flows created (fresh + recycled)
    uint64_t recycles = 0;       // creates served by a parked slot
    uint64_t closes = 0;         // flows closed (slot parked)
    uint64_t grows = 0;          // index grows begun
    uint64_t rehash_steps = 0;   // migration steps that moved >= 1 bucket
    uint64_t buckets_migrated = 0;
    // Largest single migration step, in old-table buckets scanned. The
    // bounded-pause guarantee: never exceeds the largest budget passed to
    // rehash_step() (or kInsertMigrateBuckets for insert-time steps).
    uint64_t max_step_buckets = 0;
    // Grows forced to drain the previous old table synchronously first.
    // Unreachable by the budget math (see start_grow); tests pin it at 0.
    uint64_t forced_drains = 0;
  };

  FlowTable() = default;
  ~FlowTable() { clear(); }
  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// The sink handed to every flow the table constructs. Set once before
  /// the first create (the datapath's constructor does).
  void set_sink(MessageSink sink) { sink_ = std::move(sink); }

  /// Pre-sizes the index for `expected` flows (only meaningful on an
  /// empty table). Zero keeps the small default; the table then grows
  /// incrementally through every doubling.
  void reserve(size_t expected);

  /// Creates (or recycles a parked slot for) flow `id`. An existing flow
  /// with the same id is closed first. `alg_hint` is interned: one pooled
  /// string per distinct algorithm name, a uint16 per flow.
  CcpFlow& create(ipc::FlowId id, const FlowConfig& cfg,
                  std::string_view alg_hint);

  /// Closes flow `id`: unlinks it from the index and parks the CcpFlow
  /// for reuse. Returns false if the id is unknown.
  bool erase(ipc::FlowId id);

  /// Per-packet demux: one probe sequence over cur_ (plus old_ only
  /// while a grow is draining). Inline — this is the hot path's entry.
  CcpFlow* find(ipc::FlowId id) {
    const uint64_t h = mix(id);
    if (!cur_.empty()) {
      const size_t mask = cur_.size() - 1;
      size_t i = static_cast<size_t>(h >> cur_shift_);
      while (true) {
        const Bucket& b = cur_[i];
        if (b.slot == kEmptyMark) break;
        if (b.key == id) return b.flow;
        i = (i + 1) & mask;
      }
    }
    if (!old_.empty()) [[unlikely]] {
      const size_t mask = old_.size() - 1;
      size_t i = static_cast<size_t>(h >> old_shift_);
      while (true) {
        const Bucket& b = old_[i];
        if (b.slot == kEmptyMark) break;
        if (b.slot != kTombstoneMark && b.key == id) return b.flow;
        i = (i + 1) & mask;
      }
    }
    return nullptr;
  }

  /// True while a grow is still draining its old bucket array.
  bool rehash_pending() const { return !old_.empty(); }
  /// Migrates at most `max_buckets` old buckets into the current array.
  /// Returns the number of buckets scanned (0 when nothing is pending).
  size_t rehash_step(size_t max_buckets);

  size_t size() const { return live_; }
  size_t index_capacity() const { return cur_.size(); }
  /// Live flows over current-array buckets, the gauge the telemetry
  /// layer publishes (in basis points there; a plain ratio here).
  double load_factor() const {
    return cur_.empty() ? 0.0
                        : static_cast<double>(live_) /
                              static_cast<double>(cur_.size());
  }
  const Stats& stats() const { return stats_; }

  /// Visits every live flow in slot (creation) order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (size_t s = 0; s < meta_.size(); ++s) {
      if (meta_[s].state == SlotState::kLive) {
        fn(*slot_flow_[s], hint_names_[meta_[s].hint]);
      }
    }
  }

  /// Visits up to `max_flows` live flows starting at slot `cursor`,
  /// wrapping once; returns the cursor for the next call. The datapath's
  /// tick uses this to bound per-call maintenance the same way the index
  /// bounds per-call migration.
  template <typename Fn>
  size_t sweep(size_t cursor, size_t max_flows, Fn&& fn) {
    const size_t n = meta_.size();
    if (n == 0 || live_ == 0) return 0;
    if (cursor >= n) cursor = 0;
    size_t visited = 0;
    for (size_t scanned = 0; scanned < n && visited < max_flows; ++scanned) {
      if (meta_[cursor].state == SlotState::kLive) {
        fn(*slot_flow_[cursor]);
        ++visited;
      }
      cursor = cursor + 1 == n ? 0 : cursor + 1;
    }
    return cursor;
  }

  /// Destroys every flow (live and parked) and releases all storage.
  void clear();

 private:
  enum class SlotState : uint8_t {
    kEmpty = 0,   // cold slot never constructed
    kLive = 1,    // flow active, id in the index
    kParked = 2,  // flow constructed but closed; on the free list
  };

  struct SlotMeta {
    ipc::FlowId id = 0;
    uint16_t hint = 0;
    SlotState state = SlotState::kEmpty;
  };

  struct Bucket {
    ipc::FlowId key = 0;
    uint32_t slot = kEmptyMark;
    // The slot's flow, denormalized into the bucket so the per-ACK
    // find() is ONE dependent load (the bucket line), not a probe plus a
    // chase through slot_flow_. Worth 2x bucket size: at a million flows
    // both arrays blow the cache anyway and the extra line the chase
    // touched was the expensive part. Stale in tombstones (never read).
    CcpFlow* flow = nullptr;
  };
  // Key and slot fill the 8 B before the pointer, so a bucket is 16 B
  // and four share a cache line. One more 4 B field would pad it to
  // 24 B: at a million flows (2^21 buckets) the index would grow from
  // 33.6 MB to 50.3 MB, and a draining grow holds both arrays.
  static_assert(sizeof(Bucket) == 16);

  // Slab chunking: fixed-size chunks keep every slot's address stable
  // for the life of the table (the table hands out CcpFlow& and the
  // index holds CcpFlow*), while growth stays O(chunk).
  static constexpr size_t kChunkShift = 12;  // 4096 slots per chunk
  static constexpr size_t kChunkSlots = size_t{1} << kChunkShift;
  static constexpr size_t kChunkMask = kChunkSlots - 1;

  static constexpr uint32_t kEmptyMark = 0xffffffffu;
  static constexpr uint32_t kTombstoneMark = 0xfffffffeu;
  static constexpr size_t kMinIndexCap = 64;
  // Old buckets migrated per index insert. Doubling at 3/4 load means at
  // least cap(old)*3/4 inserts happen before the next grow could
  // trigger; 4 buckets each migrates >= 3x the old capacity — the old
  // table always drains first even if the datapath never pumps
  // rehash_step (an idle datapath taking a connect burst).
  static constexpr size_t kInsertMigrateBuckets = 4;

  // Raw storage for one slot; CcpFlow is placement-constructed on
  // first use and recycled (never destroyed) until clear().
  struct FlowSlot {
    alignas(CcpFlow) unsigned char bytes[sizeof(CcpFlow)];
  };

  static uint64_t mix(ipc::FlowId id) {
    // Fibonacci finalizer (same as util::FlatMap): sequential flow ids
    // land well-spread, and the top bits index the table.
    return static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ULL;
  }

  uint32_t alloc_slot();
  uint16_t intern_hint(std::string_view hint);

  void index_insert(ipc::FlowId id, uint32_t slot);
  /// Finds `id`'s bucket; removes it from cur_ (backward shift) and/or
  /// tombstones it in old_. Returns the slot, or kEmptyMark if absent.
  uint32_t index_erase(ipc::FlowId id);
  uint32_t index_find(ipc::FlowId id) const;
  void start_grow();
  size_t migrate(size_t max_buckets);
  static void raw_insert(std::vector<Bucket>& table, unsigned shift,
                         ipc::FlowId key, uint32_t slot, CcpFlow* flow);

  MessageSink sink_;

  std::vector<std::unique_ptr<FlowSlot[]>> chunks_;
  std::vector<CcpFlow*> slot_flow_;  // slot -> constructed flow (dense)
  std::vector<SlotMeta> meta_;
  std::vector<uint32_t> free_;  // parked slots, LIFO for cache-warm reuse
  size_t live_ = 0;

  std::vector<Bucket> cur_;
  std::vector<Bucket> old_;
  unsigned cur_shift_ = 64;
  unsigned old_shift_ = 64;
  size_t migrate_pos_ = 0;

  std::vector<std::string> hint_names_;  // interned algorithm hints

  Stats stats_;
};

}  // namespace ccp::datapath
