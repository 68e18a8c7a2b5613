#include "datapath/flow_table.hpp"

#include <algorithm>
#include <bit>
#include <new>

namespace ccp::datapath {

namespace {

unsigned shift_for(size_t capacity) {
  // Capacity is a power of two; the hash's top log2(capacity) bits index.
  return 64u - static_cast<unsigned>(std::countr_zero(capacity));
}

}  // namespace

void FlowTable::reserve(size_t expected) {
  if (expected == 0 || live_ != 0 || !old_.empty()) return;
  // Size for 3/4 load at `expected` flows so filling to the expectation
  // never grows.
  size_t cap = std::bit_ceil(std::max(kMinIndexCap, expected * 4 / 3 + 1));
  cur_.assign(cap, Bucket{});
  cur_shift_ = shift_for(cap);
  meta_.reserve(expected);
  slot_flow_.reserve(expected);
}

uint32_t FlowTable::alloc_slot() {
  if (!free_.empty()) {
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const uint32_t slot = static_cast<uint32_t>(meta_.size());
  const size_t chunk = slot >> kChunkShift;
  if (chunk == chunks_.size()) {
    // New chunk, allocated here — i.e. on the datapath's owner thread,
    // so first-touch places the slab on that thread's NUMA node.
    chunks_.push_back(std::make_unique<FlowSlot[]>(kChunkSlots));
  }
  meta_.push_back(SlotMeta{});
  slot_flow_.push_back(nullptr);
  return slot;
}

uint16_t FlowTable::intern_hint(std::string_view hint) {
  for (size_t i = 0; i < hint_names_.size(); ++i) {
    if (hint_names_[i] == hint) return static_cast<uint16_t>(i);
  }
  if (hint_names_.size() >= 0xffff) return 0;  // pool full: alias slot 0
  hint_names_.emplace_back(hint);
  return static_cast<uint16_t>(hint_names_.size() - 1);
}

CcpFlow& FlowTable::create(ipc::FlowId id, const FlowConfig& cfg,
                           std::string_view alg_hint) {
  if (index_find(id) != kEmptyMark) erase(id);  // replace semantics
  if (hint_names_.empty()) hint_names_.emplace_back();  // index 0 = ""

  const uint32_t slot = alloc_slot();
  SlotMeta& m = meta_[slot];
  m.id = id;
  m.hint = alg_hint.empty() ? 0 : intern_hint(alg_hint);

  const size_t chunk = slot >> kChunkShift;
  const size_t off = slot & kChunkMask;
  CcpFlow* flow;
  if (m.state == SlotState::kEmpty) {
    flow = ::new (static_cast<void*>(chunks_[chunk][off].bytes))
        CcpFlow(id, cfg, sink_);
    slot_flow_[slot] = flow;
  } else {
    // Parked slot: the CcpFlow object survives close->create, so every
    // internal buffer (estimator rings, fold state, report scratch)
    // keeps its capacity — the zero-alloc steady-churn path.
    flow = slot_flow_[slot];
    flow->reset_for_reuse(id, cfg);
    ++stats_.recycles;
  }
  m.state = SlotState::kLive;

  index_insert(id, slot);
  ++live_;
  ++stats_.creates;
  return *flow;
}

bool FlowTable::erase(ipc::FlowId id) {
  const uint32_t slot = index_erase(id);
  if (slot == kEmptyMark) return false;
  SlotMeta& m = meta_[slot];
  m.state = SlotState::kParked;
  m.hint = 0;
  slot_flow_[slot]->park();
  free_.push_back(slot);
  --live_;
  ++stats_.closes;
  return true;
}

uint32_t FlowTable::index_find(ipc::FlowId id) const {
  const uint64_t h = mix(id);
  if (!cur_.empty()) {
    const size_t mask = cur_.size() - 1;
    size_t i = static_cast<size_t>(h >> cur_shift_);
    while (true) {
      const Bucket& b = cur_[i];
      if (b.slot == kEmptyMark) break;
      if (b.key == id) return b.slot;
      i = (i + 1) & mask;
    }
  }
  if (!old_.empty()) {
    const size_t mask = old_.size() - 1;
    size_t i = static_cast<size_t>(h >> old_shift_);
    while (true) {
      const Bucket& b = old_[i];
      if (b.slot == kEmptyMark) break;
      if (b.slot != kTombstoneMark && b.key == id) return b.slot;
      i = (i + 1) & mask;
    }
  }
  return kEmptyMark;
}

void FlowTable::raw_insert(std::vector<Bucket>& table, unsigned shift,
                           ipc::FlowId key, uint32_t slot, CcpFlow* flow) {
  const size_t mask = table.size() - 1;
  size_t i = static_cast<size_t>(mix(key) >> shift);
  while (table[i].slot != kEmptyMark) i = (i + 1) & mask;
  table[i] = Bucket{key, slot, flow};
}

void FlowTable::index_insert(ipc::FlowId id, uint32_t slot) {
  if (cur_.empty()) {
    cur_.assign(kMinIndexCap, Bucket{});
    cur_shift_ = shift_for(kMinIndexCap);
  }
  // Grow at 3/4 load of the *current* array, counting every live flow
  // (drained or not): migrated copies never push occupancy past live_.
  if ((live_ + 1) * 4 > cur_.size() * 3) start_grow();
  if (!old_.empty()) migrate(kInsertMigrateBuckets);
  raw_insert(cur_, cur_shift_, id, slot, slot_flow_[slot]);
}

uint32_t FlowTable::index_erase(ipc::FlowId id) {
  uint32_t found = kEmptyMark;
  if (!cur_.empty()) {
    const size_t mask = cur_.size() - 1;
    size_t i = static_cast<size_t>(mix(id) >> cur_shift_);
    while (true) {
      Bucket& b = cur_[i];
      if (b.slot == kEmptyMark) break;
      if (b.key == id) {
        found = b.slot;
        // Backward-shift deletion (cur_ carries no tombstones): pull
        // every displaced successor of the cluster back over the hole.
        size_t hole = i;
        size_t j = (i + 1) & mask;
        while (cur_[j].slot != kEmptyMark) {
          const size_t home =
              static_cast<size_t>(mix(cur_[j].key) >> cur_shift_);
          if (((j - home) & mask) >= ((j - hole) & mask)) {
            cur_[hole] = cur_[j];
            hole = j;
          }
          j = (j + 1) & mask;
        }
        cur_[hole] = Bucket{};
        break;
      }
      i = (i + 1) & mask;
    }
  }
  if (!old_.empty()) {
    // The entry (or its pre-migration original) may still sit in the
    // draining array; tombstone it so a cur_-miss can't resurrect the
    // closed flow. Tombstones keep the probe chain intact — old_ is
    // drain-only, so they never accumulate past one grow.
    const size_t mask = old_.size() - 1;
    size_t i = static_cast<size_t>(mix(id) >> old_shift_);
    while (true) {
      Bucket& b = old_[i];
      if (b.slot == kEmptyMark) break;
      if (b.slot != kTombstoneMark && b.key == id) {
        if (found == kEmptyMark) found = b.slot;
        b.slot = kTombstoneMark;
        break;
      }
      i = (i + 1) & mask;
    }
  }
  return found;
}

void FlowTable::start_grow() {
  if (!old_.empty()) {
    // Unreachable by the insert-budget math (kInsertMigrateBuckets);
    // kept as a correctness backstop rather than an assert so a future
    // tuning mistake degrades to one synchronous drain, not a lost flow.
    ++stats_.forced_drains;
    migrate(old_.size());
  }
  const size_t new_cap = cur_.size() * 2;
  old_ = std::move(cur_);
  old_shift_ = cur_shift_;
  cur_.assign(new_cap, Bucket{});
  cur_shift_ = shift_for(new_cap);
  migrate_pos_ = 0;
  ++stats_.grows;
}

size_t FlowTable::migrate(size_t max_buckets) {
  if (old_.empty()) return 0;
  const size_t cap = old_.size();
  size_t scanned = 0;
  while (migrate_pos_ < cap && scanned < max_buckets) {
    const Bucket& b = old_[migrate_pos_++];
    ++scanned;
    if (b.slot != kEmptyMark && b.slot != kTombstoneMark) {
      // Copy, don't vacate: old_'s probe chains must stay intact for
      // lookups of entries beyond the cursor. cur_ probes first, so the
      // duplicate is unobservable; erase() tombstones both.
      raw_insert(cur_, cur_shift_, b.key, b.slot, b.flow);
    }
  }
  if (migrate_pos_ >= cap) {
    old_ = std::vector<Bucket>();  // drained: release the array
    old_shift_ = 64;
    migrate_pos_ = 0;
  }
  if (scanned > 0) {
    ++stats_.rehash_steps;
    stats_.buckets_migrated += scanned;
    stats_.max_step_buckets = std::max<uint64_t>(stats_.max_step_buckets,
                                                 scanned);
  }
  return scanned;
}

size_t FlowTable::rehash_step(size_t max_buckets) {
  return migrate(max_buckets);
}

void FlowTable::clear() {
  for (size_t s = 0; s < meta_.size(); ++s) {
    if (meta_[s].state != SlotState::kEmpty) slot_flow_[s]->~CcpFlow();
  }
  chunks_.clear();
  slot_flow_.clear();
  meta_.clear();
  free_.clear();
  live_ = 0;
  cur_ = std::vector<Bucket>();
  old_ = std::vector<Bucket>();
  cur_shift_ = old_shift_ = 64;
  migrate_pos_ = 0;
  hint_names_.clear();
}

}  // namespace ccp::datapath
