// ShmRing consumer-path tests for its two consumers, pop() and the
// batched zero-copy drain(): contiguous records as spans into the ring,
// wrapped records staged through scratch, randomized wrap-around fuzzing
// against a reference queue, full-ring backpressure, and a hostile peer's
// header and length writes. These exercise the ring directly (no
// transport on top) so wrap offsets and record boundaries can be
// controlled precisely.
#include "ipc/shm_ring.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace ccp::ipc {
namespace {

/// A ring over plain heap memory (producer and consumer in-process).
struct TestRing {
  explicit TestRing(size_t capacity)
      : mem(ShmRing::mapping_size(capacity)),
        ring(ShmRing::create_in(mem.data(), capacity)),
        data_begin(mem.data() + sizeof(RingHeader)),
        data_end(data_begin + capacity) {}

  std::vector<uint8_t> mem;
  ShmRing ring;
  const uint8_t* data_begin;
  const uint8_t* data_end;

  bool in_ring(const uint8_t* p) const { return p >= data_begin && p < data_end; }

  // What a corrupt or hostile peer can reach: the shared header and the
  // record bytes.
  RingHeader& header() { return *reinterpret_cast<RingHeader*>(mem.data()); }
  void write_len(uint64_t at, uint32_t len) {
    std::memcpy(mem.data() + sizeof(RingHeader) + at, &len, 4);
  }
};

std::vector<uint8_t> pattern(size_t len, uint8_t seed) {
  std::vector<uint8_t> v(len);
  for (size_t i = 0; i < len; ++i) v[i] = static_cast<uint8_t>(seed + i * 7);
  return v;
}

// Collects the spans one drain() hands out.
std::vector<std::span<const uint8_t>> drain_all(TestRing& t, std::vector<uint8_t>& scratch) {
  std::vector<std::span<const uint8_t>> recs;
  t.ring.drain(scratch, [&](std::span<const uint8_t> rec) { recs.push_back(rec); });
  return recs;
}

TEST(ShmRingDrain, ContiguousRecordIsZeroCopy) {
  TestRing t(1 << 12);
  std::vector<uint8_t> scratch;
  const auto a = pattern(64, 3);
  ASSERT_TRUE(t.ring.push(a));
  const auto recs = drain_all(t, scratch);
  ASSERT_EQ(recs.size(), 1u);
  // The record sits at the start of a fresh ring: the span must point
  // into ring memory, not into scratch.
  EXPECT_TRUE(t.in_ring(recs[0].data()));
}

TEST(ShmRingDrain, WrappedRecordIsStagedThroughScratch) {
  constexpr size_t kCap = 256;
  TestRing t(kCap);
  std::vector<uint8_t> scratch;

  // Advance head/tail so the next record straddles the wrap point:
  // push+drain a 200-byte record (offsets now at 204), then push a
  // 100-byte record (4-byte header ends at 208, payload runs past 256).
  const auto filler = pattern(200, 4);
  ASSERT_TRUE(t.ring.push(filler));
  ASSERT_EQ(drain_all(t, scratch).size(), 1u);

  const auto wrapped = pattern(100, 5);
  ASSERT_TRUE(t.ring.push(wrapped));
  const auto recs = drain_all(t, scratch);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_FALSE(t.in_ring(recs[0].data()));  // staged through scratch
  EXPECT_TRUE(std::equal(recs[0].begin(), recs[0].end(), wrapped.begin(), wrapped.end()));
  EXPECT_TRUE(t.ring.empty());
}

TEST(ShmRingDrain, DrainsBacklogInOrder) {
  TestRing t(1 << 12);
  std::vector<uint8_t> scratch;
  EXPECT_EQ(t.ring.drain(scratch, [](std::span<const uint8_t>) {}), 0u);
  std::vector<std::vector<uint8_t>> sent;
  for (int i = 0; i < 10; ++i) {
    sent.push_back(pattern(50 + static_cast<size_t>(i) * 13, static_cast<uint8_t>(i)));
    ASSERT_TRUE(t.ring.push(sent.back()));
  }
  size_t idx = 0;
  const size_t n = t.ring.drain(scratch, [&](std::span<const uint8_t> rec) {
    ASSERT_LT(idx, sent.size());
    EXPECT_TRUE(std::equal(rec.begin(), rec.end(), sent[idx].begin(), sent[idx].end()));
    ++idx;
  });
  EXPECT_EQ(n, sent.size());
  EXPECT_TRUE(t.ring.empty());
  EXPECT_EQ(t.ring.drain(scratch, [](std::span<const uint8_t>) {}), 0u);
}

TEST(ShmRingDrain, SpansStayValidForTheWholeDrain) {
  // drain() publishes the head update only after the loop, so a callback
  // that stashes spans may read them all at the end of its own pass —
  // the producer cannot overwrite unretired bytes mid-drain.
  TestRing t(1 << 10);
  std::vector<uint8_t> scratch;
  std::vector<std::vector<uint8_t>> sent;
  for (int i = 0; i < 4; ++i) {
    sent.push_back(pattern(64, static_cast<uint8_t>(0x40 + i)));
    ASSERT_TRUE(t.ring.push(sent.back()));
  }
  std::vector<std::span<const uint8_t>> views;
  t.ring.drain(scratch, [&](std::span<const uint8_t> rec) { views.push_back(rec); });
  ASSERT_EQ(views.size(), sent.size());
  for (size_t i = 0; i < views.size(); ++i) {
    // Contiguous records in a fresh ring: all views alias ring memory and
    // must still hold the original bytes after the drain loop finished.
    EXPECT_TRUE(std::equal(views[i].begin(), views[i].end(), sent[i].begin(),
                           sent[i].end()));
  }
}

TEST(ShmRingFuzz, RandomizedWrapAroundAgainstReferenceQueue) {
  // Small capacity forces frequent wrap-around; both consumer paths
  // (pop, drain) are exercised against a reference deque.
  constexpr size_t kCap = 512;
  TestRing t(kCap);
  std::vector<uint8_t> scratch;
  std::deque<std::vector<uint8_t>> reference;
  Rng rng(0xc0ffee);

  uint64_t pushed = 0, popped = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const uint64_t action = rng.next_below(10);
    if (action < 5) {  // produce
      const size_t len = rng.next_below(120);  // includes zero-length
      auto payload = pattern(len, static_cast<uint8_t>(rng.next_u64()));
      if (t.ring.push(payload)) {
        reference.push_back(std::move(payload));
        ++pushed;
      } else {
        // Backpressure must mean "genuinely not enough space".
        EXPECT_GT(t.ring.bytes_used() + 4 + len, kCap);
      }
    } else if (action < 7) {  // pop
      auto got = t.ring.pop();
      ASSERT_EQ(got.has_value(), !reference.empty());
      if (got) {
        EXPECT_EQ(*got, reference.front());
        reference.pop_front();
        ++popped;
      }
    } else {  // drain everything
      const size_t expect = reference.size();
      const size_t n = t.ring.drain(scratch, [&](std::span<const uint8_t> rec) {
        ASSERT_FALSE(reference.empty());
        ASSERT_EQ(rec.size(), reference.front().size());
        EXPECT_TRUE(std::equal(rec.begin(), rec.end(), reference.front().begin(),
                               reference.front().end()));
        reference.pop_front();
        ++popped;
      });
      EXPECT_EQ(n, expect);
    }
  }
  // Sanity: the fuzz actually wrapped the ring many times.
  EXPECT_GT(pushed, 5000u);
  // Drain the leftovers and verify emptiness is consistent.
  while (auto got = t.ring.pop()) {
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(*got, reference.front());
    reference.pop_front();
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_TRUE(t.ring.empty());
  EXPECT_EQ(t.ring.bytes_used(), 0u);
}

TEST(ShmRingBackpressure, FullRingRejectsUntilConsumerFreesSpace) {
  constexpr size_t kCap = 1 << 10;
  TestRing t(kCap);
  std::vector<uint8_t> scratch;
  const auto rec = pattern(100, 7);

  int accepted = 0;
  while (t.ring.push(rec)) ++accepted;
  EXPECT_GT(accepted, 1);
  // Ring is full for this record size; repeated pushes keep failing and
  // must not corrupt state.
  EXPECT_FALSE(t.ring.push(rec));
  EXPECT_FALSE(t.ring.push(rec));

  // Freeing one record admits exactly one more.
  auto got = t.ring.pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, rec);
  EXPECT_TRUE(t.ring.push(rec));
  EXPECT_FALSE(t.ring.push(rec));

  // Every queued record survives intact.
  size_t n = t.ring.drain(scratch, [&](std::span<const uint8_t> r) {
    EXPECT_TRUE(std::equal(r.begin(), r.end(), rec.begin(), rec.end()));
  });
  EXPECT_EQ(n, static_cast<size_t>(accepted));
  EXPECT_TRUE(t.ring.empty());
}

// A peer that scribbles on the shared header or a record's length must
// not make the consumer read past `tail` or allocate what `len` claims.
// Each rejection latches corrupt(), counts once, and reads as empty.

uint64_t corrupt_count() { return telemetry::metrics().ipc_ring_corrupt.value(); }

TEST(ShmRingCorrupt, OversizedLenIsRejectedOnEveryConsumerPath) {
  for (int path = 0; path < 2; ++path) {
    TestRing t(1 << 12);
    std::vector<uint8_t> scratch;
    ASSERT_TRUE(t.ring.push(pattern(10, 1)));
    t.write_len(0, 0xfffffff0u);  // would be a ~4 GiB allocation
    const uint64_t c0 = corrupt_count();
    if (path == 0) {
      EXPECT_FALSE(t.ring.pop().has_value());
    } else {
      EXPECT_EQ(t.ring.drain(scratch, [](std::span<const uint8_t>) {}), 0u);
    }
    EXPECT_TRUE(t.ring.corrupt());
    EXPECT_EQ(corrupt_count() - c0, 1u);
    EXPECT_LE(scratch.capacity(), 1u << 12);
    // Latched: later calls return nothing and do not count again.
    EXPECT_FALSE(t.ring.pop().has_value());
    EXPECT_EQ(t.ring.drain(scratch, [](std::span<const uint8_t>) {}), 0u);
    EXPECT_EQ(corrupt_count() - c0, 1u);
  }
}

TEST(ShmRingCorrupt, LenPastTailIsRejectedEvenWithinCapacity) {
  TestRing t(1 << 12);
  ASSERT_TRUE(t.ring.push(pattern(10, 2)));
  t.write_len(0, 11);  // one byte more than the producer published
  EXPECT_FALSE(t.ring.pop().has_value());
  EXPECT_TRUE(t.ring.corrupt());
}

TEST(ShmRingCorrupt, DrainDeliversTheGoodRecordsBeforeACorruptOne) {
  TestRing t(1 << 12);
  std::vector<uint8_t> scratch;
  const auto good = pattern(20, 3);
  ASSERT_TRUE(t.ring.push(good));
  ASSERT_TRUE(t.ring.push(pattern(30, 4)));
  t.write_len(4 + good.size(), 1000);
  std::vector<std::vector<uint8_t>> seen;
  const size_t n = t.ring.drain(scratch, [&](std::span<const uint8_t> rec) {
    seen.emplace_back(rec.begin(), rec.end());
  });
  EXPECT_EQ(n, 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], good);
  EXPECT_TRUE(t.ring.corrupt());
  // The good record was retired; the corrupt one was not.
  EXPECT_EQ(t.header().head.load(), 4 + good.size());
}

TEST(ShmRingCorrupt, TailMoreThanACapacityAheadIsRejected) {
  constexpr size_t kCap = 1 << 10;
  TestRing t(kCap);
  ASSERT_TRUE(t.ring.push(pattern(10, 5)));
  t.header().tail.store(kCap + 1);
  const uint64_t c0 = corrupt_count();
  EXPECT_FALSE(t.ring.pop().has_value());
  EXPECT_TRUE(t.ring.corrupt());
  EXPECT_EQ(corrupt_count() - c0, 1u);
}

TEST(ShmRingCorrupt, TailBehindHeadIsRejected) {
  TestRing t(1 << 10);
  ASSERT_TRUE(t.ring.push(pattern(10, 6)));
  ASSERT_TRUE(t.ring.pop().has_value());
  t.header().tail.store(2);  // head is 14: tail - head wraps to ~2^64
  std::vector<uint8_t> scratch;
  EXPECT_EQ(t.ring.drain(scratch, [](std::span<const uint8_t>) {}), 0u);
  EXPECT_TRUE(t.ring.corrupt());
  // The producer refuses to write over a ring whose head it cannot trust.
  TestRing p(1 << 10);
  p.header().head.store(100);  // consumer claims to have read unwritten bytes
  EXPECT_FALSE(p.ring.push(pattern(10, 7)));
}

TEST(ShmRingCorrupt, PartialLengthPrefixIsRejected) {
  TestRing t(1 << 10);
  t.header().tail.store(2);  // not even a whole u32 length published
  EXPECT_FALSE(t.ring.pop().has_value());
  EXPECT_TRUE(t.ring.corrupt());
}

}  // namespace
}  // namespace ccp::ipc
