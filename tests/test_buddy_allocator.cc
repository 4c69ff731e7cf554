// Tests for the buddy allocator: invariants, targeted allocation, FMFI,
// randomized property sweeps against a frame-ownership reference, and an
// op-for-op differential against the map/set reference allocator.
#include "vmem/buddy_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "tests/reference_buddy.h"
#include "trace/tracer.h"

namespace {

using base::kHugeOrder;
using base::kMaxOrder;
using base::kPagesPerHuge;
using vmem::BuddyAllocator;
using vmem::kInvalidFrame;

TEST(Buddy, FreshAllocatorIsFullyFree) {
  BuddyAllocator buddy(4096);
  EXPECT_EQ(buddy.free_frames(), 4096u);
  EXPECT_EQ(buddy.allocated_frames(), 0u);
  buddy.CheckInvariants();
}

TEST(Buddy, NonPowerOfTwoSizeSeedsCorrectly) {
  BuddyAllocator buddy(4096 + 512 + 3);
  EXPECT_EQ(buddy.free_frames(), 4096u + 512 + 3);
  buddy.CheckInvariants();
}

TEST(Buddy, AllocateReturnsAlignedBlocks) {
  BuddyAllocator buddy(1 << 14);
  for (int order = 0; order < kMaxOrder; ++order) {
    const uint64_t frame = buddy.Allocate(order);
    ASSERT_NE(frame, kInvalidFrame);
    EXPECT_EQ(frame % (1ull << order), 0u) << "order " << order;
  }
  buddy.CheckInvariants();
}

TEST(Buddy, AllocateExhaustsAndFails) {
  BuddyAllocator buddy(16);
  for (int i = 0; i < 16; ++i) {
    ASSERT_NE(buddy.Allocate(0), kInvalidFrame);
  }
  EXPECT_EQ(buddy.Allocate(0), kInvalidFrame);
  EXPECT_EQ(buddy.free_frames(), 0u);
}

TEST(Buddy, FreeMergesBuddies) {
  BuddyAllocator buddy(1024);
  const uint64_t a = buddy.Allocate(9);
  ASSERT_NE(a, kInvalidFrame);
  const uint64_t b = buddy.Allocate(9);
  ASSERT_NE(b, kInvalidFrame);
  EXPECT_EQ(buddy.FreeBlocksOfOrder(9), 0u);
  EXPECT_EQ(buddy.FreeBlocksOfOrder(10), 0u);
  buddy.Free(a, 512);
  buddy.Free(b, 512);
  buddy.CheckInvariants();
  // 1024 contiguous frames must re-merge into one order-10 block.
  EXPECT_EQ(buddy.FreeBlocksOfOrder(10), 1u);
}

TEST(Buddy, PartialFreeRemerges) {
  BuddyAllocator buddy(2048);
  const uint64_t block = buddy.Allocate(10);
  ASSERT_NE(block, kInvalidFrame);
  // Free it page by page in a shuffled order; merging must rebuild it.
  std::vector<uint64_t> frames;
  for (uint64_t i = 0; i < 1024; ++i) {
    frames.push_back(block + i);
  }
  base::Rng rng(5);
  rng.Shuffle(frames);
  for (uint64_t f : frames) {
    buddy.Free(f, 1);
  }
  buddy.CheckInvariants();
  EXPECT_EQ(buddy.free_frames(), 2048u);
  EXPECT_GE(buddy.FreeBlocksOfOrder(10), 1u);
}

TEST(Buddy, AllocateAtExactRange) {
  BuddyAllocator buddy(4096);
  EXPECT_TRUE(buddy.AllocateAt(1000, 100));
  EXPECT_FALSE(buddy.IsRangeFree(1000, 100));
  EXPECT_TRUE(buddy.IsRangeFree(0, 1000));
  EXPECT_TRUE(buddy.IsRangeFree(1100, 100));
  buddy.CheckInvariants();
  buddy.Free(1000, 100);
  EXPECT_EQ(buddy.free_frames(), 4096u);
  buddy.CheckInvariants();
}

TEST(Buddy, AllocateAtFailsOnConflict) {
  BuddyAllocator buddy(4096);
  ASSERT_TRUE(buddy.AllocateAt(128, 64));
  EXPECT_FALSE(buddy.AllocateAt(100, 64));  // overlaps [128,192)
  EXPECT_FALSE(buddy.AllocateAt(191, 1));
  EXPECT_TRUE(buddy.AllocateAt(192, 1));
  buddy.CheckInvariants();
}

TEST(Buddy, AllocateAtOutOfRangeFails) {
  BuddyAllocator buddy(256);
  EXPECT_FALSE(buddy.AllocateAt(250, 10));
  EXPECT_TRUE(buddy.AllocateAt(250, 6));
}

TEST(Buddy, AllocateAtUnalignedHugeSpan) {
  BuddyAllocator buddy(4096);
  // A huge-page-sized range at an arbitrary (non-block-aligned) offset.
  EXPECT_TRUE(buddy.AllocateAt(700, kPagesPerHuge));
  buddy.CheckInvariants();
  EXPECT_EQ(buddy.allocated_frames(), kPagesPerHuge);
}

TEST(Buddy, FmfiZeroWhenUnfragmented) {
  BuddyAllocator buddy(1 << 14);
  EXPECT_DOUBLE_EQ(buddy.Fmfi(kHugeOrder), 0.0);
}

TEST(Buddy, FmfiOneWhenOnlySplinters) {
  BuddyAllocator buddy(2048);
  // Pin one frame in every huge-aligned span.
  for (uint64_t f = 256; f < 2048; f += 512) {
    ASSERT_TRUE(buddy.AllocateAt(f, 1));
  }
  EXPECT_DOUBLE_EQ(buddy.Fmfi(kHugeOrder), 1.0);
  EXPECT_LT(buddy.Fmfi(0), 1e-9);  // all free memory usable at order 0
}

TEST(Buddy, FmfiFullMemoryIsOne) {
  BuddyAllocator buddy(64);
  ASSERT_TRUE(buddy.AllocateAt(0, 64));
  EXPECT_DOUBLE_EQ(buddy.Fmfi(0), 1.0);
}

TEST(Buddy, LargestFreeOrder) {
  BuddyAllocator buddy(2048);
  EXPECT_EQ(buddy.LargestFreeOrder(), 10);
  ASSERT_TRUE(buddy.AllocateAt(1024, 1));  // split the top block
  EXPECT_EQ(buddy.LargestFreeOrder(), 10);  // [0,1024) still whole
  ASSERT_TRUE(buddy.AllocateAt(0, 1));
  EXPECT_LT(buddy.LargestFreeOrder(), 10);
}

TEST(Buddy, MutationEpochAdvances) {
  BuddyAllocator buddy(256);
  const uint64_t e0 = buddy.mutation_epoch();
  const uint64_t f = buddy.Allocate(0);
  EXPECT_GT(buddy.mutation_epoch(), e0);
  const uint64_t e1 = buddy.mutation_epoch();
  buddy.Free(f, 1);
  EXPECT_GT(buddy.mutation_epoch(), e1);
}

TEST(Buddy, RandomizedSelectionStaysCorrect) {
  BuddyAllocator buddy(1 << 13, /*selection_seed=*/99);
  std::vector<uint64_t> got;
  for (int i = 0; i < 64; ++i) {
    const uint64_t f = buddy.Allocate(3);
    ASSERT_NE(f, kInvalidFrame);
    EXPECT_EQ(f % 8, 0u);
    got.push_back(f);
  }
  buddy.CheckInvariants();
  for (uint64_t f : got) {
    buddy.Free(f, 8);
  }
  EXPECT_EQ(buddy.free_frames(), 1ull << 13);
  buddy.CheckInvariants();
}

// Differential property test: random alloc/free/alloc-at sequences tracked
// against a per-frame ownership map.  Frames must never be double-allocated
// and totals must always balance.
class BuddyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuddyPropertyTest, RandomOpsPreserveInvariants) {
  constexpr uint64_t kFrames = 1 << 12;
  base::Rng rng(GetParam());
  BuddyAllocator buddy(kFrames);
  // Live allocations: first frame -> count.
  std::map<uint64_t, uint64_t> live;
  uint64_t live_frames = 0;

  for (int step = 0; step < 2000; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      const int order = static_cast<int>(rng.NextBelow(kMaxOrder));
      const uint64_t f = buddy.Allocate(order);
      if (f != kInvalidFrame) {
        const uint64_t count = 1ull << order;
        // No overlap with any live allocation.
        for (const auto& [lf, lc] : live) {
          ASSERT_TRUE(f + count <= lf || lf + lc <= f)
              << "overlap at step " << step;
        }
        live.emplace(f, count);
        live_frames += count;
      }
    } else if (dice < 0.6) {
      const uint64_t f = rng.NextBelow(kFrames);
      const uint64_t count = 1 + rng.NextBelow(64);
      if (buddy.AllocateAt(f, count)) {
        for (const auto& [lf, lc] : live) {
          ASSERT_TRUE(f + count <= lf || lf + lc <= f);
        }
        live.emplace(f, count);
        live_frames += count;
      }
    } else if (!live.empty()) {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      buddy.Free(it->first, it->second);
      live_frames -= it->second;
      live.erase(it);
    }
    ASSERT_EQ(buddy.free_frames() + live_frames, kFrames) << "step " << step;
  }
  buddy.CheckInvariants();
  // Free everything; the allocator must return to a fully-merged state.
  for (const auto& [f, c] : live) {
    buddy.Free(f, c);
  }
  buddy.CheckInvariants();
  EXPECT_EQ(buddy.free_frames(), kFrames);
  EXPECT_EQ(buddy.LargestFreeOrder(), kMaxOrder - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace

namespace {

TEST(Buddy, BlocksAvailableCountsLargerBlocks) {
  BuddyAllocator buddy(4096);  // pristine: 2x order-10 + ... depends on size
  // 4096 frames = 2 order-10 + 0 others => 8 huge (order-9) blocks.
  EXPECT_EQ(buddy.BlocksAvailable(9), 8u);
  EXPECT_EQ(buddy.BlocksAvailable(10), 4u);
  ASSERT_TRUE(buddy.AllocateAt(0, 512));
  EXPECT_EQ(buddy.BlocksAvailable(9), 7u);
  // Splintering a block below order 9 removes it from availability.
  ASSERT_TRUE(buddy.AllocateAt(512 + 256, 1));
  EXPECT_EQ(buddy.BlocksAvailable(9), 6u);
}

// A visitor returning false ends the visit right after that callback; a
// void visitor sees everything.
TEST(Buddy, FreeVisitorsStopWhenToldTo) {
  BuddyAllocator buddy(4096);
  for (uint64_t frame = 100; frame < 4096; frame += 700) {
    ASSERT_TRUE(buddy.AllocateAt(frame, 1));
  }
  std::vector<std::pair<uint64_t, uint64_t>> runs;
  buddy.ForEachFreeRun(
      [&](uint64_t frame, uint64_t count) { runs.emplace_back(frame, count); });
  ASSERT_EQ(runs.size(), 7u);
  std::vector<std::pair<uint64_t, int>> blocks;
  buddy.ForEachFreeBlock(
      [&](uint64_t head, int order) { blocks.emplace_back(head, order); });
  ASSERT_GT(blocks.size(), runs.size());
  for (size_t stop = 1; stop <= 3; ++stop) {
    std::vector<std::pair<uint64_t, uint64_t>> seen_runs;
    buddy.ForEachFreeRun([&](uint64_t frame, uint64_t count) {
      seen_runs.emplace_back(frame, count);
      return seen_runs.size() < stop;
    });
    EXPECT_EQ(seen_runs, decltype(runs)(runs.begin(), runs.begin() + stop));
    std::vector<std::pair<uint64_t, int>> seen_blocks;
    buddy.ForEachFreeBlock([&](uint64_t head, int order) {
      seen_blocks.emplace_back(head, order);
      return seen_blocks.size() < stop;
    });
    EXPECT_EQ(seen_blocks,
              decltype(blocks)(blocks.begin(), blocks.begin() + stop));
  }
}

}  // namespace

namespace {

using Block = std::pair<uint64_t, int>;
using Span = std::pair<uint64_t, uint64_t>;
using TraceRecord = std::tuple<trace::EventKind, base::Layer, int16_t,
                               uint64_t, uint64_t, uint64_t>;

template <typename Buddy>
std::vector<Block> FreeBlocks(const Buddy& buddy) {
  std::vector<Block> blocks;
  buddy.ForEachFreeBlock(
      [&](uint64_t head, int order) { blocks.emplace_back(head, order); });
  return blocks;
}

// The reference's blocks with address-adjacent ones merged: its maximal
// free runs.
std::vector<Span> MergedRuns(const std::vector<Block>& blocks) {
  std::vector<Span> runs;
  for (const auto& [head, order] : blocks) {
    const uint64_t size = 1ull << order;
    if (!runs.empty() && runs.back().first + runs.back().second == head) {
      runs.back().second += size;
    } else {
      runs.emplace_back(head, size);
    }
  }
  return runs;
}

// Events recorded since the last drain; clears the ring.
std::vector<TraceRecord> Drain(trace::Tracer& tracer) {
  EXPECT_EQ(tracer.dropped(), 0u);
  std::vector<TraceRecord> events;
  tracer.ForEach([&](const trace::Event& e) {
    events.emplace_back(e.kind, e.layer, e.vm_id, e.a, e.b, e.c);
  });
  tracer.Enable(tracer.capacity());
  return events;
}

// Random op sequences applied to the bitmap allocator and the map/set
// reference in lockstep.  After every op both must agree on the op's
// result and on every observable: counters, mutation epoch, per-order
// counts, FMFI, the block list, the run list and the trace stream.
// Parameters: (op seed, selection seed, frame count).
class BuddyDifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, uint64_t, uint64_t>> {
 protected:
  void SetUp() override {
    const auto [seed, selection_seed, frames] = GetParam();
    rng_ = base::Rng(seed);
    frames_ = frames;
    buddy_ = std::make_unique<BuddyAllocator>(frames, selection_seed);
    ref_ = std::make_unique<reference_buddy::BuddyAllocator>(frames,
                                                             selection_seed);
    tracer_.Enable(4096);
    ref_tracer_.Enable(4096);
    buddy_->SetTracer(&tracer_, base::Layer::kHost, 7);
    ref_->SetTracer(&ref_tracer_, base::Layer::kHost, 7);
  }

  void ExpectSameState() {
    ASSERT_EQ(buddy_->free_frames(), ref_->free_frames());
    ASSERT_EQ(buddy_->mutation_epoch(), ref_->mutation_epoch());
    for (int o = 0; o < kMaxOrder; ++o) {
      ASSERT_EQ(buddy_->FreeBlocksOfOrder(o), ref_->FreeBlocksOfOrder(o))
          << "order " << o;
    }
    ASSERT_EQ(buddy_->Fmfi(kHugeOrder), ref_->Fmfi(kHugeOrder));
    ASSERT_EQ(buddy_->BlocksAvailable(kHugeOrder),
              ref_->BlocksAvailable(kHugeOrder));
    ASSERT_EQ(buddy_->LargestFreeOrder(), ref_->LargestFreeOrder());
    const std::vector<Block> ref_blocks = FreeBlocks(*ref_);
    ASSERT_EQ(FreeBlocks(*buddy_), ref_blocks);
    std::vector<Span> runs;
    buddy_->ForEachFreeRun([&](uint64_t frame, uint64_t count) {
      runs.emplace_back(frame, count);
    });
    ASSERT_EQ(runs, MergedRuns(ref_blocks));
    ASSERT_EQ(Drain(tracer_), Drain(ref_tracer_));
    buddy_->CheckInvariants();
    ref_->CheckInvariants();
  }

  // A random live allocation, removed from the live list.
  Span TakeLive() {
    const size_t i = static_cast<size_t>(rng_.NextBelow(live_.size()));
    const Span taken = live_[i];
    live_[i] = live_.back();
    live_.pop_back();
    return taken;
  }

  base::Rng rng_{1};
  uint64_t frames_ = 0;
  std::unique_ptr<BuddyAllocator> buddy_;
  std::unique_ptr<reference_buddy::BuddyAllocator> ref_;
  trace::Tracer tracer_;
  trace::Tracer ref_tracer_;
  std::vector<Span> live_;  // allocated (first frame, count)
};

TEST_P(BuddyDifferentialTest, MatchesReferenceOpForOp) {
  ASSERT_NO_FATAL_FAILURE(ExpectSameState());
  for (int step = 0; step < 2000; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    // Alternate filling and draining phases so the sequence visits nearly
    // full, fragmented states as well as merged ones.
    const bool filling = (step / 400) % 2 == 0;
    const uint64_t free_pct = filling ? 2 : 30;
    const uint64_t shuffled_pct = filling ? 2 : 8;
    const uint64_t dice = rng_.NextBelow(100);
    if (!live_.empty() && dice < free_pct) {
      const Span span = TakeLive();
      buddy_->Free(span.first, span.second);
      ref_->Free(span.first, span.second);
    } else if (!live_.empty() && dice < free_pct + shuffled_pct) {
      // Free up to 64 frames of one allocation one at a time in shuffled
      // order, then the rest as one range.
      const Span span = TakeLive();
      const uint64_t singles = std::min<uint64_t>(span.second, 64);
      std::vector<uint64_t> order;
      for (uint64_t i = 0; i < singles; ++i) {
        order.push_back(span.first + i);
      }
      rng_.Shuffle(order);
      for (uint64_t f : order) {
        buddy_->Free(f, 1);
        ref_->Free(f, 1);
        ASSERT_NO_FATAL_FAILURE(ExpectSameState());
      }
      if (span.second > singles) {
        buddy_->Free(span.first + singles, span.second - singles);
        ref_->Free(span.first + singles, span.second - singles);
      }
    } else if (dice < free_pct + shuffled_pct + 30) {
      const int order = rng_.NextBelow(2) == 0
                            ? 0
                            : static_cast<int>(rng_.NextBelow(kMaxOrder));
      const uint64_t got = buddy_->Allocate(order);
      ASSERT_EQ(got, ref_->Allocate(order)) << "order " << order;
      if (got != kInvalidFrame) {
        live_.emplace_back(got, 1ull << order);
      }
    } else if (dice < free_pct + shuffled_pct + 55) {
      uint64_t frame;
      uint64_t count;
      const uint64_t kind = rng_.NextBelow(3);
      if (kind == 0) {  // aligned block
        const int order = static_cast<int>(rng_.NextBelow(kMaxOrder));
        count = 1ull << order;
        frame = rng_.NextBelow(frames_) & ~(count - 1);
      } else if (kind == 1 || live_.empty()) {  // unaligned span
        frame = rng_.NextBelow(frames_);
        count = 1 + rng_.NextBelow(rng_.NextBelow(2) == 0 ? 8 : 700);
      } else {  // overlaps a live allocation: must fail
        const Span& span = live_[rng_.NextBelow(live_.size())];
        count = 1 + rng_.NextBelow(600);
        frame = span.first + rng_.NextBelow(span.second);
        frame -= std::min(frame, rng_.NextBelow(count));
      }
      const bool ok = buddy_->AllocateAt(frame, count);
      ASSERT_EQ(ok, ref_->AllocateAt(frame, count))
          << "frame " << frame << " count " << count;
      if (ok) {
        live_.emplace_back(frame, count);
      }
    } else {
      const uint64_t frame = rng_.NextBelow(frames_ + 8);
      const uint64_t count = rng_.NextBelow(rng_.NextBelow(2) == 0 ? 4 : 1100);
      ASSERT_EQ(buddy_->IsRangeFree(frame, count),
                ref_->IsRangeFree(frame, count))
          << "frame " << frame << " count " << count;
      ASSERT_EQ(buddy_->IsFrameFree(frame), ref_->IsFrameFree(frame))
          << "frame " << frame;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameState());
  }
  // Freeing everything must merge both back to the pristine decomposition.
  while (!live_.empty()) {
    const Span span = TakeLive();
    buddy_->Free(span.first, span.second);
    ref_->Free(span.first, span.second);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSameState());
  EXPECT_EQ(buddy_->free_frames(), frames_);
}

// The second frame count spans several summary words.
INSTANTIATE_TEST_SUITE_P(
    SeedsBySelectionByFrames, BuddyDifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0, 99),
                       ::testing::Values(4096 + 512 + 3, 3 * 4096 + 517)));

}  // namespace
