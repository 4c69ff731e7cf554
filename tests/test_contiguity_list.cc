// Tests for the Gemini contiguity list (next-fit over maximal free extents).
#include "vmem/contiguity_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "tests/reference_contiguity_list.h"
#include "vmem/buddy_allocator.h"
#include "vmem/fragmenter.h"
#include "vmem/frame_space.h"

namespace {

using base::kPagesPerHuge;
using vmem::BuddyAllocator;
using vmem::ContiguityList;
using vmem::kInvalidFrame;
using Extent = ContiguityList::Extent;

TEST(ContiguityList, FreshMemoryIsOneExtent) {
  BuddyAllocator buddy(4096);
  ContiguityList list(&buddy);
  list.Refresh(1);
  ASSERT_EQ(list.extent_count(), 1u);
  EXPECT_EQ(list.extents()[0].frame, 0u);
  EXPECT_EQ(list.extents()[0].count, 4096u);
}

TEST(ContiguityList, PinSplitsExtents) {
  BuddyAllocator buddy(4096);
  ASSERT_TRUE(buddy.AllocateAt(2000, 1));
  ContiguityList list(&buddy);
  list.Refresh(1);
  ASSERT_EQ(list.extent_count(), 2u);
  EXPECT_EQ(list.extents()[0].count, 2000u);
  EXPECT_EQ(list.extents()[1].frame, 2001u);
  EXPECT_EQ(list.extents()[1].count, 2095u);
}

TEST(ContiguityList, FindFitBasic) {
  BuddyAllocator buddy(4096);
  ContiguityList list(&buddy);
  list.Refresh(1);
  const uint64_t f = list.FindFit(100, /*huge_aligned=*/false);
  EXPECT_EQ(f, 0u);
}

TEST(ContiguityList, FindFitHugeAlignedRoundsUp) {
  BuddyAllocator buddy(4096);
  ASSERT_TRUE(buddy.AllocateAt(0, 10));  // extent starts at 10, unaligned
  ContiguityList list(&buddy);
  list.Refresh(1);
  const uint64_t f = list.FindFit(kPagesPerHuge, /*huge_aligned=*/true);
  EXPECT_EQ(f, kPagesPerHuge);  // 512, the first aligned frame >= 10
}

TEST(ContiguityList, FindFitFailsWhenNothingFits) {
  BuddyAllocator buddy(1024);
  // Pin the middle of every huge span.
  ASSERT_TRUE(buddy.AllocateAt(256, 1));
  ASSERT_TRUE(buddy.AllocateAt(768, 1));
  ContiguityList list(&buddy);
  list.Refresh(1);
  EXPECT_EQ(list.FindFit(kPagesPerHuge, true), kInvalidFrame);
  EXPECT_NE(list.FindFit(200, false), kInvalidFrame);
}

TEST(ContiguityList, NextFitAdvancesCursor) {
  BuddyAllocator buddy(8192);
  ContiguityList list(&buddy);
  list.Refresh(1);
  const uint64_t a = list.FindFit(512, true);
  const uint64_t b = list.FindFit(512, true);
  EXPECT_NE(a, kInvalidFrame);
  EXPECT_NE(b, kInvalidFrame);
  EXPECT_EQ(b, a + 512);  // resumed where the previous search left off
}

TEST(ContiguityList, NextFitWrapsAround) {
  BuddyAllocator buddy(2048);
  ContiguityList list(&buddy);
  list.Refresh(1);
  ASSERT_EQ(list.FindFit(1500, false), 0u);
  // Cursor is at 1500; a 1000-frame request only fits before the cursor,
  // so the search must wrap.
  list.Refresh(1);
  const uint64_t f = list.FindFit(1000, false);
  EXPECT_EQ(f, 0u);
}

TEST(ContiguityList, LargestExtent) {
  BuddyAllocator buddy(4096);
  ASSERT_TRUE(buddy.AllocateAt(1000, 1));
  ASSERT_TRUE(buddy.AllocateAt(1500, 1));
  ContiguityList list(&buddy);
  list.Refresh(1);
  const auto largest = list.LargestExtent();
  EXPECT_EQ(largest.frame, 1501u);
  EXPECT_EQ(largest.count, 4096u - 1501);
}

TEST(ContiguityList, LargestExtentEmptyWhenFull) {
  BuddyAllocator buddy(64);
  ASSERT_TRUE(buddy.AllocateAt(0, 64));
  ContiguityList list(&buddy);
  list.Refresh(1);
  EXPECT_EQ(list.LargestExtent().count, 0u);
}

TEST(ContiguityList, RefreshIsCachedUntilMutation) {
  BuddyAllocator buddy(4096);
  ContiguityList list(&buddy);
  list.Refresh(1);
  ASSERT_EQ(list.extent_count(), 1u);
  // No mutation: refresh must not rebuild (observable via unchanged view
  // even though we cannot probe internals — verify it stays correct).
  list.Refresh(1);
  EXPECT_EQ(list.extent_count(), 1u);
  ASSERT_TRUE(buddy.AllocateAt(100, 1));
  list.Refresh(1);
  EXPECT_EQ(list.extent_count(), 2u);
}

TEST(ContiguityList, ExtentsMergeAcrossBuddyBlockBoundaries) {
  BuddyAllocator buddy(8192);
  // Allocate and free in a pattern that leaves adjacent blocks of
  // different orders: the list must present them as one extent.
  const uint64_t f = buddy.Allocate(0);
  ContiguityList list(&buddy);
  list.Refresh(1);
  buddy.Free(f, 1);
  list.Refresh(1);
  ASSERT_EQ(list.extent_count(), 1u);
  EXPECT_EQ(list.extents()[0].count, 8192u);
}

// Runs of 100, 300, 700 and 2000 frames, pinned apart.
void PinRunsOf100To2000(BuddyAllocator& buddy) {
  ASSERT_TRUE(buddy.AllocateAt(100, 1));    // [0, 100)
  ASSERT_TRUE(buddy.AllocateAt(401, 1));    // [101, 401): 300
  ASSERT_TRUE(buddy.AllocateAt(1102, 1));   // [402, 1102): 700
  ASSERT_TRUE(buddy.AllocateAt(3103, 993)); // [1103, 3103): 2000
}

TEST(ContiguityList, RefreshListsOnlyRunsOfAtLeastMinFrames) {
  BuddyAllocator buddy(4096);
  PinRunsOf100To2000(buddy);
  ContiguityList list(&buddy);
  list.Refresh(300);
  EXPECT_EQ(list.extents(),
            (std::vector<Extent>{{101, 300}, {402, 700}, {1103, 2000}}));
  ContiguityList exact(&buddy);
  exact.Refresh(301);
  EXPECT_EQ(exact.extents(),
            (std::vector<Extent>{{402, 700}, {1103, 2000}}));
}

TEST(ContiguityList, RefreshKeepsAListBuiltAtOrBelowItsThreshold) {
  BuddyAllocator buddy(4096);
  PinRunsOf100To2000(buddy);
  ContiguityList list(&buddy);
  list.Refresh(1000);
  EXPECT_EQ(list.extent_count(), 1u);
  // Unchanged free map, lower threshold: the shorter runs must be listed.
  list.Refresh(200);
  EXPECT_EQ(list.extent_count(), 3u);
  // Unchanged free map, higher threshold: the list already serves it.
  list.Refresh(1000);
  EXPECT_EQ(list.extent_count(), 3u);
  EXPECT_EQ(list.FindFit(1000, false), 1103u);
  // A mutation forces the next refresh to rebuild at its own threshold.
  ASSERT_TRUE(buddy.AllocateAt(0, 1));
  list.Refresh(1000);
  EXPECT_EQ(list.extent_count(), 1u);
}

TEST(ContiguityList, FindFitBelowTheThresholdAborts) {
  BuddyAllocator buddy(4096);
  ContiguityList list(&buddy);
  EXPECT_DEATH(list.FindFit(512, true), "count >= min_frames_");
  list.Refresh(512);
  EXPECT_DEATH(list.FindFit(511, true), "count >= min_frames_");
  EXPECT_DEATH(list.Refresh(0), "min_frames > 0");
}

TEST(ContiguityList, LargestExtentOfAnEmptyListReadsTheAllocator) {
  BuddyAllocator buddy(4096);
  PinRunsOf100To2000(buddy);
  ContiguityList list(&buddy);
  list.Refresh(4096);
  EXPECT_EQ(list.extent_count(), 0u);
  EXPECT_EQ(list.LargestExtent(), (Extent{1103, 2000}));
  // No run reaches 128 frames: every run is visited, and the first of the
  // longest wins, as in the full list.
  BuddyAllocator short_runs(1024);
  for (uint64_t frame = 90; frame < 1024; frame += 91) {
    ASSERT_TRUE(short_runs.AllocateAt(frame, 1));
  }
  ContiguityList short_list(&short_runs);
  short_list.Refresh(512);
  EXPECT_EQ(short_list.LargestExtent(), (Extent{0, 90}));
}

TEST(ContiguityList, LargestExtentAfterAMutationAborts) {
  BuddyAllocator buddy(4096);
  ContiguityList list(&buddy);
  list.Refresh(512);
  ASSERT_TRUE(buddy.AllocateAt(0, 1));
  EXPECT_DEATH(list.LargestExtent(),
               "refreshed_epoch_ == buddy_->mutation_epoch\\(\\)");
}

// Gemini's host tick books from one snapshot: fits after a booking still
// read the free map as it was at the refresh, so a wrapped search can offer
// a block the tick already took (BookingManager::Book accepts it as
// booked).  Reading the live allocator would answer kInvalidFrame here.
TEST(ContiguityList, FitsReadTheSnapshotUntilTheNextRefresh) {
  BuddyAllocator buddy(1024);
  ContiguityList list(&buddy);
  list.Refresh(kPagesPerHuge);
  EXPECT_EQ(list.FindFit(kPagesPerHuge, true), 0u);
  ASSERT_TRUE(buddy.AllocateAt(0, kPagesPerHuge));
  EXPECT_EQ(list.FindFit(kPagesPerHuge, true), kPagesPerHuge);
  ASSERT_TRUE(buddy.AllocateAt(kPagesPerHuge, kPagesPerHuge));
  EXPECT_EQ(list.FindFit(kPagesPerHuge, true), 0u);
  list.Refresh(kPagesPerHuge);
  EXPECT_EQ(list.FindFit(kPagesPerHuge, true), kInvalidFrame);
}

// Fuzzed differential against the list that rebuilt from every free run
// (tests/reference_contiguity_list.h), on buddies the fragmenter leaves at
// testbed sizes: a guest of 131,072 frames at FMFI 0.8, a host of 409,600
// frames at FMFI 0.85, and a frame count that is not a multiple of 64.
// Buddy mutations (AllocateAt, Allocate, Free, sometimes none) interleave
// with Gemini's two query shapes:
//  * guest placement: Refresh(c), FindFit(c, aligned), and LargestExtent
//    when the fit fails;
//  * host tick: one Refresh(512), then several FindFit(512) with a
//    512-frame AllocateAt of each answer in between.
// Every returned frame and every LargestExtent must equal the reference's;
// both cursors start together, so a diverged cursor shows up in a later
// answer.  After each refresh the listed runs must be the reference's runs
// of at least c frames, exactly when the free map changed since the last
// refresh, and otherwise a subset of its runs that holds all of those.
TEST(ContiguityList, MatchesTheFullListOnFragmentedBeds) {
  struct Bed {
    uint64_t frames;
    double fmfi;
    uint64_t window;  // frames a rare wide free clears
  };
  const Bed kBeds[] = {
      {131072, 0.8, 5000}, {409600, 0.85, 140000}, {100003, 0.8, 4500}};
  const uint64_t kCounts[] = {1,   63,  64,  127, 128,  129,
                              256, 511, 512, 513, 4096, 131072};
  int checks = 0;
  int hits = 0;
  int misses = 0;
  int long_hits = 0;  // fits of 4096 frames or more
  for (const Bed& bed : kBeds) {
    BuddyAllocator buddy(bed.frames);
    vmem::FrameSpace frames(bed.frames);
    ASSERT_GE(vmem::Fragmenter(&buddy, &frames, 11).FragmentToTarget(bed.fmfi),
              bed.fmfi);
    ContiguityList list(&buddy);
    reference_contiguity_list::ContiguityList ref(&buddy);
    base::Rng rng(bed.frames);
    uint64_t listed_epoch = ~0ull;
    // Refreshes both lists for queries of `c` frames and checks the runs.
    const auto refresh = [&](uint64_t c) {
      ref.Refresh();
      list.Refresh(c);
      std::vector<Extent> all;
      std::vector<Extent> want;
      for (const auto& e : ref.extents()) {
        all.push_back(Extent{e.frame, e.count});
        if (e.count >= c) {
          want.push_back(all.back());
        }
      }
      const auto holds = [](const std::vector<Extent>& runs, const Extent& e) {
        return std::find(runs.begin(), runs.end(), e) != runs.end();
      };
      if (buddy.mutation_epoch() != listed_epoch) {
        ASSERT_EQ(list.extents(), want) << "min " << c;
      } else {
        for (const Extent& e : list.extents()) {
          ASSERT_TRUE(holds(all, e)) << "min " << c;
        }
        for (const Extent& e : want) {
          ASSERT_TRUE(holds(list.extents(), e)) << "min " << c;
        }
      }
      listed_epoch = buddy.mutation_epoch();
    };
    const auto fit = [&](uint64_t c, bool aligned) {
      const uint64_t want = ref.FindFit(c, aligned);
      const uint64_t got = list.FindFit(c, aligned);
      EXPECT_EQ(got, want) << bed.frames << " frames, count " << c
                           << ", aligned " << aligned;
      ++checks;
      ++(want == kInvalidFrame ? misses : hits);
      long_hits += want != kInvalidFrame && c >= 4096;
      return want;
    };
    for (int step = 0; step < 4000 && !HasFailure(); ++step) {
      // Zero to three mutations; zero exercises the cached list.
      for (uint64_t m = rng.NextBelow(4); m > 0; --m) {
        const uint64_t op = rng.NextBelow(16);
        if (op < 6) {
          buddy.AllocateAt(rng.NextBelow(bed.frames), 1 + rng.NextBelow(64));
        } else if (op < 8) {
          buddy.Allocate(static_cast<int>(rng.NextBelow(4)));
        } else {
          // Free the allocated frames (fragmenter pins included) from a
          // random one on, over a short span or, now and then, a window
          // wide enough for the bed's largest requests.
          const uint64_t lo = rng.NextBelow(bed.frames);
          const uint64_t width = op == 15 && rng.NextBelow(8) == 0
                                     ? bed.window
                                     : 1 + rng.NextBelow(2048);
          const uint64_t hi = std::min(bed.frames, lo + width);
          for (uint64_t f = lo; f < hi; ++f) {
            if (!buddy.IsFrameFree(f)) {
              buddy.Free(f, 1);
            }
          }
        }
      }
      if (rng.NextBelow(4) != 0) {
        const uint64_t c = kCounts[rng.NextBelow(std::size(kCounts))];
        const bool aligned = rng.NextBelow(4) != 0;
        refresh(c);
        if (fit(c, aligned) == kInvalidFrame) {
          const auto largest = ref.LargestExtent();
          EXPECT_EQ(list.LargestExtent(),
                    (Extent{largest.frame, largest.count}))
              << bed.frames << " frames, count " << c;
          ++checks;
        }
      } else {
        refresh(kPagesPerHuge);
        for (uint64_t k = 1 + rng.NextBelow(8); k > 0; --k) {
          const uint64_t frame = fit(kPagesPerHuge, true);
          if (frame == kInvalidFrame) {
            break;
          }
          buddy.AllocateAt(frame, kPagesPerHuge);  // fails if already taken
        }
      }
    }
  }
  EXPECT_GT(checks, 5000);
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
  EXPECT_GT(long_hits, 0);
}

}  // namespace
