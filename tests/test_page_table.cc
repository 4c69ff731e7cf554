// Tests for the two-granularity page table.
#include "mmu/page_table.h"

#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/types.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;
using base::PageSize;
using mmu::PageTable;

TEST(PageTable, EmptyLookupFails) {
  PageTable table;
  EXPECT_FALSE(table.Lookup(0).has_value());
  EXPECT_FALSE(table.Lookup(123456).has_value());
  EXPECT_EQ(table.mapped_pages(), 0u);
}

TEST(PageTable, MapBaseAndLookup) {
  PageTable table;
  table.MapBase(1000, 77);
  const auto t = table.Lookup(1000);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->frame, 77u);
  EXPECT_EQ(t->size, PageSize::kBase);
  EXPECT_EQ(table.mapped_base_pages(), 1u);
  EXPECT_FALSE(table.Lookup(1001).has_value());
  table.CheckInvariants();
}

TEST(PageTable, MapHugeAndLookupEveryOffset) {
  PageTable table;
  table.MapHuge(4, 1024);  // region 4 = vpns [2048, 2560)
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    const auto t = table.Lookup((4ull << kHugeOrder) + slot);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->frame, 1024u + slot);
    EXPECT_EQ(t->size, PageSize::kHuge);
  }
  EXPECT_EQ(table.huge_leaves(), 1u);
  EXPECT_EQ(table.mapped_pages(), kPagesPerHuge);
  table.CheckInvariants();
}

TEST(PageTable, UnmapBaseReturnsFrame) {
  PageTable table;
  table.MapBase(5, 500);
  EXPECT_EQ(table.UnmapBase(5), 500u);
  EXPECT_FALSE(table.Lookup(5).has_value());
  EXPECT_EQ(table.mapped_pages(), 0u);
  table.CheckInvariants();
}

TEST(PageTable, UnmapHugeReturnsFirstFrame) {
  PageTable table;
  table.MapHuge(2, 2048);
  EXPECT_EQ(table.UnmapHuge(2), 2048u);
  EXPECT_FALSE(table.IsHugeMapped(2));
  EXPECT_EQ(table.huge_leaves(), 0u);
}

TEST(PageTable, CanPromoteInPlaceRequiresAll) {
  PageTable table;
  const uint64_t region = 3;
  const uint64_t base_vpn = region << kHugeOrder;
  // Contiguous, aligned, in order — but one page missing.
  for (uint32_t slot = 0; slot < kPagesPerHuge - 1; ++slot) {
    table.MapBase(base_vpn + slot, 512 + slot);
  }
  EXPECT_FALSE(table.CanPromoteInPlace(region));
  table.MapBase(base_vpn + kPagesPerHuge - 1, 512 + kPagesPerHuge - 1);
  EXPECT_TRUE(table.CanPromoteInPlace(region));
}

TEST(PageTable, CanPromoteInPlaceRejectsUnalignedAnchor) {
  PageTable table;
  const uint64_t base_vpn = 7ull << kHugeOrder;
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    table.MapBase(base_vpn + slot, 100 + slot);  // anchor 100 not aligned
  }
  EXPECT_FALSE(table.CanPromoteInPlace(7));
}

TEST(PageTable, CanPromoteInPlaceRejectsScattered) {
  PageTable table;
  const uint64_t base_vpn = 9ull << kHugeOrder;
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    table.MapBase(base_vpn + slot, 1024 + slot * 2);  // strided
  }
  EXPECT_FALSE(table.CanPromoteInPlace(9));
}

TEST(PageTable, PromoteInPlaceKeepsTranslations) {
  PageTable table;
  const uint64_t region = 5;
  const uint64_t base_vpn = region << kHugeOrder;
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    table.MapBase(base_vpn + slot, 1536 + slot);
  }
  table.PromoteInPlace(region);
  EXPECT_TRUE(table.IsHugeMapped(region));
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    const auto t = table.Lookup(base_vpn + slot);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->frame, 1536u + slot);  // identical frames, new granularity
    EXPECT_EQ(t->size, PageSize::kHuge);
  }
  table.CheckInvariants();
}

TEST(PageTable, PromoteWithMigrationRemapsAndReportsOldFrames) {
  PageTable table;
  const uint64_t region = 6;
  const uint64_t base_vpn = region << kHugeOrder;
  // Scattered sparse population.
  std::set<uint64_t> old_frames;
  for (uint32_t slot = 0; slot < 100; ++slot) {
    table.MapBase(base_vpn + slot, 9000 + slot * 3);
    old_frames.insert(9000 + slot * 3);
  }
  const auto old_pages = table.PromoteWithMigration(region, 4096);
  EXPECT_EQ(old_pages.size(), 100u);
  for (const auto& [slot, frame] : old_pages) {
    EXPECT_LT(slot, 100u);
    EXPECT_TRUE(old_frames.count(frame));
  }
  EXPECT_TRUE(table.IsHugeMapped(region));
  EXPECT_EQ(table.Lookup(base_vpn)->frame, 4096u);
  EXPECT_EQ(table.Lookup(base_vpn + 511)->frame, 4096u + 511);
  table.CheckInvariants();
}

TEST(PageTable, DemoteSplitsOntoSameFrames) {
  PageTable table;
  table.MapHuge(8, 512);
  table.Demote(8);
  EXPECT_FALSE(table.IsHugeMapped(8));
  EXPECT_EQ(table.PresentBasePages(8), kPagesPerHuge);
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    const auto t = table.Lookup((8ull << kHugeOrder) + slot);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->frame, 512u + slot);
    EXPECT_EQ(t->size, PageSize::kBase);
  }
  table.CheckInvariants();
}

TEST(PageTable, PromoteDemoteRoundTrip) {
  PageTable table;
  const uint64_t region = 11;
  const uint64_t base_vpn = region << kHugeOrder;
  for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
    table.MapBase(base_vpn + slot, 2048 + slot);
  }
  table.PromoteInPlace(region);
  table.Demote(region);
  EXPECT_TRUE(table.CanPromoteInPlace(region));  // round trip
  EXPECT_EQ(table.mapped_base_pages(), kPagesPerHuge);
  table.CheckInvariants();
}

TEST(PageTable, AccessCountersBumpAndDecay) {
  PageTable table;
  table.MapBase(0, 1);
  table.BumpAccess(0);
  table.BumpAccess(0);
  table.BumpAccess(0);
  EXPECT_EQ(table.AccessCount(0), 3u);
  table.DecayAccessCounts();
  EXPECT_EQ(table.AccessCount(0), 1u);
  table.DecayAccessCounts();
  EXPECT_EQ(table.AccessCount(0), 0u);
  EXPECT_EQ(table.AccessCount(99), 0u);
}

// Aging is an epoch bump with the halvings applied on read and on bump;
// it must equal halving every counter eagerly.  Decay runs cross the
// 64-halving point where a lazy shift must clamp to 0 (and a bare shift
// by 64 would be undefined), and the table grows mid-run under a nonzero
// epoch.
class AccessAgingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AccessAgingTest, LazyDecayMatchesEagerHalving) {
  base::Rng rng(GetParam());
  PageTable table;
  std::map<uint64_t, uint64_t> eager;  // region -> count, halved per decay
  constexpr std::array<uint64_t, 6> kRuns = {1, 2, 63, 64, 65, 130};
  constexpr int kGrowStep = 600;
  for (int step = 0; step < 1500; ++step) {
    // Regions stay inside one 64-region slice at a guest table's first
    // region until kGrowStep, then reach down to region 0 and thousands of
    // regions up: growth both ways with decays already counted.
    const uint64_t lo = step < kGrowStep ? 2048 : 0;
    const uint64_t span = step < kGrowStep ? 64 : 5000;
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 70) {
      // Bursts make counters large enough to survive many halvings.
      const uint64_t region = lo + rng.NextBelow(span);
      const uint64_t bumps = rng.NextBelow(4) == 0 ? 1 + rng.NextBelow(5000)
                                                   : 1;
      for (uint64_t b = 0; b < bumps; ++b) {
        table.BumpAccess(region);
      }
      eager[region] += bumps;
    } else if (roll < 80) {
      // Half of the regions are mapped: mapping state must not touch the
      // counters.
      const uint64_t region = lo + rng.NextBelow(span);
      const uint64_t vpn = region << kHugeOrder;
      if (table.Lookup(vpn).has_value()) {
        table.UnmapBase(vpn);
      } else if (!table.IsHugeMapped(region)) {
        table.MapBase(vpn, region);
      }
    } else {
      const uint64_t run =
          rng.NextBelow(3) == 0 ? kRuns[rng.NextBelow(kRuns.size())] : 1;
      for (uint64_t d = 0; d < run; ++d) {
        table.DecayAccessCounts();
        for (auto& [region, count] : eager) {
          count >>= 1;
        }
      }
    }
    for (uint64_t region = lo; region < lo + span;
         region += 1 + region / 64) {
      const auto it = eager.find(region);
      ASSERT_EQ(table.AccessCount(region), it == eager.end() ? 0 : it->second)
          << "step " << step << " region " << region;
    }
    for (const auto& [region, count] : eager) {
      ASSERT_EQ(table.AccessCount(region), count)
          << "step " << step << " region " << region;
    }
    ASSERT_EQ(table.AccessCount(1ull << 30), 0u);  // beyond the table
  }
  table.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccessAgingTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(PageTable, ForEachHugeVisitsAll) {
  PageTable table;
  table.MapHuge(1, 512);
  table.MapHuge(4, 2048);
  table.MapBase(0, 3);
  std::set<uint64_t> regions;
  table.ForEachHuge([&](uint64_t region, uint64_t frame) {
    regions.insert(region);
    EXPECT_EQ(frame % kPagesPerHuge, 0u);
  });
  EXPECT_EQ(regions, (std::set<uint64_t>{1, 4}));
}

TEST(PageTable, ForEachBaseRegionReportsCounts) {
  PageTable table;
  table.MapBase(0, 1);
  table.MapBase(1, 2);
  table.MapBase(513, 5);
  std::map<uint64_t, uint32_t> seen;
  table.ForEachBaseRegion(
      [&](uint64_t region, uint32_t present) { seen[region] = present; });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 2u);
  EXPECT_EQ(seen[1], 1u);
}

TEST(PageTable, BaseFrameQueries) {
  PageTable table;
  table.MapBase(5, 42);
  EXPECT_EQ(table.BaseFrame(0, 5).value(), 42u);
  EXPECT_FALSE(table.BaseFrame(0, 6).has_value());
  EXPECT_FALSE(table.BaseFrame(1, 5).has_value());
}

TEST(PageTable, GenerationStartsAtZeroAndBumpsOnEveryMutation) {
  PageTable table;
  const uint64_t region = 12;
  const uint64_t base_vpn = region << kHugeOrder;
  EXPECT_EQ(table.generation(region), 0u);
  EXPECT_EQ(table.generation(1u << 20), 0u);  // unseen region reads as zero

  uint64_t gen = table.generation(region);
  table.MapBase(base_vpn, 1024);
  EXPECT_GT(table.generation(region), gen);

  gen = table.generation(region);
  table.UnmapBase(base_vpn);
  EXPECT_GT(table.generation(region), gen);

  gen = table.generation(region);
  table.MapHuge(region, 2048);
  EXPECT_GT(table.generation(region), gen);

  gen = table.generation(region);
  table.Demote(region);
  EXPECT_GT(table.generation(region), gen);

  gen = table.generation(region);
  table.PromoteInPlace(region);
  EXPECT_GT(table.generation(region), gen);

  gen = table.generation(region);
  table.UnmapHuge(region);
  EXPECT_GT(table.generation(region), gen);
}

TEST(PageTable, PromoteWithMigrationBumpsGeneration) {
  PageTable table;
  const uint64_t region = 2;
  table.MapBase((region << kHugeOrder) + 7, 999);
  const uint64_t gen = table.generation(region);
  table.PromoteWithMigration(region, 4096);
  EXPECT_GT(table.generation(region), gen);
}

TEST(PageTable, GenerationSurvivesFullUnmap) {
  // Slots are never recycled: a region's generation must keep growing across
  // unmap/remap cycles so a TLB entry stamped before the unmap can never
  // alias a later remap of the same region.
  PageTable table;
  const uint64_t region = 3;
  const uint64_t base_vpn = region << kHugeOrder;
  table.MapBase(base_vpn, 100);
  table.UnmapBase(base_vpn);
  const uint64_t gen_after_unmap = table.generation(region);
  EXPECT_GT(gen_after_unmap, 0u);
  table.MapBase(base_vpn, 200);
  EXPECT_GT(table.generation(region), gen_after_unmap);
  table.CheckInvariants();
}

TEST(PageTable, GenerationIsPerRegion) {
  PageTable table;
  table.MapBase(0, 1);  // region 0
  EXPECT_GT(table.generation(0), 0u);
  EXPECT_EQ(table.generation(1), 0u);
  table.MapHuge(5, 512);
  EXPECT_EQ(table.generation(1), 0u);
  EXPECT_GT(table.generation(5), 0u);
}

TEST(PageTable, LookupAndReadsDoNotBumpGeneration) {
  PageTable table;
  table.MapBase(10, 50);
  const uint64_t gen = table.generation(0);
  table.Lookup(10);
  table.BaseFrame(0, 10);
  table.PresentBasePages(0);
  table.IsHugeMapped(0);
  table.BumpAccess(0);  // access-bit tracking is not a mapping mutation
  EXPECT_EQ(table.generation(0), gen);
}

TEST(PageTableDeathTest, VisitorThatMutatesAborts) {
  PageTable table;
  table.MapHuge(1, 512);
  table.MapBase(3ull << kHugeOrder, 7);
  const auto map_inside_visit = [&] {
    table.ForEachHuge([&](uint64_t, uint64_t) { table.MapBase(0, 1); });
  };
  const auto unmap_inside_visit = [&] {
    table.ForEachBaseRegion([&](uint64_t region, uint32_t) {
      table.UnmapBase(region << kHugeOrder);
    });
  };
  EXPECT_DEATH(map_inside_visit(), "mutated the table");
  EXPECT_DEATH(unmap_inside_visit(), "mutated the table");
}

// Property: random map/unmap/promote/demote sequences keep Lookup and the
// two region visitors consistent with a reference map.  The regions span
// four 64-region occupancy words above a guest table's first region, word
// edges included.  The first kGrowStep steps stay inside the third word,
// where the table starts, so it grows both down and up mid-run.
class PageTablePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageTablePropertyTest, MatchesReference) {
  base::Rng rng(GetParam());
  PageTable table;
  constexpr uint64_t kFirst = 2048;  // guest VA page 2^20
  constexpr std::array<uint64_t, 12> kRegions = {
      kFirst + 128, kFirst + 190, kFirst + 191, kFirst,       kFirst + 5,
      kFirst + 63,  kFirst + 64,  kFirst + 65,  kFirst + 100, kFirst + 127,
      kFirst + 192, kFirst + 255};
  constexpr uint64_t kWordZeroRegions = 3;  // kRegions[0..3): the third word
  constexpr int kGrowStep = 150;
  // Reference: per-vpn frame (base granularity), or region-level huge.
  std::map<uint64_t, uint64_t> ref_base;  // vpn -> frame
  std::map<uint64_t, uint64_t> ref_huge;  // region -> first frame
  uint64_t next_block = 0;                // allocator of fresh aligned blocks
  int in_place_promotions = 0;
  int migrations = 0;
  const auto pages_of = [&](uint64_t region) {
    return std::make_pair(ref_base.lower_bound(region << kHugeOrder),
                          ref_base.lower_bound((region + 1) << kHugeOrder));
  };
  const auto empty = [&](uint64_t region) {
    const auto [begin, end] = pages_of(region);
    return ref_huge.count(region) == 0 && begin == end;
  };

  for (int step = 0; step < 800; ++step) {
    const uint64_t choices =
        step < kGrowStep ? kWordZeroRegions : kRegions.size();
    const uint64_t region = kRegions[rng.NextBelow(choices)];
    const uint64_t first_vpn = region << kHugeOrder;
    const auto [begin, end] = pages_of(region);
    const double dice = rng.NextDouble();
    if (dice < 0.3) {  // map a base page if possible
      const uint64_t vpn = first_vpn + rng.NextBelow(kPagesPerHuge);
      if (ref_huge.count(region) == 0 && ref_base.count(vpn) == 0) {
        const uint64_t frame = 1000000 + step;
        table.MapBase(vpn, frame);
        ref_base[vpn] = frame;
      }
    } else if (dice < 0.4) {  // map huge if region empty
      if (empty(region)) {
        const uint64_t frame = (++next_block) * kPagesPerHuge;
        table.MapHuge(region, frame);
        ref_huge[region] = frame;
      }
    } else if (dice < 0.45) {  // fill an empty region contiguously
      if (empty(region)) {
        const uint64_t frame = (++next_block) * kPagesPerHuge;
        for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
          table.MapBase(first_vpn + slot, frame + slot);
          ref_base[first_vpn + slot] = frame + slot;
        }
      }
    } else if (dice < 0.55) {  // unmap the region's lowest base page
      if (begin != end) {
        EXPECT_EQ(table.UnmapBase(begin->first), begin->second);
        ref_base.erase(begin);
      }
    } else if (dice < 0.6) {  // unmap every base page of the region
      for (auto it = begin; it != end; ++it) {
        EXPECT_EQ(table.UnmapBase(it->first), it->second);
      }
      ref_base.erase(begin, end);
    } else if (dice < 0.68) {  // promote in place when eligible
      // Eligible: all 512 slots present at anchor + slot, anchor aligned.
      bool eligible = static_cast<uint64_t>(std::distance(begin, end)) ==
                      kPagesPerHuge;
      const uint64_t anchor = eligible ? begin->second : 0;
      for (auto it = begin; eligible && it != end; ++it) {
        eligible = it->second == anchor + (it->first - first_vpn);
      }
      eligible = eligible && anchor % kPagesPerHuge == 0;
      ASSERT_EQ(table.CanPromoteInPlace(region), eligible);
      if (eligible) {
        table.PromoteInPlace(region);
        ref_base.erase(begin, end);
        ref_huge[region] = anchor;
        ++in_place_promotions;
      }
    } else if (dice < 0.76) {  // migrate a base-mapped region to a new block
      if (begin != end) {
        std::vector<std::pair<uint32_t, uint64_t>> old_pages;
        for (auto it = begin; it != end; ++it) {
          old_pages.emplace_back(static_cast<uint32_t>(it->first - first_vpn),
                                 it->second);
        }
        const uint64_t frame = (++next_block) * kPagesPerHuge;
        ASSERT_EQ(table.PromoteWithMigration(region, frame), old_pages);
        ref_base.erase(begin, end);
        ref_huge[region] = frame;
        ++migrations;
      }
    } else if (dice < 0.86 && ref_huge.count(region)) {  // demote
      table.Demote(region);
      const uint64_t frame = ref_huge[region];
      ref_huge.erase(region);
      for (uint32_t slot = 0; slot < kPagesPerHuge; ++slot) {
        ref_base[first_vpn + slot] = frame + slot;
      }
    } else if (ref_huge.count(region)) {  // unmap huge
      EXPECT_EQ(table.UnmapHuge(region), ref_huge[region]);
      ref_huge.erase(region);
    }

    // Verify random probes.
    for (int probe = 0; probe < 8; ++probe) {
      const uint64_t vpn = (kRegions[rng.NextBelow(kRegions.size())]
                            << kHugeOrder) +
                           rng.NextBelow(kPagesPerHuge);
      const auto got = table.Lookup(vpn);
      const uint64_t r = vpn >> kHugeOrder;
      if (ref_huge.count(r)) {
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->frame, ref_huge[r] + (vpn & (kPagesPerHuge - 1)));
      } else if (ref_base.count(vpn)) {
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->frame, ref_base[vpn]);
      } else {
        ASSERT_FALSE(got.has_value());
      }
    }

    // Both visitors against the reference: the same regions with the same
    // frames / present counts, in ascending order.
    std::vector<std::pair<uint64_t, uint64_t>> huge_seen;
    table.ForEachHuge([&](uint64_t r, uint64_t frame) {
      huge_seen.emplace_back(r, frame);
    });
    ASSERT_EQ(huge_seen, (std::vector<std::pair<uint64_t, uint64_t>>(
                             ref_huge.begin(), ref_huge.end())));
    std::vector<std::pair<uint64_t, uint32_t>> base_seen;
    table.ForEachBaseRegion([&](uint64_t r, uint32_t present) {
      base_seen.emplace_back(r, present);
    });
    std::vector<std::pair<uint64_t, uint32_t>> base_expected;
    for (const auto& [vpn, frame] : ref_base) {
      if (base_expected.empty() ||
          base_expected.back().first != vpn >> kHugeOrder) {
        base_expected.emplace_back(vpn >> kHugeOrder, 0);
      }
      ++base_expected.back().second;
    }
    ASSERT_EQ(base_seen, base_expected);
    table.CheckInvariants();
  }
  // The run took both promotion paths and grew into the first and the last
  // bitmap word.
  EXPECT_GT(in_place_promotions, 0);
  EXPECT_GT(migrations, 0);
  EXPECT_GT(table.generation(kFirst), 0u);
  EXPECT_GT(table.generation(kRegions.back()), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageTablePropertyTest,
                         ::testing::Values(3, 14, 159, 2653));

}  // namespace
