// Tests for the set-associative mixed-granularity TLB.
#include "mmu/tlb.h"

#include <gtest/gtest.h>

#include <vector>

#include "base/types.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;
using base::PageSize;
using mmu::Tlb;
using mmu::TlbConfig;

TlbConfig Small(uint32_t sets, uint32_t ways) {
  TlbConfig c;
  c.sets = sets;
  c.ways = ways;
  return c;
}

TEST(Tlb, MissOnEmpty) {
  Tlb tlb(Small(4, 2));
  EXPECT_FALSE(tlb.Lookup(100).hit);
  EXPECT_EQ(tlb.misses(), 1u);
  EXPECT_EQ(tlb.hits(), 0u);
}

TEST(Tlb, HitAfterInsert) {
  Tlb tlb(Small(4, 2));
  tlb.Insert(100, PageSize::kBase, 7);
  const auto r = tlb.Lookup(100);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.size, PageSize::kBase);
  EXPECT_EQ(r.frame, 7u);
  EXPECT_EQ(tlb.hits(), 1u);
}

TEST(Tlb, BaseEntryDoesNotCoverNeighbour) {
  Tlb tlb(Small(4, 2));
  tlb.Insert(100, PageSize::kBase, 7);
  EXPECT_FALSE(tlb.Lookup(101).hit);
}

TEST(Tlb, HugeEntryCoversWholeRegion) {
  Tlb tlb(Small(4, 2));
  const uint64_t vpn = 3ull << kHugeOrder;
  tlb.Insert(vpn, PageSize::kHuge, 4096);
  for (uint64_t off : {0ull, 1ull, 255ull, 511ull}) {
    const auto r = tlb.Lookup(vpn + off);
    EXPECT_TRUE(r.hit) << off;
    EXPECT_EQ(r.size, PageSize::kHuge);
    EXPECT_EQ(r.frame, 4096u);  // block base; offset applied by the engine
  }
  EXPECT_FALSE(tlb.Lookup(vpn + kPagesPerHuge).hit);
}

TEST(Tlb, LruEvictionWithinSet) {
  Tlb tlb(Small(1, 2));  // one set, two ways
  tlb.Insert(1, PageSize::kBase, 10);
  tlb.Insert(2, PageSize::kBase, 20);
  EXPECT_TRUE(tlb.Lookup(1).hit);  // make 2 the LRU
  tlb.Insert(3, PageSize::kBase, 30);
  EXPECT_TRUE(tlb.Lookup(1).hit);
  EXPECT_FALSE(tlb.Lookup(2).hit);  // evicted
  EXPECT_TRUE(tlb.Lookup(3).hit);
}

TEST(Tlb, ReinsertUpdatesFrame) {
  Tlb tlb(Small(4, 2));
  tlb.Insert(5, PageSize::kBase, 1);
  tlb.Insert(5, PageSize::kBase, 2);
  EXPECT_EQ(tlb.Lookup(5).frame, 2u);
  EXPECT_EQ(tlb.entry_count(), 1u);  // no duplicate entries
}

TEST(Tlb, FlushDropsEverything) {
  Tlb tlb(Small(8, 4));
  for (uint64_t i = 0; i < 16; ++i) {
    tlb.Insert(i, PageSize::kBase, i);
  }
  EXPECT_GT(tlb.entry_count(), 0u);
  tlb.Flush();
  EXPECT_EQ(tlb.entry_count(), 0u);
  EXPECT_FALSE(tlb.Lookup(3).hit);
}

TEST(Tlb, ShootdownPageDropsBaseAndCoveringHuge) {
  Tlb tlb(Small(8, 4));
  const uint64_t vpn = 5ull << kHugeOrder;
  tlb.Insert(vpn + 3, PageSize::kBase, 99);
  tlb.Insert(vpn, PageSize::kHuge, 2048);
  EXPECT_EQ(tlb.ShootdownPage(vpn + 3), 2u);
  EXPECT_FALSE(tlb.Lookup(vpn + 3).hit);
  EXPECT_EQ(tlb.shootdowns(), 2u);
}

TEST(Tlb, ShootdownRangeSmall) {
  Tlb tlb(Small(8, 4));
  tlb.Insert(10, PageSize::kBase, 1);
  tlb.Insert(11, PageSize::kBase, 2);
  tlb.Insert(12, PageSize::kBase, 3);
  tlb.ShootdownRange(10, 2);
  EXPECT_FALSE(tlb.Lookup(10).hit);
  EXPECT_FALSE(tlb.Lookup(11).hit);
  EXPECT_TRUE(tlb.Lookup(12).hit);
}

TEST(Tlb, ShootdownRangeLargeScansAllEntries) {
  Tlb tlb(Small(2, 2));  // 4 entries => range of 8 pages triggers the scan
  tlb.Insert(0, PageSize::kBase, 1);
  tlb.Insert(1000, PageSize::kBase, 2);
  const uint64_t huge_vpn = 2ull << kHugeOrder;
  tlb.Insert(huge_vpn, PageSize::kHuge, 1024);
  tlb.ShootdownRange(0, 100000);
  EXPECT_EQ(tlb.entry_count(), 0u);
}

TEST(Tlb, StaleHitDiscountMovesCounters) {
  Tlb tlb(Small(4, 2));
  tlb.Insert(1, PageSize::kBase, 1);
  EXPECT_TRUE(tlb.Lookup(1).hit);
  EXPECT_EQ(tlb.hits(), 1u);
  tlb.DiscountStaleHit();
  EXPECT_EQ(tlb.hits(), 0u);
  EXPECT_EQ(tlb.misses(), 1u);
  EXPECT_EQ(tlb.stale_hits(), 1u);
}

TEST(Tlb, HugeCoverageBeatsBaseCoverage) {
  // With a working set far beyond base-entry capacity, huge entries keep
  // hitting where base entries thrash: the paper's TLB-coverage effect.
  Tlb base_tlb(Small(16, 4));  // 64 entries
  Tlb huge_tlb(Small(16, 4));
  constexpr uint64_t kPages = 4096;  // 8 regions
  for (uint64_t p = 0; p < kPages; ++p) {
    base_tlb.Insert(p, PageSize::kBase, p);
  }
  for (uint64_t r = 0; r < kPages / kPagesPerHuge; ++r) {
    huge_tlb.Insert(r << kHugeOrder, PageSize::kHuge, r * kPagesPerHuge);
  }
  base_tlb.ResetCounters();
  huge_tlb.ResetCounters();
  for (uint64_t p = 0; p < kPages; p += 7) {
    base_tlb.Lookup(p);
    huge_tlb.Lookup(p);
  }
  EXPECT_EQ(huge_tlb.misses(), 0u);
  EXPECT_GT(base_tlb.misses(), base_tlb.hits());
}

TEST(Tlb, ResetCountersKeepsEntries) {
  Tlb tlb(Small(4, 2));
  tlb.Insert(9, PageSize::kBase, 9);
  tlb.Lookup(9);
  tlb.ResetCounters();
  EXPECT_EQ(tlb.hits(), 0u);
  EXPECT_TRUE(tlb.Lookup(9).hit);  // entry survived
}

// An eviction is a conflict eviction iff the inserting VM's way window,
// over all sets, still held fewer valid entries than it has slots.  The
// window residency is bookkept per insert and drop for every VM that owns
// a window, so check the split against residency recomputed from entry
// counts, with windowed vmids far apart (the private TLB of a high vmid
// also holds the implicitly registered vmid 0).  Layouts: 0 = private
// (vmids 0 and 63, full windows), 1 = shared (0, 9, 63, full windows),
// 2 = partitioned (0, 7, 63, disjoint windows of four ways).
class TlbEvictionClassTest : public ::testing::TestWithParam<int> {};

TEST_P(TlbEvictionClassTest, SplitMatchesWindowResidency) {
  const int layout = GetParam();
  constexpr uint32_t kSets = 8;
  constexpr uint32_t kWays = 12;
  Tlb tlb(Small(kSets, kWays));
  const std::vector<uint16_t> vms =
      layout == 0 ? std::vector<uint16_t>{0, 63}
                  : std::vector<uint16_t>{0, layout == 1 ? uint16_t{9}
                                                         : uint16_t{7},
                                          63};
  for (size_t i = 0; i < vms.size(); ++i) {
    if (layout == 2) {
      tlb.SetVmWays(vms[i], static_cast<uint32_t>(4 * i), 4);
    } else {
      tlb.RegisterVm(vms[i]);
    }
  }
  // Valid entries inside `vmid`'s window: every entry when windows are
  // shared, the VM's own entries when they are disjoint.
  const auto window_valid = [&](uint16_t vmid) {
    return layout == 2 ? tlb.entry_count(vmid) : tlb.entry_count();
  };
  const auto evictions = [&](bool conflict) {
    uint64_t n = 0;
    for (const uint16_t v : vms) {
      const Tlb::VmTlbCounters& c = tlb.vm_counters(v);
      n += conflict ? c.conflict_evictions_base + c.conflict_evictions_huge
                    : c.capacity_evictions_base + c.capacity_evictions_huge;
    }
    return n;
  };
  uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t conflicts = 0;
  uint64_t capacities = 0;
  for (int step = 0; step < 6000; ++step) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint16_t vmid = vms[(x >> 40) % vms.size()];
    // Mostly one VM, so its window fills and capacity evictions occur.
    const uint16_t actor = (x >> 36) % 4 == 0 ? vmid : vms.back();
    // One key in eight is a huge entry, in regions no base key shares.
    const bool huge = (x >> 12) % 8 == 0;
    const uint64_t vpn = huge ? ((1024 + (x >> 20) % 64) << kHugeOrder)
                              : (x >> 20) % 1024;
    const uint64_t roll = (x >> 50) % 1000;
    if (roll < 850) {
      if (tlb.Probe(vpn, actor)) {
        continue;
      }
      const bool free_elsewhere =
          window_valid(actor) < kSets * tlb.vm_way_count(actor);
      const uint64_t conflict_before = evictions(true);
      const uint64_t capacity_before = evictions(false);
      tlb.Insert(vpn, huge ? PageSize::kHuge : PageSize::kBase, vpn,
                 Tlb::Stamp{}, actor);
      const uint64_t conflict_delta = evictions(true) - conflict_before;
      const uint64_t capacity_delta = evictions(false) - capacity_before;
      ASSERT_LE(conflict_delta + capacity_delta, 1u) << "step " << step;
      if (conflict_delta + capacity_delta == 1) {
        ASSERT_EQ(conflict_delta == 1, free_elsewhere) << "step " << step;
      }
      conflicts += conflict_delta;
      capacities += capacity_delta;
    } else if (roll < 995) {
      tlb.ShootdownPage(vpn, actor);
    } else if (roll < 999) {
      tlb.InvalidateVm(vmid);
    } else {
      tlb.Flush();
    }
  }
  EXPECT_GT(conflicts, 0u);
  EXPECT_GT(capacities, 0u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, TlbEvictionClassTest,
                         ::testing::Values(0, 1, 2));

}  // namespace
