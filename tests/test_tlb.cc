// Tests for the set-associative mixed-granularity TLB.
#include "mmu/tlb.h"

#include <gtest/gtest.h>

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

}  // namespace
