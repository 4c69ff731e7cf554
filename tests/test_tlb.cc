// Tests for the set-associative mixed-granularity TLB.
#include "mmu/tlb.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "mmu/tlb_utility_monitor.h"

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
  Tlb tlb(Small(2, 2));  // a range far larger than the 4-entry array
  tlb.Insert(0, PageSize::kBase, 1);
  tlb.Insert(1000, PageSize::kBase, 2);
  const uint64_t huge_vpn = 2ull << kHugeOrder;
  tlb.Insert(huge_vpn, PageSize::kHuge, 1024);
  tlb.ShootdownRange(0, 100000);
  EXPECT_EQ(tlb.entry_count(), 0u);
}

// A zero-page range drops nothing, not even a huge entry covering `vpn`.
TEST(Tlb, ShootdownRangeOfZeroPagesDropsNothing) {
  Tlb tlb(Small(8, 4));
  const uint64_t vpn = (3ull << kHugeOrder) + 7;
  tlb.Insert(vpn, PageSize::kHuge, 1536);
  tlb.Insert(vpn, PageSize::kBase, 9);
  EXPECT_EQ(tlb.ShootdownRange(vpn, 0), 0u);
  EXPECT_EQ(tlb.ShootdownRange(vpn + 1, 0), 0u);
  EXPECT_EQ(tlb.entry_count(), 2u);
  EXPECT_EQ(tlb.shootdowns(), 0u);
  EXPECT_EQ(tlb.ShootdownRange(vpn, 1), 2u);
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
  // Nothing resets the counters: measure the lookup phase by deltas.
  const uint64_t base_hits = base_tlb.hits();
  const uint64_t base_misses = base_tlb.misses();
  const uint64_t huge_misses = huge_tlb.misses();
  for (uint64_t p = 0; p < kPages; p += 7) {
    base_tlb.Lookup(p);
    huge_tlb.Lookup(p);
  }
  EXPECT_EQ(huge_tlb.misses() - huge_misses, 0u);
  EXPECT_GT(base_tlb.misses() - base_misses, base_tlb.hits() - base_hits);
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
    } else {
      tlb.InvalidateVm(vmid);
    }
  }
  EXPECT_GT(conflicts, 0u);
  EXPECT_GT(capacities, 0u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, TlbEvictionClassTest,
                         ::testing::Values(0, 1, 2));

// ShootdownRange is one pass over the array.  The reference is what it
// replaced: a ShootdownPage of every page in the range.
uint32_t PerPageShootdown(Tlb& tlb, uint64_t vpn, uint64_t pages,
                          uint16_t vmid) {
  uint32_t dropped = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    dropped += tlb.ShootdownPage(vpn + p, vmid);
  }
  return dropped;
}

// Twin arrays take one fuzzed stream of lookups, fills, page shootdowns and
// invalidations; range shootdowns go through ShootdownRange on one and the
// per-page loop on the other.  After every range both must agree on the
// return value, every VM's counters and entry count, every set's
// occupancy, every key's residency and, with a monitor attached, the
// utility curves and the displaced-by matrix.  The stream goes on after
// each range, so a displaced record or shadow entry one twin kept and the
// other cleared shows up in later attributions.  Arrangements: 0 =
// private (one VM, no monitor), 1 = shared (three VMs over every way),
// 2 = partitioned (three VMs on disjoint two-way windows); 1 and 2 attach
// a monitor as the shared domains do.
class TlbRangeShootdownTest : public ::testing::TestWithParam<int> {};

TEST_P(TlbRangeShootdownTest, OnePassMatchesThePerPageLoop) {
  const int arrangement = GetParam();
  const TlbConfig config = Small(16, 6);
  const uint64_t entries = config.sets * config.ways;
  constexpr uint64_t kRegions = 4;
  constexpr uint64_t kSpan = kRegions * kPagesPerHuge;
  Tlb one_pass(config);
  Tlb per_page(config);
  mmu::TlbUtilityMonitor::Config mc;
  mc.sets = config.sets;
  mc.ways = config.ways;
  mc.sample_stride = 2;
  mc.displaced_slots = 128;
  mmu::TlbUtilityMonitor one_pass_monitor(mc);
  mmu::TlbUtilityMonitor per_page_monitor(mc);
  const std::vector<uint16_t> vms =
      arrangement == 0 ? std::vector<uint16_t>{0}
                       : std::vector<uint16_t>{0, 1, 2};
  if (arrangement != 0) {
    one_pass.AttachUtilityMonitor(&one_pass_monitor);
    per_page.AttachUtilityMonitor(&per_page_monitor);
  }
  for (size_t i = 0; i < vms.size(); ++i) {
    for (Tlb* tlb : {&one_pass, &per_page}) {
      if (arrangement == 2) {
        tlb->SetVmWays(vms[i], static_cast<uint32_t>(2 * i), 2);
      } else {
        tlb->RegisterVm(vms[i]);
      }
    }
  }

  const auto expect_same_state = [&](const std::string& where) {
    for (const uint16_t v : vms) {
      ASSERT_TRUE(one_pass.vm_counters(v) == per_page.vm_counters(v))
          << "vm " << v << " " << where;
      ASSERT_EQ(one_pass.entry_count(v), per_page.entry_count(v))
          << "vm " << v << " " << where;
    }
    for (uint32_t set = 0; set < config.sets; ++set) {
      ASSERT_EQ(one_pass.set_occupancy(set), per_page.set_occupancy(set))
          << "set " << set << " " << where;
    }
    for (uint64_t vpn = 0; vpn < kSpan; ++vpn) {
      for (const uint16_t v : vms) {
        ASSERT_EQ(one_pass.Probe(vpn, v), per_page.Probe(vpn, v))
            << "vpn " << vpn << " vm " << v << " " << where;
      }
    }
    if (arrangement == 0) {
      return;
    }
    for (const uint16_t v : vms) {
      const mmu::TlbUtilityMonitor::VmUtility& a = one_pass_monitor.utility(v);
      const mmu::TlbUtilityMonitor::VmUtility& b = per_page_monitor.utility(v);
      ASSERT_EQ(a.way_hits, b.way_hits) << "vm " << v << " " << where;
      ASSERT_EQ(a.shadow_misses, b.shadow_misses) << "vm " << v << " " << where;
      for (const uint16_t e : vms) {
        ASSERT_EQ(one_pass_monitor.displaced(v, e),
                  per_page_monitor.displaced(v, e))
            << "vm " << v << " evictor " << e << " " << where;
      }
    }
  };

  base::Rng rng(static_cast<uint64_t>(31 + arrangement));
  std::array<int, 5> range_kinds{};
  for (int step = 0; step < 8000; ++step) {
    const uint16_t vmid = vms[rng.NextBelow(vms.size())];
    const uint64_t vpn = rng.NextBelow(kSpan);
    const uint64_t region_base = vpn & ~(kPagesPerHuge - 1);
    const double roll = rng.NextDouble();
    if (roll < 0.60) {
      // The engine's pattern: probe, fill on a miss.
      const bool hit = one_pass.Lookup(vpn, vmid).hit;
      ASSERT_EQ(per_page.Lookup(vpn, vmid).hit, hit) << "step " << step;
      if (!hit) {
        const PageSize size =
            rng.NextBool(0.15) ? PageSize::kHuge : PageSize::kBase;
        one_pass.InsertMiss(vpn, size, vpn, Tlb::Stamp{}, vmid);
        per_page.InsertMiss(vpn, size, vpn, Tlb::Stamp{}, vmid);
      }
    } else if (roll < 0.85) {
      const PageSize size =
          rng.NextBool(0.15) ? PageSize::kHuge : PageSize::kBase;
      one_pass.Insert(vpn, size, vpn, Tlb::Stamp{}, vmid);
      per_page.Insert(vpn, size, vpn, Tlb::Stamp{}, vmid);
    } else if (roll < 0.93) {
      ASSERT_EQ(one_pass.ShootdownPage(vpn, vmid),
                per_page.ShootdownPage(vpn, vmid))
          << "step " << step;
    } else if (roll < 0.995) {
      const int kind = static_cast<int>(rng.NextBelow(range_kinds.size()));
      ++range_kinds[kind];
      uint64_t lo = vpn;
      uint64_t pages = 0;
      bool in_huge = false;
      switch (kind) {
        case 0:  // empty, half the time inside a huge entry just filled
          in_huge = rng.NextBool(0.5);
          if (in_huge) {
            lo = region_base + rng.NextRange(1, kPagesPerHuge);
            one_pass.Insert(lo, PageSize::kHuge, lo, Tlb::Stamp{}, vmid);
            per_page.Insert(lo, PageSize::kHuge, lo, Tlb::Stamp{}, vmid);
          }
          break;
        case 1:  // a few pages
          pages = rng.NextRange(1, 5);
          break;
        case 2:  // exactly one region, as the kernels shoot down
          lo = region_base;
          pages = kPagesPerHuge;
          break;
        case 3: {  // unaligned, across a region boundary
          const uint64_t before = rng.NextRange(1, kPagesPerHuge);
          lo = region_base + kPagesPerHuge - before;
          pages = before + rng.NextRange(1, kPagesPerHuge + 100);
          break;
        }
        default:  // at least the whole array's entry count
          pages = entries + rng.NextBelow(kSpan);
          break;
      }
      const std::string where = "step " + std::to_string(step) + " range [" +
                                std::to_string(lo) + ", +" +
                                std::to_string(pages) + ") vm " +
                                std::to_string(vmid);
      const uint32_t dropped = one_pass.ShootdownRange(lo, pages, vmid);
      ASSERT_EQ(dropped, PerPageShootdown(per_page, lo, pages, vmid))
          << where;
      if (pages == 0) {
        ASSERT_EQ(dropped, 0u) << where;
        ASSERT_TRUE(!in_huge || one_pass.Probe(lo, vmid)) << where;
      }
      ASSERT_NO_FATAL_FAILURE(expect_same_state(where));
    } else {
      one_pass.InvalidateVm(vmid);
      per_page.InvalidateVm(vmid);
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_same_state("end"));

  for (const int n : range_kinds) {
    EXPECT_GT(n, 20);
  }
  EXPECT_GT(one_pass.shootdowns(), 0u);
  if (arrangement != 0) {
    uint64_t attributed = 0;
    for (const uint16_t v : vms) {
      attributed += one_pass.vm_counters(v).displaced_by_self +
                    one_pass.vm_counters(v).displaced_by_other;
    }
    EXPECT_GT(attributed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Arrangements, TlbRangeShootdownTest,
                         ::testing::Values(0, 1, 2));

}  // namespace
