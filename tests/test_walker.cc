// Tests for the page-walk cache and the 2D walk cost model.
#include "mmu/nested_walker.h"
#include "mmu/page_walk_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/types.h"
#include "mmu/page_table.h"

namespace {

using base::PageSize;
using mmu::NestedWalker;
using mmu::PageWalkCache;
using mmu::PrefixCache;
using mmu::WalkerConfig;
using mmu::WalkResult;

TEST(PrefixCache, MissThenHit) {
  PrefixCache cache(4);
  EXPECT_FALSE(cache.Lookup(1));
  cache.Insert(1);
  EXPECT_TRUE(cache.Lookup(1));
}

TEST(PrefixCache, LruEviction) {
  PrefixCache cache(2);
  cache.Insert(1);
  cache.Insert(2);
  EXPECT_TRUE(cache.Lookup(1));  // 2 becomes LRU
  cache.Insert(3);
  EXPECT_TRUE(cache.Lookup(1));
  EXPECT_FALSE(cache.Lookup(2));
  EXPECT_TRUE(cache.Lookup(3));
}

TEST(PrefixCache, FlushEmpties) {
  PrefixCache cache(4);
  cache.Insert(1);
  cache.Flush();
  EXPECT_FALSE(cache.Lookup(1));
}

TEST(PageWalkCache, ColdBaseWalkIsFourRefs) {
  PageWalkCache pwc;
  const auto cost = pwc.Walk(0, PageSize::kBase);
  EXPECT_EQ(cost.memory_refs, 4u);
  EXPECT_EQ(cost.cached_refs, 0u);
}

TEST(PageWalkCache, ColdHugeWalkIsThreeRefs) {
  PageWalkCache pwc;
  const auto cost = pwc.Walk(0, PageSize::kHuge);
  EXPECT_EQ(cost.memory_refs, 3u);
}

TEST(PageWalkCache, WarmUpperLevelsAreCached) {
  PageWalkCache pwc;
  pwc.Walk(0, PageSize::kBase);
  // Second walk in the same 1 GiB range: PML4 + PDPT hit, PD/PT still paid.
  const auto cost = pwc.Walk(1, PageSize::kBase);
  EXPECT_EQ(cost.cached_refs, 2u);
  EXPECT_EQ(cost.memory_refs, 2u);
  const auto huge_cost = pwc.Walk(2, PageSize::kHuge);
  EXPECT_EQ(huge_cost.memory_refs, 1u);  // only the PD leaf
}

TEST(PageWalkCache, DistantAddressMissesUpperLevels) {
  PageWalkCache pwc;
  pwc.Walk(0, PageSize::kBase);
  const auto cost = pwc.Walk(1ull << 40, PageSize::kBase);  // far away
  EXPECT_EQ(cost.memory_refs, 4u);
}

TEST(NestedWalker, ColdNestedWalkApproaches24Refs) {
  NestedWalker walker(WalkerConfig{});
  // Cold caches: 4 guest levels each needing a host walk for its table
  // page (4 refs) plus the entry read, plus the final host walk.
  const WalkResult cold = walker.NestedWalk(0, PageSize::kBase, 0,
                                            PageSize::kBase);
  // 4 * (4 + 1) + 4 = 24 in the worst case; upper host levels repeat and
  // hit the host PWC, so the model lands close below.
  EXPECT_GE(cold.memory_refs + cold.cached_refs, 12u);
  EXPECT_LE(cold.memory_refs, 24u);
  EXPECT_GT(cold.memory_refs, 8u);
}

TEST(NestedWalker, WarmNestedWalkIsMuchCheaper) {
  NestedWalker walker(WalkerConfig{});
  walker.NestedWalk(0, PageSize::kBase, 0, PageSize::kBase);
  const WalkResult warm =
      walker.NestedWalk(1, PageSize::kBase, 1, PageSize::kBase);
  EXPECT_LT(warm.memory_refs, 6u);
}

TEST(NestedWalker, HugeGuestLeafSkipsPtDimension) {
  NestedWalker a(WalkerConfig{});
  NestedWalker b(WalkerConfig{});
  // Warm both identically, then compare a base-leaf and huge-leaf walk for
  // a *new* 2 MiB region (the PT-page translation is the difference).
  a.NestedWalk(0, PageSize::kBase, 0, PageSize::kBase);
  b.NestedWalk(0, PageSize::kBase, 0, PageSize::kBase);
  const WalkResult base_walk =
      a.NestedWalk(1024, PageSize::kBase, 1024, PageSize::kBase);
  const WalkResult huge_walk =
      b.NestedWalk(1024, PageSize::kHuge, 1024, PageSize::kBase);
  EXPECT_LT(huge_walk.memory_refs, base_walk.memory_refs);
}

TEST(NestedWalker, HugeHostLeafShortensFinalWalk) {
  NestedWalker a(WalkerConfig{});
  NestedWalker b(WalkerConfig{});
  const WalkResult host_base =
      a.NestedWalk(0, PageSize::kBase, 0, PageSize::kBase);
  const WalkResult host_huge =
      b.NestedWalk(0, PageSize::kBase, 0, PageSize::kHuge);
  EXPECT_LT(host_huge.memory_refs, host_base.memory_refs);
}

TEST(NestedWalker, NestedCostExceedsNativeCost) {
  // A native walk is one dimension: a page-walk cache walk of the one
  // table, priced at the walker's per-reference costs.
  PageWalkCache native;
  NestedWalker nested(WalkerConfig{});
  base::Cycles native_total = 0;
  base::Cycles nested_total = 0;
  for (uint64_t vpn = 0; vpn < 4096; vpn += 97) {
    const auto cost = native.Walk(vpn, PageSize::kBase);
    native_total += cost.memory_refs * NestedWalker::kCyclesPerMemoryRef +
                    cost.cached_refs * NestedWalker::kCyclesPerCachedRef;
    nested_total +=
        nested.NestedWalk(vpn, PageSize::kBase, vpn, PageSize::kBase).cycles;
  }
  // The paper cites up to ~6x; the cached steady state is lower but nested
  // must remain clearly more expensive.
  EXPECT_GT(nested_total, native_total * 3 / 2);
}

TEST(NestedWalker, FlushRestoresColdCosts) {
  NestedWalker walker(WalkerConfig{});
  walker.NestedWalk(0, PageSize::kBase, 0, PageSize::kBase);
  const WalkResult warm =
      walker.NestedWalk(1, PageSize::kBase, 1, PageSize::kBase);
  walker.Flush();
  const WalkResult cold =
      walker.NestedWalk(2, PageSize::kBase, 2, PageSize::kBase);
  EXPECT_GT(cold.memory_refs, warm.memory_refs);
}

// ---------------------------------------------------------------------------
// PrefixCache differential: the hash-indexed, intrusive-list implementation
// must make byte-identical decisions to the obvious reference model (linear
// key scan, least-stamp eviction) on every step of a long mixed workload.

// Reference exact-LRU cache: O(n) scans, recency stamps.
class ScanLruModel {
 public:
  explicit ScanLruModel(uint32_t capacity) : capacity_(capacity) {}

  bool Lookup(uint64_t key) {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == key) {
        stamps_[i] = ++tick_;
        return true;
      }
    }
    return false;
  }

  void InsertMissing(uint64_t key) {
    if (keys_.size() < capacity_) {
      keys_.push_back(key);
      stamps_.push_back(++tick_);
      return;
    }
    size_t victim = 0;
    for (size_t i = 1; i < keys_.size(); ++i) {
      if (stamps_[i] < stamps_[victim]) {
        victim = i;
      }
    }
    keys_[victim] = key;
    stamps_[victim] = ++tick_;
  }

  void Flush() {
    keys_.clear();
    stamps_.clear();
  }

 private:
  uint32_t capacity_;
  uint64_t tick_ = 0;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> stamps_;
};

TEST(PrefixCache, DifferentialAgainstScanLruModel) {
  PrefixCache cache(8);
  ScanLruModel model(8);
  // Deterministic mixed traffic over a key space ~4x the capacity, with
  // periodic flushes: every Lookup verdict must agree, so insert decisions
  // (and therefore evictions) stay in lockstep forever.
  uint64_t x = 0x243F6A8885A308D3ull;
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t key = x >> 59;  // 0..31
    const bool hit = cache.Lookup(key);
    ASSERT_EQ(hit, model.Lookup(key)) << "step " << i;
    if (!hit) {
      cache.InsertMissing(key);
      model.InsertMissing(key);
    }
    if (i % 4096 == 4095) {
      cache.Flush();
      model.Flush();
    }
  }
}

// ---------------------------------------------------------------------------
// Walk memo on/off differential: memoization is a simulator-speed knob and
// must not change a single charged cost or per-level stat.

TEST(NestedWalker, MemoOnOffDifferential) {
  WalkerConfig with;
  WalkerConfig without;
  without.walk_memo_slots = 0;
  NestedWalker memoized(with);
  NestedWalker plain(without);
  // The memo grows with the span of regions walked.  `presized` starts
  // with its memo at the cap: two walks whose span exceeds it, then a
  // flush that empties every cache and invalidates both entries.  Growth
  // re-places entries rather than dropping them, so the lazily sized memo
  // must replay exactly as often as the presized one.  Its stats are
  // compared net of the two set-up walks, read right after the flush.
  constexpr uint64_t kFirst = (1ull << 20) >> base::kHugeOrder;  // guest VA
  const uint64_t cap = with.walk_memo_slots;
  NestedWalker presized(with);
  presized.NestedWalk(kFirst << base::kHugeOrder, PageSize::kHuge, 0,
                      PageSize::kHuge);
  presized.NestedWalk((kFirst + 2 * cap) << base::kHugeOrder,
                      PageSize::kHuge, 0, PageSize::kHuge);
  presized.Flush();
  const mmu::WalkLevelStats setup = presized.stats();
  constexpr int kPhaseSteps = 2000;
  constexpr int kWidestPhase = 10;  // 1024 regions, a quarter of the cap
  uint64_t x = 0x13198A2E03707344ull;
  for (int i = 0; i < (kWidestPhase + 3) * kPhaseSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    // The walked span doubles every phase, from one region up to 1024,
    // then jumps past the cap.  Within it, half of the walks go to the
    // span's first eight regions, so memo replays, upper-only replays,
    // and invalidations (PT-cache churn) all occur.
    const int phase = i / kPhaseSteps;
    const uint64_t width = 1ull << std::min(phase, kWidestPhase);
    uint64_t region =
        kFirst + ((x >> 40) % ((x >> 32) & 1 ? std::min<uint64_t>(width, 8)
                                             : width));
    if (phase > kWidestPhase && (x >> 33) % 4 == 0) {
      region += 3 * cap + ((x >> 50) % 16);
    }
    const uint64_t vpn = (region << base::kHugeOrder) | (x & 511);
    const PageSize guest_leaf = (region & 1) ? PageSize::kBase
                                             : PageSize::kHuge;
    const PageSize host_leaf = (x >> 20) & 1 ? PageSize::kBase
                                             : PageSize::kHuge;
    const uint64_t gfn = vpn ^ 0x5000;
    const WalkResult a = memoized.NestedWalk(vpn, guest_leaf, gfn, host_leaf);
    const WalkResult b = plain.NestedWalk(vpn, guest_leaf, gfn, host_leaf);
    const WalkResult c = presized.NestedWalk(vpn, guest_leaf, gfn, host_leaf);
    ASSERT_EQ(a.memory_refs, b.memory_refs) << "step " << i;
    ASSERT_EQ(a.cached_refs, b.cached_refs) << "step " << i;
    ASSERT_EQ(a.cycles, b.cycles) << "step " << i;
    ASSERT_EQ(a.cycles, c.cycles) << "step " << i;
    if (i % kPhaseSteps == kPhaseSteps - 1) {
      ASSERT_EQ(memoized.stats().memo_hits,
                presized.stats().memo_hits - setup.memo_hits)
          << "step " << i;
    }
  }
  // Per-level attribution must agree exactly (stats() folds replays back
  // into the level arrays); only the replay tallies themselves may differ,
  // and only between memo on and off.
  const mmu::WalkLevelStats sa = memoized.stats();
  const mmu::WalkLevelStats sb = plain.stats();
  const mmu::WalkLevelStats sc = presized.stats();
  for (size_t l = 0; l < 4; ++l) {
    EXPECT_EQ(sa.guest_mem[l], sb.guest_mem[l]) << "level " << l;
    EXPECT_EQ(sa.guest_cached[l], sb.guest_cached[l]) << "level " << l;
    EXPECT_EQ(sa.host_mem[l], sb.host_mem[l]) << "level " << l;
    EXPECT_EQ(sa.host_cached[l], sb.host_cached[l]) << "level " << l;
    EXPECT_EQ(sa.nested_hit[l], sb.nested_hit[l]) << "level " << l;
    EXPECT_EQ(sa.nested_walk[l], sb.nested_walk[l]) << "level " << l;
    EXPECT_EQ(sa.nested_walk[l], sc.nested_walk[l] - setup.nested_walk[l])
        << "level " << l;
  }
  EXPECT_GT(sa.memo_hits, 0u);  // the memo actually engaged
  EXPECT_GT(sa.memo_upper_hits, 0u);
  EXPECT_EQ(sa.memo_hits, sc.memo_hits - setup.memo_hits);
  EXPECT_EQ(sa.memo_upper_hits, sc.memo_upper_hits - setup.memo_upper_hits);
  EXPECT_EQ(sb.memo_hits, 0u);
  EXPECT_EQ(sb.memo_upper_hits, 0u);
}

// ---------------------------------------------------------------------------
// Arena pool: the grow-only node slab behind PageTable's base regions.

TEST(ArenaPool, SlabGrowthIsChunked) {
  mmu::PageTable table;
  // One base page in each of 40 regions: 40 live nodes, slabs of 16.
  for (uint64_t r = 0; r < 40; ++r) {
    table.MapBase(r << base::kHugeOrder, 1000 + r);
  }
  const auto stats = table.arena_stats();
  EXPECT_EQ(stats.live_nodes, 40u);
  EXPECT_EQ(stats.chunks, 3u);  // ceil(40 / 16)
  // The unissued tail of the last slab is not "free": the free list only
  // holds recycled nodes.
  EXPECT_EQ(stats.free_nodes, 0u);
}

TEST(ArenaPool, NodeRecycledAfterUnmap) {
  mmu::PageTable table;
  for (uint64_t r = 0; r < 16; ++r) {
    table.MapBase(r << base::kHugeOrder, 100 + r);
  }
  const auto before = table.arena_stats();
  EXPECT_EQ(before.chunks, 1u);
  EXPECT_EQ(before.free_nodes, 0u);
  // Unmapping a region's last base page releases its node to the free
  // list...
  table.UnmapBase(3ull << base::kHugeOrder);
  EXPECT_EQ(table.arena_stats().free_nodes, 1u);
  // ...and the next base-mapped region reuses it instead of growing a slab.
  table.MapBase(99ull << base::kHugeOrder, 555);
  const auto after = table.arena_stats();
  EXPECT_EQ(after.chunks, before.chunks);
  EXPECT_EQ(after.free_nodes, 0u);
  EXPECT_EQ(after.live_nodes, 16u);
}

TEST(ArenaPool, PromotionReleasesNodeDemotionReacquires) {
  mmu::PageTable table;
  for (uint64_t s = 0; s < base::kPagesPerHuge; ++s) {
    table.MapBase(s, 1024 + s);  // region 0, in-place promotable
  }
  EXPECT_EQ(table.arena_stats().live_nodes, 1u);
  table.PromoteInPlace(0);
  // Huge leaves live inline in the route word: no node at all.
  EXPECT_EQ(table.arena_stats().live_nodes, 0u);
  EXPECT_EQ(table.arena_stats().free_nodes, 1u);
  table.Demote(0);
  EXPECT_EQ(table.arena_stats().live_nodes, 1u);
  EXPECT_EQ(table.arena_stats().free_nodes, 0u);
  EXPECT_EQ(table.arena_stats().chunks, 1u);
}

TEST(ArenaPool, GenerationsNeverAliasRecycledNodes) {
  // Generation stamps live in the per-region vector, never inside arena
  // nodes, so a region's stamp survives its node being recycled to another
  // region and can never be confused with the new owner's.
  mmu::PageTable table;
  table.MapBase(5ull << base::kHugeOrder, 100);
  const uint64_t gen_mapped = table.generation(5);
  table.UnmapBase(5ull << base::kHugeOrder);  // node freed, stamp bumped
  const uint64_t gen_unmapped = table.generation(5);
  EXPECT_GT(gen_unmapped, gen_mapped);
  // Region 7 picks up region 5's recycled node; region 5's stamp must not
  // move, and region 7's history starts from its own counter.
  table.MapBase(7ull << base::kHugeOrder, 200);
  EXPECT_EQ(table.arena_stats().chunks, 1u);
  EXPECT_EQ(table.generation(5), gen_unmapped);
  // Re-mapping region 5 bumps monotonically — it can never return to a
  // stamp a stale TLB entry might still carry.
  table.MapBase(5ull << base::kHugeOrder, 300);
  EXPECT_GT(table.generation(5), gen_unmapped);
}

}  // namespace
