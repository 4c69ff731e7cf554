// Tests for the translation engine — including the paper's central
// well-alignment rule (§2.2): a 2 MiB TLB entry only exists when BOTH the
// guest and the host map the region hugely.
#include "mmu/translation_engine.h"

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/types.h"
#include "mmu/page_table.h"
#include "mmu/tlb_domain.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;
using base::PageSize;
using mmu::PageTable;
using mmu::TranslateStatus;
using mmu::TranslationEngine;

TranslationEngine::Config SmallConfig() {
  TranslationEngine::Config c;
  c.tlb.sets = 16;
  c.tlb.ways = 4;
  return c;
}

class EngineTest : public ::testing::Test {
 protected:
  PageTable guest_;
  PageTable ept_;
};

TEST_F(EngineTest, GuestFaultWhenUnmapped) {
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  const auto r = engine.Translate(100);
  EXPECT_EQ(r.status, TranslateStatus::kGuestFault);
  EXPECT_EQ(r.fault_page, 100u);
}

TEST_F(EngineTest, HostFaultWhenEptUnmapped) {
  guest_.MapBase(100, 7);
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  const auto r = engine.Translate(100);
  EXPECT_EQ(r.status, TranslateStatus::kHostFault);
  EXPECT_EQ(r.fault_page, 7u);  // faulting GFN
}

TEST_F(EngineTest, FullTranslationComposesBothLayers) {
  guest_.MapBase(100, 7);
  ept_.MapBase(7, 999);
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  const auto r = engine.Translate(100);
  EXPECT_EQ(r.status, TranslateStatus::kOk);
  EXPECT_EQ(r.frame, 999u);
  EXPECT_FALSE(r.tlb_hit);
  EXPECT_GT(r.cycles, 0u);
  // Second access hits the TLB.
  const auto r2 = engine.Translate(100);
  EXPECT_TRUE(r2.tlb_hit);
  EXPECT_EQ(r2.frame, 999u);
  EXPECT_EQ(r2.cycles, 1u);
}

TEST_F(EngineTest, WellAlignedHugeGetsHugeEntry) {
  guest_.MapHuge(0, 0);    // GVA region 0 -> GPA block 0
  ept_.MapHuge(0, 1024);   // GPA region 0 -> HPA block 1024
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  const auto miss = engine.Translate(5);
  EXPECT_EQ(miss.status, TranslateStatus::kOk);
  EXPECT_TRUE(miss.well_aligned_huge);
  EXPECT_EQ(miss.frame, 1024u + 5);
  // Any other page of the region now hits thanks to the 2 MiB entry.
  const auto hit = engine.Translate(400);
  EXPECT_TRUE(hit.tlb_hit);
  EXPECT_TRUE(hit.well_aligned_huge);
  EXPECT_EQ(hit.frame, 1024u + 400);
}

TEST_F(EngineTest, GuestHugeOverHostBaseIsMisaligned) {
  // Huge guest page backed by base host pages: misaligned; only 4 KiB
  // entries may be cached (paper Figure 2, Host-B-VM-H).
  guest_.MapHuge(0, 0);
  for (uint64_t g = 0; g < kPagesPerHuge; ++g) {
    ept_.MapBase(g, 5000 + g);
  }
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  const auto r = engine.Translate(3);
  EXPECT_FALSE(r.well_aligned_huge);
  EXPECT_EQ(r.frame, 5003u);
  // A different page of the same region must MISS (no huge entry).
  const auto r2 = engine.Translate(400);
  EXPECT_FALSE(r2.tlb_hit);
}

TEST_F(EngineTest, HostHugeOverGuestBaseIsMisaligned) {
  // Base guest pages backed by a huge host page (Host-H-VM-B).
  for (uint64_t v = 0; v < kPagesPerHuge; ++v) {
    guest_.MapBase(v, v);  // identity into GPA region 0
  }
  ept_.MapHuge(0, 2048);
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  const auto r = engine.Translate(9);
  EXPECT_FALSE(r.well_aligned_huge);
  EXPECT_EQ(r.frame, 2048u + 9);
  const auto r2 = engine.Translate(200);
  EXPECT_FALSE(r2.tlb_hit);
}

TEST_F(EngineTest, StaleEntryDetectedAfterGuestRemap) {
  guest_.MapBase(50, 7);
  ept_.MapBase(7, 700);
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  ASSERT_EQ(engine.Translate(50).frame, 700u);
  ASSERT_TRUE(engine.Translate(50).tlb_hit);
  // Guest remaps vpn 50 to a different GFN (e.g. migration).
  guest_.UnmapBase(50);
  guest_.MapBase(50, 8);
  ept_.MapBase(8, 800);
  const auto r = engine.Translate(50);
  EXPECT_EQ(r.status, TranslateStatus::kOk);
  EXPECT_FALSE(r.tlb_hit);  // stale entry was discarded, walk repeated
  EXPECT_EQ(r.frame, 800u);
  EXPECT_GT(engine.tlb().stale_hits(), 0u);
}

TEST_F(EngineTest, StaleHugeEntryDetectedAfterHostRemap) {
  guest_.MapHuge(0, 0);
  ept_.MapHuge(0, 1024);
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  ASSERT_TRUE(engine.Translate(5).well_aligned_huge);
  ASSERT_TRUE(engine.Translate(6).tlb_hit);
  // Host migrates the backing to a different block.
  ept_.UnmapHuge(0);
  ept_.MapHuge(0, 4096);
  const auto r = engine.Translate(6);
  EXPECT_FALSE(r.tlb_hit);
  EXPECT_EQ(r.frame, 4096u + 6);
}

TEST_F(EngineTest, InPlacePromotionKeepsOldBaseEntriesValid) {
  for (uint64_t v = 0; v < kPagesPerHuge; ++v) {
    guest_.MapBase(v, v);
    ept_.MapBase(v, 3 * kPagesPerHuge + v);
  }
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  ASSERT_EQ(engine.Translate(4).frame, 3 * kPagesPerHuge + 4);
  // Promote both layers in place: frames unchanged.
  guest_.PromoteInPlace(0);
  ept_.PromoteInPlace(0);
  const auto r = engine.Translate(4);
  EXPECT_TRUE(r.tlb_hit);  // the 4 KiB entry still translates correctly
  EXPECT_EQ(r.frame, 3 * kPagesPerHuge + 4);
}

TEST_F(EngineTest, InPlacePromotionRestampsWithoutStaleDrop) {
  // Both layers promote in place: the generation stamps of the cached 4 KiB
  // entry go stale, but re-derivation finds identical frames, so the entry
  // is restamped and the access still counts as a hit — zero stale drops.
  for (uint64_t v = 0; v < kPagesPerHuge; ++v) {
    guest_.MapBase(v, v);
    ept_.MapBase(v, 3 * kPagesPerHuge + v);
  }
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  ASSERT_FALSE(engine.Translate(4).well_aligned_huge);
  guest_.PromoteInPlace(0);
  ept_.PromoteInPlace(0);
  const auto r = engine.Translate(4);
  EXPECT_TRUE(r.tlb_hit);
  // The revalidated entry now reflects the well-aligned pair.
  EXPECT_TRUE(r.well_aligned_huge);
  EXPECT_EQ(engine.tlb().stale_hits(), 0u);
  // Once restamped, the next access takes the pure generation-compare path.
  const auto r2 = engine.Translate(4);
  EXPECT_TRUE(r2.tlb_hit);
  EXPECT_TRUE(r2.well_aligned_huge);
  EXPECT_EQ(r2.cycles, 1u);
}

TEST_F(EngineTest, UnrelatedRegionMutationDoesNotDisturbHits) {
  guest_.MapBase(50, 7);
  ept_.MapBase(7, 700);
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  ASSERT_FALSE(engine.Translate(50).tlb_hit);
  // Churn a different guest region and a different host region.
  guest_.MapHuge(10, 20 * kPagesPerHuge);
  ept_.MapHuge(30, 40 * kPagesPerHuge);
  const auto r = engine.Translate(50);
  EXPECT_TRUE(r.tlb_hit);
  EXPECT_EQ(r.frame, 700u);
  EXPECT_EQ(engine.tlb().stale_hits(), 0u);
}

TEST_F(EngineTest, StaleEntryDetectedAfterGuestDemote) {
  guest_.MapHuge(0, 0);
  ept_.MapHuge(0, 1024);
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  ASSERT_TRUE(engine.Translate(5).well_aligned_huge);
  ASSERT_TRUE(engine.Translate(6).tlb_hit);
  // Demoting the guest region leaves frames intact but kills alignment: the
  // huge TLB entry may no longer exist (paper §2.2).
  guest_.Demote(0);
  const auto r = engine.Translate(6);
  EXPECT_EQ(r.status, TranslateStatus::kOk);
  EXPECT_FALSE(r.well_aligned_huge);
  EXPECT_EQ(r.frame, 1024u + 6);
  EXPECT_GT(engine.tlb().stale_hits(), 0u);
}

TEST_F(EngineTest, StaleEntryDetectedAfterGuestUnmap) {
  guest_.MapBase(50, 7);
  ept_.MapBase(7, 700);
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  ASSERT_TRUE(engine.Translate(50).status == TranslateStatus::kOk);
  guest_.UnmapBase(50);
  const auto r = engine.Translate(50);
  EXPECT_EQ(r.status, TranslateStatus::kGuestFault);
  EXPECT_GT(engine.tlb().stale_hits(), 0u);
}

TEST_F(EngineTest, HugeHitReconstructsFrameFromBlockBase) {
  guest_.MapHuge(3, 2 * kPagesPerHuge);
  ept_.MapHuge(2, 9 * kPagesPerHuge);
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  const uint64_t base_vpn = 3ull << kHugeOrder;
  ASSERT_FALSE(engine.Translate(base_vpn).tlb_hit);
  // Every page of the region must hit the single 2 MiB entry and get its
  // frame rebuilt from the block base plus the in-region offset.
  for (uint64_t slot : {1ull, 17ull, 255ull, 511ull}) {
    const auto r = engine.Translate(base_vpn + slot);
    EXPECT_TRUE(r.tlb_hit);
    EXPECT_EQ(r.frame, 9 * kPagesPerHuge + slot);
    EXPECT_EQ(r.cycles, 1u);
  }
}

// Translation is always two-dimensional: an engine without a host table
// is a configuration error, caught at construction.
TEST_F(EngineTest, NullHostTableAborts) {
  EXPECT_DEATH(TranslationEngine(SmallConfig(), &guest_, nullptr),
               "host_table_ != nullptr");
  mmu::TlbDomain domain(mmu::TlbDomainConfig{});
  EXPECT_DEATH(
      TranslationEngine(SmallConfig(), &guest_, nullptr, domain.AddVm(0)),
      "host_table_ != nullptr");
}

TEST_F(EngineTest, CountersAccumulate) {
  guest_.MapBase(1, 1);
  ept_.MapBase(1, 1);
  TranslationEngine engine(SmallConfig(), &guest_, &ept_);
  engine.Translate(1);
  engine.Translate(1);
  EXPECT_EQ(engine.translations(), 2u);
  EXPECT_GT(engine.translation_cycles(), 0u);
}

// Property: for random mapping layouts, the engine's final frame must equal
// the direct composition of the two tables, regardless of TLB state.
class EnginePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnginePropertyTest, AgreesWithDirectComposition) {
  base::Rng rng(GetParam());
  PageTable guest;
  PageTable ept;
  constexpr uint64_t kRegions = 6;
  // Build a random two-layer layout.
  for (uint64_t r = 0; r < kRegions; ++r) {
    if (rng.NextBool(0.4)) {
      guest.MapHuge(r, r * kPagesPerHuge);
    } else {
      for (uint64_t s = 0; s < kPagesPerHuge; ++s) {
        if (rng.NextBool(0.8)) {
          guest.MapBase((r << kHugeOrder) + s, r * kPagesPerHuge + s);
        }
      }
    }
    if (rng.NextBool(0.4)) {
      ept.MapHuge(r, (kRegions + r) * kPagesPerHuge);
    } else {
      for (uint64_t s = 0; s < kPagesPerHuge; ++s) {
        ept.MapBase(r * kPagesPerHuge + s,
                    (kRegions + r) * kPagesPerHuge + s);
      }
    }
  }
  TranslationEngine engine(SmallConfig(), &guest, &ept);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t vpn = rng.NextBelow(kRegions << kHugeOrder);
    const auto r = engine.Translate(vpn);
    const auto g = guest.Lookup(vpn);
    if (!g.has_value()) {
      ASSERT_EQ(r.status, TranslateStatus::kGuestFault);
      continue;
    }
    const auto h = ept.Lookup(g->frame);
    ASSERT_TRUE(h.has_value());
    ASSERT_EQ(r.status, TranslateStatus::kOk);
    ASSERT_EQ(r.frame, h->frame) << "vpn " << vpn;
    ASSERT_EQ(r.well_aligned_huge, g->size == PageSize::kHuge &&
                                       h->size == PageSize::kHuge);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest,
                         ::testing::Values(101, 202, 303, 404));

// Walk-memo depth invariant: the memo covers all four guest levels, and
// enabling it must not change a single observable — statuses, frames,
// charged cycles, TLB counters, or the per-level walk attribution.  Two
// engines share the same tables (reads and access-counter bumps only) and
// translate the same stream; one has the memo disabled.
TEST_F(EngineTest, WalkMemoDepthInvariant) {
  constexpr uint64_t kRegions = 64;
  for (uint64_t r = 0; r < kRegions; ++r) {
    if (r % 2 == 0) {
      guest_.MapHuge(r, r * kPagesPerHuge);
      ept_.MapHuge(r, (kRegions + r) * kPagesPerHuge);
    } else {
      for (uint64_t s = 0; s < kPagesPerHuge; ++s) {
        guest_.MapBase((r << kHugeOrder) + s, r * kPagesPerHuge + s);
        ept_.MapBase(r * kPagesPerHuge + s,
                     (kRegions + r) * kPagesPerHuge + s);
      }
    }
  }
  TranslationEngine::Config with = SmallConfig();
  TranslationEngine::Config without = SmallConfig();
  without.walker.walk_memo_slots = 0;
  TranslationEngine memoized(with, &guest_, &ept_);
  TranslationEngine plain(without, &guest_, &ept_);
  base::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t vpn = rng.NextBelow(kRegions << kHugeOrder);
    const auto a = memoized.Translate(vpn);
    const auto b = plain.Translate(vpn);
    ASSERT_EQ(a.status, b.status) << "step " << i;
    ASSERT_EQ(a.frame, b.frame) << "step " << i;
    ASSERT_EQ(a.cycles, b.cycles) << "step " << i;
    ASSERT_EQ(a.tlb_hit, b.tlb_hit) << "step " << i;
    ASSERT_EQ(a.well_aligned_huge, b.well_aligned_huge) << "step " << i;
  }
  EXPECT_EQ(memoized.tlb().hits(), plain.tlb().hits());
  EXPECT_EQ(memoized.tlb().misses(), plain.tlb().misses());
  const mmu::WalkLevelStats sa = memoized.walk_stats();
  const mmu::WalkLevelStats sb = plain.walk_stats();
  for (size_t l = 0; l < 4; ++l) {
    EXPECT_EQ(sa.guest_mem[l], sb.guest_mem[l]) << "level " << l;
    EXPECT_EQ(sa.guest_cached[l], sb.guest_cached[l]) << "level " << l;
    EXPECT_EQ(sa.host_mem[l], sb.host_mem[l]) << "level " << l;
    EXPECT_EQ(sa.host_cached[l], sb.host_cached[l]) << "level " << l;
    EXPECT_EQ(sa.nested_hit[l], sb.nested_hit[l]) << "level " << l;
    EXPECT_EQ(sa.nested_walk[l], sb.nested_walk[l]) << "level " << l;
  }
  // The memo engaged for both leaf depths (huge regions replay through the
  // upper three levels, base regions through all four).
  EXPECT_GT(sa.memo_hits, 0u);
  EXPECT_EQ(sb.memo_hits, 0u);
}

}  // namespace
