// Google-benchmark micro benchmarks for the hot substrate paths: buddy
// allocation, targeted allocation, TLB lookup/insert, page-table walks and
// access-count aging, far-tier demotion/refault, EMA descriptor search,
// and contiguity-list refresh.  These are
// engineering benchmarks (not paper figures): they bound the simulator's
// own costs and catch regressions in the data structures Gemini leans on.
#include <benchmark/benchmark.h>

#include "base/rng.h"
#include "base/types.h"
#include "gemini/ema.h"
#include "mmu/page_table.h"
#include "mmu/tlb.h"
#include "mmu/translation_engine.h"
#include "vmem/buddy_allocator.h"
#include "vmem/contiguity_list.h"
#include "vmem/tier_space.h"

namespace {

using base::kPagesPerHuge;

void BM_BuddyAllocFreeOrder0(benchmark::State& state) {
  vmem::BuddyAllocator buddy(1 << 18);
  for (auto _ : state) {
    const uint64_t f = buddy.Allocate(0);
    benchmark::DoNotOptimize(f);
    buddy.Free(f, 1);
  }
}
BENCHMARK(BM_BuddyAllocFreeOrder0);

void BM_BuddyAllocFreeHuge(benchmark::State& state) {
  vmem::BuddyAllocator buddy(1 << 18);
  for (auto _ : state) {
    const uint64_t f = buddy.Allocate(base::kHugeOrder);
    benchmark::DoNotOptimize(f);
    buddy.Free(f, kPagesPerHuge);
  }
}
BENCHMARK(BM_BuddyAllocFreeHuge);

void BM_BuddyAllocateAt(benchmark::State& state) {
  vmem::BuddyAllocator buddy(1 << 18);
  base::Rng rng(1);
  for (auto _ : state) {
    const uint64_t target = rng.NextBelow((1 << 18) - 1);
    if (buddy.AllocateAt(target, 1)) {
      buddy.Free(target, 1);
    }
  }
}
BENCHMARK(BM_BuddyAllocateAt);

void BM_BuddyFmfi(benchmark::State& state) {
  vmem::BuddyAllocator buddy(1 << 18);
  base::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    buddy.AllocateAt(rng.NextBelow(1 << 18), 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(buddy.Fmfi(base::kHugeOrder));
  }
}
BENCHMARK(BM_BuddyFmfi);

void BM_TlbLookupHit(benchmark::State& state) {
  mmu::Tlb tlb(mmu::TlbConfig{});
  for (uint64_t i = 0; i < 1024; ++i) {
    tlb.Insert(i, base::PageSize::kBase, i);
  }
  uint64_t vpn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(vpn));
    vpn = (vpn + 1) & 1023;
  }
}
BENCHMARK(BM_TlbLookupHit);

void BM_TlbInsertEvict(benchmark::State& state) {
  mmu::Tlb tlb(mmu::TlbConfig{});
  uint64_t vpn = 0;
  for (auto _ : state) {
    tlb.Insert(vpn, base::PageSize::kBase, vpn);
    ++vpn;
  }
}
BENCHMARK(BM_TlbInsertEvict);

void BM_PageTableLookupBase(benchmark::State& state) {
  mmu::PageTable table;
  for (uint64_t v = 0; v < 64 * kPagesPerHuge; ++v) {
    table.MapBase(v, v);
  }
  base::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Lookup(rng.NextBelow(64 * kPagesPerHuge)));
  }
}
BENCHMARK(BM_PageTableLookupBase);

void BM_PageTablePromoteDemote(benchmark::State& state) {
  mmu::PageTable table;
  for (uint64_t v = 0; v < kPagesPerHuge; ++v) {
    table.MapBase(v, v);
  }
  for (auto _ : state) {
    table.PromoteInPlace(0);
    table.Demote(0);
  }
}
BENCHMARK(BM_PageTablePromoteDemote);

// One aging tick of a guest-shaped table (regions 2048..4095, the span a
// guest VA space starting at page 2^20 grows to) plus the counter traffic
// between ticks: a bump and a read.
void BM_AccessDecay(benchmark::State& state) {
  mmu::PageTable table;
  constexpr uint64_t kFirst = 2048;
  for (uint64_t r = kFirst; r < 2 * kFirst; ++r) {
    table.BumpAccess(r);
  }
  base::Rng rng(5);
  for (auto _ : state) {
    table.DecayAccessCounts();
    table.BumpAccess(kFirst + rng.NextBelow(kFirst));
    benchmark::DoNotOptimize(table.AccessCount(kFirst + rng.NextBelow(kFirst)));
  }
}
BENCHMARK(BM_AccessDecay);

// Reclaim's far-tier traffic: four owners (a shared host tier) demote and
// later refault guest pages at and above 2^20.
void BM_TierDemoteRefault(benchmark::State& state) {
  vmem::TierSpace tier(0, 2000, 16000);
  constexpr uint64_t kFirst = 1ull << 20;
  constexpr uint64_t kPages = 1 << 14;
  base::Rng rng(6);
  for (uint64_t p = 0; p < kPages; p += 2) {
    tier.Demote(static_cast<int32_t>(p & 3), kFirst + p);
  }
  for (auto _ : state) {
    const uint64_t p = rng.NextBelow(kPages);
    const auto owner = static_cast<int32_t>(p & 3);
    if (!tier.Refault(owner, kFirst + p)) {
      tier.Demote(owner, kFirst + p);
    }
    benchmark::DoNotOptimize(tier.resident_total());
  }
}
BENCHMARK(BM_TierDemoteRefault);

void BM_TranslateVirtualizedHit(benchmark::State& state) {
  mmu::PageTable guest;
  mmu::PageTable ept;
  guest.MapHuge(0, 0);
  ept.MapHuge(0, kPagesPerHuge);
  mmu::TranslationEngine engine(mmu::TranslationEngine::Config{}, &guest,
                                &ept);
  uint64_t vpn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Translate(vpn));
    vpn = (vpn + 1) & (kPagesPerHuge - 1);
  }
}
BENCHMARK(BM_TranslateVirtualizedHit);

void BM_EmaTargetForMtf(benchmark::State& state) {
  gemini::Ema ema;
  // Many spans in one VMA; accesses hit one span repeatedly, exercising
  // the move-to-front win.
  for (int i = 0; i < 64; ++i) {
    ema.AddSpan(1, static_cast<uint64_t>(i) * 2048, 1024, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ema.TargetFor(1, 7 * 2048 + 5));
  }
}
BENCHMARK(BM_EmaTargetForMtf);

void BM_ContiguityRefresh(benchmark::State& state) {
  vmem::BuddyAllocator buddy(1 << 18);
  base::Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    buddy.AllocateAt(rng.NextBelow(1 << 18), 1);
  }
  vmem::ContiguityList list(&buddy);
  for (auto _ : state) {
    // Force a rebuild each iteration by touching the buddy.
    const uint64_t f = buddy.Allocate(0);
    buddy.Free(f, 1);
    list.Refresh();
    benchmark::DoNotOptimize(list.extent_count());
  }
}
BENCHMARK(BM_ContiguityRefresh);

}  // namespace
