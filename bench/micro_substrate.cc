// Google-benchmark micro benchmarks for the hot substrate paths: buddy
// allocation, targeted allocation and batch frees, TLB lookup/insert and
// region shootdown, page-table walks and access-count aging, far-tier
// demotion/refault, EMA descriptor search, CA-paging's run search, and the
// contiguity list's refresh and its two query shapes.
// These are engineering benchmarks (not paper figures): they bound the
// simulator's own costs and catch regressions in the data structures
// Gemini leans on.
#include <benchmark/benchmark.h>

#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "gemini/ema.h"
#include "mmu/page_table.h"
#include "mmu/tlb.h"
#include "mmu/translation_engine.h"
#include "policy/ca_paging.h"
#include "vmem/buddy_allocator.h"
#include "vmem/contiguity_list.h"
#include "vmem/fragmenter.h"
#include "vmem/frame_space.h"
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

// One region's 512 frames freed back to a free 2^18-frame buddy, by
// Free(f, 1) per frame or by one FreeFrames: clustered, 16 runs of 32
// consecutive frames (what reclaim swaps out), or scattered, 512 lone
// frames (a guest's unmap).  Re-allocating them is not timed.
void BM_BuddyFreeFrames(benchmark::State& state, bool batch, bool clustered) {
  constexpr uint64_t kFrames = 1 << 18;
  const uint64_t run = clustered ? 32 : 1;
  const uint64_t stride = kFrames / (kPagesPerHuge / run);
  base::Rng rng(7);
  std::vector<uint64_t> frames;
  for (uint64_t lo = 0; lo < kFrames; lo += stride) {
    const uint64_t head = lo + rng.NextBelow(stride - run);
    for (uint64_t f = head; f < head + run; ++f) {
      frames.push_back(f);
    }
  }
  vmem::BuddyAllocator buddy(kFrames);
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < frames.size(); i += run) {
      buddy.AllocateAt(frames[i], run);
    }
    state.ResumeTiming();
    if (batch) {
      buddy.FreeFrames(frames);
    } else {
      for (uint64_t f : frames) {
        buddy.Free(f, 1);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(frames.size()));
}
BENCHMARK_CAPTURE(BM_BuddyFreeFrames, per_frame_clustered, false, true);
BENCHMARK_CAPTURE(BM_BuddyFreeFrames, batch_clustered, true, true);
BENCHMARK_CAPTURE(BM_BuddyFreeFrames, per_frame_scattered, false, false);
BENCHMARK_CAPTURE(BM_BuddyFreeFrames, batch_scattered, true, false);

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

// One 512-page region shootdown, as the kernels issue on unmap and
// migration, on a full 1,536-entry TLB.  The entries sit in three other
// regions, so the array stays full and every iteration scans all of it.
void BM_TlbShootdownRegion(benchmark::State& state) {
  mmu::Tlb tlb(mmu::TlbConfig{});
  for (uint64_t vpn = 0; vpn < 3 * kPagesPerHuge; ++vpn) {
    tlb.Insert(vpn, base::PageSize::kBase, vpn);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.ShootdownRange(7 * kPagesPerHuge,
                                                kPagesPerHuge));
  }
  state.counters["entries"] = tlb.entry_count();
}
BENCHMARK(BM_TlbShootdownRegion);

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

// CA-paging's anchor search on a fragmented testbed buddy: a guest VMA's
// 256-frame request that a run near the start serves, and the host's
// request for a whole 131,072-frame guest, which no run can serve.
void BM_FindContiguousRun(benchmark::State& state, uint64_t frame_count,
                          double fmfi, uint64_t min_frames) {
  vmem::BuddyAllocator buddy(frame_count);
  vmem::FrameSpace frames(frame_count);
  vmem::Fragmenter(&buddy, &frames, 11).FragmentToTarget(fmfi);
  uint64_t found = 0;
  for (auto _ : state) {
    found = policy::FindContiguousRun(buddy, min_frames, 0);
    benchmark::DoNotOptimize(found);
  }
  state.counters["found"] = found != vmem::kInvalidFrame;
}
BENCHMARK_CAPTURE(BM_FindContiguousRun, guest_256_hit, 131072, 0.8, 256);
BENCHMARK_CAPTURE(BM_FindContiguousRun, host_131072_miss, 409600, 0.85,
                  131072);

// Refresh(1) lists every free run: the full-list baseline for the two query
// shapes below, whose refreshes list only the runs long enough to serve
// them.
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
    list.Refresh(1);
    benchmark::DoNotOptimize(list.extent_count());
  }
}
BENCHMARK(BM_ContiguityRefresh);

// The first free frame of `buddy`, which the query benchmarks below flip
// between free and allocated: one mutation per iteration, which forces the
// next refresh to rebuild.
uint64_t FirstFreeFrame(const vmem::BuddyAllocator& buddy) {
  uint64_t frame = 0;
  while (!buddy.IsFrameFree(frame)) {
    ++frame;
  }
  return frame;
}

// Gemini's guest placement query: a 256-frame huge-aligned next-fit over
// a guest of 131,072 frames at FMFI 0.8, the list rebuilt after one
// mutation per query.
void BM_ContiguityPlacement(benchmark::State& state) {
  vmem::BuddyAllocator buddy(131072);
  vmem::FrameSpace frames(131072);
  vmem::Fragmenter(&buddy, &frames, 11).FragmentToTarget(0.8);
  const uint64_t flipped = FirstFreeFrame(buddy);
  vmem::ContiguityList list(&buddy);
  uint64_t found = 0;
  for (auto _ : state) {
    if (!buddy.AllocateAt(flipped, 1)) {
      buddy.Free(flipped, 1);
    }
    list.Refresh(256);
    found = list.FindFit(256, /*huge_aligned=*/true);
    benchmark::DoNotOptimize(found);
  }
  state.counters["extents"] = static_cast<double>(list.extent_count());
}
BENCHMARK(BM_ContiguityPlacement);

// Gemini's host booking tick: the refresh of its 2 MiB list over a host of
// 409,600 frames at FMFI 0.85, after one mutation.
void BM_ContiguityHostTick(benchmark::State& state) {
  vmem::BuddyAllocator buddy(409600);
  vmem::FrameSpace frames(409600);
  vmem::Fragmenter(&buddy, &frames, 11).FragmentToTarget(0.85);
  const uint64_t flipped = FirstFreeFrame(buddy);
  vmem::ContiguityList list(&buddy);
  for (auto _ : state) {
    if (!buddy.AllocateAt(flipped, 1)) {
      buddy.Free(flipped, 1);
    }
    list.Refresh(kPagesPerHuge);
    benchmark::DoNotOptimize(list.extent_count());
  }
  state.counters["extents"] = static_cast<double>(list.extent_count());
}
BENCHMARK(BM_ContiguityHostTick);

}  // namespace
