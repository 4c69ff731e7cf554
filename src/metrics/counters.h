// Counter snapshots across the stack, so the driver can compute deltas for
// exactly the measured phase of a run (warm-up excluded, daemons included).
#ifndef SRC_METRICS_COUNTERS_H_
#define SRC_METRICS_COUNTERS_H_

#include <array>
#include <cstdint>

#include "base/stats.h"
#include "base/types.h"
#include "mmu/nested_walker.h"
#include "os/machine.h"

namespace metrics {

struct StackSnapshot {
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  // TLB hits reclassified as misses because the cached translation no
  // longer matched the page tables (precise invalidation).  Already
  // included in tlb_misses; this splits them out from cold/capacity misses.
  uint64_t tlb_stale_hits = 0;
  uint64_t tlb_shootdowns = 0;
  // TLB sharing-domain counters (zero under a private TLB arrangement).
  // Entries of this VM dropped by tagged selective invalidation — counted
  // per entry, unlike tlb_flushes which counts whole-array wipes.
  uint64_t tlb_vm_invalidated = 0;
  // This VM's entries evicted by another VM's fills on a shared array.
  uint64_t tlb_cross_vm_evictions = 0;
  // Evictions of this VM's entries split by whether the inserting VM still
  // had free ways elsewhere in its window (conflict) or not (true
  // capacity), per evicted-entry page size.
  uint64_t tlb_conflict_evictions_base = 0;
  uint64_t tlb_conflict_evictions_huge = 0;
  uint64_t tlb_capacity_evictions_base = 0;
  uint64_t tlb_capacity_evictions_huge = 0;
  // Whole-array flushes of the physical TLB this VM translates through
  // (kept separate from tlb_vm_invalidated so private-mode goldens hold).
  uint64_t tlb_flushes = 0;
  // Utility-monitor attribution of this VM's misses (zero under a private
  // arrangement, where no monitor is attached): misses proven caused by a
  // displaced entry, split by whether this VM or another VM inserted the
  // displacing fill.  self + other <= tlb_misses; the rest is cold or
  // unattributed (record lost to table aliasing).
  uint64_t tlb_displaced_by_self = 0;
  uint64_t tlb_displaced_by_other = 0;
  // Shadow-tag utility sampler (zero under private): util_way_hits[d] is
  // the VM's sampled accesses that would hit with d+1 dedicated ways; the
  // array is sized for the largest supported associativity (physical ways
  // beyond it are folded into the last slot by Snapshot()).
  std::array<uint64_t, 16> util_way_hits{};
  uint64_t util_shadow_misses = 0;
  // Dynamic way repartitioning (GEMINI_TLB_MODE=dynamic; zero elsewhere).
  // ways_assigned is a *level*, not a counter: the VM's current way-window
  // size (the full associativity under private mode).  Delta() carries the
  // later snapshot's value through unchanged, so a phase delta reports the
  // allocation in force when the phase ended.
  uint64_t tlb_ways_assigned = 0;
  // Domain-wide applied repartition count (same value in every VM's
  // snapshot — the repartitioner moves all windows in one tick).
  uint64_t tlb_repartitions = 0;
  // This VM's entries dropped by window moves.
  uint64_t tlb_repartition_evictions = 0;
  // Per-access translation-latency histogram: log2 cycle buckets of every
  // successful translation (see base::Log2Histogram bucket convention).
  std::array<uint64_t, base::Log2Histogram::kBuckets> lat_hist{};
  base::Cycles translation_cycles = 0;
  base::Cycles guest_fault_cycles = 0;
  base::Cycles guest_overhead_cycles = 0;
  base::Cycles host_fault_cycles = 0;
  base::Cycles host_overhead_cycles = 0;
  uint64_t guest_promotions = 0;
  uint64_t host_promotions = 0;
  uint64_t pages_copied = 0;
  uint64_t demotions = 0;
  // Tiered memory (DESIGN.md §3i; zero when the machine has no far tier).
  // Host-layer pages of this VM demoted to the far tier, and far pages
  // refaulted back to near memory on access.
  uint64_t tier_demoted_pages = 0;
  uint64_t tier_refaults = 0;
  // This VM's pages far-resident right now — a level like
  // tlb_ways_assigned, not a counter: Delta() carries the later snapshot's
  // value through, so a phase delta reports the residency at phase end.
  uint64_t tier_resident = 0;
  // Gemini mechanism counters, zero under policies without booking/bucket.
  uint64_t bookings_started = 0;
  uint64_t bookings_expired = 0;
  uint64_t bucket_hits = 0;
  // Per-level page-walk accounting (DESIGN.md §3e): where each walk level's
  // references were served (memory vs PWC vs nested cache) plus the walk
  // memo's replay tallies.  Levels are indexed L4..L1 (see WalkLevelStats).
  mmu::WalkLevelStats walk{};

  StackSnapshot Delta(const StackSnapshot& earlier) const;
};

StackSnapshot Snapshot(osim::Machine& machine, int32_t vm_id);

}  // namespace metrics

#endif  // SRC_METRICS_COUNTERS_H_
