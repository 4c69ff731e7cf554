// Counter snapshots across the stack, so the driver can compute deltas for
// exactly the measured phase of a run (warm-up excluded, daemons included).
#ifndef SRC_METRICS_COUNTERS_H_
#define SRC_METRICS_COUNTERS_H_

#include <algorithm>
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
  // size (the full associativity under private and shared mode), so a
  // phase delta reports the allocation in force when the phase ended.
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
  // tlb_ways_assigned, so a phase delta reports the residency at phase end.
  uint64_t tier_resident = 0;
  // Gemini mechanism counters, zero under policies without booking/bucket.
  uint64_t bookings_started = 0;
  uint64_t bookings_expired = 0;
  uint64_t bucket_hits = 0;
  // Per-level page-walk accounting (DESIGN.md §3e): where each walk level's
  // references were served (memory vs PWC vs nested cache) plus the walk
  // memo's replay tallies.  Levels are indexed L4..L1 (see WalkLevelStats).
  mmu::WalkLevelStats walk{};

  // Phase delta: counters subtract, levels carry this snapshot's value.
  StackSnapshot Delta(const StackSnapshot& earlier) const;
};

StackSnapshot Snapshot(osim::Machine& machine, int32_t vm_id);

// Whether a phase delta subtracts a field (a count of events) or reports
// its later value (a level, such as a window size or a residency).
enum class FieldKind { kCounter, kLevel };

// The one list of StackSnapshot fields: calls visit(kind, s.field...) once
// per uint64_t word, in declaration order, with the same word of every
// snapshot in `s` (arrays visit one word per element).  Delta() derives
// from it; a field added to the struct but not here fails the word-count
// check in tests/test_metrics.cc.
template <class Visit, class... S>
void ForEachField(Visit&& visit, S&... s) {
  constexpr FieldKind kCounter = FieldKind::kCounter;
  const auto each = [&](auto&... arrays) {
    for (size_t i = 0; i < std::min({arrays.size()...}); ++i) {
      visit(kCounter, arrays[i]...);
    }
  };
  visit(kCounter, s.tlb_hits...);
  visit(kCounter, s.tlb_misses...);
  visit(kCounter, s.tlb_stale_hits...);
  visit(kCounter, s.tlb_shootdowns...);
  visit(kCounter, s.tlb_vm_invalidated...);
  visit(kCounter, s.tlb_cross_vm_evictions...);
  visit(kCounter, s.tlb_conflict_evictions_base...);
  visit(kCounter, s.tlb_conflict_evictions_huge...);
  visit(kCounter, s.tlb_capacity_evictions_base...);
  visit(kCounter, s.tlb_capacity_evictions_huge...);
  visit(kCounter, s.tlb_flushes...);
  visit(kCounter, s.tlb_displaced_by_self...);
  visit(kCounter, s.tlb_displaced_by_other...);
  each(s.util_way_hits...);
  visit(kCounter, s.util_shadow_misses...);
  visit(FieldKind::kLevel, s.tlb_ways_assigned...);
  visit(kCounter, s.tlb_repartitions...);
  visit(kCounter, s.tlb_repartition_evictions...);
  each(s.lat_hist...);
  visit(kCounter, s.translation_cycles...);
  visit(kCounter, s.guest_fault_cycles...);
  visit(kCounter, s.guest_overhead_cycles...);
  visit(kCounter, s.host_fault_cycles...);
  visit(kCounter, s.host_overhead_cycles...);
  visit(kCounter, s.guest_promotions...);
  visit(kCounter, s.host_promotions...);
  visit(kCounter, s.pages_copied...);
  visit(kCounter, s.demotions...);
  visit(kCounter, s.tier_demoted_pages...);
  visit(kCounter, s.tier_refaults...);
  visit(FieldKind::kLevel, s.tier_resident...);
  visit(kCounter, s.bookings_started...);
  visit(kCounter, s.bookings_expired...);
  visit(kCounter, s.bucket_hits...);
  each(s.walk.guest_mem...);
  each(s.walk.guest_cached...);
  each(s.walk.host_mem...);
  each(s.walk.host_cached...);
  each(s.walk.nested_hit...);
  each(s.walk.nested_walk...);
  visit(kCounter, s.walk.memo_hits...);
  visit(kCounter, s.walk.memo_upper_hits...);
}

// TLB misses / lookups, 0..1; 0 before the first lookup.
double TlbMissRate(const StackSnapshot& s);
// Shadow-tag sampler hits at any stack depth.
uint64_t UtilShadowHits(const StackSnapshot& s);
// Smallest dedicated way count covering 90% of the VM's shadow hits; 0
// when the VM recorded none (private mode, or a VM that never sampled).
uint32_t UtilMinWays90(const StackSnapshot& s);

// Column groups over one StackSnapshot, shared by the result export
// (metrics/export.h, over a run's phase delta) and the time series
// (trace/sampler.cc, over the cumulative snapshot).  Each artifact calls
// the groups in its own column order; each group calls sink(name, value)
// once per column (the column-list contract is in metrics/export.h).
template <class Sink>
void StaleHitColumn(const StackSnapshot& s, Sink& sink) {
  sink("stale_hits", s.tlb_stale_hits);
}

template <class Sink>
void TierColumns(const StackSnapshot& s, Sink& sink) {
  sink("tier_demoted", s.tier_demoted_pages);
  sink("tier_refaults", s.tier_refaults);
  sink("tier_resident", s.tier_resident);
}

// TLB sharing-domain interference.
template <class Sink>
void SharingColumns(const StackSnapshot& s, Sink& sink) {
  sink("cross_vm_evictions", s.tlb_cross_vm_evictions);
  sink("vm_invalidated", s.tlb_vm_invalidated);
}

// Utility-monitor miss attribution and shadow-sampler counts.
template <class Sink>
void UtilityColumns(const StackSnapshot& s, Sink& sink) {
  sink("displaced_by_self", s.tlb_displaced_by_self);
  sink("displaced_by_other", s.tlb_displaced_by_other);
  sink("util_shadow_hits", UtilShadowHits(s));
  sink("util_shadow_misses", s.util_shadow_misses);
}

template <class Sink>
void RepartitionColumns(const StackSnapshot& s, Sink& sink) {
  sink("ways_assigned", s.tlb_ways_assigned);
  sink("repartitions", s.tlb_repartitions);
  sink("repartition_evictions", s.tlb_repartition_evictions);
}

// Translation-latency percentiles in cycles: nearest rank over the log2
// histogram, bucket upper bound reported.
template <class Sink>
void LatencyColumns(const StackSnapshot& s, Sink& sink) {
  using base::Log2Histogram;
  sink("lat_p50", Log2Histogram::PercentileOfCounts(s.lat_hist, 0.50));
  sink("lat_p90", Log2Histogram::PercentileOfCounts(s.lat_hist, 0.90));
  sink("lat_p99", Log2Histogram::PercentileOfCounts(s.lat_hist, 0.99));
}

}  // namespace metrics

#endif  // SRC_METRICS_COUNTERS_H_
