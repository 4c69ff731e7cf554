// TLB miss-source breakdown (the fig16 companion table): splits each
// run's counted TLB misses into the three sources the simulator can tell
// apart exactly:
//
//   cold       the access demand-paged (faulting accesses each contribute
//              exactly one counted miss, since faulting translate attempts
//              are uncounted and retried),
//   precise    hits dropped by generation-stamp validation — the software
//              analogue of INVLPG / tagged-INVEPT invalidations (the
//              TLB's stale_hits counter),
//   capacity   everything else: evictions and conflicts.
//
// The capacity bucket is further split using the TLB's per-set occupancy
// telemetry: every eviction of a valid entry is classified at eviction
// time as *conflict* (the inserting VM's way window still had free ways in
// other sets — a better-indexed TLB would not have evicted) or *true
// capacity* (the window was completely full), per evicted-entry page size.
// The capacity-miss remainder is apportioned over those eviction counts,
// giving the conflict-4k / conflict-2M / true-capacity columns.
//
// The cold/precise/capacity split is exact, not modeled: all three inputs
// are counters the machine maintains anyway.  The conflict sub-split is an
// apportionment (misses are not tracked back to the specific eviction that
// caused them), deterministic by integer arithmetic.  Rendering is
// separated from the figure bench so tests can pin the table's byte-exact
// output.
#ifndef SRC_METRICS_MISS_BREAKDOWN_H_
#define SRC_METRICS_MISS_BREAKDOWN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.h"
#include "mmu/nested_walker.h"

namespace metrics {

struct MissSourceRow {
  std::string label;
  uint64_t tlb_misses = 0;
  uint64_t cold = 0;   // faulting accesses in the measured phase
  uint64_t stale = 0;  // precise invalidations (stale hits)
  // Valid-entry evictions seen by the VM's TLB over the measured phase,
  // classified at eviction time (see mmu::Tlb), used to apportion the
  // capacity bucket.  All zero renders as 100% true capacity.
  uint64_t conflict_evictions_base = 0;
  uint64_t conflict_evictions_huge = 0;
  uint64_t capacity_evictions_base = 0;
  uint64_t capacity_evictions_huge = 0;
};

// Capacity/conflict misses: the remainder after cold and precise misses,
// clamped at zero (warm-up truncation can leave a cold count larger than
// the measured-phase miss count).
uint64_t CapacityMisses(const MissSourceRow& row);

// The capacity remainder apportioned over the row's eviction counts:
// conflict misses per page size, plus the true-capacity rest.  The three
// parts always sum to CapacityMisses(row).
struct CapacitySplit {
  uint64_t conflict_base = 0;
  uint64_t conflict_huge = 0;
  uint64_t true_capacity = 0;
};
CapacitySplit SplitCapacityMisses(const MissSourceRow& row);

// Renders the breakdown as a TextTable: one row per input with absolute
// misses and the three source shares, plus an arithmetic-mean row.
std::string RenderMissBreakdown(const std::vector<MissSourceRow>& rows);

// One workload's per-level walk accounting for RenderWalkLevelBreakdown:
// the walk counters over the measured phase.
struct WalkLevelRow {
  std::string label;
  mmu::WalkLevelStats walk;
};

// Miss cycles charged by one walk level across both dimensions, priced
// with the walker's own constants, so the table attributes miss cycles to
// levels exactly the way the walker charged them:
// (guest_mem + host_mem) * NestedWalker::kCyclesPerMemoryRef +
// (guest_cached + host_cached) * NestedWalker::kCyclesPerCachedRef.  Level
// indices are WalkLevelStats's (0 = L4 .. 3 = L1).  Nested-cache hits are
// free by the cost model, so they appear in the table only as reference
// counts.
base::Cycles WalkLevelCycles(const WalkLevelRow& row, size_t level);

// Renders the per-walk-level companion table: one row per (workload,
// level) with where that level's references were served and the cycles it
// charged, plus per-workload memo replay tallies.  Separate from
// RenderMissBreakdown so the fig16 golden output is untouched.
std::string RenderWalkLevelBreakdown(const std::vector<WalkLevelRow>& rows);

}  // namespace metrics

#endif  // SRC_METRICS_MISS_BREAKDOWN_H_
