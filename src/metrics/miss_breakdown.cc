#include "metrics/miss_breakdown.h"

#include "metrics/perf_model.h"
#include "metrics/table.h"

namespace metrics {

uint64_t CapacityMisses(const MissSourceRow& row) {
  const uint64_t classified = row.cold + row.stale;
  return row.tlb_misses > classified ? row.tlb_misses - classified : 0;
}

CapacitySplit SplitCapacityMisses(const MissSourceRow& row) {
  CapacitySplit split;
  const uint64_t capacity = CapacityMisses(row);
  const uint64_t evictions =
      row.conflict_evictions_base + row.conflict_evictions_huge +
      row.capacity_evictions_base + row.capacity_evictions_huge;
  if (evictions == 0) {
    // No eviction telemetry (e.g. the working set never filled a set):
    // nothing to attribute to conflicts.
    split.true_capacity = capacity;
    return split;
  }
  // Integer apportionment: floor the conflict parts, give the remainder to
  // true capacity so the three always sum to `capacity`.
  split.conflict_base = capacity * row.conflict_evictions_base / evictions;
  split.conflict_huge = capacity * row.conflict_evictions_huge / evictions;
  split.true_capacity =
      capacity - split.conflict_base - split.conflict_huge;
  return split;
}

std::string RenderMissBreakdown(const std::vector<MissSourceRow>& rows) {
  TextTable table(
      "Figure 16 companion: TLB miss sources (cold vs precise invalidation "
      "vs conflict vs true capacity)");
  table.SetColumns({"workload", "misses", "cold", "precise inval",
                    "conflict 4k", "conflict 2M", "true capacity"});
  std::vector<double> cold_shares;
  std::vector<double> stale_shares;
  std::vector<double> conflict_base_shares;
  std::vector<double> conflict_huge_shares;
  std::vector<double> true_capacity_shares;
  for (const MissSourceRow& row : rows) {
    const CapacitySplit split = SplitCapacityMisses(row);
    const double total = static_cast<double>(row.tlb_misses);
    const double cold_share = total > 0 ? row.cold / total : 0.0;
    const double stale_share = total > 0 ? row.stale / total : 0.0;
    const double conflict_base_share =
        total > 0 ? split.conflict_base / total : 0.0;
    const double conflict_huge_share =
        total > 0 ? split.conflict_huge / total : 0.0;
    const double true_capacity_share =
        total > 0 ? split.true_capacity / total : 0.0;
    cold_shares.push_back(cold_share);
    stale_shares.push_back(stale_share);
    conflict_base_shares.push_back(conflict_base_share);
    conflict_huge_shares.push_back(conflict_huge_share);
    true_capacity_shares.push_back(true_capacity_share);
    table.AddRow({row.label, std::to_string(row.tlb_misses),
                  TextTable::Pct(cold_share), TextTable::Pct(stale_share),
                  TextTable::Pct(conflict_base_share),
                  TextTable::Pct(conflict_huge_share),
                  TextTable::Pct(true_capacity_share)});
  }
  table.AddRow({"average", "", TextTable::Pct(ArithmeticMean(cold_shares)),
                TextTable::Pct(ArithmeticMean(stale_shares)),
                TextTable::Pct(ArithmeticMean(conflict_base_shares)),
                TextTable::Pct(ArithmeticMean(conflict_huge_shares)),
                TextTable::Pct(ArithmeticMean(true_capacity_shares))});
  return table.Render();
}

base::Cycles WalkLevelCycles(const WalkLevelRow& row, size_t level) {
  const mmu::WalkLevelStats& w = row.walk;
  return (w.guest_mem[level] + w.host_mem[level]) *
             mmu::NestedWalker::kCyclesPerMemoryRef +
         (w.guest_cached[level] + w.host_cached[level]) *
             mmu::NestedWalker::kCyclesPerCachedRef;
}

std::string RenderWalkLevelBreakdown(const std::vector<WalkLevelRow>& rows) {
  static constexpr const char* kLevelName[] = {"L4 PML4", "L3 PDPT",
                                               "L2 PD", "L1 PT"};
  TextTable table(
      "Walk-level breakdown: where each level's references were served and "
      "the miss cycles it charged (DESIGN.md §3e)");
  table.SetColumns({"workload", "level", "guest mem", "guest pwc",
                    "host mem", "host pwc", "nested hit", "nested walk",
                    "cycles"});
  for (const WalkLevelRow& row : rows) {
    const mmu::WalkLevelStats& w = row.walk;
    for (size_t l = 0; l < w.guest_mem.size(); ++l) {
      table.AddRow({row.label, kLevelName[l], std::to_string(w.guest_mem[l]),
                    std::to_string(w.guest_cached[l]),
                    std::to_string(w.host_mem[l]),
                    std::to_string(w.host_cached[l]),
                    std::to_string(w.nested_hit[l]),
                    std::to_string(w.nested_walk[l]),
                    std::to_string(WalkLevelCycles(row, l))});
    }
    // Memo replays reuse recorded probe slots instead of re-hashing; the
    // tallies contextualize the (already folded-in) per-level counts.
    table.AddRow({row.label, "memo",
                  "replays=" + std::to_string(w.memo_hits), "", "", "", "",
                  "upper=" + std::to_string(w.memo_upper_hits), ""});
  }
  return table.Render();
}

}  // namespace metrics
