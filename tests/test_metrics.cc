// Tests for the metrics layer: alignment audit, counters, normalization
// helpers, and table formatting.
#include <gtest/gtest.h>

#include <set>

#include "base/types.h"
#include "metrics/alignment_audit.h"
#include "metrics/counters.h"
#include "metrics/miss_breakdown.h"
#include "metrics/perf_model.h"
#include "metrics/table.h"
#include "mmu/page_table.h"
#include "os/machine.h"
#include "policy/base_only.h"

namespace {

using base::kPagesPerHuge;

TEST(AlignmentAudit, EmptyTables) {
  mmu::PageTable guest;
  mmu::PageTable ept;
  const auto report = metrics::AuditAlignment(guest, ept);
  EXPECT_EQ(report.guest_huge, 0u);
  EXPECT_EQ(report.host_huge, 0u);
  EXPECT_EQ(report.well_aligned_rate, 0.0);
}

TEST(AlignmentAudit, FullyAlignedIsHundredPercent) {
  mmu::PageTable guest;
  mmu::PageTable ept;
  for (uint64_t r = 0; r < 4; ++r) {
    guest.MapHuge(r, r * kPagesPerHuge);
    ept.MapHuge(r, (8 + r) * kPagesPerHuge);
  }
  const auto report = metrics::AuditAlignment(guest, ept);
  EXPECT_EQ(report.aligned_pairs, 4u);
  EXPECT_DOUBLE_EQ(report.well_aligned_rate, 1.0);
  EXPECT_DOUBLE_EQ(report.aligned_coverage, 1.0);
}

TEST(AlignmentAudit, FullyMisalignedIsZero) {
  mmu::PageTable guest;
  mmu::PageTable ept;
  guest.MapHuge(0, 0);                    // targets GPA region 0
  ept.MapHuge(5, 2 * kPagesPerHuge);      // different region huge in host
  const auto report = metrics::AuditAlignment(guest, ept);
  EXPECT_EQ(report.aligned_pairs, 0u);
  EXPECT_DOUBLE_EQ(report.well_aligned_rate, 0.0);
}

TEST(AlignmentAudit, MixedRateMatchesFormula) {
  mmu::PageTable guest;
  mmu::PageTable ept;
  // 2 guest huge pages, 3 host huge pages, 1 aligned pair.
  guest.MapHuge(0, 0);                 // -> GPA region 0 (aligned below)
  guest.MapHuge(1, 4 * kPagesPerHuge); // -> GPA region 4 (not host huge)
  ept.MapHuge(0, 8 * kPagesPerHuge);
  ept.MapHuge(2, 9 * kPagesPerHuge);
  ept.MapHuge(3, 10 * kPagesPerHuge);
  const auto report = metrics::AuditAlignment(guest, ept);
  EXPECT_EQ(report.aligned_pairs, 1u);
  EXPECT_DOUBLE_EQ(report.well_aligned_rate, 2.0 / 5.0);
}

TEST(Counters, SnapshotDeltaIsComponentwise) {
  osim::MachineConfig config;
  config.host_frames = 16384;
  osim::Machine machine(config);
  auto& vm = machine.AddVm(4096, std::make_unique<policy::BaseOnlyPolicy>(),
                           std::make_unique<policy::BaseOnlyPolicy>());
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(32);
  const auto before = metrics::Snapshot(machine, 0);
  for (uint64_t p = 0; p < 32; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  const auto after = metrics::Snapshot(machine, 0);
  const auto delta = after.Delta(before);
  EXPECT_EQ(delta.tlb_misses, 32u);
  EXPECT_GT(delta.guest_fault_cycles, 0u);
  EXPECT_GT(delta.host_fault_cycles, 0u);
  EXPECT_EQ(delta.guest_promotions, 0u);
}

// The field list covers every word of StackSnapshot exactly once, and a
// phase delta subtracts every counter while exactly tlb_ways_assigned and
// tier_resident (the levels) carry the later snapshot's value.
TEST(Counters, FieldListCoversEveryWordAndDeltaCarriesOnlyLevels) {
  metrics::StackSnapshot earlier;
  metrics::StackSnapshot later;
  std::set<const uint64_t*> visited;
  uint64_t n = 0;
  metrics::ForEachField(
      [&](metrics::FieldKind, uint64_t& e, uint64_t& l) {
        EXPECT_TRUE(visited.insert(&e).second) << "word visited twice";
        e = ++n;
        l = 1000 + 3 * n;
      },
      earlier, later);
  EXPECT_EQ(n, sizeof(metrics::StackSnapshot) / sizeof(uint64_t));

  const metrics::StackSnapshot delta = later.Delta(earlier);
  std::set<const uint64_t*> carried;
  metrics::ForEachField(
      [&](metrics::FieldKind, const uint64_t& d, uint64_t e, uint64_t l) {
        if (d == l) {
          carried.insert(&d);
        } else {
          EXPECT_EQ(d, l - e);
        }
      },
      delta, earlier, later);
  EXPECT_EQ(carried, (std::set<const uint64_t*>{&delta.tlb_ways_assigned,
                                                &delta.tier_resident}));
}

TEST(PerfModel, Normalize) {
  EXPECT_DOUBLE_EQ(metrics::Normalize(3.0, 2.0), 1.5);
  EXPECT_DOUBLE_EQ(metrics::Normalize(3.0, 0.0), 0.0);
}

TEST(PerfModel, GeometricMean) {
  EXPECT_DOUBLE_EQ(metrics::GeometricMean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(metrics::GeometricMean({}), 0.0);
  EXPECT_DOUBLE_EQ(metrics::GeometricMean({5.0}), 5.0);
}

TEST(PerfModel, ArithmeticMean) {
  EXPECT_DOUBLE_EQ(metrics::ArithmeticMean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(metrics::ArithmeticMean({}), 0.0);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(metrics::TextTable::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(metrics::TextTable::Fmt(1.0, 0), "1");
  EXPECT_EQ(metrics::TextTable::Pct(0.514), "51%");
  EXPECT_EQ(metrics::TextTable::Pct(1.0), "100%");
}

TEST(TextTable, PrintDoesNotCrash) {
  metrics::TextTable table("demo");
  table.SetColumns({"workload", "THP", "Gemini"});
  table.AddRow({"Canneal", "1.10", "1.52"});
  table.AddRow({"Redis", "0.98", "1.41"});
  table.Print();  // visual output; just exercise the path
}

TEST(TextTable, RenderMatchesPrintFormat) {
  metrics::TextTable table("demo");
  table.SetColumns({"a", "bb"});
  table.AddRow({"xxx", "y"});
  EXPECT_EQ(table.Render(),
            "\n== demo ==\n"
            "a    bb\n"
            "-------\n"
            "xxx  y \n");
}

TEST(MissBreakdown, CapacityIsClampedRemainder) {
  metrics::MissSourceRow row{"w", 100, 30, 20};
  EXPECT_EQ(metrics::CapacityMisses(row), 50u);
  // Warm-up truncation can over-count cold misses; never underflow.
  row.cold = 95;
  EXPECT_EQ(metrics::CapacityMisses(row), 0u);
}

TEST(MissBreakdown, SplitApportionsCapacityOverEvictionCounts) {
  // 500 capacity misses, 250 recorded evictions: 100 conflict-4k, 50
  // conflict-2M, 100 true-capacity -> 200 / 100 / 200 misses.
  metrics::MissSourceRow row{"w", 1000, 250, 250, 100, 50, 60, 40};
  const metrics::CapacitySplit split = metrics::SplitCapacityMisses(row);
  EXPECT_EQ(split.conflict_base, 200u);
  EXPECT_EQ(split.conflict_huge, 100u);
  EXPECT_EQ(split.true_capacity, 200u);
  EXPECT_EQ(split.conflict_base + split.conflict_huge + split.true_capacity,
            metrics::CapacityMisses(row));
}

TEST(MissBreakdown, SplitWithoutEvictionTelemetryIsAllTrueCapacity) {
  const metrics::MissSourceRow row{"w", 100, 30, 20};
  const metrics::CapacitySplit split = metrics::SplitCapacityMisses(row);
  EXPECT_EQ(split.conflict_base, 0u);
  EXPECT_EQ(split.conflict_huge, 0u);
  EXPECT_EQ(split.true_capacity, 50u);
}

TEST(MissBreakdown, GoldenTable) {
  const std::vector<metrics::MissSourceRow> rows = {
      {"Canneal", 1000, 250, 250, 100, 50, 50, 50},
      {"Redis", 200, 0, 100},
  };
  EXPECT_EQ(metrics::RenderMissBreakdown(rows),
            "\n== Figure 16 companion: TLB miss sources (cold vs precise "
            "invalidation vs conflict vs true capacity) ==\n"
            "workload  misses  cold  precise inval  conflict 4k  "
            "conflict 2M  true capacity\n"
            "----------------------------------------------------------------"
            "--------------\n"
            "Canneal   1000    25%   25%            20%          10%          "
            "20%          \n"
            "Redis     200     0%    50%            0%           0%           "
            "50%          \n"
            "average           12%   38%            10%          5%           "
            "35%          \n");
}

metrics::WalkLevelRow SampleWalkRow() {
  metrics::WalkLevelRow row;
  row.label = "Canneal";
  row.walk.guest_mem = {1, 2, 3, 4};
  row.walk.guest_cached = {5, 6, 0, 0};
  row.walk.host_mem = {7, 8, 9, 10};
  row.walk.host_cached = {11, 12, 0, 0};
  row.walk.nested_hit = {13, 14, 15, 16};
  row.walk.nested_walk = {17, 18, 19, 20};
  row.walk.memo_hits = 21;
  row.walk.memo_upper_hits = 22;
  return row;
}

TEST(WalkBreakdown, LevelCyclesFollowTheWalkerCostModel) {
  const metrics::WalkLevelRow row = SampleWalkRow();
  // (guest_mem + host_mem) * 50 + (guest_cached + host_cached) * 2.
  EXPECT_EQ(metrics::WalkLevelCycles(row, 0), (1 + 7) * 50 + (5 + 11) * 2);
  EXPECT_EQ(metrics::WalkLevelCycles(row, 1), (2 + 8) * 50 + (6 + 12) * 2);
  EXPECT_EQ(metrics::WalkLevelCycles(row, 2), (3 + 9) * 50);
  EXPECT_EQ(metrics::WalkLevelCycles(row, 3), (4 + 10) * 50);
}

TEST(WalkBreakdown, GoldenTable) {
  const std::vector<metrics::WalkLevelRow> rows = {SampleWalkRow()};
  EXPECT_EQ(metrics::RenderWalkLevelBreakdown(rows),
            "\n"
            "== Walk-level breakdown: where each level's references were served and the miss cycles it charged (DESIGN.md \xC2\xA7" "3e) ==\n"
            "workload  level    guest mem   guest pwc  host mem  host pwc  nested hit  nested walk  cycles\n"
            "---------------------------------------------------------------------------------------------\n"
            "Canneal   L4 PML4  1           5          7         11        13          17           432   \n"
            "Canneal   L3 PDPT  2           6          8         12        14          18           536   \n"
            "Canneal   L2 PD    3           0          9         0         15          19           600   \n"
            "Canneal   L1 PT    4           0          10        0         16          20           700   \n"
            "Canneal   memo     replays=21                                             upper=22           \n");
}

}  // namespace
