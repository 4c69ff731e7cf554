// Fuzzed differential test for the DAMON-style region monitor (same idiom
// as test_utility_monitor.cc): drive the monitor with a randomly mutating
// brute-force per-page counter array and verify every observable output
// against a full reference replica — without ever replicating the
// monitor's internal RNG stream.  The monitor exports exactly enough
// evidence to make that possible:
//
//  * last_samples() — every check's (page, armed, checked, accessed), so
//    the two-phase protocol is validated against the raw counters: the
//    armed count must equal the page's counter as of the previous tick,
//    the checked count must equal it now, and accessed must be exactly
//    checked > armed (exact under monotone counters, conservative — never
//    a false positive — under external decay);
//  * last_layout_ops() — the aggregation's merge/split ops, replayed over
//    a reference region list with the documented length-weighted-average
//    merge math and inherit-on-split rules.  After replay the reference
//    must equal regions() field-for-field (start, len, tallies, age).
//
// Plus structural invariants every tick (regions tile [0, span) within the
// configured count bounds), stats reconciliation against the logs, a
// ColdOrder comparator check, and a deterministic hot/cold workload where
// sampling exactness forces saturated / zero published tallies.
#include "damon/region_monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/rng.h"

namespace {

using damon::LayoutOp;
using damon::MonitorConfig;
using damon::Region;
using damon::RegionMonitor;
using damon::SampleRecord;

// Reference regions replicate every Region field; geometry evolves only
// through the monitor's own op log.
void ExpectTiling(const std::vector<Region>& regions, uint64_t span,
                  uint64_t min_regions, uint64_t max_regions) {
  ASSERT_FALSE(regions.empty());
  ASSERT_GE(regions.size(), std::min<uint64_t>(min_regions, span));
  ASSERT_LE(regions.size(), max_regions);
  uint64_t next = 0;
  for (const Region& r : regions) {
    ASSERT_EQ(r.start, next);
    ASSERT_GE(r.len, 1u);
    next += r.len;
  }
  ASSERT_EQ(next, span);
}

size_t FindByStart(const std::vector<Region>& regions, uint64_t start) {
  for (size_t i = 0; i < regions.size(); ++i) {
    if (regions[i].start == start) {
      return i;
    }
  }
  ADD_FAILURE() << "no region starts at " << start;
  return regions.size();
}

class DamonFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DamonFuzzTest, DifferentialAgainstBruteForceTracker) {
  base::Rng rng(GetParam());
  MonitorConfig cfg;
  cfg.min_regions = 1 + static_cast<uint32_t>(rng.NextBelow(8));
  cfg.max_regions = cfg.min_regions + static_cast<uint32_t>(rng.NextBelow(32));
  cfg.aggregation_ticks = 1 + static_cast<uint32_t>(rng.NextBelow(6));
  cfg.merge_threshold = static_cast<uint32_t>(rng.NextBelow(3));
  cfg.seed = GetParam() * 977 + 5;
  const uint64_t span = 1 + rng.NextBelow(400);
  RegionMonitor monitor(cfg, span);

  // Brute-force per-page access counters (what the page tables keep), and
  // their value as of the end of the previous tick — what armed counts
  // must have recorded.
  std::vector<uint64_t> counts(span, 0);
  std::vector<uint64_t> prev_counts = counts;

  std::vector<Region> ref = monitor.regions();
  ExpectTiling(ref, span, cfg.min_regions, cfg.max_regions);
  ASSERT_EQ(ref.size(), std::min<uint64_t>(cfg.min_regions, span));

  uint64_t checked = 0;
  uint64_t accessed_total = 0;
  uint64_t merges = 0;
  uint64_t splits = 0;
  const int kTicks = 120;
  for (int tick = 1; tick <= kTicks; ++tick) {
    // Mutate the counters the way the simulator does between daemon ticks:
    // random touches, occasionally an external decay (promotion policies
    // halve the same counters via DecayAccessCounts).
    const bool decayed = rng.NextBool(0.15);
    if (decayed) {
      for (uint64_t& c : counts) {
        c /= 2;
      }
    }
    std::vector<bool> touched(span, false);
    const uint64_t touches = rng.NextBelow(50);
    for (uint64_t t = 0; t < touches; ++t) {
      const uint64_t page = rng.NextBelow(span);
      counts[page] += 1 + rng.NextBelow(4);
      touched[page] = true;
    }

    const uint64_t aggregations_before = monitor.stats().aggregations;
    monitor.Tick([&](uint64_t page) { return counts[page]; });

    // --- Sample log vs brute force -------------------------------------
    // Tick 1 has nothing armed; afterwards every region checks exactly
    // once per tick (the check runs before the layout adapts).
    const size_t expected_checks = tick == 1 ? 0 : ref.size();
    ASSERT_EQ(monitor.last_samples().size(), expected_checks);
    for (const SampleRecord& rec : monitor.last_samples()) {
      ASSERT_LT(rec.page, span);
      const size_t ri = FindByStart(ref, rec.region_start);
      ASSERT_LT(ri, ref.size());
      ASSERT_GE(rec.page, ref[ri].start);
      ASSERT_LT(rec.page, ref[ri].start + ref[ri].len);
      ASSERT_EQ(rec.armed_count, prev_counts[rec.page]);
      ASSERT_EQ(rec.checked_count, counts[rec.page]);
      ASSERT_EQ(rec.accessed, rec.checked_count > rec.armed_count);
      // Conservative under decay, exact without it.
      if (rec.accessed) {
        ASSERT_TRUE(touched[rec.page]);
      }
      if (!decayed) {
        ASSERT_EQ(rec.accessed, touched[rec.page]);
      }
      ref[ri].nr_accesses += rec.accessed ? 1 : 0;
      ++checked;
      accessed_total += rec.accessed ? 1 : 0;
    }

    // --- Layout-op replay ----------------------------------------------
    // last_layout_ops() persists between aggregations; replay only when
    // one actually ran this tick.  Op order mirrors Aggregate(): merges
    // (reading raw window tallies), then publish/reset/age, then splits.
    if (monitor.stats().aggregations != aggregations_before) {
      ASSERT_EQ(monitor.stats().aggregations, aggregations_before + 1);
      size_t op = 0;
      const std::vector<LayoutOp>& ops = monitor.last_layout_ops();
      for (; op < ops.size() && ops[op].kind == LayoutOp::Kind::kMerge;
           ++op) {
        const size_t li = FindByStart(ref, ops[op].left);
        ASSERT_LT(li + 1, ref.size());
        ASSERT_EQ(ref[li + 1].start, ops[op].right);
        Region& left = ref[li];
        const Region& right = ref[li + 1];
        const uint64_t total = left.len + right.len;
        left.nr_accesses = static_cast<uint32_t>(
            (uint64_t{left.nr_accesses} * left.len +
             uint64_t{right.nr_accesses} * right.len) /
            total);
        left.age = static_cast<uint32_t>(
            (uint64_t{left.age} * left.len + uint64_t{right.age} * right.len) /
            total);
        left.len = total;
        ref.erase(ref.begin() + static_cast<ptrdiff_t>(li) + 1);
        ++merges;
      }
      for (Region& r : ref) {
        r.last_nr_accesses = r.nr_accesses;
        r.nr_accesses = 0;
        r.age += 1;
      }
      for (; op < ops.size(); ++op) {
        ASSERT_EQ(ops[op].kind, LayoutOp::Kind::kSplit);
        const size_t li = FindByStart(ref, ops[op].left);
        Region& left = ref[li];
        const uint64_t at = ops[op].right;
        ASSERT_GT(at, left.start);
        ASSERT_LT(at, left.start + left.len);
        Region right = left;
        right.start = at;
        right.len = left.start + left.len - at;
        left.len = at - left.start;
        ref.insert(ref.begin() + static_cast<ptrdiff_t>(li) + 1, right);
        ++splits;
      }
    }

    // --- Reference must now equal the monitor exactly ------------------
    ExpectTiling(monitor.regions(), span, cfg.min_regions, cfg.max_regions);
    ASSERT_EQ(monitor.regions().size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      const Region& got = monitor.regions()[i];
      ASSERT_EQ(got.start, ref[i].start) << "region " << i;
      ASSERT_EQ(got.len, ref[i].len) << "region " << i;
      ASSERT_EQ(got.nr_accesses, ref[i].nr_accesses) << "region " << i;
      ASSERT_EQ(got.last_nr_accesses, ref[i].last_nr_accesses)
          << "region " << i;
      ASSERT_EQ(got.age, ref[i].age) << "region " << i;
    }

    // ColdOrder is exactly the documented comparator over regions() (a
    // strict total order here — starts are unique).
    std::vector<Region> expect_cold = monitor.regions();
    std::sort(expect_cold.begin(), expect_cold.end(),
              [](const Region& a, const Region& b) {
                if (a.last_nr_accesses != b.last_nr_accesses) {
                  return a.last_nr_accesses < b.last_nr_accesses;
                }
                if (a.age != b.age) {
                  return a.age > b.age;
                }
                return a.start < b.start;
              });
    const std::vector<Region> cold = monitor.ColdOrder();
    ASSERT_EQ(cold.size(), expect_cold.size());
    for (size_t i = 0; i < cold.size(); ++i) {
      ASSERT_EQ(cold[i].start, expect_cold[i].start) << "cold rank " << i;
    }

    prev_counts = counts;
  }

  // --- Stats reconcile with the logs -----------------------------------
  const damon::MonitorStats& stats = monitor.stats();
  EXPECT_EQ(stats.ticks, static_cast<uint64_t>(kTicks));
  EXPECT_EQ(stats.aggregations,
            static_cast<uint64_t>(kTicks) / cfg.aggregation_ticks);
  EXPECT_EQ(stats.samples_checked, checked);
  EXPECT_EQ(stats.samples_accessed, accessed_total);
  EXPECT_EQ(stats.merges, merges);
  EXPECT_EQ(stats.splits, splits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DamonFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

// Deterministic hot/cold split: pages [0, 32) gain one access per tick,
// pages [32, 64) never.  The initial 4-slice layout puts a region boundary
// at 32, and with merge_threshold = 0 a hot region (window tally ==
// aggregation_ticks — sampling is exact under monotone counters, so every
// check in a hot region is accessed) can never merge with a cold one
// (tally 0), so the boundary survives every adaptation and all regions
// stay purely hot or purely cold.  Published tallies must therefore
// saturate exactly, and ColdOrder must rank every cold region before every
// hot one.
TEST(DamonHotColdTest, PublishedTalliesSaturateExactly) {
  MonitorConfig cfg;
  cfg.min_regions = 4;
  cfg.max_regions = 16;
  cfg.aggregation_ticks = 4;
  cfg.merge_threshold = 0;
  cfg.seed = 7;
  const uint64_t kSpan = 64;
  const uint64_t kHotEnd = 32;
  RegionMonitor monitor(cfg, kSpan);

  uint64_t tick_count = 0;
  const auto access_count = [&](uint64_t page) {
    return page < kHotEnd ? tick_count : 0;
  };
  const int kTicks = 40;  // 10 full aggregation windows
  for (int t = 0; t < kTicks; ++t) {
    ++tick_count;
    monitor.Tick(access_count);
  }
  ASSERT_EQ(monitor.stats().aggregations, 10u);

  size_t hot_regions = 0;
  size_t cold_regions = 0;
  for (const Region& r : monitor.regions()) {
    const bool hot = r.start + r.len <= kHotEnd;
    const bool cold = r.start >= kHotEnd;
    ASSERT_TRUE(hot || cold) << "region straddles the hot/cold boundary: ["
                             << r.start << ", " << r.start + r.len << ")";
    if (hot) {
      // Full windows publish exactly aggregation_ticks (one accessed check
      // per tick; only the very first window is one check short, and nine
      // windows have completed since).
      EXPECT_EQ(r.last_nr_accesses, cfg.aggregation_ticks)
          << "hot region at " << r.start;
      ++hot_regions;
    } else {
      EXPECT_EQ(r.last_nr_accesses, 0u) << "cold region at " << r.start;
      ++cold_regions;
    }
  }
  EXPECT_GE(hot_regions, 1u);
  EXPECT_GE(cold_regions, 1u);

  // Every cold region sorts before every hot region.
  const std::vector<Region> cold_order = monitor.ColdOrder();
  for (size_t i = 0; i < cold_order.size(); ++i) {
    const bool is_cold = cold_order[i].start >= kHotEnd;
    EXPECT_EQ(is_cold, i < cold_regions) << "cold rank " << i;
  }
}

// A one-page span degenerates to a single unsplittable, unmergeable
// region; the monitor must keep ticking without layout churn.
TEST(DamonEdgeTest, SinglePageSpan) {
  MonitorConfig cfg;
  cfg.min_regions = 8;
  cfg.max_regions = 64;
  cfg.aggregation_ticks = 2;
  RegionMonitor monitor(cfg, 1);
  uint64_t count = 0;
  for (int t = 0; t < 20; ++t) {
    ++count;
    monitor.Tick([&](uint64_t) { return count; });
    ASSERT_EQ(monitor.regions().size(), 1u);
    ASSERT_EQ(monitor.regions()[0].start, 0u);
    ASSERT_EQ(monitor.regions()[0].len, 1u);
  }
  EXPECT_EQ(monitor.stats().splits, 0u);
  EXPECT_EQ(monitor.stats().merges, 0u);
  // 19 checks (tick 1 arms only), all accessed: the counter is monotone.
  EXPECT_EQ(monitor.stats().samples_checked, 19u);
  EXPECT_EQ(monitor.stats().samples_accessed, 19u);
}

}  // namespace
