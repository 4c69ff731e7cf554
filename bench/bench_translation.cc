// Microbenchmark for the translation hot path (engineering benchmark, not
// a paper figure): measures raw TranslationEngine::Translate throughput in
// six regimes and writes BENCH_translation.json for regression tracking.
//
//   hit_heavy        TLB-resident working set; nearly every access takes
//                    the O(1) generation-compare fast path.
//   miss_heavy       Working set far beyond TLB reach; dominated by nested
//                    walks and TLB fills.
//   churn_revalidate Periodic in-place promotions/demotions between access
//                    bursts; exercises the generation-mismatch slow path
//                    (re-derive, then restamp or drop).
//   mixed            Half-resident working set: huge entries stay cached
//                    while the base-page half thrashes the TLB.
//   walk_seq         Walker-depth scenario: an all-base layout swept
//                    sequentially, so every miss is a full-depth (4 guest
//                    level) nested walk with maximal walk-memo locality.
//   walk_deep        Walker-depth scenario: huge-mapped regions visited in
//                    a sparse stride permutation — one access per region,
//                    consecutive accesses in different PD/PDPT groups —
//                    stressing the upper walk levels and memo validation.
//
// The simulated side is deterministic: same seed, same access sequence,
// same frame checksum and TLB counters on every run and at any optimization
// level.  Only wall_ms and mops_per_s are host-performance numbers; each
// scenario runs $GEMINI_BENCH_REPS times (default 3) and reports the best
// repetition, with all repetitions required to agree on the simulated side.
//
// Output: BENCH_translation.json in $GEMINI_EXPORT (if set) or the current
// directory — an array of one object per scenario, with the columns
// ScenarioColumns declares below — plus WALK_breakdown.txt, the per-level
// walk table for every scenario (metrics::RenderWalkLevelBreakdown).
// Schema documented in BENCHMARKS.md.
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/env.h"
#include "base/rng.h"
#include "base/stats.h"
#include "base/types.h"
#include "bench/bench_common.h"
#include "metrics/export.h"
#include "metrics/miss_breakdown.h"
#include "mmu/page_table.h"
#include "mmu/translation_engine.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;
using mmu::PageTable;
using mmu::TranslateStatus;
using mmu::TranslationEngine;

struct ScenarioResult {
  std::string scenario;
  uint64_t ops = 0;
  double wall_ms = 0.0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t stale_hits = 0;
  uint64_t checksum = 0;  // deterministic digest of translated frames
  mmu::WalkLevelStats walk;  // per-level walk accounting of the run
  // Translation-latency percentiles in simulated cycles (log2-bucket
  // nearest-rank; deterministic like the counters above).
  uint64_t lat_p50 = 0;
  uint64_t lat_p90 = 0;
  uint64_t lat_p99 = 0;
};

// Page-table layout a scenario runs against.
enum class Layout {
  kMixed,    // even regions huge/huge, odd regions base/base
  kAllBase,  // every region base/base: all walks are full depth
  kAllHuge,  // every region huge/huge: walks stop at the PD level
};

// Access-sequence shape.  All three are deterministic; kRandom draws from
// the scenario rng, the other two are arithmetic.
enum class Pattern {
  kRandom,
  kSequential,  // vpn = i mod span
  kStride,      // one access per region, regions in a 513-step permutation
};

// Repetitions per scenario ($GEMINI_BENCH_REPS, default 3).  Each scenario
// is run this many times and the best (minimum) wall time is reported:
// min-of-N is the standard defense against scheduler and frequency noise,
// and every repetition must reproduce the same checksum and counters
// (enforced below), so the simulated side cannot vary between reps.
uint64_t ResolveReps() {
  return base::EnvInt("GEMINI_BENCH_REPS", 1, UINT64_MAX).value_or(3);
}

TranslationEngine::Config EngineConfig() {
  // Paper-sized TLB (128 x 12): the same geometry the figure benches use.
  return TranslationEngine::Config{};
}

// Maps `regions` huge regions at both layers: even regions as well-aligned
// huge pairs, odd regions as base/base — a mix that populates both TLB entry
// sizes.
void BuildLayout(PageTable& guest, PageTable& ept, uint64_t regions,
                 Layout layout = Layout::kMixed) {
  for (uint64_t r = 0; r < regions; ++r) {
    const uint64_t gpa_block = r * kPagesPerHuge;
    const uint64_t hpa_block = (regions + r) * kPagesPerHuge;
    const bool huge = layout == Layout::kAllHuge ||
                      (layout == Layout::kMixed && r % 2 == 0);
    if (huge) {
      guest.MapHuge(r, gpa_block);
      ept.MapHuge(r, hpa_block);
    } else {
      for (uint64_t s = 0; s < kPagesPerHuge; ++s) {
        guest.MapBase((r << kHugeOrder) + s, gpa_block + s);
        ept.MapBase(gpa_block + s, hpa_block + s);
      }
    }
  }
}

uint64_t NextVpn(Pattern pattern, base::Rng& rng, uint64_t span, uint64_t i) {
  switch (pattern) {
    case Pattern::kRandom:
      return rng.NextBelow(span);
    case Pattern::kSequential:
      return i % span;
    default: {
      // 513 is coprime to the power-of-two region counts used below, so
      // the walk covers every region; consecutive accesses are 513 regions
      // (≈ 1 GiB of VA) apart, crossing PD/PDPT boundaries each step.
      const uint64_t regions = span >> kHugeOrder;
      return ((i * 513) % regions) << kHugeOrder;
    }
  }
}

ScenarioResult RunScenario(const std::string& name, uint64_t regions,
                           uint64_t ops, uint64_t churn_period,
                           Layout layout = Layout::kMixed,
                           Pattern pattern = Pattern::kRandom) {
  PageTable guest;
  PageTable ept;
  BuildLayout(guest, ept, regions, layout);
  TranslationEngine engine(EngineConfig(), &guest, &ept);

  base::Rng rng(42);
  const uint64_t span = regions << kHugeOrder;
  uint64_t checksum = 0;

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < ops; ++i) {
    if (churn_period != 0 && i % churn_period == churn_period - 1) {
      // Demote and re-promote a well-aligned region in place: frames are
      // unchanged, so cached entries stay correct but their generation
      // stamps go stale — the next access must re-derive and restamp.
      const uint64_t r = rng.NextBelow(regions / 2) * 2;
      guest.Demote(r);
      ept.Demote(r);
      guest.PromoteInPlace(r);
      ept.PromoteInPlace(r);
    }
    const uint64_t vpn = NextVpn(pattern, rng, span, i);
    const auto t = engine.Translate(vpn);
    if (t.status == TranslateStatus::kOk) {
      checksum = checksum * 1099511628211ull + t.frame;
    }
  }
  const auto end = std::chrono::steady_clock::now();

  ScenarioResult res;
  res.scenario = name;
  res.ops = ops;
  res.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          end - start)
          .count();
  res.tlb_hits = engine.tlb().hits();
  res.tlb_misses = engine.tlb().misses();
  res.stale_hits = engine.tlb().stale_hits();
  res.checksum = checksum;
  res.walk = engine.walk_stats();
  const auto& lat = engine.latency_histogram().buckets();
  res.lat_p50 = base::Log2Histogram::PercentileOfCounts(lat, 0.50);
  res.lat_p90 = base::Log2Histogram::PercentileOfCounts(lat, 0.90);
  res.lat_p99 = base::Log2Histogram::PercentileOfCounts(lat, 0.99);
  return res;
}

double Mops(const ScenarioResult& r) {
  return r.wall_ms > 0.0 ? static_cast<double>(r.ops) / (r.wall_ms * 1000.0)
                         : 0.0;
}

uint64_t Sum(const std::array<uint64_t, 4>& a) {
  return a[0] + a[1] + a[2] + a[3];
}

// The BENCH_translation.json columns of one scenario.
constexpr auto ScenarioColumns = [](const ScenarioResult& r, auto& sink) {
  sink("scenario", r.scenario);
  sink("ops", r.ops);
  sink("wall_ms", r.wall_ms);
  sink("mops_per_s", Mops(r));
  sink("tlb_hits", r.tlb_hits);
  sink("tlb_misses", r.tlb_misses);
  sink("stale_hits", r.stale_hits);
  sink("walk_mem_refs", Sum(r.walk.guest_mem) + Sum(r.walk.host_mem));
  sink("walk_cached_refs", Sum(r.walk.guest_cached) + Sum(r.walk.host_cached));
  sink("walk_nested_hits", Sum(r.walk.nested_hit));
  sink("walk_memo_hits", r.walk.memo_hits);
  sink("walk_memo_upper_hits", r.walk.memo_upper_hits);
  sink("lat_p50", r.lat_p50);
  sink("lat_p90", r.lat_p90);
  sink("lat_p99", r.lat_p99);
  sink("checksum", r.checksum);
};

// Runs the scenario ResolveReps() times and keeps the fastest repetition.
// Every repetition must produce identical simulated results — a repeated
// determinism check.
ScenarioResult RunBest(const std::string& name, uint64_t regions,
                       uint64_t ops, uint64_t churn_period,
                       Layout layout = Layout::kMixed,
                       Pattern pattern = Pattern::kRandom) {
  ScenarioResult best =
      RunScenario(name, regions, ops, churn_period, layout, pattern);
  const uint64_t reps = ResolveReps();
  for (uint64_t rep = 1; rep < reps; ++rep) {
    ScenarioResult r =
        RunScenario(name, regions, ops, churn_period, layout, pattern);
    SIM_CHECK_MSG(r.checksum == best.checksum && r.tlb_hits == best.tlb_hits &&
                      r.tlb_misses == best.tlb_misses &&
                      r.stale_hits == best.stale_hits,
                  "%s not deterministic across repetitions", name.c_str());
    if (r.wall_ms < best.wall_ms) {
      best = r;
    }
  }
  return best;
}

}  // namespace

int main() {
  std::vector<ScenarioResult> results;
  // 4 regions = 2 huge entries + 1024 base entries: fully TLB-resident at
  // 128x12, so after warm-up every access is a fast-path hit.
  results.push_back(RunBest("hit_heavy", 4, 1ull << 24, 0));
  // 4096 regions ≈ 2M pages: every access is effectively a cold probe.
  results.push_back(RunBest("miss_heavy", 4096, 1ull << 22, 0));
  // TLB-resident layout with an in-place demote/promote cycle every 4K
  // accesses: stresses generation-mismatch revalidation.
  results.push_back(RunBest("churn_revalidate", 4, 1ull << 23, 4096));
  // 256 regions: the 128 huge entries stay resident while the 64K base
  // pages thrash — roughly half hits, half misses.
  results.push_back(RunBest("mixed", 256, 1ull << 22, 0));
  // Walker-depth scenarios.  walk_seq: full-depth walks with maximal memo
  // locality.  walk_deep: PD-leaf walks with upper-level pressure.
  results.push_back(RunBest("walk_seq", 4096, 1ull << 22, 0,
                            Layout::kAllBase, Pattern::kSequential));
  results.push_back(RunBest("walk_deep", 4096, 1ull << 22, 0,
                            Layout::kAllHuge, Pattern::kStride));

  for (const ScenarioResult& r : results) {
    std::printf(
        "%-18s %10llu ops  %9.1f ms  %7.2f Mops/s  hits %llu  misses %llu  "
        "stale %llu  checksum %llu\n",
        r.scenario.c_str(), static_cast<unsigned long long>(r.ops), r.wall_ms,
        Mops(r), static_cast<unsigned long long>(r.tlb_hits),
        static_cast<unsigned long long>(r.tlb_misses),
        static_cast<unsigned long long>(r.stale_hits),
        static_cast<unsigned long long>(r.checksum));
  }

  const std::string path = bench::ExportPath("BENCH_translation.json");
  metrics::WriteFile(path, metrics::RenderJson(results, ScenarioColumns));
  std::printf("wrote %s\n", path.c_str());

  std::vector<metrics::WalkLevelRow> walk_rows;
  for (const ScenarioResult& r : results) {
    walk_rows.push_back(metrics::WalkLevelRow{r.scenario, r.walk});
  }
  const std::string walk_path = bench::ExportPath("WALK_breakdown.txt");
  metrics::WriteFile(walk_path, metrics::RenderWalkLevelBreakdown(walk_rows));
  std::printf("wrote %s\n", walk_path.c_str());
  return 0;
}
