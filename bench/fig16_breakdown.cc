// Figure 16 reproduction: Gemini performance breakdown under memory
// fragmentation — how much of Gemini's throughput each mechanism group
// contributes: EMA + huge booking ("EMA/HB") versus the huge bucket.
//
// Methodology (mirrors the paper's ablation): run the reused-VM scenario
// under (a) full Gemini, (b) EMA/HB only (bucket off), and (c) bucket only
// (EMA/HB off).  The contribution of each part is its ablated gain over
// Host-B-VM-B as a share of the summed gains.  Expected shape: EMA/HB
// contributes the majority (~2/3 in the paper), with the bucket mattering
// most for allocation-churning workloads (Redis, RocksDB, Memcached).
#include "bench/bench_common.h"
#include "metrics/miss_breakdown.h"

int main() {
  bench::CheckEnvironment();
  const std::vector<std::string> names = {"Canneal", "Redis",  "RocksDB",
                                          "Memcached", "CG.D", "SVM"};
  harness::BedOptions bed;

  gemini::GeminiOptions full;
  gemini::GeminiOptions ema_only;
  ema_only.enable_bucket = false;
  gemini::GeminiOptions bucket_only;
  bucket_only.enable_ema = false;

  // Variant-minor cell layout: base, full, EMA/HB only, bucket only.  The
  // base runs Host-B-VM-B, the others Gemini with their options.
  struct Variant {
    const char* name;
    const gemini::GeminiOptions* gemini;
  };
  const std::vector<Variant> variants = {{"Host-B-VM-B", nullptr},
                                         {"Gemini", &full},
                                         {"Gemini-EMA/HB", &ema_only},
                                         {"Gemini-bucket", &bucket_only}};
  const size_t kVariants = variants.size();
  const auto cells = bench::RunCells(
      "fig16_breakdown", names.size() * kVariants, bed,
      [&](size_t i) {
        return names[i / kVariants] + "_" + variants[i % kVariants].name;
      },
      [&](size_t i, const harness::BedOptions& cell_bed) {
        const workload::WorkloadSpec spec =
            workload::SpecByName(names[i / kVariants]);
        const gemini::GeminiOptions* gem = variants[i % kVariants].gemini;
        return gem == nullptr
                   ? harness::RunReusedVm(harness::SystemKind::kHostBVmB,
                                          spec, cell_bed)
                   : harness::RunGeminiAblation(spec, cell_bed, *gem);
      });

  metrics::TextTable table(
      "Figure 16: Gemini performance breakdown (share of throughput gain "
      "over Host-B-VM-B)");
  table.SetColumns({"workload", "full thr", "EMA/HB share", "bucket share"});
  std::vector<double> ema_shares;
  std::vector<double> bucket_shares;
  std::vector<metrics::ResultRow> rows;
  for (size_t n = 0; n < names.size(); ++n) {
    const auto& base = cells[n * kVariants + 0].result;
    const auto& with_full = cells[n * kVariants + 1].result;
    const auto& with_ema = cells[n * kVariants + 2].result;
    const auto& with_bucket = cells[n * kVariants + 3].result;
    const double gain_ema =
        std::max(0.0, with_ema.throughput - base.throughput);
    const double gain_bucket =
        std::max(0.0, with_bucket.throughput - base.throughput);
    const double total = gain_ema + gain_bucket;
    const double ema_share = total > 0 ? gain_ema / total : 0.0;
    const double bucket_share = total > 0 ? gain_bucket / total : 0.0;
    ema_shares.push_back(ema_share);
    bucket_shares.push_back(bucket_share);
    table.AddRow({names[n],
                  metrics::TextTable::Fmt(
                      metrics::Normalize(with_full.throughput,
                                         base.throughput)),
                  metrics::TextTable::Pct(ema_share),
                  metrics::TextTable::Pct(bucket_share)});
    for (size_t v = 0; v < kVariants; ++v) {
      rows.push_back(metrics::ResultRow{names[n], variants[v].name,
                                        &cells[n * kVariants + v].result,
                                        cells[n * kVariants + v].wall_ms,
                                        bed.seed});
    }
  }
  table.AddRow({"average", "",
                metrics::TextTable::Pct(metrics::ArithmeticMean(ema_shares)),
                metrics::TextTable::Pct(
                    metrics::ArithmeticMean(bucket_shares))});
  table.Print();

  // Companion table: where full Gemini's remaining TLB misses come from —
  // cold (demand paging), precise invalidation (generation-stamp drops),
  // or capacity.  Rendering lives in metrics::RenderMissBreakdown so
  // tests/test_metrics.cc can pin the byte-exact format.
  std::vector<metrics::MissSourceRow> miss_rows;
  for (size_t n = 0; n < names.size(); ++n) {
    const auto& full_run = cells[n * kVariants + 1].result;
    miss_rows.push_back(metrics::MissSourceRow{
        names[n], full_run.tlb_misses, full_run.faulting_accesses,
        full_run.counters.tlb_stale_hits,
        full_run.counters.tlb_conflict_evictions_base,
        full_run.counters.tlb_conflict_evictions_huge,
        full_run.counters.tlb_capacity_evictions_base,
        full_run.counters.tlb_capacity_evictions_huge});
  }
  std::fputs(metrics::RenderMissBreakdown(miss_rows).c_str(), stdout);

  // Second companion: what those misses cost per walk level.  Splits full
  // Gemini's measured-phase walk references by level and dimension (guest
  // vs host, memory vs PWC vs nested cache) and the cycles each level
  // charged, using the walker's default cost knobs.  The miss-source table
  // above is a pinned golden (test_metrics.cc); this one is additive.
  std::vector<metrics::WalkLevelRow> walk_rows;
  for (size_t n = 0; n < names.size(); ++n) {
    const auto& full_run = cells[n * kVariants + 1].result;
    walk_rows.push_back(
        metrics::WalkLevelRow{names[n], full_run.counters.walk});
  }
  std::fputs(metrics::RenderWalkLevelBreakdown(walk_rows).c_str(), stdout);

  bench::ExportRows("fig16_breakdown", rows);
  return 0;
}
