// Ablation (DESIGN.md §3): Gemini's adaptive booking timeout (Algorithm 1)
// versus fixed timeout values, on a churn-heavy workload where bookings
// turn over constantly.  Regenerates the design argument of paper §4.1: a
// too-small timeout loses bookings before they can be used; a too-large
// one holds memory hostage; the controller lands between without tuning.
#include "bench/bench_common.h"

int main() {
  bench::CheckEnvironment();
  workload::WorkloadSpec spec = workload::SpecByName("Memcached");
  harness::BedOptions bed;

  struct Variant {
    const char* label;
    base::Cycles initial;
    base::Cycles period;  // huge period => controller effectively frozen
  };
  const std::vector<Variant> variants = {
      {"fixed 2M cycles", 2'000'000, 1ull << 60},
      {"fixed 40M cycles", 40'000'000, 1ull << 60},
      {"fixed 800M cycles", 800'000'000, 1ull << 60},
      {"adaptive (Algorithm 1)", 40'000'000, 20'000'000},
  };

  const auto cells = bench::RunCells(
      "ablation_booking_timeout", variants.size(), bed,
      [&](size_t i) { return std::string(variants[i].label); },
      [&](size_t i, const harness::BedOptions& cell_bed) {
        gemini::GeminiOptions options;
        options.initial_booking_timeout = variants[i].initial;
        options.controller_period = variants[i].period;
        return harness::RunGeminiAblation(spec, cell_bed, options);
      });

  metrics::TextTable table(
      "Ablation: booking timeout (fixed values vs Algorithm 1)");
  table.SetColumns({"timeout", "throughput", "p99", "aligned", "miss rate"});
  std::vector<metrics::ResultRow> rows;
  for (size_t i = 0; i < variants.size(); ++i) {
    const workload::RunResult& r = cells[i].result;
    table.AddRow({variants[i].label, metrics::TextTable::Fmt(r.throughput, 3),
                  metrics::TextTable::Fmt(r.p99_latency, 0),
                  metrics::TextTable::Pct(r.alignment.well_aligned_rate),
                  metrics::TextTable::Fmt(r.tlb_miss_rate, 3)});
    rows.push_back(metrics::ResultRow{spec.name, variants[i].label,
                                      &cells[i].result, cells[i].wall_ms,
                                      bed.seed});
  }
  table.Print();
  bench::ExportRows("ablation_booking_timeout", rows);
  return 0;
}
