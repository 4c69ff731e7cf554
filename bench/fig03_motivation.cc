// Figure 3 and Table 1 reproduction: the motivation experiment (paper
// §2.3).  Runs the four motivation workloads across all eight systems in a
// clean-slate fragmented VM once, then prints from that sweep:
//   Figure 3   throughput (Canneal, Streamcluster) and mean/p99 latency
//              (Img-dnn, Specjbb), normalized to Host-B-VM-B
//   Table 1    well-aligned huge-page rates of the six huge-page systems
//
// Expected shape: Misalignment only marginally beats base pages;
// THP/CA-paging/Ranger gain little or lose to overhead; Ingens/HawkEye
// gain modestly; Gemini gains the most.  In Table 1, THP/CA-paging/Ranger
// are low, HawkEye/Ingens middling, and Gemini aligns the clear majority
// (paper: 50-81 %).
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AllSystems();
  harness::BedOptions bed;
  const auto sweep = bench::RunSweep(workload::MotivationCatalog(), systems,
                                     bed, harness::RunCleanSlate,
                                     "fig03_motivation");

  bench::PrintNormalizedTable("Figure 3a: motivation throughput", sweep,
                              harness::SystemKind::kHostBVmB,
                              bench::Throughput, true);

  // Latency panels for the latency-reporting pair.
  metrics::TextTable lat("Figure 3b: motivation latencies (normalized)");
  lat.SetColumns(bench::SystemColumns("workload / metric", systems));
  const size_t base =
      bench::SystemColumn(systems, harness::SystemKind::kHostBVmB);
  for (size_t w = 0; w < sweep.workloads.size(); ++w) {
    const workload::RunResult& base_run = sweep.result(w, base);
    if (base_run.requests == 0) {
      continue;  // throughput-only workload
    }
    std::vector<std::string> mean_cells{sweep.workloads[w] + " mean"};
    std::vector<std::string> tail_cells{sweep.workloads[w] + " p99"};
    for (size_t k = 0; k < systems.size(); ++k) {
      const workload::RunResult& run = sweep.result(w, k);
      mean_cells.push_back(metrics::TextTable::Fmt(
          metrics::Normalize(run.mean_latency, base_run.mean_latency)));
      tail_cells.push_back(metrics::TextTable::Fmt(
          metrics::Normalize(run.p99_latency, base_run.p99_latency)));
    }
    lat.AddRow(mean_cells);
    lat.AddRow(tail_cells);
  }
  lat.Print();

  bench::PrintAlignmentTable(
      "Table 1: rates of well-aligned huge pages",
      bench::Subset(sweep, sweep.workloads, harness::AlignmentTableSystems()));
  return 0;
}
