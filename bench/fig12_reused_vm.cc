// Figures 12-15 and Table 4 reproduction: the reused VM (paper §6.3), a
// VM in which a large-working-set SVM run completed and exited before the
// measured workload starts.  Runs all sixteen workloads across the eight
// systems once, then prints every figure and table of the experiment from
// that sweep:
//   Figure 12  throughput, normalized to Host-B-VM-B
//   Figure 13  mean latency of the latency-reporting workloads
//   Figure 14  p99 latency of the latency-reporting workloads
//   Figure 15  TLB misses, normalized to Gemini
//   Table 4    well-aligned huge-page rates of the six huge-page systems
//
// Expected shape: every huge-page system improves versus its clean-slate
// self (the host backing is already huge), and Gemini leads because its
// huge bucket hands freed well-aligned regions back out whole.  Every
// system's aligned rate rises versus Table 3 (the host backing persists
// across the workload change), with Gemini near the top of the range
// (paper: 75-99 %).
#include "bench/bench_common.h"

int main() {
  bench::CheckEnvironment();
  const auto systems = harness::AllSystems();
  const auto sweep = bench::RunSweep(workload::CleanSlateCatalog(), systems,
                                     harness::BedOptions{},
                                     harness::RunReusedVm,
                                     "fig12_throughput_reused");

  const auto host_b = harness::SystemKind::kHostBVmB;
  const auto latency =
      bench::Subset(sweep, bench::LatencyWorkloads(), systems);
  bench::PrintNormalizedTable("Figure 12: reused-VM throughput", sweep,
                              host_b, bench::Throughput, true);
  bench::PrintNormalizedTable("Figure 13: reused-VM mean latency", latency,
                              host_b, bench::MeanLatency, false);
  bench::PrintNormalizedTable("Figure 14: reused-VM p99 latency", latency,
                              host_b, bench::P99Latency, false);
  bench::PrintNormalizedTable("Figure 15: reused-VM TLB misses", sweep,
                              harness::SystemKind::kGemini, bench::TlbMisses,
                              false);
  bench::PrintAlignmentTable(
      "Table 4: well-aligned huge page rates, reused VM",
      bench::Subset(sweep, sweep.workloads,
                    harness::AlignmentTableSystems()));
  return 0;
}
