// Figures 8-11 and Table 3 reproduction: the clean-slate VM (paper §6.2).
// Runs all sixteen workloads across the eight systems once in a
// fragmented and once in an unfragmented VM, then prints every figure and
// table of the experiment from those two sweeps:
//   Figure 8   throughput, both beds, normalized to Host-B-VM-B
//   Figure 9   mean latency of the latency-reporting workloads, both beds
//   Figure 10  p99 latency of the latency-reporting workloads, both beds
//   Figure 11  TLB misses, fragmented, normalized to Gemini as the paper
//              plots it (higher = more misses than Gemini)
//   Table 3    well-aligned huge-page rates of the six huge-page systems,
//              fragmented
//
// Expected shape: Gemini best on (geometric) average; Translation Ranger
// at or below Host-B-VM-B due to continuous migration; the others between.
#include "bench/bench_common.h"

int main() {
  bench::CheckEnvironment();
  const auto systems = harness::AllSystems();
  const char* const beds[] = {"fragmented", "unfragmented"};
  bench::SweepResult sweeps[2];
  for (size_t b = 0; b < 2; ++b) {
    harness::BedOptions bed;
    bed.fragmented = b == 0;
    sweeps[b] = bench::RunSweep(workload::CleanSlateCatalog(), systems, bed,
                                harness::RunCleanSlate,
                                std::string("fig08_") + beds[b]);
  }

  const auto host_b = harness::SystemKind::kHostBVmB;
  const auto latency = bench::LatencyWorkloads();
  for (size_t b = 0; b < 2; ++b) {
    bench::PrintNormalizedTable(
        std::string("Figure 8: clean-slate throughput, ") + beds[b],
        sweeps[b], host_b, bench::Throughput, true);
  }
  for (size_t b = 0; b < 2; ++b) {
    bench::PrintNormalizedTable(
        std::string("Figure 9: clean-slate mean latency, ") + beds[b],
        bench::Subset(sweeps[b], latency, systems), host_b,
        bench::MeanLatency, false);
  }
  for (size_t b = 0; b < 2; ++b) {
    bench::PrintNormalizedTable(
        std::string("Figure 10: clean-slate p99 latency, ") + beds[b],
        bench::Subset(sweeps[b], latency, systems), host_b,
        bench::P99Latency, false);
  }
  bench::PrintNormalizedTable("Figure 11: clean-slate TLB misses", sweeps[0],
                              harness::SystemKind::kGemini, bench::TlbMisses,
                              false);
  bench::PrintAlignmentTable(
      "Table 3: well-aligned huge page rates, clean-slate VM",
      bench::Subset(sweeps[0], sweeps[0].workloads,
                    harness::AlignmentTableSystems()));
  return 0;
}
