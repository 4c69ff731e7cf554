// Figure 13 reproduction: mean latency in a reused VM, normalized to
// Host-B-VM-B (lower is better).
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AllSystems();
  harness::BedOptions bed;
  const auto sweep = bench::RunSweep(bench::LatencyWorkloads(), systems, bed,
                                     harness::RunReusedVm,
                                     "fig13_mean_latency_reused");
  bench::PrintNormalizedTable(
      "Figure 13: reused-VM mean latency (normalized to Host-B-VM-B; lower "
      "is better)",
      sweep, harness::SystemKind::kHostBVmB,
      [](const workload::RunResult& r) { return r.mean_latency; }, false);
  return 0;
}
