// Figure 14 reproduction: p99 latency in a reused VM, normalized to
// Host-B-VM-B (lower is better).
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AllSystems();
  harness::BedOptions bed;
  const auto sweep = bench::RunSweep(bench::LatencyWorkloads(), systems, bed,
                                     harness::RunReusedVm,
                                     "fig14_tail_latency_reused");
  bench::PrintNormalizedTable(
      "Figure 14: reused-VM p99 latency (normalized to Host-B-VM-B; lower "
      "is better)",
      sweep, harness::SystemKind::kHostBVmB,
      [](const workload::RunResult& r) { return r.p99_latency; }, false);
  return 0;
}
