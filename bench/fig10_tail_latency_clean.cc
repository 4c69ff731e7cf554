// Figure 10 reproduction: 99th-percentile request latencies of the
// latency-reporting workloads in a clean-slate VM, fragmented and
// unfragmented, normalized to Host-B-VM-B (lower is better).
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AllSystems();
  const auto specs = bench::LatencyWorkloads();
  for (bool fragmented : {true, false}) {
    harness::BedOptions bed;
    bed.fragmented = fragmented;
    const auto sweep = bench::RunSweep(
        specs, systems, bed, harness::RunCleanSlate,
        fragmented ? "fig10_fragmented" : "fig10_unfragmented");
    bench::PrintNormalizedTable(
        std::string("Figure 10: clean-slate p99 latency, ") +
            (fragmented ? "fragmented" : "unfragmented") +
            " (normalized to Host-B-VM-B; lower is better)",
        sweep, harness::SystemKind::kHostBVmB,
        [](const workload::RunResult& r) { return r.p99_latency; }, false);
  }
  return 0;
}
