// Figure 9 reproduction: mean request latencies of the latency-reporting
// workloads in a clean-slate VM, fragmented and unfragmented, normalized
// to Host-B-VM-B (lower is better).
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AllSystems();
  const auto specs = bench::LatencyWorkloads();
  for (bool fragmented : {true, false}) {
    harness::BedOptions bed;
    bed.fragmented = fragmented;
    const auto sweep = bench::RunSweep(
        specs, systems, bed, harness::RunCleanSlate,
        fragmented ? "fig09_fragmented" : "fig09_unfragmented");
    bench::PrintNormalizedTable(
        std::string("Figure 9: clean-slate mean latency, ") +
            (fragmented ? "fragmented" : "unfragmented") +
            " (normalized to Host-B-VM-B; lower is better)",
        sweep, harness::SystemKind::kHostBVmB,
        [](const workload::RunResult& r) { return r.mean_latency; }, false);
  }
  return 0;
}
