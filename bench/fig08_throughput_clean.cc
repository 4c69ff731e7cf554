// Figure 8 reproduction: throughput of all sixteen workloads across the
// eight systems in a clean-slate VM, with and without memory
// fragmentation, normalized to Host-B-VM-B.
//
// Expected shape: Gemini best on (geometric) average; Translation Ranger
// at or below Host-B-VM-B due to continuous migration; the others between.
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AllSystems();
  const auto specs = workload::CleanSlateCatalog();
  for (bool fragmented : {true, false}) {
    harness::BedOptions bed;
    bed.fragmented = fragmented;
    const auto sweep = bench::RunSweep(
        specs, systems, bed, harness::RunCleanSlate,
        fragmented ? "fig08_fragmented" : "fig08_unfragmented");
    bench::PrintNormalizedTable(
        std::string("Figure 8: clean-slate throughput, ") +
            (fragmented ? "fragmented" : "unfragmented") +
            " (normalized to Host-B-VM-B)",
        sweep, harness::SystemKind::kHostBVmB,
        [](const workload::RunResult& r) { return r.throughput; }, true);
  }
  return 0;
}
