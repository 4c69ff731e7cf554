// Figure 12 reproduction: throughput in a *reused* VM (after a
// large-working-set SVM run completed and exited in the same VM),
// normalized to Host-B-VM-B.
//
// Expected shape: every huge-page system improves versus its clean-slate
// self (the host backing is already huge), and Gemini leads because its
// huge bucket hands freed well-aligned regions back out whole.
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AllSystems();
  harness::BedOptions bed;
  const auto sweep = bench::RunSweep(workload::CleanSlateCatalog(), systems,
                                     bed, harness::RunReusedVm,
                                     "fig12_throughput_reused");
  bench::PrintNormalizedTable(
      "Figure 12: reused-VM throughput (normalized to Host-B-VM-B)", sweep,
      harness::SystemKind::kHostBVmB,
      [](const workload::RunResult& r) { return r.throughput; }, true);
  return 0;
}
