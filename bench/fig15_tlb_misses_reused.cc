// Figure 15 reproduction: TLB misses in a reused VM, normalized to Gemini
// (lower is better).
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AllSystems();
  harness::BedOptions bed;
  const auto sweep = bench::RunSweep(workload::CleanSlateCatalog(), systems,
                                     bed, harness::RunReusedVm,
                                     "fig15_tlb_misses_reused");
  bench::PrintNormalizedTable(
      "Figure 15: reused-VM TLB misses (normalized to Gemini; lower is "
      "better)",
      sweep, harness::SystemKind::kGemini,
      [](const workload::RunResult& r) {
        return static_cast<double>(r.tlb_misses);
      },
      false);
  return 0;
}
