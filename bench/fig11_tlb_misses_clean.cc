// Figure 11 reproduction: TLB misses of all sixteen workloads in a
// clean-slate fragmented VM, normalized to GEMINI (as the paper plots it;
// higher bars = more misses than Gemini).
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AllSystems();
  harness::BedOptions bed;
  const auto sweep = bench::RunSweep(workload::CleanSlateCatalog(), systems,
                                     bed, harness::RunCleanSlate,
                                     "fig11_tlb_misses");
  bench::PrintNormalizedTable(
      "Figure 11: clean-slate TLB misses (normalized to Gemini; lower is "
      "better)",
      sweep, harness::SystemKind::kGemini,
      [](const workload::RunResult& r) {
        return static_cast<double>(r.tlb_misses);
      },
      false);
  return 0;
}
