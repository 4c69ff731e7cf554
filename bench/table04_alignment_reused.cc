// Table 4 reproduction: rates of well-aligned huge pages in a reused VM.
//
// Expected shape: every system's rate rises versus Table 3 (the host
// backing persists across the workload change), with Gemini near the top
// of the range (paper: 75-99 %).
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AlignmentTableSystems();
  harness::BedOptions bed;
  const auto sweep = bench::RunSweep(workload::CleanSlateCatalog(), systems,
                                     bed, harness::RunReusedVm,
                                     "table04_alignment_reused");
  bench::PrintAlignmentTable(
      "Table 4: well-aligned huge page rates, reused VM", sweep);
  return 0;
}
