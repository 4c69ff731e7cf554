// Table 1 reproduction: rates of well-aligned huge pages for the four
// motivation workloads under the six huge-page systems (clean-slate
// fragmented VM).
//
// Expected shape: THP/CA-paging/Ranger low; HawkEye/Ingens middling;
// Gemini the clear majority (paper: 50-81 %).
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AlignmentTableSystems();
  harness::BedOptions bed;
  const auto sweep = bench::RunSweep(workload::MotivationCatalog(), systems,
                                     bed, harness::RunCleanSlate,
                                     "table01_alignment");
  bench::PrintAlignmentTable("Table 1: rates of well-aligned huge pages",
                             sweep);
  return 0;
}
