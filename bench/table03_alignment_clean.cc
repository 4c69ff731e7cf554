// Table 3 reproduction: rates of well-aligned huge pages for all sixteen
// workloads under the six huge-page systems, clean-slate fragmented VM.
#include "bench/bench_common.h"

int main() {
  const auto systems = harness::AlignmentTableSystems();
  harness::BedOptions bed;
  const auto sweep = bench::RunSweep(workload::CleanSlateCatalog(), systems,
                                     bed, harness::RunCleanSlate,
                                     "table03_alignment_clean");
  bench::PrintAlignmentTable(
      "Table 3: well-aligned huge page rates, clean-slate VM", sweep);
  return 0;
}
