// Figure 18 reproduction: mean latencies of collocated VMs (latency-
// reporting workloads), normalized to Host-B-VM-B; lower is better.
//
// GEMINI_TLB_MODE adds a sweep dimension over the TLB sharing arrangement
// (private / shared / partitioned, see mmu/tlb_domain.h): one table per
// mode, and export rows tagged with the mode.  Default (unset) runs the
// historical private arrangement only, with byte-identical output.
#include "bench/bench_common.h"

int main() {
  bench::CheckEnvironment();
  bench::RunPairFigure(
      "Figure 18", "fig18_collocated",
      {
          {"Redis", "Memcached"},  // sensitive + sensitive
          {"Img-dnn", "Shore"},    // sensitive + insensitive
      },
      "Figure 18: collocated-VM mean latency (normalized to Host-B-VM-B; "
      "lower is better)",
      bench::MeanLatency);
  return 0;
}
