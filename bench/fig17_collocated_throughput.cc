// Figure 17 reproduction: throughput when two VMs are collocated on the
// same host — TLB-sensitive workloads paired with TLB-sensitive and
// non-TLB-sensitive companions — across all systems, normalized to
// Host-B-VM-B.
//
// Expected shape: Gemini best or tied on sensitive pairs; on insensitive
// workloads (Shore, SP.D) all systems are within a few percent of base —
// Gemini introduces negligible overhead (paper: ~2-3 %).
//
// GEMINI_TLB_MODE adds a sweep dimension over the TLB sharing arrangement
// (private / shared / partitioned, see mmu/tlb_domain.h): one table per
// mode, and export rows tagged with the mode.  Default (unset) runs the
// historical private arrangement only, with byte-identical output.
#include "bench/bench_common.h"

int main() {
  bench::CheckEnvironment();
  bench::RunPairFigure(
      "Figure 17", "fig17_collocated",
      {
          {"Canneal", "Redis"},   // sensitive + sensitive
          {"Masstree", "SP.D"},   // sensitive + insensitive
          {"Silo", "Shore"},      // sensitive + insensitive
      },
      "Figure 17: collocated-VM throughput (normalized to Host-B-VM-B)",
      bench::Throughput);
  return 0;
}
