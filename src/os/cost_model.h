// Cycle costs for kernel memory-management operations.
//
// The simulator charges these against the workload either synchronously
// (fault-path work stalls the faulting access — this is what makes Linux
// THP's direct compaction and synchronous huge-page zeroing hurt tail
// latency) or asynchronously (daemon work such as khugepaged promotion,
// charged as background overhead that dilutes throughput).
//
// Values are in simulated cycles and are order-of-magnitude calibrated to
// the literature (Ingens/HawkEye report ~30 us for a 2 MiB collapse, a TLB
// shootdown IPI costs a few microseconds): at ~2 GHz, 1 us ~ 2000 cycles.
// Absolute values only scale the overhead terms; the figure *shapes* come
// from the relative magnitudes.
//
// Every kernel at both layers charges from the one table, kCosts.
#ifndef SRC_OS_COST_MODEL_H_
#define SRC_OS_COST_MODEL_H_

#include "base/types.h"

namespace osim {

struct CostModel {
  // Base-page demand fault: trap + allocate + zero 4 KiB + map.
  base::Cycles base_fault = 3000;
  // Huge-page demand fault: one trap + allocate + zero 2 MiB + map.
  // Zeroing dominates (512 pages' worth, ~100 us); the trap/allocation is
  // paid once instead of 512 times — that is THP's genuine fault saving,
  // and also its fault-latency spike.
  base::Cycles huge_fault = 200000;
  // EPT violation handled by the host (VM exit + map + resume).
  base::Cycles host_fault = 4000;
  base::Cycles host_huge_fault = 208000;
  // Copying one 4 KiB page during migration-based promotion/compaction.
  base::Cycles copy_page = 800;
  // One TLB shootdown event (IPI + invalidation).
  base::Cycles tlb_shootdown = 8000;
  // Direct compaction attempt when a synchronous huge allocation fails
  // (Linux THP "always" mode stalls the fault while compacting).
  base::Cycles direct_compaction = 200000;
  // Scanning one candidate region in a promotion daemon pass.
  base::Cycles daemon_scan_region = 300;
  // In-place promotion (page-table rewrite, no copies).
  base::Cycles promote_in_place = 2000;
  // Copy-on-write fault (HawkEye zero-page dedup artifact; KSM).
  base::Cycles cow_fault = 3500;
  // Writing one page out under memory pressure (mostly asynchronous).
  base::Cycles swap_out_page = 1000;
  // Faulting a swapped page back in (synchronous SSD read, ~80 us).
  base::Cycles swap_in_page = 160000;
  // Demoting one page to the far/compressed tier (compress + copy; the
  // zswap store path, ~1 us — asynchronous, daemon-driven).
  base::Cycles far_demote_page = 2000;
  // Refaulting a far-tier page back to near memory (decompress + copy,
  // ~8 us synchronous — an order of magnitude cheaper than the SSD
  // swap_in_page path, which is what makes overcommit tolerable at all).
  base::Cycles far_refault_page = 16000;
};

inline constexpr CostModel kCosts{};

}  // namespace osim

#endif  // SRC_OS_COST_MODEL_H_
