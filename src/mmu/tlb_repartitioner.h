// Dynamic UCP-style way repartitioner for a shared, way-windowed TLB.
//
// Closes the control loop the utility monitor opened: TlbUtilityMonitor
// measures, per VM, how many sampled accesses would hit at each stack
// depth (the marginal-utility curve); this class periodically reads those
// curves and *reassigns* the per-VM way windows of the shared physical
// array, so a VM whose working set grew takes ways from one that stopped
// using them.  kPartitioned frozen at the boot-time split is the static
// baseline this beats on phase-changing workloads (fig17 static-vs-dynamic
// table).
//
// Policy, per tick:
//
//   1. *Interval curves.*  The monitor's way_hits histograms are
//      cumulative over the run; the repartitioner differences them against
//      the previous tick's snapshot, so the allocation tracks the *recent*
//      phase, not the whole history — a VM that was hot an hour ago and
//      idle now scores zero.
//   2. *Allocation.*  AllocateWays distributes the physical ways to
//      maximize total expected interval hits, Σ_v cum_v(w_v) with
//      cum_v(w) = Σ_{d<w} way_hits_v[d], subject to Σ w_v = ways and
//      w_v ≥ min_ways.  This is the objective greedy marginal-utility
//      (UCP "lookahead") allocators climb; because shadow-stack curves
//      need not be concave, the implementation computes the exact optimum
//      by dynamic programming over (vm, remaining ways) — O(n · W²) with
//      W = 12-way associativity, trivially cheap at daemon frequency —
//      and the brute-force differential test holds it to exactly the
//      exhaustive-search answer.  Ties are broken deterministically toward
//      the lexicographically-largest allocation vector: the lowest VM ID
//      keeps the extra way.
//   3. *Hysteresis.*  The new allocation is applied only if its expected
//      interval hits beat the current windows' by more than
//      hysteresis × (interval sampled accesses); otherwise the windows
//      stand.  A near-tie must not thrash: every move pays
//      repartition_evictions (entries stranded outside the moved window
//      are dropped through Tlb::RepartitionVmWays).
//   4. *Application.*  Windows are laid out as disjoint prefix intervals
//      in VM-ID order ([0, w_0), [w_0, w_0 + w_1), …), which preserves the
//      Tlb invariant that windows of distinct VMs are identical or
//      disjoint and covers every physical way.
//
// Scheduling and determinism: the repartitioner itself never sleeps or
// polls — os::Machine registers a PeriodicTask that calls
// TlbDomain::RepartitionTick every MachineConfig::tlb_repart_interval
// cycles of logical time.  PeriodicTasks only ever fire from RunDueDaemons, which runs
// outside epoch-parallel phases (at epoch barriers, after the canonical
// VM-ID-ordered stage replay), so repartitions are a pure function of the
// simulated access stream: byte-identical output at any GEMINI_VM_THREADS
// / GEMINI_JOBS setting.  All tick math is integer except
// the hysteresis product, a single deterministic double multiply.
#ifndef SRC_MMU_TLB_REPARTITIONER_H_
#define SRC_MMU_TLB_REPARTITIONER_H_

#include <cstdint>
#include <vector>

#include "mmu/tlb.h"
#include "mmu/tlb_utility_monitor.h"

namespace mmu {

class TlbRepartitioner {
 public:
  struct Config {
    // Floor on any VM's way window.  Clamped down to ways / n when more
    // VMs register than the floor can accommodate.
    uint32_t min_ways = 1;
    // Apply a new allocation only if it is expected to gain more than this
    // fraction of the interval's sampled accesses over the current one.
    double hysteresis = 0.05;
  };

  // `tlb` and `monitor` are borrowed; both must outlive the repartitioner
  // (TlbDomain owns all three).
  TlbRepartitioner(Tlb* tlb, const TlbUtilityMonitor* monitor,
                   const Config& config);

  // One policy tick over the given VMs (canonical VM-ID order; the domain
  // passes its registered list).  Reads interval utility curves, solves
  // the allocation, and — if it clears hysteresis — moves the way windows.
  void Tick(const std::vector<uint16_t>& vmids);

  // Exact solution of the way-allocation problem (public and static so the
  // brute-force differential test can drive it directly): distribute
  // `total_ways` over the VMs of `marginal`, where marginal[v][d] is VM
  // v's interval hit count at stack depth d (hits requiring ≥ d+1 ways),
  // maximizing Σ_v Σ_{d < w_v} marginal[v][d] subject to Σ w_v =
  // total_ways and w_v ≥ min_ways.  Among optima, returns the
  // lexicographically-largest allocation (lower VM IDs keep extra ways).
  // Requires 0 < n ≤ total_ways and n * min_ways ≤ total_ways.
  static std::vector<uint32_t> AllocateWays(
      const std::vector<std::vector<uint64_t>>& marginal, uint32_t total_ways,
      uint32_t min_ways);

  // --- stats (all monotonic over the run) -------------------------------
  uint64_t ticks() const { return ticks_; }
  // Ticks whose allocation cleared hysteresis and moved ≥ 1 window.
  uint64_t repartitions() const { return repartitions_; }
  // Total entries dropped by window moves (sum of per-VM
  // repartition_evictions charged through Tlb::RepartitionVmWays).
  uint64_t evictions() const { return evictions_; }

  const Config& config() const { return config_; }

 private:
  Tlb* tlb_;                          // borrowed
  const TlbUtilityMonitor* monitor_;  // borrowed
  Config config_;
  // Previous tick's cumulative way_hits per vmid, for interval differencing.
  std::vector<std::vector<uint64_t>> prev_way_hits_;
  uint64_t ticks_ = 0;
  uint64_t repartitions_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace mmu

#endif  // SRC_MMU_TLB_REPARTITIONER_H_
