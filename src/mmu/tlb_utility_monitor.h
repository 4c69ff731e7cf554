// Per-VMID TLB utility monitor + who-displaced-whom miss attribution.
//
// Two questions a shared (or way-partitioned) TLB array raises that the
// physical counters cannot answer:
//
//   1. *Utility*: how many ways does VM v actually need?  ("Would v hit
//      more with w ways?" — the marginal-utility curve a UCP-style
//      repartitioner allocates from.)
//   2. *Attribution*: when v misses, whose fault is it?  A miss on a key
//      whose entry was evicted by VM e's insert is interference caused by
//      e; a miss on a key v itself evicted is v's own capacity pressure.
//
// The monitor answers both with two deterministic side structures, both
// pure functions of the access stream (no clocks, no randomness):
//
//   * Shadow-tag sampler (UMON-style).  For a deterministic subset of
//     sets — every `sample_stride`-th set — each VM gets a private
//     full-associativity LRU stack of depth `ways` (the physical
//     associativity).  Every access that lands in a sampled set walks the
//     VM's stack: a match at depth d means "v would have hit here with
//     d+1 or more ways" and increments way_hits[d]; no match is a shadow
//     miss (v would miss at any way count).  The stack-depth histogram
//     IS the utility curve: cum(way_hits[0..w-1]) / sampled accesses is
//     the hit rate v would see with w ways to itself.  Because the stack
//     is per-VM, the curve is free of interference — it describes v's own
//     reuse, which is exactly what a partitioner must compare across VMs.
//
//   * Displaced-record table.  When the physical array evicts a valid
//     entry, the victim's full tag and the inserting VM's id are recorded
//     in a direct-mapped table.  A later physical miss probes the table
//     (huge key first, base key second — mirroring Lookup): a full-tag
//     match proves this very translation was displaced, the recorded
//     evictor is charged in the NxN matrix, and the record is consumed.
//     Full-tag matching means attribution has no false positives; a
//     record lost to table aliasing only degrades to "unattributed", so
//     the matrix is a lower bound on interference.  Records are cleared
//     when their key is shot down, selectively invalidated, or
//     re-inserted — a dropped *mapping* must not masquerade as
//     displacement later.
//
// Determinism: sampled-set selection is a fixed stride (not random), the
// stacks and table are updated by the access stream only, and every
// structure is fixed-size — so all counters are byte-reproducible for a
// given (workload, seed), at any GEMINI_JOBS setting.
//
// The monitor is attached to a `Tlb` by the owning `TlbDomain` in shared
// and partitioned modes only; in private mode the pointer stays null and
// every hook is skipped, which keeps the historical fast path (and the
// private-mode goldens) untouched.
//
// Accounting edge: the engine uncounts a miss whose walk faulted (the
// retried access recounts it).  An attribution made on the faulting
// attempt stands — the retry re-misses and is the counted miss the
// attribution belongs to — so displaced_by totals still reconcile with
// counted misses.
#ifndef SRC_MMU_TLB_UTILITY_MONITOR_H_
#define SRC_MMU_TLB_UTILITY_MONITOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.h"
#include "mmu/tlb_tag.h"

namespace mmu {

class TlbUtilityMonitor {
 public:
  struct Config {
    // Physical geometry; must match the monitored Tlb.
    uint32_t sets = 128;
    uint32_t ways = 12;
    // Shadow-tag every stride-th set (power of two, <= sets).  1 shadows
    // every set (the brute-force reference configuration tests use).
    uint32_t sample_stride = 8;
    // Direct-mapped displaced-record slots (power of two).
    uint32_t displaced_slots = 8192;
  };

  explicit TlbUtilityMonitor(const Config& config);

  // Ensures per-VM structures exist (idempotent; also grown lazily).
  void RegisterVm(uint16_t vmid);

  // --- hooks called by Tlb ----------------------------------------------
  // A probe of (key, size) by `vmid` hit.  Updates the VM's shadow stack
  // if the key's set is sampled.
  void OnAccess(uint64_t key, base::PageSize size, uint16_t vmid);
  // (key, size) was installed for `vmid`.  Shadow access, plus clears any
  // stale displaced record for the key (the mapping is present again).
  void OnInsert(uint64_t key, base::PageSize size, uint16_t vmid);
  // The array evicted victim's valid (key, size) entry to make room for an
  // insert by `evictor_vmid`.  Records the displacement.
  void OnEviction(uint64_t key, base::PageSize size, uint16_t victim_vmid,
                  uint16_t evictor_vmid);
  // A physical miss of `vpn` under `vmid`: consume a displaced record for
  // its huge or base key if one exists, charge matrix[vmid][evictor], and
  // return the evictor vmid; -1 if the miss is unattributed.
  int32_t AttributeMiss(uint64_t vpn, uint16_t vmid);
  // Precise invalidations: the named translations are gone for reasons
  // that are nobody's displacement — drop matching shadow entries and
  // displaced records so later cold misses are not mis-charged.
  void OnShootdown(uint64_t vpn, uint16_t vmid);
  void OnShootdownRange(uint64_t vpn, uint64_t pages, uint16_t vmid);
  void OnInvalidateVm(uint16_t vmid);

  // --- results ----------------------------------------------------------
  // The raw curve; metrics::UtilMinWays90 and metrics::RenderUtilityCurves
  // read the hit fractions off it for the exports.
  struct VmUtility {
    // way_hits[d]: sampled accesses that hit the shadow stack at depth d
    // (the VM would hit with d+1 ways).  Size = physical ways.
    std::vector<uint64_t> way_hits;
    // Sampled accesses that missed the full-depth stack.
    uint64_t shadow_misses = 0;

    uint64_t shadow_hits() const {
      uint64_t total = 0;
      for (const uint64_t h : way_hits) {
        total += h;
      }
      return total;
    }
    uint64_t sampled_accesses() const { return shadow_hits() + shadow_misses; }
  };

  // Zero-valued reference for a vmid never registered or used.
  const VmUtility& utility(uint16_t vmid) const;
  // Misses of `victim_vmid` attributed to `evictor_vmid`'s inserts.
  uint64_t displaced(uint16_t victim_vmid, uint16_t evictor_vmid) const;
  // Matrix dimension: one past the highest vmid seen.
  uint16_t vm_slots() const { return static_cast<uint16_t>(vms_.size()); }

  const Config& config() const { return config_; }

 private:
  struct DisplacedRecord {
    uint64_t tag = 0;      // tlb_tag::Pack of the victim entry; 0 = empty
    uint16_t evictor = 0;  // inserting vmid recorded at eviction
  };
  struct VmShadow {
    // stacks[sampled_set]: MRU-ordered tlb_tag::Pack(key, size, vmid),
    // depth <= ways.
    std::vector<std::vector<uint64_t>> stacks;
    VmUtility utility;
  };

  uint32_t SetIndex(uint64_t key) const {
    return static_cast<uint32_t>(key) & (config_.sets - 1);
  }
  bool Sampled(uint32_t set) const {
    return (set & (config_.sample_stride - 1)) == 0;
  }
  size_t DisplacedSlot(uint64_t key, base::PageSize size,
                       uint16_t vmid) const {
    // Cheap deterministic mix; full-tag compare makes collisions benign.
    const uint64_t h =
        tlb_tag::Pack(key, size, vmid) * 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(h >> 32) & (config_.displaced_slots - 1);
  }
  VmShadow& Shadow(uint16_t vmid);
  void ShadowAccess(uint64_t key, base::PageSize size, uint16_t vmid);
  void ClearRecord(uint64_t key, base::PageSize size, uint16_t vmid);
  // Consumes the record for (key, size, vmid) if present; returns the
  // evictor or -1.
  int32_t TakeRecord(uint64_t key, base::PageSize size, uint16_t vmid);
  void EnsureMatrix(uint16_t vmid);

  Config config_;
  uint32_t sampled_sets_ = 0;  // sets / sample_stride
  std::vector<VmShadow> vms_;  // indexed by vmid
  std::vector<DisplacedRecord> records_;
  // matrix_[victim * vms_.size() + evictor] is rebuilt (rare) when a new
  // vmid grows the dimension; counts are preserved.
  std::vector<uint64_t> matrix_;
};

}  // namespace mmu

#endif  // SRC_MMU_TLB_UTILITY_MONITOR_H_
