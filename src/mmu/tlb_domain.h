// TLB sharing domain: one owner for the physical TLB arrays of all the
// VMs collocated on a simulated core, handing each VM a tagged view.
//
// The paper's collocation experiments (Figs. 17/18, §6.5) run two VMs on
// one host, where the real machine's second-level TLB is a *shared*
// resource.  A `TlbDomain` models the three arrangements a core can
// present to its VMs:
//
//   * kPrivate — each VM gets its own full physical array.  This is the
//     status quo (an engine owning its own Tlb) and is observationally
//     identical to it, bit for bit: same counters, same LRU order, same
//     fig17/18 output.
//   * kShared — every VM's view probes and fills the *same* physical
//     array.  Entries carry the VM's VMID tag (PCID/vPID-style), so a VM
//     never hits another VM's translation, but all VMs compete for the
//     same sets and the LRU clock interleaves across VMIDs: one VM's
//     fills evict another's entries, which is exactly the cross-VM TLB
//     interference channel private arrays hide.  A VM-wide invalidation
//     (InvalidateVm, the single-context INVEPT analogue) drops only that
//     VM's entries and leaves the other VMs' in place.
//   * kPartitioned — one physical array, statically way-partitioned: VM i
//     may only fill ways [i*k, (i+1)*k) of every set.  Probes still scan
//     the whole set (tags keep correctness), but a VM's fills can only
//     evict entries inside its own window, so a noisy neighbor cannot
//     displace a victim's working set — the isolation/utilization
//     trade-off way-partitioned QoS hardware makes.
//   * kDynamic — kPartitioned's layout, but the windows move: the domain
//     owns a TlbRepartitioner that os::Machine ticks at daemon intervals,
//     reassigning the way windows from the utility monitor's per-VM
//     marginal-utility curves (see tlb_repartitioner.h).  VMs boot into
//     the same even split as kPartitioned and drift from there as phases
//     change.
//
// The domain hands out `TlbView`s: a thin (pointer, vmid) handle with the
// same operation surface as `Tlb` minus the vmid parameters, which
// `TranslationEngine` holds in place of an owned Tlb.  Counter accessors
// on a view report the *view's* VM only, so per-VM miss rates stay
// meaningful on a shared array.
#ifndef SRC_MMU_TLB_DOMAIN_H_
#define SRC_MMU_TLB_DOMAIN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/check.h"
#include "mmu/tlb.h"
#include "mmu/tlb_epoch_stage.h"
#include "mmu/tlb_repartitioner.h"

namespace mmu {

enum class TlbShareMode : uint8_t {
  kPrivate,      // per-VM physical arrays (status quo)
  kShared,       // one array, all VMs compete, VMID tags isolate hits
  kPartitioned,  // one array, static per-VM way windows
  kDynamic,      // one array, way windows repartitioned at daemon ticks
};

// Lower-case stable name, as used by GEMINI_TLB_MODE and export columns.
const char* TlbShareModeName(TlbShareMode mode);

struct TlbDomainConfig {
  TlbConfig tlb;  // geometry of each physical array the domain builds
  TlbShareMode mode = TlbShareMode::kPrivate;
  // kPartitioned / kDynamic: ways each VM owns at boot; 0 = split evenly
  // over expected_vms.
  uint32_t partition_ways = 0;
  uint32_t expected_vms = 2;
  // kDynamic: the repartitioner's way floor (see TlbRepartitioner::Config;
  // the tick *interval* is the machine's scheduling concern, not the
  // domain's).
  uint32_t repart_min_ways = 1;
};

// A per-VM handle onto a physical Tlb: every operation is forwarded with
// the view's VMID, and counter accessors report the view's VM only.  A
// private array holds only its one VM's entries, so the same per-VM
// forwarding serves private and shared views alike.
class TlbView {
 public:
  TlbView() = default;
  TlbView(Tlb* physical, uint16_t vmid) : physical_(physical), vmid_(vmid) {}

  // While an epoch-parallel phase is open (os/machine.h BeginEpoch), a
  // shared/partitioned view routes every operation through a per-VM
  // TlbEpochStage instead of the physical array, so concurrent lanes
  // never write shared state; the machine detaches the stage (null) and
  // commits it at the epoch barrier.  Private views never get a stage.
  void SetEpochStage(TlbEpochStage* stage) { stage_ = stage; }
  TlbEpochStage* epoch_stage() const { return stage_; }

  // --- forwarded operations (see tlb.h for semantics) ---
  Tlb::LookupResult Lookup(uint64_t vpn) {
    if (__builtin_expect(stage_ != nullptr, 0)) {
      return stage_->Lookup(vpn);
    }
    return physical_->Lookup(vpn, vmid_);
  }
  void Insert(uint64_t vpn, base::PageSize size, uint64_t frame,
              const Tlb::Stamp& stamp) {
    if (__builtin_expect(stage_ != nullptr, 0)) {
      stage_->Insert(vpn, size, frame, stamp);
      return;
    }
    physical_->Insert(vpn, size, frame, stamp, vmid_);
  }
  void Insert(uint64_t vpn, base::PageSize size, uint64_t frame) {
    Insert(vpn, size, frame, Tlb::Stamp{});
  }
  void InsertMiss(uint64_t vpn, base::PageSize size, uint64_t frame,
                  const Tlb::Stamp& stamp) {
    if (__builtin_expect(stage_ != nullptr, 0)) {
      // The stage's overlay map needs no probe-skip shortcut.
      stage_->Insert(vpn, size, frame, stamp);
      return;
    }
    physical_->InsertMiss(vpn, size, frame, stamp, vmid_);
  }
  void RestampHit(const Tlb::Stamp& stamp) {
    if (__builtin_expect(stage_ != nullptr, 0)) {
      stage_->RestampHit(stamp);
      return;
    }
    physical_->RestampHit(stamp);
  }
  void DiscountStaleHit() {
    if (__builtin_expect(stage_ != nullptr, 0)) {
      stage_->DiscountStaleHit();
      return;
    }
    physical_->DiscountStaleHit(vmid_);
  }
  void UncountFaultMiss() {
    if (__builtin_expect(stage_ != nullptr, 0)) {
      stage_->UncountFaultMiss();
      return;
    }
    physical_->UncountFaultMiss(vmid_);
  }
  uint32_t ShootdownPage(uint64_t vpn) {
    if (__builtin_expect(stage_ != nullptr, 0)) {
      return stage_->ShootdownPage(vpn);
    }
    return physical_->ShootdownPage(vpn, vmid_);
  }
  // Residency probes and range shootdowns are test or kernel-path
  // operations; the epoch-parallel model confines those to the serial
  // phase, so they must never see an attached stage.  Probe, Insert and
  // entry_count serve tests only (the engine fills through InsertMiss).
  bool Probe(uint64_t vpn) const {
    SIM_CHECK(stage_ == nullptr);
    return physical_->Probe(vpn, vmid_);
  }
  uint32_t ShootdownRange(uint64_t vpn, uint64_t pages) {
    SIM_CHECK(stage_ == nullptr);
    return physical_->ShootdownRange(vpn, pages, vmid_);
  }

  // --- this VM's counters ---
  // Mid-epoch reads add the stage's signed deltas so a lane's snapshot
  // (latency records) reflects its own staged activity; counters only the
  // barrier replay can move (evictions, displaced-by) stay frozen until
  // the commit.
  uint64_t hits() const { return Staged(counters().hits, &TlbEpochStage::Deltas::hits); }
  uint64_t misses() const {
    return Staged(counters().misses, &TlbEpochStage::Deltas::misses);
  }
  uint64_t shootdowns() const {
    return Staged(counters().shootdowns, &TlbEpochStage::Deltas::shootdowns);
  }
  uint64_t stale_hits() const {
    return Staged(counters().stale_drops, &TlbEpochStage::Deltas::stale_drops);
  }
  uint64_t vm_invalidated() const { return counters().vm_invalidated; }
  uint64_t cross_vm_evictions() const {
    return counters().cross_vm_evictions;
  }
  uint64_t conflict_evictions_base() const {
    return counters().conflict_evictions_base;
  }
  uint64_t conflict_evictions_huge() const {
    return counters().conflict_evictions_huge;
  }
  uint64_t capacity_evictions_base() const {
    return counters().capacity_evictions_base;
  }
  uint64_t capacity_evictions_huge() const {
    return counters().capacity_evictions_huge;
  }
  // Misses attributed by the utility monitor to a displaced entry; zero
  // when no monitor is attached (private mode).  self + other <= misses;
  // the remainder is cold / unattributed.
  uint64_t displaced_by_self() const { return counters().displaced_by_self; }
  uint64_t displaced_by_other() const { return counters().displaced_by_other; }
  // Entries dropped because a dynamic repartition moved this VM's way
  // window (zero outside kDynamic — nothing else moves windows).
  uint64_t repartition_evictions() const {
    return counters().repartition_evictions;
  }
  // Ways this VM may currently fill: its way window's size (the full
  // associativity for a private view, whose window spans the array).  A
  // level, not a counter — under kDynamic it moves with each repartition.
  uint32_t ways_assigned() const { return physical_->vm_way_count(vmid_); }
  uint32_t entry_count() const { return physical_->entry_count(vmid_); }

  const TlbConfig& config() const { return physical_->config(); }
  uint16_t vmid() const { return vmid_; }
  Tlb& physical() { return *physical_; }
  const Tlb& physical() const { return *physical_; }

 private:
  const Tlb::VmTlbCounters& counters() const {
    return physical_->vm_counters(vmid_);
  }
  uint64_t Staged(uint64_t base,
                  int64_t TlbEpochStage::Deltas::* field) const {
    if (__builtin_expect(stage_ != nullptr, 0)) {
      return static_cast<uint64_t>(static_cast<int64_t>(base) +
                                   stage_->deltas().*field);
    }
    return base;
  }

  Tlb* physical_ = nullptr;
  uint16_t vmid_ = 0;
  TlbEpochStage* stage_ = nullptr;
};

class TlbDomain {
 public:
  explicit TlbDomain(const TlbDomainConfig& config);

  // Registers VM `vmid` (the Machine's VM id) and returns its view.  In
  // kPartitioned mode the VM's way window is [vmid * k, (vmid + 1) * k)
  // with k = partition_ways (or ways / expected_vms when 0); the window
  // must fit, so vmid < ways / k.  In kDynamic mode the even split is
  // re-tiled over the VMs registered so far (late arrivals fit as long
  // as vm_count <= ways); the repartitioner moves the windows from there.
  TlbView AddVm(uint16_t vmid);

  // Selectively invalidates every entry of `vmid` (in its private array or
  // the shared one).  Returns the number of entries dropped.
  uint32_t InvalidateVm(uint16_t vmid);

  // The lazily-built per-VM epoch stage for the shared array.  Shared /
  // partitioned modes only — private views never need staging (each VM
  // already owns its array), and os::Machine skips the call there.
  TlbEpochStage* EpochStage(uint16_t vmid);

  // One repartitioner policy tick over every registered VM (kDynamic mode
  // only; no-op before the first VM registers).  os::Machine calls this
  // from a PeriodicTask, i.e. only ever outside epoch-parallel phases.
  void RepartitionTick();

  TlbShareMode mode() const { return config_.mode; }
  const TlbDomainConfig& config() const { return config_; }
  // The shared physical array, or null in kPrivate mode.
  const Tlb* shared_tlb() const { return shared_.get(); }
  // The utility/interference monitor watching the shared array, or null in
  // kPrivate mode (monitoring is a shared-resource question; private
  // arrays keep the historical fast path untouched).
  const TlbUtilityMonitor* utility_monitor() const { return monitor_.get(); }
  // The way repartitioner, or null outside kDynamic mode (also null in
  // kDynamic before the first AddVm builds the shared array).
  const TlbRepartitioner* repartitioner() const { return repartitioner_.get(); }
  // Applied repartitions so far (0 outside kDynamic) — the domain-wide
  // value behind the `repartitions` export column.
  uint64_t repartition_count() const {
    return repartitioner_ != nullptr ? repartitioner_->repartitions() : 0;
  }

 private:
  uint32_t PartitionWays() const;

  TlbDomainConfig config_;
  // kPrivate: one array per vmid (indexed by vmid; sparse allowed).
  std::vector<std::unique_ptr<Tlb>> private_tlbs_;
  // kShared / kPartitioned: the one array every view targets.
  std::unique_ptr<Tlb> shared_;
  // Attached to `shared_`; must outlive it (declared after, destroyed
  // first is fine — the Tlb never dereferences it during destruction).
  std::unique_ptr<TlbUtilityMonitor> monitor_;
  // Per-VM epoch stages for `shared_` (indexed by vmid; sparse allowed).
  std::vector<std::unique_ptr<TlbEpochStage>> stages_;
  // kDynamic only: the way repartitioner and the canonical (VM-ID-sorted)
  // list of registered VMs its ticks iterate.
  std::unique_ptr<TlbRepartitioner> repartitioner_;
  std::vector<uint16_t> vm_ids_;
};

}  // namespace mmu

#endif  // SRC_MMU_TLB_DOMAIN_H_
