// Shared memory-management mechanics for the guest and host kernels.
//
// Every policy (THP, Ingens, HawkEye, CA-paging, Translation Ranger,
// Gemini, ...) runs on these byte-identical mechanics; the baselines differ
// only in the decisions they return through the HugePagePolicy interface.
// KernelBase implements the KernelOps capability surface policies program
// against: allocation with placement hints, huge-fault handling with
// optional synchronous compaction, in-place and migration-based promotion,
// demotion, cost accounting, and TLB invalidation via layer-specific
// shootdown (implemented by GuestKernel / HostVmKernel).
#ifndef SRC_OS_KERNEL_BASE_H_
#define SRC_OS_KERNEL_BASE_H_

#include <memory>

#include "base/types.h"
#include "mmu/page_table.h"
#include "os/cost_model.h"
#include "os/hooks.h"
#include "policy/policy.h"
#include "trace/tracer.h"
#include "vmem/buddy_allocator.h"
#include "vmem/frame_space.h"
#include "vmem/tier_space.h"

namespace osim {

struct KernelStats {
  uint64_t base_faults = 0;
  uint64_t huge_faults = 0;
  uint64_t failed_huge_allocs = 0;
  uint64_t promotions_in_place = 0;
  uint64_t promotions_migrated = 0;
  uint64_t demotions = 0;
  uint64_t pages_copied = 0;
  uint64_t pages_swapped_out = 0;
  uint64_t swap_ins = 0;
  base::Cycles fault_cycles = 0;     // synchronous, stalls the access
  base::Cycles overhead_cycles = 0;  // asynchronous daemon work
};

class KernelBase : public policy::KernelOps {
 public:
  // `buddy`, `frames` are owned by the caller (a guest kernel owns its own;
  // the per-VM host kernels share the host's).
  KernelBase(base::Layer layer, int32_t vm_id, vmem::BuddyAllocator* buddy,
             vmem::FrameSpace* frames, MachineHooks* hooks,
             std::unique_ptr<policy::HugePagePolicy> policy);
  ~KernelBase() override;

  // --- KernelOps ----------------------------------------------------------
  base::Layer layer() const override { return layer_; }
  int32_t vm_id() const override { return vm_id_; }
  vmem::BuddyAllocator& buddy() override { return *buddy_; }
  const vmem::BuddyAllocator& buddy() const override { return *buddy_; }
  mmu::PageTable& table() override { return table_; }
  const mmu::PageTable& table() const override { return table_; }
  vmem::FrameSpace& frames() override { return *frames_; }
  double Fmfi() const override;
  void ChargeOverhead(base::Cycles cycles) override;
  void PromoteInPlace(uint64_t region) override;
  bool PromoteWithMigration(uint64_t region, uint64_t target_frame) override;
  void Demote(uint64_t region) override;
  uint64_t DrainTlbMisses() override;
  base::Cycles Now() const override { return hooks_->Now(); }
  trace::Tracer* tracer() const override { return tracer_; }

  // --- Kernel surface -----------------------------------------------------
  void DaemonTick() { policy_->OnDaemonTick(*this); }

  // Frees at least `need` frames under memory pressure: asks the policy to
  // release reserves, then swaps out the coldest base-mapped pages,
  // demoting huge regions (policy-ranked) when only huge mappings remain.
  // `exclude_region` (the faulting region) is never chosen as a swap
  // victim, so the fault that triggered reclaim cannot thrash itself.
  // Returns false if nothing more can be reclaimed (true OOM).
  bool ReclaimFrames(uint64_t need,
                     uint64_t exclude_region = vmem::kInvalidFrame);

  // Pages currently swapped out (guest layer: VPNs; host layer: GFNs).
  size_t swapped_pages() const { return tier_->resident(vm_id_); }

  // The tier swapped-out pages live in.  By default each kernel owns an
  // unbounded private tier priced at the legacy swap costs (a plain swap
  // device); the machine points host kernel slices at its shared,
  // capacity-bounded far tier instead (see vmem/tier_space.h).
  vmem::TierSpace& tier() { return *tier_; }
  const vmem::TierSpace& tier() const { return *tier_; }

  // Re-points this kernel at `tier` (not owned; must outlive the kernel).
  // Must be called before any swap activity — far-resident records do not
  // migrate between tiers.
  void AttachTier(vmem::TierSpace* tier);

  // Proactive reclaim entry point (the host reclaim daemon): demotes the
  // region's huge mapping if present, then swaps out up to `limit` of its
  // base pages to the tier.  Returns pages actually demoted (0 when the
  // tier is full or nothing was reclaimable).
  uint64_t DemoteRegionToTier(uint64_t region, uint64_t limit);

  policy::HugePagePolicy& policy() { return *policy_; }
  const KernelStats& stats() const { return stats_; }
  MachineHooks& hooks() { return *hooks_; }

  // Wires this kernel to the machine's tracer.  The machine tags the
  // kernel's buddy allocator separately (the host buddy is shared by every
  // VM and carries vm_id -1).
  void AttachTracer(trace::Tracer* tracer);

 protected:
  // Common demand-fault path.  `region_coverable` says whether a huge
  // mapping for the faulting region is geometrically possible (VMA covers
  // it / region inside guest memory).  Returns the cycles to charge
  // synchronously to the faulting access.
  base::Cycles DoFault(const policy::FaultInfo& info, bool region_coverable);

  // Layer-specific TLB invalidation after a remap of `region`.
  virtual void ShootdownRegion(uint64_t region) = 0;

  // Unmaps + frees up to `limit` present pages of a base-mapped region,
  // marking them swapped.  Returns pages reclaimed.
  uint64_t SwapOutRegion(uint64_t region, uint64_t limit);

  // Drops swap records for a page range (VMA teardown).
  void ForgetSwapped(uint64_t page, uint64_t count);

  // Called after the kernel writes freshly mapped frames (zeroing a huge
  // page, migration copies).  The guest kernel uses this to fault in EPT
  // backing; the host override is a no-op.  Returns the cycles spent.
  virtual base::Cycles AfterFramesWritten(uint64_t frame, uint64_t count) {
    (void)frame;
    (void)count;
    return 0;
  }

  virtual base::Cycles BaseFaultCost() const = 0;
  virtual base::Cycles HugeFaultCost() const = 0;

  base::Layer layer_;
  int32_t vm_id_;
  vmem::BuddyAllocator* buddy_;
  vmem::FrameSpace* frames_;
  MachineHooks* hooks_;
  trace::Tracer* tracer_ = nullptr;
  std::unique_ptr<policy::HugePagePolicy> policy_;
  mmu::PageTable table_;
  KernelStats stats_;
  uint64_t tlb_miss_cursor_ = 0;
  // Where swapped-out pages live; a later fault on one pays the tier's
  // refault penalty.  Defaults to owned_tier_ (unbounded, legacy swap
  // costs); AttachTier() re-points it at a shared machine-owned tier.
  std::unique_ptr<vmem::TierSpace> owned_tier_;
  vmem::TierSpace* tier_ = nullptr;
};

}  // namespace osim

#endif  // SRC_OS_KERNEL_BASE_H_
