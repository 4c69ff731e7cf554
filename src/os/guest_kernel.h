// Guest OS kernel: owns the guest-physical buddy allocator, the workload
// process's address space and page table, and the guest-layer huge-page
// policy instance.
//
// Demand paging: when the translation engine reports a guest fault the VM
// calls HandleFault(), which consults the policy for sizing/placement and
// installs a GVA->GPA mapping.  UnmapVma() models workload teardown (the
// reused-VM experiments, §6.3): guest frames return to the *guest* buddy —
// or to the policy's huge bucket — while the host-side EPT mappings and
// host frames stay with the VM, exactly the behaviour the paper points out
// for virtualized clouds.
#ifndef SRC_OS_GUEST_KERNEL_H_
#define SRC_OS_GUEST_KERNEL_H_

#include <memory>

#include "os/kernel_base.h"
#include "os/vma.h"

namespace osim {

class GuestKernel final : public KernelBase {
 public:
  GuestKernel(int32_t vm_id, uint64_t gfn_count, MachineHooks* hooks,
              std::unique_ptr<policy::HugePagePolicy> policy,
              uint64_t alloc_seed = 0);
  // The policy may hold components (bookings, buckets) that reference this
  // kernel's buddy and frame space; destroy it before they go away.
  ~GuestKernel() override { policy_.reset(); }

  AddressSpace& aspace() { return aspace_; }

  // Demand fault on `vpn`.  Returns the synchronous cycle cost.
  base::Cycles HandleFault(uint64_t vpn);

  // Tears down a VMA: unmaps every page, frees guest frames (unless the
  // policy's OnFreeRegion takes them), drops policy per-VMA state.
  void UnmapVma(int32_t vma_id);

  vmem::FrameSpace& gpa_frames() { return gpa_frames_; }

 protected:
  void ShootdownRegion(uint64_t region) override;
  base::Cycles AfterFramesWritten(uint64_t frame, uint64_t count) override;
  base::Cycles BaseFaultCost() const override { return kCosts.base_fault; }
  base::Cycles HugeFaultCost() const override { return kCosts.huge_fault; }

 private:
  vmem::FrameSpace gpa_frames_;
  vmem::BuddyAllocator gpa_buddy_;
  AddressSpace aspace_;
};

}  // namespace osim

#endif  // SRC_OS_GUEST_KERNEL_H_
