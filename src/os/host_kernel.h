// Host OS kernel (the KVM side of the stack).
//
// Owns host physical memory (one buddy allocator + frame space shared by
// all VMs) and, per VM, an EPT-style VM page table (GFN -> host PFN) with
// its own host-layer huge-page policy instance.  EPT violations are
// demand-faulted through the same policy-driven path the guest uses, so
// host-side THP/Ingens/Gemini behave symmetrically to their guest-side
// counterparts.
#ifndef SRC_OS_HOST_KERNEL_H_
#define SRC_OS_HOST_KERNEL_H_

#include <memory>
#include <vector>

#include "os/kernel_base.h"

namespace osim {

// The per-VM slice of the host kernel: the VM's EPT plus the host-layer
// policy instance, sharing the host-wide buddy/frame space.
class HostVmKernel final : public KernelBase {
 public:
  HostVmKernel(int32_t vm_id, uint64_t vm_gfn_count,
               vmem::BuddyAllocator* host_buddy, vmem::FrameSpace* host_frames,
               MachineHooks* hooks,
               std::unique_ptr<policy::HugePagePolicy> policy);
  // Symmetric with GuestKernel: drop policy-held reservations while the
  // shared host buddy is still alive.
  ~HostVmKernel() override { policy_.reset(); }

  // EPT violation on `gfn`.  Returns the synchronous cycle cost (VM exit
  // plus backing allocation).
  base::Cycles HandleFault(uint64_t gfn);

  // Guest-physical memory size of this VM, in 4 KiB frames.
  uint64_t gfn_count() const { return vm_gfn_count_; }

 protected:
  void ShootdownRegion(uint64_t region) override;
  base::Cycles BaseFaultCost() const override { return kCosts.host_fault; }
  base::Cycles HugeFaultCost() const override { return kCosts.host_huge_fault; }

 private:
  uint64_t vm_gfn_count_;
  bool any_fault_ = false;
};

class HostKernel {
 public:
  HostKernel(uint64_t host_frame_count, MachineHooks* hooks,
             uint64_t alloc_seed = 0);

  // Registers a VM and its host-layer policy; returns its kernel slice.
  HostVmKernel& AddVm(int32_t vm_id, uint64_t vm_gfn_count,
                      std::unique_ptr<policy::HugePagePolicy> policy);

  HostVmKernel& vm_kernel(int32_t vm_id);
  const HostVmKernel& vm_kernel(int32_t vm_id) const;
  size_t vm_count() const { return vms_.size(); }

  vmem::BuddyAllocator& buddy() { return buddy_; }
  vmem::FrameSpace& frames() { return frames_; }
  double Fmfi() const { return buddy_.Fmfi(base::kHugeOrder); }

 private:
  vmem::FrameSpace frames_;
  vmem::BuddyAllocator buddy_;
  MachineHooks* hooks_;
  std::vector<std::unique_ptr<HostVmKernel>> vms_;
};

}  // namespace osim

#endif  // SRC_OS_HOST_KERNEL_H_
