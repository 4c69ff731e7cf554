#include "os/host_kernel.h"

#include "base/check.h"

namespace osim {

using base::kHugeOrder;
using base::kPagesPerHuge;

HostVmKernel::HostVmKernel(int32_t vm_id, uint64_t vm_gfn_count,
                           vmem::BuddyAllocator* host_buddy,
                           vmem::FrameSpace* host_frames,
                           MachineHooks* hooks,
                           std::unique_ptr<policy::HugePagePolicy> policy)
    : KernelBase(base::Layer::kHost, vm_id, host_buddy, host_frames, hooks,
                 std::move(policy)),
      vm_gfn_count_(vm_gfn_count) {}

base::Cycles HostVmKernel::HandleFault(uint64_t gfn) {
  SIM_CHECK_MSG(gfn < vm_gfn_count_, "EPT fault beyond VM memory: gfn %llu",
                static_cast<unsigned long long>(gfn));
  policy::FaultInfo info;
  info.page = gfn;
  info.region = gfn >> kHugeOrder;
  info.vma_id = -1;
  info.vma_start_page = 0;
  info.vma_pages = vm_gfn_count_;
  info.vma_first_touch = !any_fault_;
  any_fault_ = true;
  // A huge EPT mapping is possible whenever the whole 2 MiB guest-physical
  // region lies inside the VM's memory.
  const bool coverable =
      (info.region << kHugeOrder) + kPagesPerHuge <= vm_gfn_count_;
  return DoFault(info, coverable);
}

void HostVmKernel::ShootdownRegion(uint64_t region) {
  // A host-layer remap invalidates combined translations whose guest
  // virtual addresses the host cannot enumerate; KVM issues a
  // single-context INVEPT, i.e. invalidates the VM's translations.
  hooks_->InvalidateVmTranslations(vm_id_);
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventKind::kShootdown, layer_, vm_id_,
                  region << kHugeOrder, kPagesPerHuge);
  }
}

HostKernel::HostKernel(uint64_t host_frame_count, MachineHooks* hooks,
                       uint64_t alloc_seed)
    : frames_(host_frame_count),
      buddy_(host_frame_count, alloc_seed),
      hooks_(hooks) {}

HostVmKernel& HostKernel::AddVm(
    int32_t vm_id, uint64_t vm_gfn_count,
    std::unique_ptr<policy::HugePagePolicy> policy) {
  SIM_CHECK(vm_id == static_cast<int32_t>(vms_.size()));
  vms_.push_back(std::make_unique<HostVmKernel>(
      vm_id, vm_gfn_count, &buddy_, &frames_, hooks_,
      std::move(policy)));
  return *vms_.back();
}

HostVmKernel& HostKernel::vm_kernel(int32_t vm_id) {
  SIM_CHECK(vm_id >= 0 && static_cast<size_t>(vm_id) < vms_.size());
  return *vms_[vm_id];
}

const HostVmKernel& HostKernel::vm_kernel(int32_t vm_id) const {
  SIM_CHECK(vm_id >= 0 && static_cast<size_t>(vm_id) < vms_.size());
  return *vms_[vm_id];
}

}  // namespace osim
