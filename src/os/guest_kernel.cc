#include "os/guest_kernel.h"

#include <vector>

#include "base/check.h"

namespace osim {

using base::kHugeOrder;
using base::kPagesPerHuge;

GuestKernel::GuestKernel(int32_t vm_id, uint64_t gfn_count,
                         MachineHooks* hooks,
                         std::unique_ptr<policy::HugePagePolicy> policy,
                         uint64_t alloc_seed)
    : KernelBase(base::Layer::kGuest, vm_id, &gpa_buddy_, &gpa_frames_, hooks,
                 std::move(policy)),
      gpa_frames_(gfn_count),
      gpa_buddy_(gfn_count, alloc_seed) {}

base::Cycles GuestKernel::HandleFault(uint64_t vpn) {
  Vma* vma = aspace_.Find(vpn);
  SIM_CHECK_MSG(vma != nullptr, "guest fault outside any VMA: vpn %llu",
                static_cast<unsigned long long>(vpn));
  policy::FaultInfo info;
  info.page = vpn;
  info.region = vpn >> kHugeOrder;
  info.vma_id = vma->id;
  info.vma_start_page = vma->start_page;
  info.vma_pages = vma->pages;
  info.vma_first_touch = !vma->touched;
  vma->touched = true;
  return DoFault(info, vma->CoversRegion(info.region));
}

void GuestKernel::UnmapVma(int32_t vma_id) {
  Vma* vma = aspace_.FindById(vma_id);
  SIM_CHECK(vma != nullptr);
  const uint64_t first_region = vma->start_page >> kHugeOrder;
  const uint64_t last_region = (vma->end_page() - 1) >> kHugeOrder;
  for (uint64_t region = first_region; region <= last_region; ++region) {
    if (table_.IsHugeMapped(region)) {
      const uint64_t frame = table_.UnmapHuge(region);
      if (!policy_->OnFreeRegion(*this, region, frame, /*contiguous=*/true)) {
        gpa_frames_.ClearUse(frame, kPagesPerHuge);
        gpa_buddy_.Free(frame, kPagesPerHuge);
      }
      hooks_->ShootdownGuestRange(vm_id_, region << kHugeOrder, kPagesPerHuge);
      continue;
    }
    if (table_.PresentBasePages(region) == 0) {
      continue;
    }
    // Even base-mapped regions can be physically contiguous (EMA placed
    // them so); give the policy a chance to keep the whole block.
    std::vector<std::pair<uint32_t, uint64_t>> mapped;
    table_.ForEachBasePage(region, [&](uint32_t slot, uint64_t frame) {
      mapped.emplace_back(slot, frame);
    });
    bool contiguous = mapped.size() == kPagesPerHuge &&
                      mapped.front().second % kPagesPerHuge == 0;
    if (contiguous) {
      for (uint32_t i = 1; i < mapped.size(); ++i) {
        if (mapped[i].second != mapped.front().second + i) {
          contiguous = false;
          break;
        }
      }
    }
    const uint64_t first_frame = mapped.front().second;
    for (const auto& [slot, frame] : mapped) {
      (void)frame;
      table_.UnmapBase((region << kHugeOrder) + slot);
    }
    if (contiguous &&
        policy_->OnFreeRegion(*this, region, first_frame, /*contiguous=*/true)) {
      // Policy retained the whole block.
    } else {
      std::vector<uint64_t> freed;
      freed.reserve(mapped.size());
      for (const auto& [slot, frame] : mapped) {
        (void)slot;
        gpa_frames_.ClearUse(frame, 1);
        freed.push_back(frame);
      }
      gpa_buddy_.FreeFrames(freed);
    }
    hooks_->ShootdownGuestRange(vm_id_, region << kHugeOrder, kPagesPerHuge);
  }
  ForgetSwapped(vma->start_page, vma->pages);
  policy_->OnVmaDestroy(vma_id);
  aspace_.Remove(vma_id);
}

base::Cycles GuestKernel::AfterFramesWritten(uint64_t frame,
                                             uint64_t count) {
  return hooks_->EnsureHostBacking(vm_id_, frame, count);
}

void GuestKernel::ShootdownRegion(uint64_t region) {
  hooks_->ShootdownGuestRange(vm_id_, region << kHugeOrder, kPagesPerHuge);
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventKind::kShootdown, layer_, vm_id_,
                  region << kHugeOrder, kPagesPerHuge);
  }
}

}  // namespace osim
