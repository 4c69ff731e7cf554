#include "os/balloon.h"

#include "base/check.h"
#include "base/types.h"
#include "os/cost_model.h"

namespace osim {

using base::kHugeOrder;
using base::kPagesPerHuge;

BalloonDriver::BalloonDriver(Machine* machine, int32_t vm_id,
                             bool alignment_aware)
    : machine_(machine), vm_id_(vm_id), alignment_aware_(alignment_aware) {
  SIM_CHECK(machine_ != nullptr);
}

void BalloonDriver::ReleaseHostBacking(uint64_t gfn) {
  HostVmKernel& host = machine_->vm(vm_id_).host_slice();
  mmu::PageTable& ept = host.table();
  const auto backing = ept.Lookup(gfn);
  if (!backing.has_value()) {
    return;  // never touched; nothing to release
  }
  const uint64_t region = gfn >> kHugeOrder;
  if (ept.IsHugeMapped(region)) {
    // The balloon releases at base-page granularity; a huge backing must
    // be split first (the hugepage-ballooning problem the paper cites).
    host.Demote(region);
    ++stats_.huge_backings_broken;
  }
  const uint64_t frame = ept.UnmapBase(gfn);
  if (machine_->host().frames().info(frame).use != vmem::FrameUse::kPinned) {
    machine_->host().frames().ClearUse(frame, 1);
    machine_->host().buddy().Free(frame, 1);
    ++stats_.host_frames_released;
  }
  machine_->InvalidateVmTranslations(vm_id_);
  host.ChargeOverhead(kCosts.tlb_shootdown);
}

uint64_t BalloonDriver::Inflate(uint64_t frames) {
  GuestKernel& guest = machine_->vm(vm_id_).guest();
  auto& buddy = guest.buddy();
  uint64_t inflated = 0;

  if (alignment_aware_) {
    // Source whole guest-physical regions whose backing is NOT a huge EPT
    // leaf (taking those costs no alignment); misaligned host huge regions
    // are already tracked for repair and also preferred over aligned ones.
    const mmu::PageTable& ept = machine_->vm(vm_id_).host_slice().table();
    for (uint64_t region = 0;
         region * kPagesPerHuge < buddy.frame_count() && inflated < frames;
         ++region) {
      if (ept.IsHugeMapped(region)) {
        continue;  // preserve hugely-backed regions
      }
      const uint64_t first = region * kPagesPerHuge;
      for (uint64_t f = first;
           f < first + kPagesPerHuge && inflated < frames; ++f) {
        if (buddy.AllocateAt(f, 1)) {
          guest.gpa_frames().SetUse(f, 1, vm_id_, vmem::FrameUse::kPinned);
          ReleaseHostBacking(f);
          ++inflated;
        }
      }
    }
  }
  // Fall back to (or start with, for the naive balloon) whatever the buddy
  // hands out.
  while (inflated < frames) {
    const uint64_t f = buddy.Allocate(0);
    if (f == vmem::kInvalidFrame) {
      break;
    }
    guest.gpa_frames().SetUse(f, 1, vm_id_, vmem::FrameUse::kPinned);
    ReleaseHostBacking(f);
    ++inflated;
  }
  stats_.inflated_frames += inflated;
  return inflated;
}

}  // namespace osim
