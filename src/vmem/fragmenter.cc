#include "vmem/fragmenter.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/types.h"

namespace vmem {

double Fragmenter::FragmentToTarget(double target_fmfi, double max_fraction) {
  SIM_CHECK(target_fmfi >= 0.0 && target_fmfi <= 1.0);
  const uint64_t pin_budget =
      static_cast<uint64_t>(max_fraction * static_cast<double>(buddy_->frame_count()));
  while (buddy_->Fmfi(base::kHugeOrder) < target_fmfi &&
         pinned_.size() < pin_budget) {
    // Collect the heads of all huge-capable free blocks; pinning one frame
    // inside each splits it below huge-page size.
    std::vector<std::pair<uint64_t, int>> targets;
    buddy_->ForEachFreeBlock([&](uint64_t head, int order) {
      if (order >= static_cast<int>(base::kHugeOrder)) {
        targets.emplace_back(head, order);
      }
    });
    if (targets.empty()) {
      break;
    }
    for (const auto& [head, order] : targets) {
      const uint64_t size = 1ull << order;
      // Pin one frame per 2 MiB stride at a jittered offset, so every huge
      // span within the block becomes unusable for huge allocation.
      for (uint64_t off = 0; off < size; off += base::kPagesPerHuge) {
        const uint64_t span = std::min<uint64_t>(base::kPagesPerHuge, size - off);
        const uint64_t frame = head + off + rng_.NextBelow(span);
        if (buddy_->AllocateAt(frame, 1)) {
          frames_->SetUse(frame, 1, kNoOwner, FrameUse::kPinned);
          pinned_.push_back(frame);
          if (pinned_.size() >= pin_budget) {
            break;
          }
        }
      }
      if (pinned_.size() >= pin_budget ||
          buddy_->Fmfi(base::kHugeOrder) >= target_fmfi) {
        break;
      }
    }
  }
  return buddy_->Fmfi(base::kHugeOrder);
}

void Fragmenter::ReleaseAll() {
  for (uint64_t frame : pinned_) {
    frames_->ClearUse(frame, 1);
  }
  buddy_->FreeFrames(pinned_);
  pinned_.clear();
}

}  // namespace vmem
