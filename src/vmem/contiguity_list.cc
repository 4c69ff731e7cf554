#include "vmem/contiguity_list.h"

#include <algorithm>

#include "base/types.h"

namespace vmem {

void ContiguityList::Refresh() {
  if (refreshed_epoch_ == buddy_->mutation_epoch()) {
    return;  // free map unchanged since the last rebuild
  }
  refreshed_epoch_ = buddy_->mutation_epoch();
  extents_.clear();
  buddy_->ForEachFreeRun([&](uint64_t frame, uint64_t count) {
    extents_.push_back(Extent{frame, count});
  });
}

uint64_t ContiguityList::FindFit(uint64_t count, bool huge_aligned) {
  if (count == 0 || extents_.empty()) {
    return kInvalidFrame;
  }
  // Locate the first extent at or after the cursor.
  auto begin_it = std::lower_bound(
      extents_.begin(), extents_.end(), cursor_,
      [](const Extent& e, uint64_t frame) { return e.frame + e.count <= frame; });
  const size_t start_index =
      static_cast<size_t>(begin_it - extents_.begin()) % extents_.size();
  // Pass 1 honours the cursor (next-fit); pass 2 wraps and retries every
  // extent from its head.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t probe = 0; probe < extents_.size(); ++probe) {
      const Extent& e = extents_[(start_index + probe) % extents_.size()];
      uint64_t frame = e.frame;
      if (pass == 0 && frame < cursor_ && cursor_ < e.frame + e.count) {
        frame = cursor_;  // resume inside the cursor extent
      }
      if (huge_aligned) {
        frame =
            base::HugeAlignUp(frame << base::kPageShift) >> base::kPageShift;
      }
      if (frame >= e.frame && frame + count <= e.frame + e.count) {
        cursor_ = frame + count;
        return frame;
      }
    }
  }
  return kInvalidFrame;
}

ContiguityList::Extent ContiguityList::LargestExtent() const {
  Extent best{0, 0};
  for (const Extent& e : extents_) {
    if (e.count > best.count) {
      best = e;
    }
  }
  return best;
}

}  // namespace vmem
