#include "vmem/contiguity_list.h"

#include <algorithm>

#include "base/check.h"
#include "base/types.h"

namespace vmem {

void ContiguityList::Refresh(uint64_t min_frames) {
  SIM_CHECK(min_frames > 0);
  if (refreshed_epoch_ == buddy_->mutation_epoch() &&
      min_frames_ <= min_frames) {
    return;  // free map unchanged, and every run that can serve is listed
  }
  refreshed_epoch_ = buddy_->mutation_epoch();
  min_frames_ = min_frames;
  extents_.clear();
  buddy_->ForEachFreeRunOfAtLeast(min_frames, [&](uint64_t frame,
                                                  uint64_t count) {
    extents_.push_back(Extent{frame, count});
  });
}

uint64_t ContiguityList::FindFit(uint64_t count, bool huge_aligned) {
  // A run shorter than `count` holds it from no start, so the runs Refresh
  // left out could not end this search, and the listed runs come in the
  // same next-fit order as in the full list (DESIGN.md §3j).
  SIM_CHECK(count >= min_frames_);
  if (extents_.empty()) {
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
  SIM_CHECK(refreshed_epoch_ == buddy_->mutation_epoch());
  Extent best{0, 0};
  const auto keep_longest = [&best](uint64_t frame, uint64_t count) {
    if (count > best.count) {
      best = Extent{frame, count};
    }
  };
  // The longest run passes every threshold, so a list holding any run
  // holds it.  An empty list means every run is shorter than min_frames_:
  // the runs of 128 frames and up are read from the all-free summary, and
  // only when there are none is every run visited.
  for (const Extent& e : extents_) {
    keep_longest(e.frame, e.count);
  }
  if (best.count == 0) {
    buddy_->ForEachFreeRunOfAtLeast(128, keep_longest);
  }
  if (best.count == 0) {
    buddy_->ForEachFreeRun(keep_longest);
  }
  return best;
}

}  // namespace vmem
