// Test-only reference: the contiguity list that vmem::ContiguityList
// replaced, its code kept verbatim so the list that keeps only the runs
// long enough to serve a query can be fuzzed against it query for query.
// It rebuilds from every maximal free run whenever the free map has
// changed.
#ifndef TESTS_REFERENCE_CONTIGUITY_LIST_H_
#define TESTS_REFERENCE_CONTIGUITY_LIST_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/types.h"
#include "vmem/buddy_allocator.h"
#include "vmem/frame_space.h"

namespace reference_contiguity_list {

using vmem::BuddyAllocator;
using vmem::kInvalidFrame;

class ContiguityList {
 public:
  struct Extent {
    uint64_t frame;   // first frame of the free run
    uint64_t count;   // length in frames
    bool operator==(const Extent& other) const = default;
  };

  explicit ContiguityList(const BuddyAllocator* buddy) : buddy_(buddy) {}

  // Rebuilds the extent list from the allocator's current free map.
  void Refresh();

  // Finds a free extent of at least `count` frames using next-fit from the
  // cursor; wraps around once.  If `huge_aligned` is set, the returned
  // frame is rounded up to a 2 MiB boundary inside the extent and the
  // remaining space after rounding must still fit `count`.
  // Returns kInvalidFrame if nothing fits.  Advances the cursor past the
  // returned extent on success.
  uint64_t FindFit(uint64_t count, bool huge_aligned);

  // The largest extent currently known (frame/count), or count == 0 when
  // memory is exhausted.  Used by the sub-VMA mechanism when no extent fits
  // the whole VMA.
  Extent LargestExtent() const;

  size_t extent_count() const { return extents_.size(); }
  const std::vector<Extent>& extents() const { return extents_; }

 private:
  const BuddyAllocator* buddy_;
  uint64_t refreshed_epoch_ = ~0ull;
  std::vector<Extent> extents_;
  uint64_t cursor_ = 0;  // address (frame) where the next search starts
};

inline void ContiguityList::Refresh() {
  if (refreshed_epoch_ == buddy_->mutation_epoch()) {
    return;  // free map unchanged since the last rebuild
  }
  refreshed_epoch_ = buddy_->mutation_epoch();
  extents_.clear();
  buddy_->ForEachFreeRun([&](uint64_t frame, uint64_t count) {
    extents_.push_back(Extent{frame, count});
  });
}

inline uint64_t ContiguityList::FindFit(uint64_t count, bool huge_aligned) {
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

inline ContiguityList::Extent ContiguityList::LargestExtent() const {
  Extent best{0, 0};
  for (const Extent& e : extents_) {
    if (e.count > best.count) {
      best = e;
    }
  }
  return best;
}

}  // namespace reference_contiguity_list

#endif  // TESTS_REFERENCE_CONTIGUITY_LIST_H_
