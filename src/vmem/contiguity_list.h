// GEMINI contiguity list (paper §5, Figure 6).
//
// Tracks free, contiguous physical memory extents sorted by starting
// address.  Gemini consults it when a VMA is first touched to find a free
// region that can back the whole VMA with huge-page-aligned placement.
// Lookups use the next-fit policy: the search resumes from where the
// previous search left off, and small allocations are steered to the low
// end of the address space so large extents at the high end survive
// (mitigating fragmentation, as the paper describes).
//
// The list is a snapshot of a BuddyAllocator: Refresh(min_frames) rebuilds
// it from the allocator's maximal free runs of at least `min_frames`
// frames, the only runs a FindFit of that many frames can use, so a query
// costs what its answer needs (DESIGN.md §3j).  FindFit reads the snapshot,
// not the live allocator, until the next Refresh.  The next-fit cursor
// survives refreshes (it is an address, not an iterator).
#ifndef SRC_VMEM_CONTIGUITY_LIST_H_
#define SRC_VMEM_CONTIGUITY_LIST_H_

#include <cstdint>
#include <vector>

#include "vmem/buddy_allocator.h"
#include "vmem/frame_space.h"

namespace vmem {

class ContiguityList {
 public:
  struct Extent {
    uint64_t frame;   // first frame of the free run
    uint64_t count;   // length in frames
    bool operator==(const Extent& other) const = default;
  };

  explicit ContiguityList(const BuddyAllocator* buddy) : buddy_(buddy) {}

  // Makes the list hold every maximal free run of at least `min_frames`
  // (> 0) frames.  Keeps the current list while the free map is unchanged
  // and the list was built at `min_frames` or below.
  void Refresh(uint64_t min_frames);

  // Finds a free extent of at least `count` frames using next-fit from the
  // cursor; wraps around once.  If `huge_aligned` is set, the returned
  // frame is rounded up to a 2 MiB boundary inside the extent and the
  // remaining space after rounding must still fit `count`.  `count` must be
  // at least the last Refresh's `min_frames`.
  // Returns kInvalidFrame if nothing fits.  Advances the cursor past the
  // returned extent on success.
  uint64_t FindFit(uint64_t count, bool huge_aligned);

  // The largest free run (the lowest-addressed one on a tie), or count == 0
  // when memory is exhausted.  Used by the sub-VMA mechanism when no extent
  // fits the whole VMA.  The free map must not have changed since the last
  // Refresh.
  Extent LargestExtent() const;

  size_t extent_count() const { return extents_.size(); }
  const std::vector<Extent>& extents() const { return extents_; }

 private:
  const BuddyAllocator* buddy_;
  uint64_t refreshed_epoch_ = ~0ull;
  uint64_t min_frames_ = ~0ull;  // every run this long or longer is listed
  std::vector<Extent> extents_;
  uint64_t cursor_ = 0;  // address (frame) where the next search starts
};

}  // namespace vmem

#endif  // SRC_VMEM_CONTIGUITY_LIST_H_
