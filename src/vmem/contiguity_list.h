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
// The list is a view over a BuddyAllocator: Refresh() rebuilds the extent
// list from the allocator's maximal free runs.  The next-fit cursor
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

}  // namespace vmem

#endif  // SRC_VMEM_CONTIGUITY_LIST_H_
