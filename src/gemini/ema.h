// Enhanced Memory Allocator (EMA) state: offset descriptors (paper §4.2,
// §5, Figures 5-7).
//
// An offset descriptor records, for a span of a VMA, the delta between
// page-space and frame-space so that every future fault in the span can be
// steered to `frame = page - offset`.  Placing the anchor huge-aligned
// makes GuestOffset ≡ 0 (mod 512): base pages then land contiguous and
// huge-aligned, and the region can later be promoted *in place* — no
// migration.  That is the whole trick.
//
// Descriptors are kept per VMA in a self-organizing (move-to-front) linear
// list, as the paper does (citing Hester & Hirschberg's self-organizing
// linear search) because one VMA may accumulate many sub-VMA descriptors
// and faults are highly local.  Sub-VMA descriptors (Figure 7) are just
// additional spans with their own offsets, created when no free extent
// fits the remaining VMA or when a target frame turned out to be taken.
#ifndef SRC_GEMINI_EMA_H_
#define SRC_GEMINI_EMA_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "vmem/frame_space.h"

namespace gemini {

struct EmaStats {
  uint64_t descriptor_hits = 0;
  uint64_t descriptor_misses = 0;
  uint64_t descriptors_created = 0;
  uint64_t ranges_reassigned = 0;
};

class Ema {
 public:
  struct Span {
    uint64_t start_page;
    uint64_t pages;
    int64_t offset;  // target frame = page - offset
  };

  // Target frame for `page` in `vma_id`, or kInvalidFrame if no descriptor
  // covers it.  Moves the matched descriptor to the front of its list.
  uint64_t TargetFor(int32_t vma_id, uint64_t page);

  // Registers a descriptor mapping [start_page, start_page + pages) with
  // the given offset.  Spans must not overlap existing ones (the caller
  // removes a span before re-placing it).
  void AddSpan(int32_t vma_id, uint64_t start_page, uint64_t pages,
               int64_t offset);

  // Shrinks the span covering `page` so it ends at the huge-region boundary
  // at or below `page` (erasing it if that empties it), keeping the prefix
  // whose targets were already consumed.  Creates no new span (the caller
  // adds the replacement).  No-op if none covers `page`.
  void SplitSpanAt(int32_t vma_id, uint64_t page);

  // The maximal uncovered window [lo, hi) around `page` within
  // [fallback_lo, fallback_hi).  Requires that no span covers `page`.
  void UncoveredWindow(int32_t vma_id, uint64_t page, uint64_t fallback_lo,
                       uint64_t fallback_hi, uint64_t* lo, uint64_t* hi) const;

  void DropVma(int32_t vma_id) { spans_.erase(vma_id); }

  const EmaStats& stats() const { return stats_; }
  size_t span_count(int32_t vma_id) const;

 private:
  std::unordered_map<int32_t, std::list<Span>> spans_;
  EmaStats stats_;
};

}  // namespace gemini

#endif  // SRC_GEMINI_EMA_H_
