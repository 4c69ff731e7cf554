#include "policy/ca_paging.h"

#include <vector>

namespace policy {

uint64_t FindContiguousRun(const vmem::BuddyAllocator& buddy,
                           uint64_t min_frames, uint64_t cursor) {
  // A maximal free run of L frames holds at least floor(L/1024) - 1 free
  // blocks of the top order, because the free map is maximally merged
  // (DESIGN.md §3j).  Too few of them, and no run is long enough.
  constexpr int kTopOrder = base::kMaxOrder - 1;
  if (buddy.FreeBlocksOfOrder(kTopOrder) + 1 < (min_frames >> kTopOrder)) {
    return vmem::kInvalidFrame;
  }
  uint64_t best_before_cursor = vmem::kInvalidFrame;
  uint64_t run_start = vmem::kInvalidFrame;
  uint64_t run_end = 0;
  uint64_t found = vmem::kInvalidFrame;
  // Only the blocks of free runs of at least `min_frames` are visited.  A
  // shorter run never reaches run_end - run_start >= min_frames, so it
  // changes no state the next run reads (its first block resets
  // run_start), and skipping it leaves the answer exact.  Returns false,
  // ending the visit, once the answer is known.
  buddy.ForEachFreeBlock([&](uint64_t head, int order) {
    const uint64_t size = 1ull << order;
    if (run_start == vmem::kInvalidFrame || head != run_end) {
      run_start = head;
      run_end = head;
    }
    run_end += size;
    if (run_end - run_start >= min_frames) {
      if (run_start >= cursor) {
        found = run_start;
      } else if (run_end >= cursor && run_end - cursor >= min_frames) {
        found = cursor;  // the cursor sits inside a big-enough run
      } else if (best_before_cursor == vmem::kInvalidFrame) {
        best_before_cursor = run_start;
        // Keep scanning for a run past the cursor; remember the wrap hit.
        run_start = run_end;  // avoid re-reporting the same run
      }
    }
    return found == vmem::kInvalidFrame;
  }, min_frames);
  return found != vmem::kInvalidFrame ? found : best_before_cursor;
}

FaultDecision CaPagingPolicy::OnFault(KernelOps& kernel,
                                      const FaultInfo& info) {
  FaultDecision decision;
  auto it = offsets_.find(info.vma_id);
  if (it == offsets_.end()) {
    // First fault of this VMA: anchor it to a contiguous free run.  Failed
    // searches back off until the free map has changed materially.
    if (kernel.buddy().mutation_epoch() < search_retry_epoch_) {
      return decision;
    }
    const uint64_t run = FindContiguousRun(kernel.buddy(), info.vma_pages,
                                           next_fit_cursor_);
    if (run == vmem::kInvalidFrame) {
      search_retry_epoch_ = kernel.buddy().mutation_epoch() + 512;
      return decision;  // no contiguity available; default placement
    }
    next_fit_cursor_ = run + info.vma_pages;
    it = offsets_
             .emplace(info.vma_id, static_cast<int64_t>(info.vma_start_page) -
                                       static_cast<int64_t>(run))
             .first;
  }
  const int64_t target =
      static_cast<int64_t>(info.page) - it->second;
  if (target >= 0 &&
      static_cast<uint64_t>(target) < kernel.buddy().frame_count()) {
    decision.target_frame = static_cast<uint64_t>(target);
  }
  return decision;
}

void CaPagingPolicy::OnVmaDestroy(int32_t vma_id) { offsets_.erase(vma_id); }

}  // namespace policy
