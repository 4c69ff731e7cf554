#include "gemini/ema.h"

#include "base/check.h"
#include "base/types.h"

namespace gemini {

uint64_t Ema::TargetFor(int32_t vma_id, uint64_t page) {
  auto it = spans_.find(vma_id);
  if (it == spans_.end()) {
    ++stats_.descriptor_misses;
    return vmem::kInvalidFrame;
  }
  std::list<Span>& list = it->second;
  for (auto span_it = list.begin(); span_it != list.end(); ++span_it) {
    if (page >= span_it->start_page &&
        page < span_it->start_page + span_it->pages) {
      ++stats_.descriptor_hits;
      // Move-to-front: faults are local, so the matched descriptor is very
      // likely to be matched again next.
      list.splice(list.begin(), list, span_it);
      const int64_t target = static_cast<int64_t>(page) - list.front().offset;
      SIM_CHECK(target >= 0);
      return static_cast<uint64_t>(target);
    }
  }
  ++stats_.descriptor_misses;
  return vmem::kInvalidFrame;
}

void Ema::AddSpan(int32_t vma_id, uint64_t start_page, uint64_t pages,
                  int64_t offset) {
  SIM_CHECK(pages > 0);
  std::list<Span>& list = spans_[vma_id];
  for (const Span& existing : list) {
    const bool disjoint = start_page + pages <= existing.start_page ||
                          existing.start_page + existing.pages <= start_page;
    SIM_CHECK_MSG(disjoint, "overlapping EMA span for vma %d", vma_id);
  }
  list.push_front(Span{start_page, pages, offset});
  ++stats_.descriptors_created;
}

void Ema::SplitSpanAt(int32_t vma_id, uint64_t page) {
  auto it = spans_.find(vma_id);
  if (it == spans_.end()) {
    return;
  }
  for (auto span_it = it->second.begin(); span_it != it->second.end();
       ++span_it) {
    if (page >= span_it->start_page &&
        page < span_it->start_page + span_it->pages) {
      // Cut at the huge-region boundary so the replacement span can cover
      // the faulting region whole (keeping it in-place promotable).
      const uint64_t boundary = page & ~(base::kPagesPerHuge - 1);
      if (boundary <= span_it->start_page) {
        it->second.erase(span_it);
      } else {
        span_it->pages = boundary - span_it->start_page;
      }
      ++stats_.ranges_reassigned;
      return;
    }
  }
}

void Ema::UncoveredWindow(int32_t vma_id, uint64_t page, uint64_t fallback_lo,
                          uint64_t fallback_hi, uint64_t* lo,
                          uint64_t* hi) const {
  *lo = fallback_lo;
  *hi = fallback_hi;
  auto it = spans_.find(vma_id);
  if (it == spans_.end()) {
    return;
  }
  for (const Span& span : it->second) {
    const uint64_t end = span.start_page + span.pages;
    SIM_CHECK(!(page >= span.start_page && page < end));
    if (end <= page && end > *lo) {
      *lo = end;
    }
    if (span.start_page > page && span.start_page < *hi) {
      *hi = span.start_page;
    }
  }
}

size_t Ema::span_count(int32_t vma_id) const {
  auto it = spans_.find(vma_id);
  return it == spans_.end() ? 0 : it->second.size();
}

}  // namespace gemini
