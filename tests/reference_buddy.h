// Test-only reference: the map/set buddy allocator that vmem::BuddyAllocator
// replaced, its code kept verbatim (tracer calls included) so the bitmap
// allocator can be fuzzed against it op for op.  Free blocks live in an
// address-ordered std::map (head -> order) plus one std::set of heads per
// order.
#ifndef TESTS_REFERENCE_BUDDY_H_
#define TESTS_REFERENCE_BUDDY_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>

#include "base/check.h"
#include "base/rng.h"
#include "base/types.h"
#include "trace/tracer.h"
#include "vmem/frame_space.h"

namespace reference_buddy {

using base::kMaxOrder;
using vmem::kInvalidFrame;

class BuddyAllocator {
 public:
  explicit BuddyAllocator(uint64_t frame_count, uint64_t selection_seed = 0);

  BuddyAllocator(const BuddyAllocator&) = delete;
  BuddyAllocator& operator=(const BuddyAllocator&) = delete;

  uint64_t Allocate(int order);
  bool AllocateAt(uint64_t frame, uint64_t count);
  bool IsRangeFree(uint64_t frame, uint64_t count) const;
  void Free(uint64_t frame, uint64_t count);
  bool IsFrameFree(uint64_t frame) const;

  uint64_t frame_count() const { return frame_count_; }
  uint64_t free_frames() const { return free_frames_; }
  uint64_t allocated_frames() const { return frame_count_ - free_frames_; }

  uint64_t FreeBlocksOfOrder(int order) const;
  int LargestFreeOrder() const;
  uint64_t BlocksAvailable(int order) const;
  double Fmfi(int order) const;

  uint64_t mutation_epoch() const { return mutation_epoch_; }

  void SetTracer(trace::Tracer* tracer, base::Layer layer, int32_t vm_id) {
    tracer_ = tracer;
    trace_layer_ = layer;
    trace_vm_ = vm_id;
  }

  template <typename Fn>
  void ForEachFreeBlock(Fn&& fn) const {
    for (const auto& [head, order] : free_blocks_) {
      fn(head, order);
    }
  }

  void CheckInvariants() const;

 private:
  bool Intersected(uint64_t frame, uint64_t count) const;

  void InsertFreeBlock(uint64_t head, int order);
  void RemoveFreeBlock(uint64_t head, int order);
  void FreeBlock(uint64_t head, int order);
  void InsertFreeRange(uint64_t lo, uint64_t hi);

  uint64_t frame_count_;
  uint64_t free_frames_ = 0;
  uint64_t mutation_epoch_ = 0;
  trace::Tracer* tracer_ = nullptr;
  base::Layer trace_layer_ = base::Layer::kGuest;
  int32_t trace_vm_ = -1;
  bool randomize_ = false;
  base::Rng rng_;
  std::map<uint64_t, int> free_blocks_;
  std::array<std::set<uint64_t>, base::kMaxOrder> free_lists_;
};

inline BuddyAllocator::BuddyAllocator(uint64_t frame_count,
                                      uint64_t selection_seed)
    : frame_count_(frame_count),
      randomize_(selection_seed != 0),
      rng_(selection_seed == 0 ? 1 : selection_seed) {
  SIM_CHECK(frame_count > 0);
  InsertFreeRange(0, frame_count);
}

inline void BuddyAllocator::InsertFreeBlock(uint64_t head, int order) {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  auto [it, inserted] = free_blocks_.emplace(head, order);
  SIM_CHECK(inserted);
  (void)it;
  free_lists_[order].insert(head);
  free_frames_ += 1ull << order;
  ++mutation_epoch_;
}

inline void BuddyAllocator::RemoveFreeBlock(uint64_t head, int order) {
  auto it = free_blocks_.find(head);
  SIM_CHECK(it != free_blocks_.end() && it->second == order);
  free_blocks_.erase(it);
  const size_t erased = free_lists_[order].erase(head);
  SIM_CHECK(erased == 1);
  free_frames_ -= 1ull << order;
  ++mutation_epoch_;
}

inline void BuddyAllocator::FreeBlock(uint64_t head, int order) {
  const int freed_order = order;
  while (order < kMaxOrder - 1) {
    const uint64_t size = 1ull << order;
    const uint64_t buddy = head ^ size;
    if (buddy + size > frame_count_) {
      break;
    }
    auto it = free_blocks_.find(buddy);
    if (it == free_blocks_.end() || it->second != order) {
      break;
    }
    RemoveFreeBlock(buddy, order);
    head = std::min(head, buddy);
    ++order;
  }
  InsertFreeBlock(head, order);
  if (tracer_ != nullptr && order != freed_order) {
    tracer_->Emit(trace::EventKind::kBuddyMerge, trace_layer_, trace_vm_, head,
                  static_cast<uint64_t>(freed_order),
                  static_cast<uint64_t>(order));
  }
}

inline void BuddyAllocator::InsertFreeRange(uint64_t lo, uint64_t hi) {
  while (lo < hi) {
    int order = lo == 0 ? kMaxOrder - 1
                        : static_cast<int>(__builtin_ctzll(lo));
    order = std::min(order, kMaxOrder - 1);
    while ((1ull << order) > hi - lo) {
      --order;
    }
    FreeBlock(lo, order);
    lo += 1ull << order;
  }
}

inline uint64_t BuddyAllocator::Allocate(int order) {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  int found = -1;
  for (int o = order; o < kMaxOrder; ++o) {
    if (!free_lists_[o].empty()) {
      found = o;
      break;
    }
  }
  if (found < 0) {
    return kInvalidFrame;
  }
  auto it = free_lists_[found].begin();
  if (randomize_) {
    constexpr size_t kChoiceWindow = 16;
    const size_t window =
        std::min<size_t>(kChoiceWindow, free_lists_[found].size());
    std::advance(it, static_cast<size_t>(rng_.NextBelow(window)));
  }
  const uint64_t head = *it;
  RemoveFreeBlock(head, found);
  for (int o = found; o > order; --o) {
    const uint64_t half = 1ull << (o - 1);
    InsertFreeBlock(head + half, o - 1);
  }
  if (tracer_ != nullptr && found != order) {
    tracer_->Emit(trace::EventKind::kBuddySplit, trace_layer_, trace_vm_, head,
                  static_cast<uint64_t>(found), static_cast<uint64_t>(order));
  }
  return head;
}

inline bool BuddyAllocator::IsRangeFree(uint64_t frame, uint64_t count) const {
  if (count == 0) {
    return true;
  }
  if (frame + count > frame_count_) {
    return false;
  }
  uint64_t cursor = frame;
  const uint64_t end = frame + count;
  while (cursor < end) {
    auto it = free_blocks_.upper_bound(cursor);
    if (it == free_blocks_.begin()) {
      return false;
    }
    --it;
    const uint64_t block_end = it->first + (1ull << it->second);
    if (block_end <= cursor) {
      return false;
    }
    cursor = block_end;
  }
  return true;
}

inline bool BuddyAllocator::IsFrameFree(uint64_t frame) const {
  return IsRangeFree(frame, 1);
}

inline bool BuddyAllocator::AllocateAt(uint64_t frame, uint64_t count) {
  if (count == 0) {
    return true;
  }
  if (!IsRangeFree(frame, count)) {
    return false;
  }
  const uint64_t end = frame + count;
  uint64_t cursor = frame;
  while (cursor < end) {
    auto it = free_blocks_.upper_bound(cursor);
    SIM_CHECK(it != free_blocks_.begin());
    --it;
    const uint64_t head = it->first;
    const int order = it->second;
    const uint64_t block_end = head + (1ull << order);
    RemoveFreeBlock(head, order);
    if (head < frame) {
      InsertFreeRange(head, frame);
    }
    if (block_end > end) {
      InsertFreeRange(end, block_end);
    }
    cursor = block_end;
  }
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventKind::kBuddyAllocAt, trace_layer_, trace_vm_,
                  frame, count);
  }
  return true;
}

inline void BuddyAllocator::Free(uint64_t frame, uint64_t count) {
  SIM_CHECK(frame + count <= frame_count_);
  SIM_CHECK_MSG(!Intersected(frame, count), "double free of frame %llu",
                static_cast<unsigned long long>(frame));
  InsertFreeRange(frame, frame + count);
}

inline bool BuddyAllocator::Intersected(uint64_t frame, uint64_t count) const {
  auto it = free_blocks_.upper_bound(frame);
  if (it != free_blocks_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + (1ull << prev->second) > frame) {
      return true;
    }
  }
  return it != free_blocks_.end() && it->first < frame + count;
}

inline uint64_t BuddyAllocator::FreeBlocksOfOrder(int order) const {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  return free_lists_[order].size();
}

inline int BuddyAllocator::LargestFreeOrder() const {
  for (int o = kMaxOrder - 1; o >= 0; --o) {
    if (!free_lists_[o].empty()) {
      return o;
    }
  }
  return -1;
}

inline uint64_t BuddyAllocator::BlocksAvailable(int order) const {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  uint64_t blocks = 0;
  for (int o = order; o < kMaxOrder; ++o) {
    blocks += free_lists_[o].size() << (o - order);
  }
  return blocks;
}

inline double BuddyAllocator::Fmfi(int order) const {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  if (free_frames_ == 0) {
    return 1.0;
  }
  uint64_t usable = 0;
  for (int o = order; o < kMaxOrder; ++o) {
    usable += free_lists_[o].size() << o;
  }
  return 1.0 - static_cast<double>(usable) / static_cast<double>(free_frames_);
}

inline void BuddyAllocator::CheckInvariants() const {
  uint64_t total = 0;
  uint64_t prev_end = 0;
  bool first = true;
  for (const auto& [head, order] : free_blocks_) {
    SIM_CHECK(order >= 0 && order < kMaxOrder);
    const uint64_t size = 1ull << order;
    SIM_CHECK_MSG(head % size == 0, "misaligned free block head=%llu order=%d",
                  static_cast<unsigned long long>(head), order);
    SIM_CHECK(head + size <= frame_count_);
    if (!first) {
      SIM_CHECK(head >= prev_end);
    }
    const uint64_t buddy = head ^ size;
    if (order < kMaxOrder - 1 && buddy + size <= frame_count_) {
      auto it = free_blocks_.find(buddy);
      SIM_CHECK_MSG(it == free_blocks_.end() || it->second != order,
                    "unmerged buddies at %llu order %d",
                    static_cast<unsigned long long>(head), order);
    }
    SIM_CHECK(free_lists_[order].count(head) == 1);
    total += size;
    prev_end = head + size;
    first = false;
  }
  SIM_CHECK(total == free_frames_);
  uint64_t list_total = 0;
  for (int o = 0; o < kMaxOrder; ++o) {
    list_total += free_lists_[o].size() << o;
  }
  SIM_CHECK(list_total == free_frames_);
}

}  // namespace reference_buddy

#endif  // TESTS_REFERENCE_BUDDY_H_
