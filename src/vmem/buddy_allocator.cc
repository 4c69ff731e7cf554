#include "vmem/buddy_allocator.h"

#include <algorithm>

#include "base/check.h"

namespace vmem {

using base::kMaxOrder;

namespace {

size_t WordsFor(uint64_t bits) { return static_cast<size_t>((bits + 63) / 64); }

bool TestBit(const std::vector<uint64_t>& words, uint64_t i) {
  return (words[i >> 6] >> (i & 63)) & 1;
}

// Forced inline: -O2 otherwise emits it out of line, a call per bit.
[[gnu::always_inline]] inline void AssignBit(std::vector<uint64_t>& words,
                                             uint64_t i, bool value) {
  const uint64_t bit = 1ull << (i & 63);
  words[i >> 6] = value ? (words[i >> 6] | bit) : (words[i >> 6] & ~bit);
}

}  // namespace

BuddyAllocator::BuddyAllocator(uint64_t frame_count, uint64_t selection_seed)
    : frame_count_(frame_count),
      randomize_(selection_seed != 0),
      rng_(selection_seed == 0 ? 1 : selection_seed) {
  SIM_CHECK(frame_count > 0);
  frames_.words.assign(WordsFor(frame_count), 0);
  frames_.summary.assign(WordsFor(frames_.words.size()), 0);
  frames_all_.assign(frames_.summary.size(), 0);
  for (int o = 0; o < kMaxOrder; ++o) {
    // One slot per aligned position, the partial last one included, so
    // any frame's enclosing slot can be tested without a range check.
    heads_[o].words.assign(WordsFor(((frame_count - 1) >> o) + 1), 0);
    heads_[o].summary.assign(WordsFor(heads_[o].words.size()), 0);
  }
  MarkFrames(0, frame_count, /*free=*/true);
  InsertFreeRange(0, frame_count);
}

uint64_t BuddyAllocator::Slot(uint64_t head, int order) const {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  const uint64_t size = 1ull << order;
  SIM_CHECK_MSG(head % size == 0 && head + size <= frame_count_,
                "bad free block head=%llu order=%d",
                static_cast<unsigned long long>(head), order);
  return head >> order;
}

void BuddyAllocator::InsertFreeBlock(uint64_t head, int order) {
  const uint64_t slot = Slot(head, order);
  HeadMap& heads = heads_[order];
  SIM_CHECK(!TestBit(heads.words, slot));
  AssignBit(heads.words, slot, true);
  AssignBit(heads.summary, slot >> 6, true);
  heads.low_summary = std::min<size_t>(heads.low_summary, slot >> 12);
  ++heads.count;
  free_frames_ += 1ull << order;
  ++mutation_epoch_;
}

void BuddyAllocator::RemoveFreeBlock(uint64_t head, int order) {
  const uint64_t slot = Slot(head, order);
  HeadMap& heads = heads_[order];
  SIM_CHECK_MSG(TestBit(heads.words, slot),
                "no free block head=%llu order=%d",
                static_cast<unsigned long long>(head), order);
  AssignBit(heads.words, slot, false);
  if (heads.words[slot >> 6] == 0) {
    AssignBit(heads.summary, slot >> 6, false);
  }
  --heads.count;
  free_frames_ -= 1ull << order;
  ++mutation_epoch_;
}

void BuddyAllocator::MarkFrames(uint64_t lo, uint64_t hi, bool free) {
  while (lo < hi) {
    const uint64_t w = lo >> 6;
    const uint64_t span = std::min(hi, (w + 1) << 6) - lo;
    const uint64_t mask =
        (span == 64 ? ~0ull : (1ull << span) - 1) << (lo & 63);
    uint64_t& word = frames_.words[w];
    word = free ? (word | mask) : (word & ~mask);
    AssignBit(frames_.summary, w, word != 0);
    AssignBit(frames_all_, w, word == ~0ull);
    lo += span;
  }
}

void BuddyAllocator::FreeBlock(uint64_t head, int order) {
  const int freed_order = order;
  // Merge with the buddy chain while the buddy block is free and whole.
  while (order < kMaxOrder - 1) {
    const uint64_t size = 1ull << order;
    const uint64_t buddy = head ^ size;
    if (buddy + size > frame_count_ || !HasHead(buddy, order)) {
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

uint64_t BuddyAllocator::InsertFreeRange(uint64_t lo, uint64_t hi) {
  uint64_t blocks = 0;
  for (; lo < hi; ++blocks) {
    const int order = LargestBlockOrder(lo, hi);
    FreeBlock(lo, order);
    lo += 1ull << order;
  }
  return blocks;
}

uint64_t BuddyAllocator::KthHead(int order, uint64_t k) {
  HeadMap& heads = heads_[order];
  size_t s = heads.low_summary;
  while (heads.summary[s] == 0) {
    ++s;
  }
  heads.low_summary = s;
  // Walks set bits, k + 1 of them at most: k < 16, and without -mpopcnt a
  // popcount per word is a libgcc call.
  for (;; ++s) {
    for (uint64_t bits = heads.summary[s]; bits != 0; bits &= bits - 1) {
      const uint64_t w =
          (s << 6) | static_cast<uint64_t>(__builtin_ctzll(bits));
      for (uint64_t word = heads.words[w]; word != 0; word &= word - 1) {
        if (k-- == 0) {
          return ((w << 6) | static_cast<uint64_t>(__builtin_ctzll(word)))
                 << order;
        }
      }
    }
  }
}

uint64_t BuddyAllocator::Allocate(int order) {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  // Find the lowest-addressed block among the smallest sufficient orders.
  int found = -1;
  for (int o = order; o < kMaxOrder; ++o) {
    if (heads_[o].count != 0) {
      found = o;
      break;
    }
  }
  if (found < 0) {
    return kInvalidFrame;
  }
  uint64_t pick = 0;
  if (randomize_) {
    // Bounded random choice among the lowest few candidates: enough entropy
    // to decorrelate physical reuse, cheap to compute.
    constexpr uint64_t kChoiceWindow = 16;
    pick = rng_.NextBelow(std::min(kChoiceWindow, heads_[found].count));
  }
  const uint64_t head = KthHead(found, pick);
  RemoveFreeBlock(head, found);
  // Split down to the requested order, returning the low half each time and
  // freeing the high half (Linux splits the same way).
  for (int o = found; o > order; --o) {
    const uint64_t half = 1ull << (o - 1);
    InsertFreeBlock(head + half, o - 1);
  }
  MarkFrames(head, head + (1ull << order), /*free=*/false);
  if (tracer_ != nullptr && found != order) {
    tracer_->Emit(trace::EventKind::kBuddySplit, trace_layer_, trace_vm_, head,
                  static_cast<uint64_t>(found), static_cast<uint64_t>(order));
  }
  return head;
}

bool BuddyAllocator::IsRangeFree(uint64_t frame, uint64_t count) const {
  if (count == 0) {
    return true;
  }
  if (frame + count > frame_count_) {
    return false;
  }
  return FindBit<false>(frames_.words, frames_all_, frame, frame + count) ==
         frame + count;
}

bool BuddyAllocator::IsFrameFree(uint64_t frame) const {
  return frame < frame_count_ && TestBit(frames_.words, frame);
}

bool BuddyAllocator::AllocateAt(uint64_t frame, uint64_t count) {
  if (count == 0) {
    return true;
  }
  if (!IsRangeFree(frame, count)) {
    return false;
  }
  const uint64_t end = frame + count;
  // Remove every free block overlapping the range, keeping the slack.
  uint64_t cursor = frame;
  while (cursor < end) {
    // The free block holding `cursor` starts at `cursor` rounded down to
    // the block's order.
    int order = kMaxOrder - 1;
    while (!HasHead(cursor & ~((1ull << order) - 1), order)) {
      SIM_CHECK(order > 0);
      --order;
    }
    const uint64_t head = cursor & ~((1ull << order) - 1);
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
  MarkFrames(frame, end, /*free=*/false);
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventKind::kBuddyAllocAt, trace_layer_, trace_vm_,
                  frame, count);
  }
  return true;
}

uint64_t BuddyAllocator::Free(uint64_t frame, uint64_t count) {
  SIM_CHECK(frame + count <= frame_count_);
  const uint64_t free_frame =
      FindBit<true>(frames_.words, frames_.summary, frame, frame + count);
  SIM_CHECK_MSG(free_frame == frame + count, "double free of frame %llu",
                static_cast<unsigned long long>(free_frame));
  MarkFrames(frame, frame + count, /*free=*/true);
  return InsertFreeRange(frame, frame + count);
}

void BuddyAllocator::FreeFrames(std::span<const uint64_t> frames) {
  // Each single-frame free inserts one block after m merges: m + 1 epoch
  // bumps, and the free-block count moves by 1 - m.  So n frames freed one
  // by one bump the epoch 2n - dB times, and the ranges below, inserting c
  // blocks in all, 2c - dB times.  dB is the same both ways, since the free
  // map ends maximally merged either way (DESIGN.md §3j).
  uint64_t blocks = 0;
  for (size_t i = 0; i < frames.size();) {
    const uint64_t lo = frames[i];
    uint64_t hi = lo + 1;
    while (++i < frames.size() && frames[i] == hi) {
      ++hi;
    }
    blocks += Free(lo, hi - lo);
  }
  mutation_epoch_ += 2 * (frames.size() - blocks);
}

uint64_t BuddyAllocator::FreeBlocksOfOrder(int order) const {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  return heads_[order].count;
}

int BuddyAllocator::LargestFreeOrder() const {
  for (int o = kMaxOrder - 1; o >= 0; --o) {
    if (heads_[o].count != 0) {
      return o;
    }
  }
  return -1;
}

uint64_t BuddyAllocator::BlocksAvailable(int order) const {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  uint64_t blocks = 0;
  for (int o = order; o < kMaxOrder; ++o) {
    blocks += heads_[o].count << (o - order);
  }
  return blocks;
}

double BuddyAllocator::Fmfi(int order) const {
  SIM_CHECK(order >= 0 && order < kMaxOrder);
  if (free_frames_ == 0) {
    return 1.0;
  }
  uint64_t usable = 0;
  for (int o = order; o < kMaxOrder; ++o) {
    usable += heads_[o].count << o;
  }
  return 1.0 - static_cast<double>(usable) / static_cast<double>(free_frames_);
}

void BuddyAllocator::CheckInvariants() const {
  // Each summary bit is set iff its word is nonzero (and, for `all`, iff
  // the word is all ones); no summary bit exists past the last word.
  // Returns the bitmap's population.
  const auto check_bitmap = [](const Bitmap& map,
                               const std::vector<uint64_t>* all) {
    SIM_CHECK(map.summary.size() == WordsFor(map.words.size()));
    uint64_t population = 0;
    for (uint64_t w = 0; w < map.summary.size() * 64; ++w) {
      const uint64_t word = w < map.words.size() ? map.words[w] : 0;
      SIM_CHECK(TestBit(map.summary, w) == (word != 0));
      if (all != nullptr) {
        SIM_CHECK(TestBit(*all, w) == (word == ~0ull));
      }
      population += static_cast<uint64_t>(__builtin_popcountll(word));
    }
    return population;
  };

  // Frame bitmap: no bit past the last frame, population = free frames.
  SIM_CHECK(frames_.words.size() == WordsFor(frame_count_));
  SIM_CHECK(frames_all_.size() == frames_.summary.size());
  if (frame_count_ % 64 != 0) {
    SIM_CHECK((frames_.words.back() >> (frame_count_ % 64)) == 0);
  }
  SIM_CHECK(check_bitmap(frames_, &frames_all_) == free_frames_);

  // Head bitmaps: each count is its bitmap's population, and the low-summary
  // hint is a lower bound on the first nonzero summary word.
  for (int o = 0; o < kMaxOrder; ++o) {
    const HeadMap& heads = heads_[o];
    SIM_CHECK(heads.words.size() == WordsFor(((frame_count_ - 1) >> o) + 1));
    SIM_CHECK(check_bitmap(heads, nullptr) == heads.count);
    for (size_t s = 0; s < std::min(heads.low_summary, heads.summary.size());
         ++s) {
      SIM_CHECK(heads.summary[s] == 0);
    }
  }

  // Canonical form: every greedy block of every free run has its head bit
  // set, and per order there are as many greedy blocks as set bits.  So the
  // heads are exactly the maximally merged decomposition of the free frames.
  std::array<uint64_t, kMaxOrder> blocks{};
  ForEachFreeBlock([&](uint64_t head, int order) {
    SIM_CHECK_MSG(HasHead(head, order),
                  "free frames at %llu not a maximal block of order %d",
                  static_cast<unsigned long long>(head), order);
    ++blocks[order];
  });
  for (int o = 0; o < kMaxOrder; ++o) {
    SIM_CHECK(blocks[o] == heads_[o].count);
  }
}

}  // namespace vmem
