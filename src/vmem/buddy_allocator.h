// Binary buddy allocator modeled on the Linux page allocator.
//
// Free memory is kept in per-order free lists, order 0 (one 4 KiB frame) to
// order kMaxOrder-1 (1024 frames = 4 MiB), mirroring Linux MAX_ORDER = 11.
// Allocation splits the smallest sufficient block; freeing merges buddies
// greedily.  Two features go beyond the textbook allocator because Gemini
// needs them:
//
//  * AllocateAt(frame, count): targeted allocation of an exact frame range,
//    used by the Enhanced Memory Allocator to place pages at offsets that
//    align with huge pages at the other layer, by huge booking to take a
//    reservation out of the general pool, and by the fragmenter.
//  * FMFI(order): the free memory fragmentation index used by Ingens and by
//    Gemini's booking-timeout controller (Algorithm 1) and preallocation
//    gate.
//
// The free lists are bitmaps (DESIGN.md §3j): one free bit per frame, and
// per order one bit per aligned slot that is set iff a free block of exactly
// that order starts there.  Each bitmap carries a one-bit-per-word summary
// for fast scans.  The allocator also exposes its maximal free runs so the
// Gemini contiguity list can enumerate free extents.
#ifndef SRC_VMEM_BUDDY_ALLOCATOR_H_
#define SRC_VMEM_BUDDY_ALLOCATOR_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "trace/tracer.h"
#include "vmem/frame_space.h"

namespace vmem {

class BuddyAllocator {
 public:
  // `selection_seed` randomizes which free block of an order serves each
  // allocation (bounded choice among the lowest few), modeling the
  // effectively arbitrary order of Linux's LIFO per-cpu freelists.  Seed 0
  // selects strictly lowest-address-first (deterministic; used by tests).
  explicit BuddyAllocator(uint64_t frame_count, uint64_t selection_seed = 0);

  BuddyAllocator(const BuddyAllocator&) = delete;
  BuddyAllocator& operator=(const BuddyAllocator&) = delete;

  // Allocates a naturally aligned block of 2^order frames.  Returns the
  // first frame, or kInvalidFrame if no block of sufficient order exists.
  // Prefers the lowest-addressed suitable block, like Linux's
  // address-ordered freelists under the default migratetype.
  uint64_t Allocate(int order);

  // Allocates the exact range [frame, frame + count).  Succeeds only if the
  // whole range is currently free.  The range need not be aligned or a
  // power of two; surrounding free space is re-split into maximal blocks.
  bool AllocateAt(uint64_t frame, uint64_t count);

  // True if the whole range [frame, frame + count) is free.
  bool IsRangeFree(uint64_t frame, uint64_t count) const;

  // Frees the range [frame, frame + count), merging buddies.  The range
  // must be entirely allocated.  Returns how many blocks it inserted
  // before merging.
  uint64_t Free(uint64_t frame, uint64_t count);

  // Frees a batch of single allocated frames, leaving the free map and
  // mutation_epoch() exactly where Free(frame, 1) per frame would leave
  // them.  Frames that follow each other in the batch in ascending address
  // order are freed as one range.  A frame that is already free, or
  // appears twice, aborts.
  void FreeFrames(std::span<const uint64_t> frames);

  bool IsFrameFree(uint64_t frame) const;

  uint64_t frame_count() const { return frame_count_; }
  uint64_t free_frames() const { return free_frames_; }
  uint64_t allocated_frames() const { return frame_count_ - free_frames_; }

  // Number of free blocks of exactly the given order.
  uint64_t FreeBlocksOfOrder(int order) const;

  // Largest order with at least one free block, or -1 if memory is full.
  int LargestFreeOrder() const;

  // How many order-`order` blocks could be carved from the free lists
  // (counting larger blocks at their split multiplicity).
  uint64_t BlocksAvailable(int order) const;

  // Free memory fragmentation index for allocations of the given order:
  //   FMFI = 1 - (frames usable as order-`order` blocks) / (free frames)
  // 0 means all free memory is available in sufficiently large blocks;
  // values near 1 mean free memory exists only as smaller fragments.
  // Returns 1.0 when no memory is free.
  double Fmfi(int order) const;

  // Monotone counter bumped on every free-map mutation; cheap change
  // detection for cached views (the contiguity list).
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  // Attaches the machine's tracer so split/merge/targeted-allocation
  // tracepoints are emitted, tagged with this allocator's layer and VM.
  // Null (the default) keeps the allocator silent.
  void SetTracer(trace::Tracer* tracer, base::Layer layer, int32_t vm_id) {
    tracer_ = tracer;
    trace_layer_ = layer;
    trace_vm_ = vm_id;
  }

  // Visits each maximal run of free frames as (first_frame, count), in
  // address order.  A callback returning bool stops the visit by returning
  // false (as does ForEachFreeBlock's).
  template <typename Fn>
  void ForEachFreeRun(Fn&& fn) const {
    uint64_t frame = NextFrame<true>(0);
    while (frame < frame_count_) {
      const uint64_t end = NextFrame<false>(frame);
      if (!Visit(fn, frame, end - frame)) {
        return;
      }
      frame = NextFrame<true>(end);
    }
  }

  // Visits each maximal run of at least `min_frames` free frames as
  // (first_frame, count), in address order, like ForEachFreeRun without
  // the shorter runs.  From 128 frames up it never looks at a shorter run:
  // a run of L >= 128 frames holds at least floor(L/64) - 1 >= 1 all-free
  // words, so the runs of set bits in frames_all_ are the only candidates,
  // each widened by the free frames on either side.
  template <typename Fn>
  void ForEachFreeRunOfAtLeast(uint64_t min_frames, Fn&& fn) const {
    if (min_frames < 128) {
      ForEachFreeRun([&](uint64_t lo, uint64_t count) {
        return count < min_frames || Visit(fn, lo, count);
      });
      return;
    }
    const uint64_t words = frames_.words.size();
    for (uint64_t w = NextWholeWord<true>(0); w < words;) {
      // Widen [w, w_end) by the free frames at the top of word w - 1 and at
      // the bottom of word w_end.  Neither word is all free, so each count
      // stops at an allocated frame.
      const uint64_t w_end = NextWholeWord<false>(w);
      uint64_t lo = w << 6;
      if (w != 0) {
        lo -= static_cast<uint64_t>(__builtin_clzll(~frames_.words[w - 1]));
      }
      uint64_t hi = w_end << 6;
      if (w_end != words) {
        hi += static_cast<uint64_t>(__builtin_ctzll(~frames_.words[w_end]));
      }
      if (hi - lo >= min_frames && !Visit(fn, lo, hi - lo)) {
        return;
      }
      w = NextWholeWord<true>(w_end);
    }
  }

  // Visits each free block as (first_frame, order), in address order, of
  // the maximal free runs of at least `min_run` frames (of every run by
  // default).  The free map is always maximally merged, so the blocks of a
  // free run are its greedy decomposition into the largest aligned blocks.
  template <typename Fn>
  void ForEachFreeBlock(Fn&& fn, uint64_t min_run = 1) const {
    ForEachFreeRunOfAtLeast(min_run, [&](uint64_t lo, uint64_t count) {
      const uint64_t hi = lo + count;
      while (lo < hi) {
        const int order = LargestBlockOrder(lo, hi);
        if (!Visit(fn, lo, order)) {
          return false;
        }
        lo += 1ull << order;
      }
      return true;
    });
  }

  // Verifies internal invariants (for tests): every bitmap agrees with its
  // summaries and counts, and the head bitmaps hold exactly the maximally
  // merged decomposition of the free frames.  Aborts on violation.
  void CheckInvariants() const;

 private:
  // A bitmap with one summary bit per 64-bit word.
  struct Bitmap {
    std::vector<uint64_t> words;
    std::vector<uint64_t> summary;
  };
  // Free-block heads of one order: bit i is set iff a free block of this
  // order starts at frame i << order.
  struct HeadMap : Bitmap {
    uint64_t count = 0;       // set bits
    size_t low_summary = 0;   // no summary word below this one is nonzero
  };

  // Calls a visitor; true unless it returned false (void visitors never
  // stop a visit).
  template <typename Fn, typename... Args>
  static bool Visit(Fn& fn, Args... args) {
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&, Args...>>) {
      fn(args...);
      return true;
    } else {
      return fn(args...);
    }
  }

  // Order of the largest naturally aligned block that starts at `lo` and
  // ends at or before `hi`.
  static int LargestBlockOrder(uint64_t lo, uint64_t hi) {
    int order = std::min(base::kMaxOrder - 1, 63 - __builtin_clzll(hi - lo));
    if (lo != 0) {
      order = std::min(order, __builtin_ctzll(lo));
    }
    return order;
  }

  // First frame at or after `from` that is free (kFree) or allocated
  // (!kFree), or frame_count_ if there is none.
  template <bool kFree>
  uint64_t NextFrame(uint64_t from) const {
    return FindBit<kFree>(frames_.words,
                          kFree ? frames_.summary : frames_all_, from,
                          frame_count_);
  }
  // First frames_ word at or after `from` whose frames_all_ bit equals
  // kAllFree, or the word count.  A plain scan of frames_all_: finding the
  // run's end through NextFrame<false> instead made the host-sized miss of
  // BM_FindContiguousRun 1.6x slower.
  template <bool kAllFree>
  uint64_t NextWholeWord(uint64_t from) const {
    constexpr uint64_t kFlip = kAllFree ? 0 : ~0ull;
    const uint64_t limit = frames_.words.size();
    if (from >= limit) {
      return limit;
    }
    size_t s = from >> 6;
    uint64_t bits = (frames_all_[s] ^ kFlip) & (~0ull << (from & 63));
    while (bits == 0) {
      if (++s == frames_all_.size()) {
        return limit;
      }
      bits = frames_all_[s] ^ kFlip;
    }
    return std::min(limit,
                    (s << 6) | static_cast<uint64_t>(__builtin_ctzll(bits)));
  }
  // First index in [from, limit) whose bit equals kSet, or limit.  Skips
  // whole words through `summary`, which must hold "word nonzero" bits for
  // kSet and "word all ones" bits for !kSet.
  template <bool kSet>
  static uint64_t FindBit(const std::vector<uint64_t>& words,
                          const std::vector<uint64_t>& summary, uint64_t from,
                          uint64_t limit);

  // Slot of the block (head, order) in its head bitmap; checks alignment
  // and range.
  uint64_t Slot(uint64_t head, int order) const;
  bool HasHead(uint64_t head, int order) const {
    const uint64_t slot = head >> order;
    return (heads_[order].words[slot >> 6] >> (slot & 63)) & 1;
  }
  // Head of the k-th lowest free block of `order` (k < its block count).
  uint64_t KthHead(int order, uint64_t k);
  // Marks frames [lo, hi) free or allocated in the frame bitmap.
  void MarkFrames(uint64_t lo, uint64_t hi, bool free);

  void InsertFreeBlock(uint64_t head, int order);
  void RemoveFreeBlock(uint64_t head, int order);
  // Frees one naturally aligned block and merges with its buddy chain.
  void FreeBlock(uint64_t head, int order);
  // Re-inserts the free range [lo, hi) as maximal aligned blocks; returns
  // how many blocks it freed.
  uint64_t InsertFreeRange(uint64_t lo, uint64_t hi);

  uint64_t frame_count_;
  uint64_t free_frames_ = 0;
  uint64_t mutation_epoch_ = 0;
  trace::Tracer* tracer_ = nullptr;
  base::Layer trace_layer_ = base::Layer::kGuest;
  int32_t trace_vm_ = -1;
  bool randomize_ = false;
  base::Rng rng_;
  // Bit f set iff frame f is free; bits past frame_count_ stay clear.  The
  // summary bit of a word is set iff the word has a free frame.
  Bitmap frames_;
  // One bit per frames_ word: set iff all 64 of its frames are free.
  std::vector<uint64_t> frames_all_;
  std::array<HeadMap, base::kMaxOrder> heads_;
};

template <bool kSet>
uint64_t BuddyAllocator::FindBit(const std::vector<uint64_t>& words,
                                 const std::vector<uint64_t>& summary,
                                 uint64_t from, uint64_t limit) {
  constexpr uint64_t kFlip = kSet ? 0 : ~0ull;
  if (from >= limit) {
    return limit;
  }
  uint64_t w = from >> 6;
  uint64_t word = (words[w] ^ kFlip) & (~0ull << (from & 63));
  if (word == 0) {
    const uint64_t last_w = (limit - 1) >> 6;
    if (w == last_w) {
      return limit;
    }
    size_t s = (w + 1) >> 6;
    uint64_t bits = (summary[s] ^ kFlip) & (~0ull << ((w + 1) & 63));
    while (bits == 0) {
      if (s == last_w >> 6) {
        return limit;
      }
      bits = summary[++s] ^ kFlip;
    }
    w = (s << 6) | static_cast<uint64_t>(__builtin_ctzll(bits));
    if (w > last_w) {
      return limit;
    }
    word = words[w] ^ kFlip;
  }
  return std::min(limit,
                  (w << 6) | static_cast<uint64_t>(__builtin_ctzll(word)));
}

}  // namespace vmem

#endif  // SRC_VMEM_BUDDY_ALLOCATOR_H_
