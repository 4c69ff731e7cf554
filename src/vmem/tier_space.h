// A slow second memory tier layered over FrameSpace.
//
// TierSpace models the far side of a tiered-memory host: a compressed pool
// (zswap), a far NUMA node, or a plain swap device — anything pages can be
// demoted to when near memory runs short and refaulted from when the
// workload touches them again.  It deliberately tracks *which pages are
// far-resident*, not far frames: the far tier's internal layout does not
// affect translation, so modeling it as a capacity-bounded set keeps the
// near-tier effects (the interesting ones — buddy free-list churn,
// fragmentation, refault stalls) exact without inventing far-tier geometry.
//
// Ownership model: one TierSpace can back several kernels.  Guest kernels
// each own a private, unbounded TierSpace (their virtual swap device, the
// pre-tiering behavior).  The machine owns one host TierSpace shared by
// every per-VM host kernel slice, keyed by owner (vm_id), so a single far
// pool's capacity is contended by all tenants — the "Flexible Swapping for
// the Cloud" arrangement.
//
// The near-tier side of a demotion (unmap, free frames into the buddy
// allocator) and of a refault (fault path re-allocates from the buddy) is
// the owning kernel's job; TierSpace only keeps the far-resident set, the
// capacity check, the per-page migration costs, and the counters.
//
// Layout (DESIGN.md §3i).  Owners are small dense ids (vm ids 0..N-1), so
// the per-owner shards sit in a vector indexed by owner.  Each shard keeps
// a bitmap over the span of pages that owner has ever demoted, based at
// its lowest demoted word rather than at page 0 (guest VPNs start at
// 2^20), plus a resident count.  Demote, Refault and Contains are one bit
// operation each; Forget clears a bit range a word at a time and counts
// what it cleared with popcount.  Memory is proportional to the demoted
// span, and nothing is ordered by hashing or allocation, so accounting is
// deterministic.  tests/reference_tier_space.h keeps the std::set tier
// this replaced; a fuzzed differential pins the two op for op.
#ifndef SRC_VMEM_TIER_SPACE_H_
#define SRC_VMEM_TIER_SPACE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/check.h"
#include "base/types.h"

namespace vmem {

// Cumulative per-owner migration counters.  The residency invariant
//   resident == demoted_pages - refaults - forgotten
// holds at every point (the machine fuzz test checks it each epoch).
struct TierStats {
  uint64_t demoted_pages = 0;  // pages moved near -> far
  uint64_t refaults = 0;       // pages moved far -> near on access
  uint64_t forgotten = 0;      // far records dropped by unmap/teardown
  uint64_t rejected = 0;       // demotions refused: far tier at capacity
};

class TierSpace {
 public:
  // `capacity_pages` == 0 means unbounded (a plain swap device — the
  // pre-tiering default).  `demote_cost` is charged by the owning kernel
  // per page moved far (asynchronous: compress + copy); `refault_cost` is
  // the synchronous stall of reading one page back.
  TierSpace(uint64_t capacity_pages, base::Cycles demote_cost,
            base::Cycles refault_cost)
      : capacity_pages_(capacity_pages),
        demote_cost_(demote_cost),
        refault_cost_(refault_cost) {}

  // Moves `page` of `owner` (>= 0) to the far tier.  Returns false (and
  // counts a rejection) if the far tier is full — the caller must then
  // leave the page mapped in near memory.  Demoting an already-far page is
  // a no-op returning true (idempotent, does not double-count).
  bool Demote(int32_t owner, uint64_t page) {
    SIM_CHECK(owner >= 0);
    if (static_cast<size_t>(owner) >= shards_.size()) {
      shards_.resize(static_cast<size_t>(owner) + 1);
    }
    Shard& shard = shards_[owner];
    if (shard.Test(page)) {
      return true;
    }
    if (capacity_pages_ != 0 && resident_total_ >= capacity_pages_) {
      ++shard.stats.rejected;
      return false;
    }
    shard.Set(page);
    ++shard.stats.demoted_pages;
    ++resident_total_;
    peak_resident_ = std::max(peak_resident_, resident_total_);
    return true;
  }

  // If `page` of `owner` is far-resident, brings it back (erases the
  // record, counts a refault) and returns true; the caller charges
  // refault_cost() and re-faults the page into near memory.
  bool Refault(int32_t owner, uint64_t page) {
    if (!Known(owner) || !shards_[owner].Clear(page)) {
      return false;
    }
    ++shards_[owner].stats.refaults;
    --resident_total_;
    return true;
  }

  // Drops far records for [page, page + count) of `owner` (VMA teardown /
  // VM removal).  Returns how many records were dropped.
  uint64_t Forget(int32_t owner, uint64_t page, uint64_t count) {
    if (!Known(owner)) {
      return 0;
    }
    Shard& shard = shards_[owner];
    const uint64_t dropped = shard.ClearRange(page, page + count);
    shard.stats.forgotten += dropped;
    resident_total_ -= dropped;
    return dropped;
  }

  bool Contains(int32_t owner, uint64_t page) const {
    return Known(owner) && shards_[owner].Test(page);
  }

  // Far-resident pages of one owner / of everyone.
  uint64_t resident(int32_t owner) const {
    return Known(owner) ? shards_[owner].resident : 0;
  }
  uint64_t resident_total() const { return resident_total_; }
  uint64_t peak_resident() const { return peak_resident_; }

  uint64_t capacity_pages() const { return capacity_pages_; }
  base::Cycles demote_cost() const { return demote_cost_; }
  base::Cycles refault_cost() const { return refault_cost_; }

  TierStats stats(int32_t owner) const {
    return Known(owner) ? shards_[owner].stats : TierStats{};
  }
  TierStats totals() const {
    TierStats t;
    for (const Shard& shard : shards_) {
      t.demoted_pages += shard.stats.demoted_pages;
      t.refaults += shard.stats.refaults;
      t.forgotten += shard.stats.forgotten;
      t.rejected += shard.stats.rejected;
    }
    return t;
  }

 private:
  // One owner's far-resident pages: bit (page & 63) of words[(page >> 6) -
  // first_word].  The word span only grows, geometrically in the
  // direction of the demotion that fell outside it.
  struct Shard {
    uint64_t first_word = 0;
    std::vector<uint64_t> words;
    uint64_t resident = 0;  // set bits
    TierStats stats;

    // Word index of `page`, or words.size() (or more) if outside the span.
    uint64_t Index(uint64_t page) const { return (page >> 6) - first_word; }
    bool Test(uint64_t page) const {
      const uint64_t i = Index(page);
      return i < words.size() && ((words[i] >> (page & 63)) & 1) != 0;
    }
    void Set(uint64_t page) {
      Cover(page >> 6);
      words[Index(page)] |= 1ull << (page & 63);
      ++resident;
    }
    // Clears `page`'s bit; false if it was not set.
    bool Clear(uint64_t page) {
      const uint64_t i = Index(page);
      const uint64_t bit = 1ull << (page & 63);
      if (i >= words.size() || (words[i] & bit) == 0) {
        return false;
      }
      words[i] &= ~bit;
      --resident;
      return true;
    }
    // Clears every bit in [lo, hi); returns how many were set.
    uint64_t ClearRange(uint64_t lo, uint64_t hi) {
      lo = std::max(lo, first_word * 64);
      hi = std::min(hi, (first_word + words.size()) * 64);
      uint64_t cleared = 0;
      while (lo < hi) {
        const uint64_t bits = std::min<uint64_t>(64 - (lo & 63), hi - lo);
        const uint64_t mask =
            (bits == 64 ? ~0ull : ((1ull << bits) - 1)) << (lo & 63);
        uint64_t& word = words[Index(lo)];
        cleared += static_cast<uint64_t>(__builtin_popcountll(word & mask));
        word &= ~mask;
        lo += bits;
      }
      resident -= cleared;
      return cleared;
    }
    // Extends the span to include word `w`, at least doubling it.
    void Cover(uint64_t w) {
      if (words.empty()) {
        first_word = w;
        words.push_back(0);
        return;
      }
      const uint64_t end = first_word + words.size();
      if (w >= first_word && w < end) {
        return;
      }
      if (w < first_word) {
        // Never below word 0: first_word - w <= first_word.
        const uint64_t grow =
            std::min(std::max<uint64_t>(words.size(), first_word - w),
                     first_word);
        words.insert(words.begin(), grow, 0);
        first_word -= grow;
      } else {
        words.resize(words.size() +
                     std::max<uint64_t>(words.size(), w + 1 - end));
      }
    }
  };

  // True if `owner` has a shard (ids never demoted to read as empty).
  bool Known(int32_t owner) const {
    return owner >= 0 && static_cast<size_t>(owner) < shards_.size();
  }

  uint64_t capacity_pages_;
  base::Cycles demote_cost_;
  base::Cycles refault_cost_;
  uint64_t resident_total_ = 0;
  uint64_t peak_resident_ = 0;
  std::vector<Shard> shards_;  // indexed by owner
};

}  // namespace vmem

#endif  // SRC_VMEM_TIER_SPACE_H_
