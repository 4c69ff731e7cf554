// Page-walk cache (PWC) model.
//
// Hardware page-walk caches hold non-leaf page-table directory entries so
// that a walk can skip memory references for the upper levels.  The paper
// (§2.1) notes they are effective for the high levels near the root but the
// lowest-level directories (the ones pointing at 4 KiB PTEs) are hard to
// cache.  We therefore model a PWC that covers the PML4 and PDPT levels
// (skipping up to 2 of the 4 references of a walk) and never the PD/PT
// levels; this is what makes a huge-page walk (leaf at PD) almost free
// while a base-page walk still pays for the PD and PT references.
//
// Each level is a small fully-associative LRU cache keyed by the
// virtual-address prefix that indexes that level.
#ifndef SRC_MMU_PAGE_WALK_CACHE_H_
#define SRC_MMU_PAGE_WALK_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.h"

namespace mmu {

// One fully-associative LRU cache of address prefixes.
//
// Storage is a flat slab of keys with two O(1) indices over it: a chained
// hash index (probe without scanning the slab) and an intrusive
// doubly-linked recency list (exact LRU victim without scanning for a
// minimum stamp).  The nested walker probes these caches ~10 times per 2D
// walk, so the pre-arena implementation's O(capacity) probe and eviction
// scans were the simulator's dominant miss-path cost
// (BENCH_translation.json miss_heavy).  Replacement behavior is exactly
// LRU and byte-identical to the scan version: a hit moves the entry to the
// list head, the eviction victim is the list tail — the same entry a
// least-stamp scan would pick.  The indices only change *how fast* the
// same decisions are made.  (A lazy stamp-on-hit/scan-on-evict variant was
// measured too: it loses, because the one cache that evicts at a high rate
// — the PT-level nested cache under sparse base-page traffic — pays the
// full scan on every eviction, while the list's hit-path splice early-outs
// for the stable caches whose entries sit at the head anyway.)
//
// The cache also keeps a *mutation counter*, bumped whenever the key set
// changes (insert, evict, flush) and never by LRU refreshes.  Two equal
// reads bracket an interval in which every Lookup verdict was stable and
// every key kept its slot — this is the validation primitive the nested
// walker's walk memo builds on (see nested_walker.h): a memoized walk
// re-validates in O(levels) counter compares and re-touches the recorded
// slots via Touch() without re-probing the index.
class PrefixCache {
 public:
  explicit PrefixCache(uint32_t capacity);

  // Returns true (and refreshes LRU) if the prefix is cached.
  bool Lookup(uint64_t prefix) { return LookupSlot(prefix) >= 0; }

  // Lookup returning the slot index of the hit (refreshed), or -1.
  int32_t LookupSlot(uint64_t prefix) {
    for (int32_t slot = bucket_head_[Bucket(prefix)]; slot >= 0;
         slot = chain_next_[slot]) {
      if (keys_[slot] == prefix) {
        MoveToFront(static_cast<uint32_t>(slot));
        return slot;
      }
    }
    return -1;
  }

  void Insert(uint64_t prefix) {
    if (!Lookup(prefix)) {
      InsertMissing(prefix);
    }
  }

  // Insert for a prefix the caller knows is absent (a Lookup just returned
  // false and nothing touched this cache since): skips the presence probe.
  // Returns the slot the prefix landed in.
  uint32_t InsertMissing(uint64_t prefix);

  // Refreshes a slot's recency without a key probe.  Only valid while the
  // caller can prove the slot still holds the key it recorded (mutation
  // counter unchanged since); equivalent to a Lookup hit on that key.
  void Touch(uint32_t slot) { MoveToFront(slot); }

  // Bumped by every key-set change (insert, evict, flush); never by LRU
  // refreshes.  Equal reads bracket an interval of stable contents.
  uint64_t mutations() const { return mutations_; }

  size_t size() const { return keys_.size(); }

  // Empties the cache (one mutation).  Only NestedWalker::Flush calls it,
  // and that only for tests; it stays for the same reason (see there).
  void Flush();

 private:
  uint32_t Bucket(uint64_t prefix) const {
    // Fibonacci hashing: multiplicative spread of the (small, often
    // consecutive) prefix integers over the bucket array.
    return static_cast<uint32_t>((prefix * 0x9E3779B97F4A7C15ull) >>
                                 bucket_shift_);
  }
  void LinkIntoBucket(uint32_t slot);
  void UnlinkFromBucket(uint32_t slot);

  // Detaches `slot` from wherever it sits on the recency list and relinks
  // it at the head (most recent).
  void MoveToFront(uint32_t slot) {
    if (lru_head_ == static_cast<int32_t>(slot)) {
      return;
    }
    const int32_t prev = lru_prev_[slot];
    const int32_t next = lru_next_[slot];
    lru_next_[prev] = next;  // prev exists: slot is not the head
    if (next >= 0) {
      lru_prev_[next] = prev;
    } else {
      lru_tail_ = prev;
    }
    lru_prev_[slot] = -1;
    lru_next_[slot] = lru_head_;
    lru_prev_[lru_head_] = static_cast<int32_t>(slot);
    lru_head_ = static_cast<int32_t>(slot);
  }
  void PushFront(uint32_t slot);

  uint32_t capacity_;
  uint32_t bucket_shift_;  // 64 - log2(bucket count)
  uint64_t mutations_ = 0;
  std::vector<uint64_t> keys_;        // cached prefixes, slab-ordered
  std::vector<int32_t> bucket_head_;  // bucket -> first slot, -1 = empty
  std::vector<int32_t> chain_next_;   // slot -> next slot in bucket, -1 = end
  // Recency list over the occupied slots: head = MRU, tail = LRU victim.
  std::vector<int32_t> lru_prev_;
  std::vector<int32_t> lru_next_;
  int32_t lru_head_ = -1;
  int32_t lru_tail_ = -1;
};

// Walk cost in memory references for one layer of page table, with the
// per-level attribution the walk-level breakdown counters consume.
struct WalkCost {
  uint32_t memory_refs = 0;  // directory/PTE reads that went to memory
  uint32_t cached_refs = 0;  // reads satisfied by the PWC
  bool l4_cached = false;    // the PML4 read was PWC-served
  bool l3_cached = false;    // the PDPT read was PWC-served
  // Slots holding the PML4/PDPT prefixes after the walk (they are always
  // resident afterwards — a miss inserts).  The nested walker records them
  // in its walk memo.
  uint32_t l4_slot = 0;
  uint32_t l3_slot = 0;
};

class PageWalkCache {
 public:
  static constexpr uint32_t kPml4Entries = 16;
  static constexpr uint32_t kPdptEntries = 32;

  PageWalkCache() : pml4_(kPml4Entries), pdpt_(kPdptEntries) {}

  // Simulates one walk of a 4-level table for `vpn`, with the leaf at the
  // PT level for base pages (4 refs uncached) or the PD level for huge
  // pages (3 refs uncached).  Upper levels hit in the PWC when their
  // directory was walked recently.
  WalkCost Walk(uint64_t vpn, base::PageSize leaf_size);

  // Empties both levels; a test seam like NestedWalker::Flush.
  void Flush();

  // Per-level caches, exposed for the nested walker's memo (mutation
  // counters + slot touches) and for tests.
  PrefixCache& pml4() { return pml4_; }
  PrefixCache& pdpt() { return pdpt_; }

 private:
  // Address prefixes indexing each level: PML4 covers 512 GiB per entry
  // (vpn >> 27), PDPT covers 1 GiB (vpn >> 18).
  PrefixCache pml4_;
  PrefixCache pdpt_;
};

}  // namespace mmu

#endif  // SRC_MMU_PAGE_WALK_CACHE_H_
