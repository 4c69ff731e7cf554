// Test-only reference: the map/set far tier that vmem::TierSpace replaced,
// its code kept verbatim so the bitmap tier can be fuzzed against it op for
// op.  Far-resident pages live in one std::set per owner, the owners in an
// ordered std::map.  The counters struct is the production vmem::TierStats.
#ifndef TESTS_REFERENCE_TIER_SPACE_H_
#define TESTS_REFERENCE_TIER_SPACE_H_

#include <cstdint>
#include <map>
#include <set>

#include "base/types.h"
#include "vmem/tier_space.h"

namespace reference_tier {

using vmem::TierStats;

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

  // Moves `page` of `owner` to the far tier.  Returns false (and counts a
  // rejection) if the far tier is full — the caller must then leave the
  // page mapped in near memory.  Demoting an already-far page is a no-op
  // returning true (idempotent, does not double-count).
  bool Demote(int32_t owner, uint64_t page) {
    Shard& shard = shards_[owner];
    if (shard.pages.contains(page)) {
      return true;
    }
    if (capacity_pages_ != 0 && resident_total_ >= capacity_pages_) {
      ++shard.stats.rejected;
      return false;
    }
    shard.pages.insert(page);
    ++shard.stats.demoted_pages;
    ++resident_total_;
    peak_resident_ = resident_total_ > peak_resident_ ? resident_total_
                                                      : peak_resident_;
    return true;
  }

  // If `page` of `owner` is far-resident, brings it back (erases the
  // record, counts a refault) and returns true; the caller charges
  // refault_cost() and re-faults the page into near memory.
  bool Refault(int32_t owner, uint64_t page) {
    auto it = shards_.find(owner);
    if (it == shards_.end() || it->second.pages.erase(page) == 0) {
      return false;
    }
    ++it->second.stats.refaults;
    --resident_total_;
    return true;
  }

  // Drops far records for [page, page + count) of `owner` (VMA teardown /
  // VM removal).  Returns how many records were dropped.
  uint64_t Forget(int32_t owner, uint64_t page, uint64_t count) {
    auto it = shards_.find(owner);
    if (it == shards_.end()) {
      return 0;
    }
    uint64_t dropped = 0;
    auto page_it = it->second.pages.lower_bound(page);
    while (page_it != it->second.pages.end() && *page_it < page + count) {
      page_it = it->second.pages.erase(page_it);
      ++dropped;
    }
    it->second.stats.forgotten += dropped;
    resident_total_ -= dropped;
    return dropped;
  }

  bool Contains(int32_t owner, uint64_t page) const {
    auto it = shards_.find(owner);
    return it != shards_.end() && it->second.pages.contains(page);
  }

  // Far-resident pages of one owner / of everyone.
  uint64_t resident(int32_t owner) const {
    auto it = shards_.find(owner);
    return it == shards_.end() ? 0 : it->second.pages.size();
  }
  uint64_t resident_total() const { return resident_total_; }
  uint64_t peak_resident() const { return peak_resident_; }

  uint64_t capacity_pages() const { return capacity_pages_; }
  base::Cycles demote_cost() const { return demote_cost_; }
  base::Cycles refault_cost() const { return refault_cost_; }

  TierStats stats(int32_t owner) const {
    auto it = shards_.find(owner);
    return it == shards_.end() ? TierStats{} : it->second.stats;
  }
  TierStats totals() const {
    TierStats t;
    for (const auto& [owner, shard] : shards_) {
      (void)owner;
      t.demoted_pages += shard.stats.demoted_pages;
      t.refaults += shard.stats.refaults;
      t.forgotten += shard.stats.forgotten;
      t.rejected += shard.stats.rejected;
    }
    return t;
  }

 private:
  struct Shard {
    std::set<uint64_t> pages;  // far-resident page numbers
    TierStats stats;
  };

  uint64_t capacity_pages_;
  base::Cycles demote_cost_;
  base::Cycles refault_cost_;
  uint64_t resident_total_ = 0;
  uint64_t peak_resident_ = 0;
  std::map<int32_t, Shard> shards_;  // ordered: deterministic accounting
};

}  // namespace reference_tier

#endif  // TESTS_REFERENCE_TIER_SPACE_H_
