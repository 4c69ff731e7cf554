#include "mmu/nested_walker.h"

#include <algorithm>

#include "base/check.h"

namespace mmu {

NestedWalker::NestedWalker(const WalkerConfig& config)
    : config_(config),
      guest_pwc_(config.guest_pwc),
      host_pwc_(config.host_pwc),
      nested_pt_(config.nested_cache_entries),
      nested_pd_(config.nested_cache_entries),
      nested_pdpt_(config.nested_cache_entries),
      nested_pml4_(config.nested_cache_entries) {
  if (config.walk_memo_slots > 0) {
    SIM_CHECK((config.walk_memo_slots & (config.walk_memo_slots - 1)) == 0);
    // Memo slots are 16-bit (one-cache-line entries); every memoized cache
    // must keep its slot indices in range.
    SIM_CHECK(config.nested_cache_entries <= (1u << 16));
    SIM_CHECK(config.guest_pwc.pml4_entries <= (1u << 16));
    SIM_CHECK(config.guest_pwc.pdpt_entries <= (1u << 16));
  }
}

void NestedWalker::GrowMemo(uint64_t region) {
  memo_lo_ = std::min(memo_lo_, region);
  memo_hi_ = std::max(memo_hi_, region);
  const uint64_t cap = config_.walk_memo_slots;
  uint64_t size = std::min<uint64_t>(
      cap, std::max<uint64_t>(memo_.size(), kMinMemoSlots));
  while (size < cap && size <= memo_hi_ - memo_lo_) {
    size *= 2;
  }
  if (size != memo_.size()) {
    std::vector<Memo> grown(size);
    for (const Memo& m : memo_) {
      if (m.region != kNoRegion) {
        grown[m.region & (size - 1)] = m;
      }
    }
    memo_.swap(grown);
  }
  if (size == cap) {
    memo_lo_ = 0;
    memo_hi_ = kNoRegion - 1;
  }
}

PrefixCache& NestedWalker::MemoCache(uint32_t i) {
  switch (i) {
    case 0:
      return guest_pwc_.pml4();
    case 1:
      return guest_pwc_.pdpt();
    case 2:
      return nested_pml4_;
    case 3:
      return nested_pdpt_;
    default:
      return nested_pd_;  // i == 4; nested_pt_ (i == 5) is handled inline
  }
}

WalkResult NestedWalker::NativeWalk(uint64_t vpn, base::PageSize leaf_size) {
  WalkResult result;
  const WalkCost cost = guest_pwc_.Walk(vpn, leaf_size);
  result.memory_refs += cost.memory_refs;
  result.cached_refs += cost.cached_refs;
  ++(cost.l4_cached ? stats_.guest_cached : stats_.guest_mem)[0];
  ++(cost.l3_cached ? stats_.guest_cached : stats_.guest_mem)[1];
  ++stats_.guest_mem[2];
  if (leaf_size == base::PageSize::kBase) {
    ++stats_.guest_mem[3];
  }
  result.cycles = result.memory_refs * config_.cycles_per_memory_ref +
                  result.cached_refs * config_.cycles_per_cached_ref;
  return result;
}

void NestedWalker::ChargeHostWalk(uint64_t key, base::PageSize leaf,
                                  WalkResult& out) {
  const WalkCost cost = host_pwc_.Walk(key, leaf);
  out.memory_refs += cost.memory_refs;
  out.cached_refs += cost.cached_refs;
  ++(cost.l4_cached ? stats_.host_cached : stats_.host_mem)[0];
  ++(cost.l3_cached ? stats_.host_cached : stats_.host_mem)[1];
  ++stats_.host_mem[2];
  if (leaf == base::PageSize::kBase) {
    ++stats_.host_mem[3];
  }
}

void NestedWalker::WalkTablePage(PrefixCache& cache, uint64_t key,
                                 uint32_t level, WalkResult& out,
                                 uint32_t* memo_slot) {
  const int32_t slot = cache.LookupSlot(key);
  if (slot >= 0) {
    // The GPA->HPA translation of this table page is cached; no
    // host-dimension references are needed for this step.
    ++stats_.nested_hit[level];
    *memo_slot = static_cast<uint32_t>(slot);
    return;
  }
  // Full host-dimension walk to translate the table page (guest page-table
  // pages are base-mapped in the host).
  ++stats_.nested_walk[level];
  ChargeHostWalk(key, base::PageSize::kBase, out);
  *memo_slot = cache.InsertMissing(key);
}

WalkResult NestedWalker::NestedWalk(uint64_t vpn, base::PageSize guest_leaf,
                                    uint64_t gfn, base::PageSize host_leaf) {
  const uint64_t region = vpn >> base::kHugeOrder;
  const bool base_leaf = guest_leaf == base::PageSize::kBase;
  WalkResult result;

  Memo* memo = nullptr;
  if (config_.walk_memo_slots != 0 && region < kNoRegion) {
    if (region < memo_lo_ || region > memo_hi_) [[unlikely]] {
      GrowMemo(region);
    }
    memo = &memo_[region & (memo_.size() - 1)];
    if (memo->region == static_cast<uint32_t>(region) &&
        memo->guest_leaf == static_cast<uint8_t>(guest_leaf)) {
      bool upper_valid = true;
      for (uint32_t i = 0; i < kMemoUpperRefs; ++i) {
        upper_valid &=
            static_cast<uint32_t>(MemoCache(i).mutations()) == memo->muts[i];
      }
      if (upper_valid) {
        // Replay: the recorded caches are unchanged, so every probe the
        // live walk would issue is a guaranteed hit on the recorded slot.
        // Touch() performs the identical LRU stamp refresh a live hit
        // would; the charged costs are the live walk's hit costs.  The
        // per-level stats a replay implies are a fixed pattern, so only
        // the replay tallies are bumped here — stats() folds them back in.
        for (uint32_t i = 0; i < kMemoUpperRefs; ++i) {
          MemoCache(i).Touch(memo->slots[i]);
        }
        result.cached_refs += 2;  // guest PML4 + PDPT, PWC-served
        ++result.memory_refs;     // guest PD read
        if (base_leaf) {
          ++result.memory_refs;  // guest PT read
          if (static_cast<uint32_t>(nested_pt_.mutations()) ==
              memo->muts[kMemoUpperRefs]) {
            nested_pt_.Touch(memo->slots[kMemoUpperRefs]);
            ++memo_hits_base_;
          } else {
            // The PT-level nested cache churned (it thrashes under sparse
            // base-page access patterns) but the upper levels are intact:
            // probe only the PT level live and re-arm its slice.
            ++stats_.memo_upper_hits;
            uint32_t pt_slot = 0;
            WalkTablePage(nested_pt_, region, 3, result, &pt_slot);
            memo->slots[kMemoUpperRefs] = static_cast<uint16_t>(pt_slot);
            memo->muts[kMemoUpperRefs] =
                static_cast<uint32_t>(nested_pt_.mutations());
          }
        } else {
          ++memo_hits_huge_;
        }
        // The data page's host walk is never memoized: its key (gfn)
        // varies per page within the region.
        ChargeHostWalk(gfn, host_leaf, result);
        result.cycles = result.memory_refs * config_.cycles_per_memory_ref +
                        result.cached_refs * config_.cycles_per_cached_ref;
        return result;
      }
    }
  }

  // Live walk.  Guest-dimension directory/PTE reads: identical structure to
  // a native walk (the guest PWC covers the upper levels).
  const WalkCost guest = guest_pwc_.Walk(vpn, guest_leaf);
  result.memory_refs += guest.memory_refs;
  result.cached_refs += guest.cached_refs;
  ++(guest.l4_cached ? stats_.guest_cached : stats_.guest_mem)[0];
  ++(guest.l3_cached ? stats_.guest_cached : stats_.guest_mem)[1];
  ++stats_.guest_mem[2];
  if (base_leaf) {
    ++stats_.guest_mem[3];
  }
  // Host translations of the guest table pages those reads touch, served by
  // the nested translation caches when warm.
  std::array<uint32_t, kMemoRefs> slots = {guest.l4_slot, guest.l3_slot,
                                           0,             0,
                                           0,             0};
  WalkTablePage(nested_pml4_, 0, 0, result, &slots[2]);
  WalkTablePage(nested_pdpt_, vpn >> 27, 1, result, &slots[3]);
  WalkTablePage(nested_pd_, vpn >> 18, 2, result, &slots[4]);
  if (base_leaf) {
    WalkTablePage(nested_pt_, region, 3, result, &slots[5]);
  }
  if (memo != nullptr) {
    // Arm after all guest-side probes: every recorded key is now resident,
    // and the counters snapshot the state the slots are valid under.  The
    // data-page host walk below only touches host_pwc_, which is not in
    // the recorded set.
    memo->region = static_cast<uint32_t>(region);
    memo->guest_leaf = static_cast<uint8_t>(guest_leaf);
    for (uint32_t i = 0; i < kMemoRefs; ++i) {
      memo->slots[i] = static_cast<uint16_t>(slots[i]);
    }
    for (uint32_t i = 0; i < kMemoUpperRefs; ++i) {
      memo->muts[i] = static_cast<uint32_t>(MemoCache(i).mutations());
    }
    memo->muts[kMemoUpperRefs] =
        base_leaf ? static_cast<uint32_t>(nested_pt_.mutations()) : 0;
  }
  // Final host-dimension walk for the data page itself.
  ChargeHostWalk(gfn, host_leaf, result);
  result.cycles = result.memory_refs * config_.cycles_per_memory_ref +
                  result.cached_refs * config_.cycles_per_cached_ref;
  return result;
}

WalkLevelStats NestedWalker::stats() const {
  // Fold the replay tallies' fixed per-level patterns into the live
  // counters.  Every replayed walk (full or upper) served guest PML4/PDPT
  // from the PWC, read the guest PD from memory, and hit the nested caches
  // for the three upper table pages; base-leaf replays also read the guest
  // PT from memory, and only *full* base replays hit the nested PT cache
  // (upper replays probed it live, which counted live above).
  WalkLevelStats s = stats_;
  const uint64_t full = memo_hits_huge_ + memo_hits_base_;
  const uint64_t replays = full + stats_.memo_upper_hits;
  s.guest_cached[0] += replays;
  s.guest_cached[1] += replays;
  s.guest_mem[2] += replays;
  s.guest_mem[3] += memo_hits_base_ + stats_.memo_upper_hits;
  s.nested_hit[0] += replays;
  s.nested_hit[1] += replays;
  s.nested_hit[2] += replays;
  s.nested_hit[3] += memo_hits_base_;
  s.memo_hits = full;
  return s;
}

void NestedWalker::Flush() {
  // Flush bumps every cache's mutation counter, so armed memos
  // self-invalidate on their next validation; memo_ needs no clearing.
  guest_pwc_.Flush();
  host_pwc_.Flush();
  nested_pt_.Flush();
  nested_pd_.Flush();
  nested_pdpt_.Flush();
  nested_pml4_.Flush();
}

}  // namespace mmu
