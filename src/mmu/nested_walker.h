// Page-walk cost model for nested (2D) translation.
//
// On a TLB miss in a virtualized system the hardware performs a
// two-dimensional walk (paper §2.1): it walks the guest page table (up to 4
// levels), and every guest-table entry it reads is itself addressed by a
// guest physical address that must be translated through the host (VM) page
// table — up to 4 more references per step — plus a final host walk for the
// data page.  Worst case 4 + 5*4 = 24 memory references, vs. 4 natively.
//
// Three caches shave references off, mirroring hardware:
//  * a guest-dimension page-walk cache (upper GVA directory levels),
//  * a host-dimension page-walk cache (upper GPA directory levels), and
//  * a nested translation cache holding GPA->HPA translations of the guest
//    page-table pages themselves (keyed by the GVA prefix each table page
//    serves), which is what makes most of the 2D walk disappear when
//    accesses have locality.
//
// Huge-page leaves shorten both dimensions: a huge guest leaf removes the
// guest PT level (and the host translations of PT pages); a huge host leaf
// shortens every host walk.  This is the paper's "secondary way" huge pages
// help (§2.2) — note it accrues even to *misaligned* huge pages, which is
// why Misalignment beats Host-B-VM-B slightly while still paying full TLB
// misses.
//
// Walk memo (DESIGN.md §3e).  The guest-dimension half of a 2D walk for a
// 2 MiB region touches a fixed sequence of cache entries: the guest PWC's
// PML4 and PDPT prefixes and the four nested translation caches (PML4,
// PDPT, PD, and — for base leaves — PT).  The walker memoizes, per
// (region, guest leaf) pair, the slots those six probes landed in together
// with each cache's mutation counter at record time.  A later walk of the
// same region re-validates by comparing the counters: equal counters mean
// no key entered or left the cache, so the recorded slots still hold the
// recorded keys and every probe would hit.  The replay then refreshes the
// slots' LRU stamps via PrefixCache::Touch — the *same* stamp writes the
// live probes would have done — and charges the hit costs, skipping the
// hash probes entirely.  The host walk for the data page is never memoized
// (its key is the per-page gfn, not a per-region value).  See DESIGN.md
// §3e for the full equivalence argument.
//
// The memo is sized lazily: it holds at least as many slots as the span of
// regions walked so far (lowest to highest), doubling as the span grows,
// up to `walk_memo_slots`.  Any run of that many consecutive regions maps
// to distinct slots, so until the span outgrows the cap no two walked
// regions share a slot, and growth re-places every entry at its slot in
// the larger table.  The memo's contents, and with them the replay
// tallies, are therefore always those of a memo allocated at the cap; only
// the memory a VM never walks is no longer allocated and zero-filled.
#ifndef SRC_MMU_NESTED_WALKER_H_
#define SRC_MMU_NESTED_WALKER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "base/types.h"
#include "mmu/page_walk_cache.h"

namespace mmu {

struct WalkerConfig {
  // Direct-mapped walk-memo size cap in regions (power of two); 0
  // disables memoization.  Purely a simulator-speed knob: results are
  // identical with any value (tests/test_walker.cc pins the differential).
  uint32_t walk_memo_slots = 4096;
};

struct WalkResult {
  uint32_t memory_refs = 0;
  uint32_t cached_refs = 0;
  base::Cycles cycles = 0;
};

// Per-level walk accounting, indexed by page-table level: 0 = L4 (PML4),
// 1 = L3 (PDPT), 2 = L2 (PD), 3 = L1 (PT).  "guest" counts directory/PTE
// reads of the table being walked (the guest dimension of the nested
// walk); "host" counts host-dimension reads (translations of guest table
// pages and of the data page).
// "nested" counts per-level probes of the nested translation caches.
struct WalkLevelStats {
  std::array<uint64_t, 4> guest_mem{};     // guest-dim reads from memory
  std::array<uint64_t, 4> guest_cached{};  // guest-dim reads PWC-served
  std::array<uint64_t, 4> host_mem{};      // host-dim reads from memory
  std::array<uint64_t, 4> host_cached{};   // host-dim reads PWC-served
  std::array<uint64_t, 4> nested_hit{};    // table-page translation cached
  std::array<uint64_t, 4> nested_walk{};   // table-page translation walked
  uint64_t memo_hits = 0;        // full replay, all guest levels
  uint64_t memo_upper_hits = 0;  // upper levels replayed, PT probe live
};

class NestedWalker {
 public:
  // Cycles charged per page-table reference served from memory and per
  // reference served by a page-walk cache.  metrics::WalkLevelCycles
  // prices the per-level table with the same two constants.
  static constexpr base::Cycles kCyclesPerMemoryRef = 50;
  static constexpr base::Cycles kCyclesPerCachedRef = 2;

  explicit NestedWalker(const WalkerConfig& config);

  // 2D walk: walks the guest table for `vpn` (guest leaf size
  // `guest_leaf`), translating table pages and the final data page
  // (`gfn`, host leaf size `host_leaf`) through the host dimension.
  WalkResult NestedWalk(uint64_t vpn, base::PageSize guest_leaf, uint64_t gfn,
                        base::PageSize host_leaf);

  // Empties every walk cache; armed memos self-invalidate.  No simulated
  // path flushes the walker: its caches only price walks and never supply
  // a translation, so a remap needs no walk-cache invalidation.  It stays
  // because tests/test_walker.cc's MemoOnOffDifferential needs it to build
  // its presized-memo reference: a walker whose memo has grown to the cap
  // but whose caches are cold, as a fresh walker's are.  No walk can
  // return the caches to cold.
  void Flush();

  // Advisory warm-up of the memo line a NestedWalk of this region would
  // probe (one cache line per entry by construction); no observable state.
  void PrefetchMemo(uint64_t region) const {
    if (!memo_.empty()) {
      __builtin_prefetch(&memo_[region & (memo_.size() - 1)], 0, 1);
    }
  }

  // Per-level walk accounting since construction.  Replayed (memoized)
  // walks touch a *fixed* set of levels per (leaf size, replay kind), so
  // the hot path only bumps one replay counter and the per-level
  // attribution is reconstructed here; the result is identical to
  // incrementing the arrays live.
  WalkLevelStats stats() const;

 private:
  // Number of cache references a walk memo records: guest PWC PML4/PDPT
  // plus nested PML4/PDPT/PD (always) and nested PT (base leaves only).
  static constexpr uint32_t kMemoUpperRefs = 5;
  static constexpr uint32_t kMemoRefs = 6;
  static constexpr uint32_t kNoRegion = ~0u;
  static constexpr uint32_t kMinMemoSlots = 64;  // one 4 KiB page
  // Entries of each nested translation cache (per guest-table level).
  static constexpr uint32_t kNestedCacheEntries = 64;

  // One memo entry, packed into a single cache line: the memo probe is on
  // the miss path's critical chain, so it must cost one line fill, not
  // two.  Regions are 32-bit (simulated address spaces are dense; a region
  // >= kNoRegion simply bypasses the memo), slots are 16-bit (every
  // memoized cache holds at most 2^16 entries), and mutation counters
  // are validated through their low 32 bits — a false match would need
  // exactly 2^32 key-set changes on one cache between record and replay,
  // beyond any simulated run by orders of magnitude.
  struct alignas(64) Memo {
    uint32_t region = kNoRegion;
    uint8_t guest_leaf = 0;                   // base::PageSize as a byte
    std::array<uint16_t, kMemoRefs> slots{};  // where each probe landed
    std::array<uint32_t, kMemoRefs> muts{};   // low 32 mutation bits
  };
  static_assert(sizeof(Memo) == 64, "memo entry must stay one cache line");
  static_assert(kNestedCacheEntries <= (1u << 16) &&
                    PageWalkCache::kPml4Entries <= (1u << 16) &&
                    PageWalkCache::kPdptEntries <= (1u << 16),
                "memo slots are 16-bit");

  // Cost of one host-dimension walk for a guest-table page covering the
  // given GVA prefix; served by the nested cache when warm.  `level` indexes
  // WalkLevelStats::nested_*; the recorded slot is written to *memo_slot.
  void WalkTablePage(PrefixCache& cache, uint64_t key, uint32_t level,
                     WalkResult& out, uint32_t* memo_slot);

  // Charges a host-dimension PWC walk (table page or data page) to `out`
  // and to the host_* level stats.
  void ChargeHostWalk(uint64_t key, base::PageSize leaf, WalkResult& out);

  // The six memoized caches in recording order.
  PrefixCache& MemoCache(uint32_t i);

  // Widens the walked span to include `region` and grows the memo to
  // cover it (see the file comment).
  void GrowMemo(uint64_t region);

  WalkerConfig config_;
  PageWalkCache guest_pwc_;
  PageWalkCache host_pwc_;
  // Nested translation caches for guest table pages, by level.  A guest PT
  // page serves 2 MiB of GVA space (vpn >> 9), a PD page 1 GiB (vpn >> 18),
  // a PDPT page 512 GiB (vpn >> 27); the single PML4 page is key 0.
  PrefixCache nested_pt_;
  PrefixCache nested_pd_;
  PrefixCache nested_pdpt_;
  PrefixCache nested_pml4_;
  std::vector<Memo> memo_;  // direct-mapped by region & (size - 1)
  // Regions [memo_lo_, memo_hi_] are covered without growth: the walked
  // span until the memo reaches its cap, every memoizable region after.
  uint64_t memo_lo_ = ~0ull;
  uint64_t memo_hi_ = 0;
  // Live (non-replayed) per-level counters plus replay tallies; stats()
  // folds the tallies' fixed per-level patterns into the arrays.
  WalkLevelStats stats_;
  uint64_t memo_hits_huge_ = 0;  // full replays with a huge guest leaf
  uint64_t memo_hits_base_ = 0;  // full replays with a base guest leaf
};

}  // namespace mmu

#endif  // SRC_MMU_NESTED_WALKER_H_
