// One layer of address translation: a sparse page table mapping page
// numbers at 4 KiB granularity to frame numbers, with 2 MiB huge-page
// leaves.
//
// The same class models both layers the paper reasons about:
//  * a guest process page table (GVA page number -> GFN), and
//  * a VM page table / EPT (GFN -> host PFN).
//
// Internally the table is a flat vector indexed by huge-region index (page
// number >> 9) whose slots hold either a huge leaf or a 512-slot base-page
// table, which is exactly the x86-64 PD/PT distinction that matters for
// the paper: a leaf at the PD level (huge) vs. leaves at the PT level
// (base).  Upper directory levels (PML4/PDPT) carry no alignment
// information and are modeled only in the walk cost (see nested_walker.h).
// The address spaces the simulator builds are dense (VMAs grow upward from
// a fixed base, guest-physical space starts at 0), so direct indexing
// makes every lookup, access bump, and generation read O(1).  The vectors
// start at the 64-region boundary below the first region touched, not at
// region 0, and grow geometrically in whichever direction a later region
// falls: a guest table starts at 4 GiB (region 2048), and the 2048
// regions below it are never mapped, so they are never allocated or
// zero-filled.
//
// Storage layout (DESIGN.md §3e).  The hot path reads exactly two things:
// a per-region *route word* and one frame cell.  The route vector packs a
// region's mapping state into one uint64_t — 0 = unmapped, otherwise a
// pointer to the region's 512-slot node, with bit 0 tagging a huge leaf —
// so classifying a region is a single dense load instead of touching a fat
// struct.  Nodes live in a grow-only arena (chunked slab, see NodePool
// below) rather than as per-region heap allocations, and their frame
// cells use an all-ones sentinel for absent pages, so a lookup is route
// load -> frame load -> sentinel compare: one arena touch, no separate
// present-bit read.  Huge leaves carry their frame *inline in the route
// word* (frame << 1, bit 0 set) — a huge lookup touches only the dense
// route vector, never an arena node, which keeps the hot working set of a
// huge-heavy address space to 8 bytes per region.  The huge/base
// distinction is still a select rather than a branch (workloads interleave
// huge and base regions unpredictably, so a size branch mispredicts): the
// node load is issued unconditionally, redirected to a static dummy node
// for huge routes, and the frame comes from a select on the route bit.
// (Backing huge leaves with real precomputed-fan-out nodes was tried and
// measured slower: the extra node touch per huge lookup doubles the
// DRAM-resident working set, costing more than the avoided branch ever
// did.)  Present bits are
// kept, as 8 uint64_t words per node, for the word-at-a-time sweeps the
// promotion scans use (count/all/none, find-first, missing-slot
// enumeration); map/unmap keep word and sentinel in sync and
// CheckInvariants verifies they agree.  Generation and access counters
// live in parallel dense vectors (structure-of-arrays): the miss path
// touches each once.
//
// Region-occupancy bitmaps.  Beside the route vector the table keeps two
// bitmaps with one bit per region: `huge_bits_` marks huge leaves and
// `base_bits_` marks regions backed by a base-page node.  Every route
// transition writes the route word and both bits through one helper
// (SetRoute), so the bitmaps are a function of the route vector, and
// CheckInvariants verifies them against it.  The daemon-facing visitors
// (ForEachHuge, ForEachBaseRegion) are ctz scans over the bitmap words, so
// a visit costs O(span / 64 + mapped regions) rather than one route-word
// read per region of the address span.  That matters because tables are
// sparse within their span: a full-span walk read thousands of words to
// find a few dozen mappings, on every MHPS scan and promoter tick.
//
// Each region carries a *generation counter*, bumped by every mapping
// mutation that touches the region (map, unmap, promote, demote).  The
// translation engine stamps TLB entries with the generations they were
// filled under, which turns TLB-hit validation into a pure integer
// compare — the software analogue of a precisely invalidated (INVLPG /
// tagged INVEPT) TLB.  Generations survive region teardown *and node
// recycling*: they live in the per-region vector, never inside arena
// nodes, and region slots are never re-indexed, so a recycled node can
// never alias a stale TLB entry of the region that previously owned it.
//
// The table also keeps a per-region access counter, bumped by the
// translation engine on TLB misses.  Promotion policies (HawkEye's
// access-coverage ranking, Ingens' utilization threshold) and LRU reclaim
// read it, and age it by halving every counter of the table.  Aging is an
// epoch bump, not a sweep: each counter carries the decay epoch it was
// last written in, and reads and bumps first apply the halvings it missed
// (count >> (epoch - stamp), 0 once the shift reaches 64).  Right shifts
// compose, so this equals eager halving exactly, at O(1) per decay.
#ifndef SRC_MMU_PAGE_TABLE_H_
#define SRC_MMU_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "base/types.h"
#include "vmem/frame_space.h"

namespace mmu {

// Result of a successful lookup.
struct Translation {
  uint64_t frame;       // 4 KiB frame number of the translated page
  base::PageSize size;  // granularity of the mapping that produced it
};

class PageTable {
 public:
  PageTable() = default;
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // --- Mapping -----------------------------------------------------------

  // Maps one 4 KiB page.  The enclosing 2 MiB region must not be
  // huge-mapped and the page must not already be mapped.
  void MapBase(uint64_t vpn, uint64_t frame);

  // Maps one 2 MiB page.  `region` is the huge-region index (vpn >> 9);
  // `frame` is the first 4 KiB frame of a huge-aligned 512-frame block.
  // The region must be entirely unmapped.
  void MapHuge(uint64_t region, uint64_t frame);

  // Unmaps one 4 KiB page (must be base-mapped).  Returns the frame it
  // mapped to.
  uint64_t UnmapBase(uint64_t vpn);

  // Unmaps a huge leaf.  Returns its first frame.
  uint64_t UnmapHuge(uint64_t region);

  // --- Promotion / demotion ----------------------------------------------

  // True if the region's base pages can be promoted in place: all 512
  // present, physically contiguous, huge-aligned, and in order.
  bool CanPromoteInPlace(uint64_t region) const;

  // Replaces 512 in-place-eligible base mappings with one huge leaf.
  void PromoteInPlace(uint64_t region);

  // Migration-based promotion: remaps the region as a huge leaf at
  // `new_frame` (huge-aligned).  Returns the old (vpn-slot, frame) pairs of
  // the pages that were present so the caller can free them and charge copy
  // costs.  Slots that were not present map to the new frame too (the
  // kernel zero-fills them as part of the collapse, as khugepaged does).
  std::vector<std::pair<uint32_t, uint64_t>> PromoteWithMigration(
      uint64_t region, uint64_t new_frame);

  // Splits a huge leaf into 512 base mappings onto the same frames.
  void Demote(uint64_t region);

  // --- Lookup / inspection ------------------------------------------------

  std::optional<Translation> Lookup(uint64_t vpn) const {
    const uint64_t region = vpn >> base::kHugeOrder;
    const uint32_t slot =
        static_cast<uint32_t>(vpn & (base::kPagesPerHuge - 1));
    const uint64_t i = Index(region);
    if (i >= route_.size()) {
      return std::nullopt;
    }
    const uint64_t route = route_[i];
    if (route == 0) {
      return std::nullopt;
    }
    // The huge/base distinction is a select, not a branch: workloads
    // interleave huge and base regions unpredictably, so a size branch
    // here mispredicts constantly.  Huge routes carry their frame inline
    // (no node touch); the node load is redirected to a static dummy so it
    // can issue unconditionally (L1-resident for huge lookups).
    const bool huge = (route & 1) != 0;
    const BaseRegion* node =
        huge ? &kDummyNode : reinterpret_cast<const BaseRegion*>(route);
    const uint32_t base_frame = node->frames[slot];
    if (!huge && base_frame == kAbsentFrame) {
      return std::nullopt;
    }
    const uint64_t frame = huge ? (route >> 1) + slot : base_frame;
    return Translation{frame,
                       huge ? base::PageSize::kHuge : base::PageSize::kBase};
  }

  bool IsHugeMapped(uint64_t region) const {
    const uint64_t i = Index(region);
    return i < route_.size() && (route_[i] & 1) != 0;
  }
  // Number of present base pages in the region (0 if huge-mapped or empty).
  uint32_t PresentBasePages(uint64_t region) const;
  // Frame of a specific base slot if present.
  std::optional<uint64_t> BaseFrame(uint64_t region, uint32_t slot) const;

  uint64_t mapped_base_pages() const { return mapped_base_pages_; }
  uint64_t huge_leaves() const { return huge_leaves_; }
  // Total mapped memory, in 4 KiB pages.
  uint64_t mapped_pages() const {
    return mapped_base_pages_ + huge_leaves_ * base::kPagesPerHuge;
  }

  // --- Precise invalidation ----------------------------------------------

  // Generation of a region's mapping state.  Every mutation that can change
  // what Lookup returns for any page of the region (MapBase, MapHuge,
  // UnmapBase, UnmapHuge, PromoteInPlace, PromoteWithMigration, Demote)
  // bumps it; access-counter traffic does not.  Two equal reads bracket an
  // interval in which every Lookup in the region was stable.  Never-touched
  // regions report 0.
  uint64_t generation(uint64_t region) const {
    const uint64_t i = Index(region);
    return i < generations_.size() ? generations_[i] : 0;
  }

  // Table-wide mutation count: bumped exactly when any region's generation
  // is bumped.  Two equal reads bracket an interval in which *no* region's
  // generation moved; the ForEachHuge / ForEachBaseRegion visitors compare
  // it around every callback to enforce the no-mutation contract below.
  uint64_t mutations() const { return mutations_; }

  // Advisory cache warming for the route word and (for a base region) the
  // frame cell a Lookup of `vpn` will read; no observable state is read or
  // written.  The translation miss path issues it for the host lookup that
  // follows the guest walk.
  void PrefetchPage(uint64_t vpn) const {
    const uint64_t i = Index(vpn >> base::kHugeOrder);
    if (i >= route_.size()) {
      return;
    }
    const uint64_t route = route_[i];
    // Huge routes hold their frame inline: the route load already warmed
    // everything.  Only base regions have a frame cell to chase.
    if (route != 0 && (route & 1) == 0) {
      const uint32_t slot =
          static_cast<uint32_t>(vpn & (base::kPagesPerHuge - 1));
      __builtin_prefetch(
          &reinterpret_cast<const BaseRegion*>(route)->frames[slot], 0, 1);
    }
  }

  // --- Access tracking ----------------------------------------------------

  void BumpAccess(uint64_t region) {
    AccessCell& cell = accesses_[EnsureRegion(region)];
    cell.count = Decayed(cell) + 1;
    cell.stamp = decay_epoch_;
  }
  uint64_t AccessCount(uint64_t region) const {
    const uint64_t i = Index(region);
    return i < accesses_.size() ? Decayed(accesses_[i]) : 0;
  }
  // Halves every counter (aging); O(1), see the file comment.
  void DecayAccessCounts() { ++decay_epoch_; }

  // --- Iteration / sweeps --------------------------------------------------
  //
  // Contract of the two region visitors below:
  //  * regions are visited in ascending region order;
  //  * a callback must not map, unmap, promote or demote in this table.
  //    The scan reads a snapshot of each 64-region bitmap word before
  //    visiting its regions, so a mutation inside a visit could be missed
  //    or leave a stale region to visit.  Collect candidates first and act
  //    after the visit returns.  Reads and access-counter traffic are
  //    fine.  Each callback is followed by a SIM_CHECK that mutations()
  //    has not moved.

  // Visits every huge leaf as (region, frame).
  void ForEachHuge(const std::function<void(uint64_t, uint64_t)>& fn) const;
  // Visits every region that has at least one base mapping as
  // (region, present_count).
  void ForEachBaseRegion(
      const std::function<void(uint64_t, uint32_t)>& fn) const;
  // Visits every present base page in a region as (slot, frame), ascending.
  void ForEachBasePage(
      uint64_t region,
      const std::function<void(uint32_t, uint64_t)>& fn) const;

  // Word-at-a-time sweep primitives for the promotion scans (ctz/popcount
  // over the present words instead of per-slot probes):

  // First present base page of a region as (slot, frame).
  std::optional<std::pair<uint32_t, uint64_t>> FirstPresent(
      uint64_t region) const;
  // The unique huge-aligned anchor A such that every present base page at
  // `slot` maps to frame A + slot, if one exists (the in-place / buddy
  // promotion precondition on the pages already present).  nullopt if the
  // region is not base-mapped, a frame breaks the pattern, or the implied
  // anchor is negative or misaligned.
  std::optional<uint64_t> ContiguousAnchor(uint64_t region) const;
  // Appends the slots of a base-mapped region with no present page to
  // `out`, ascending.
  void MissingSlots(uint64_t region, std::vector<uint32_t>* out) const;

  // --- Arena telemetry -----------------------------------------------------

  struct ArenaStats {
    uint64_t chunks = 0;      // slabs allocated (never freed)
    uint64_t live_nodes = 0;  // nodes currently backing a base region
    uint64_t free_nodes = 0;  // recycled nodes awaiting reuse
  };
  ArenaStats arena_stats() const {
    return ArenaStats{pool_.chunks(), pool_.live(), pool_.free_count()};
  }

  // Verifies counters against the table contents (tests).
  void CheckInvariants() const;

 private:
  // Frame-cell sentinel for absent base pages: lets the lookup hot path
  // decide presence from the frame cell alone.  Frame cells are 32-bit —
  // the simulated physical spaces top out at a few million 4 KiB frames,
  // and halving the cell width halves the arena's cache-resident footprint
  // (the frame-cell load is the lookup's one data-dependent far touch, so
  // its residency is what the miss path's latency is made of).  MapBase
  // checks the bound.
  static constexpr uint32_t kAbsentFrame = ~0u;

  // A 512-slot node, backing either a base-page table or a huge leaf's
  // precomputed fan-out.  `frames` is authoritative for the hot path
  // (kAbsentFrame = absent); `present` mirrors it word-packed for the
  // sweep primitives.  Nodes are pool-owned and recycled across regions;
  // nothing identity-bearing (generations, access counts) lives here.
  struct BaseRegion {
    std::array<uint32_t, base::kPagesPerHuge> frames;
    std::array<uint64_t, base::kPagesPerHuge / 64> present;

    bool Test(uint32_t slot) const {
      return (present[slot >> 6] >> (slot & 63)) & 1;
    }
    void Set(uint32_t slot) { present[slot >> 6] |= 1ull << (slot & 63); }
    void Clear(uint32_t slot) { present[slot >> 6] &= ~(1ull << (slot & 63)); }
    uint32_t Count() const {
      uint32_t n = 0;
      for (const uint64_t w : present) {
        n += static_cast<uint32_t>(__builtin_popcountll(w));
      }
      return n;
    }
    bool None() const {
      uint64_t any = 0;
      for (const uint64_t w : present) {
        any |= w;
      }
      return any == 0;
    }
    bool All() const {
      uint64_t all = ~0ull;
      for (const uint64_t w : present) {
        all &= w;
      }
      return all == ~0ull;
    }
  };

  // Grow-only arena of base-page nodes: nodes are handed out from fixed
  // slabs (stable addresses — the route words point straight at them) and
  // recycled through a free list when a region's last base page goes away.
  // The slab layout is what makes the miss path's node touches land in a
  // few large contiguous allocations instead of a heap spray.
  class NodePool {
   public:
    BaseRegion* Acquire();
    void Release(BaseRegion* node) { free_.push_back(node); }

    uint64_t chunks() const { return chunks_.size(); }
    uint64_t live() const { return handed_out_ - free_.size(); }
    uint64_t free_count() const { return free_.size(); }

   private:
    static constexpr uint32_t kChunkNodes = 16;  // ~66 KiB per slab

    std::vector<std::unique_ptr<BaseRegion[]>> chunks_;
    std::vector<BaseRegion*> free_;
    uint32_t used_in_last_chunk_ = kChunkNodes;  // forces a chunk on first use
    uint64_t handed_out_ = 0;  // lifetime Acquire() count
  };

  // Vector index of `region`.  Regions below first_region_ wrap to huge
  // values, so one compare against the size bounds both ends.
  uint64_t Index(uint64_t region) const { return region - first_region_; }

  // Node of a *base-mapped* region (nullptr if unmapped or huge), by
  // vector index / by region.
  BaseRegion* BaseNodeAt(uint64_t i) {
    const uint64_t route = route_[i];
    return (route & 1) == 0 ? reinterpret_cast<BaseRegion*>(route) : nullptr;
  }
  const BaseRegion* BaseNode(uint64_t region) const {
    const uint64_t i = Index(region);
    if (i >= route_.size()) {
      return nullptr;
    }
    const uint64_t route = route_[i];
    return (route & 1) == 0 ? reinterpret_cast<const BaseRegion*>(route)
                            : nullptr;
  }
  // All-absent node the lookup's unconditional load lands on for huge
  // routes (zero-init: frames are ignored on the huge path, so any
  // contents work; one shared 4 KiB L1-resident line set).
  inline static const BaseRegion kDummyNode{};

  // Points a node's 512 frame cells at frame .. frame + 511 and marks all
  // present (the Demote result).
  static void FillContiguous(BaseRegion* node, uint64_t frame) {
    for (uint32_t slot = 0; slot < base::kPagesPerHuge; ++slot) {
      node->frames[slot] = static_cast<uint32_t>(frame) + slot;
    }
    node->present.fill(~0ull);
  }

  // A region's access counter as of the decay epoch `stamp` it was last
  // written in.
  struct AccessCell {
    uint64_t count = 0;
    uint64_t stamp = 0;
  };
  uint64_t Decayed(const AccessCell& cell) const {
    const uint64_t age = decay_epoch_ - cell.stamp;
    return age >= 64 ? 0 : cell.count >> age;
  }

  // Grows the per-region vectors to cover `region`; returns its index.
  uint64_t EnsureRegion(uint64_t region) {
    if (Index(region) >= route_.size()) {
      Grow(region);
    }
    return Index(region);
  }
  void Grow(uint64_t region);
  // Writes the route word at index `i` together with its two occupancy
  // bits; every route transition goes through here.
  void SetRoute(uint64_t i, uint64_t route);
  void BumpGeneration(uint64_t i) {
    ++generations_[i];
    ++mutations_;
  }

  // Per-region state, structure-of-arrays (see file comment), indexed by
  // Index(region); first_region_ is a multiple of 64.  route_[i]: 0 =
  // unmapped; bit 0 set = huge leaf with frame = route >> 1; bit 0 clear =
  // pointer to the region's base-page node (nodes are 8-byte aligned, so
  // the tag is free and pointers round-trip through the shift-free
  // representation).
  uint64_t first_region_ = 0;
  std::vector<uint64_t> route_;
  // Occupancy bitmaps, bit (i & 63) of word (i >> 6) for index i: huge
  // leaf / base-page node.  route_.size() is always a multiple of 64, and
  // these hold route_.size() / 64 words each.
  std::vector<uint64_t> huge_bits_;
  std::vector<uint64_t> base_bits_;
  std::vector<uint64_t> generations_;
  std::vector<AccessCell> accesses_;
  uint64_t decay_epoch_ = 0;  // DecayAccessCounts calls so far
  NodePool pool_;
  uint64_t mapped_base_pages_ = 0;
  uint64_t huge_leaves_ = 0;
  uint64_t mapped_regions_ = 0;  // regions with any mapping
  uint64_t mutations_ = 0;       // sum of all generation bumps
};

}  // namespace mmu

#endif  // SRC_MMU_PAGE_TABLE_H_
