// Set-associative TLB model with mixed 4 KiB / 2 MiB entries and VMID tags.
//
// Models the unified second-level TLB of the evaluation machine (paper
// §6.1: 1536 L2 entries shared by 4 KiB and 2 MiB pages): one physical
// array whose entries are tagged with the page size they translate.  A 4 KiB
// entry is indexed by the virtual page number, a 2 MiB entry by the
// huge-region number, so one huge entry covers 512x the address range of a
// base entry — this is the TLB-coverage effect huge pages buy.
//
// Entries additionally carry a VMID tag (PCID/vPID-style), so one physical
// array can be shared by multiple collocated VMs: a probe only matches
// entries of its own VMID, but every VM's entries compete for the same sets
// and LRU clock.  tlb_domain.h builds the three sharing arrangements
// (private / shared / partitioned) on top of this class; a single-VM `Tlb`
// with vmid 0 everywhere behaves exactly like the pre-VMID model.  Each
// registered VM can further be restricted to a static window of ways
// (SetVmWays), which is how the partitioned mode implements per-VM way
// partitioning.
//
// Entries also record the translated frame and a generation stamp: the
// (guest-region, host-region) page-table generations the entry was filled
// under, plus whether the translation went through a well-aligned huge
// pair.  The translation engine compares the stamp against the live
// tables' generation counters on every hit — an O(1) integer compare that
// models precise invalidation (INVLPG / single-context INVEPT with a
// tagged TLB).  Entries whose regions mutated are re-derived once and
// either restamped (still-correct translation, e.g. after an in-place
// promotion) or dropped as stale.  There is no whole-array flush: the
// widest invalidation is InvalidateVm, one VM's entries, which host-layer
// remaps use.
//
// Counters are kept per VMID (hits, misses, shootdowns, stale drops,
// selective invalidations, cross-VM evictions, and the conflict/capacity
// eviction split), so a shared array still reports each VM's interference
// individually.  The no-argument accessors sum over every registered VM,
// which for a single-VM instance is the classic counter set.  Nothing
// resets the counters; a caller measures a phase by the difference of two
// reads (metrics::StackSnapshot::Delta).
//
// The engine only inserts a 2 MiB entry for well-aligned huge pages (guest
// huge AND host huge); that rule lives in translation_engine.cc, not here.
// The TLB itself is layer-agnostic.
#ifndef SRC_MMU_TLB_H_
#define SRC_MMU_TLB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.h"
#include "mmu/tlb_tag.h"
#include "mmu/tlb_utility_monitor.h"

namespace mmu {

struct TlbConfig {
  uint32_t sets = 128;
  uint32_t ways = 12;  // 128 x 12 = 1536 entries, matching the paper's L2
};

class Tlb {
 public:
  // Validity stamp recorded when an entry is filled (or revalidated): the
  // page-table generations the translation was derived under.
  struct Stamp {
    uint64_t guest_gen = 0;    // guest table generation of the VPN's region
    uint64_t host_region = 0;  // host region (GFN >> 9) backing the entry
    uint64_t host_gen = 0;     // host table generation of that region
    bool well_aligned = false;  // translated through a huge/huge pair
  };

  struct LookupResult {
    bool hit = false;
    base::PageSize size = base::PageSize::kBase;
    // Translated frame: the page's frame for a 4 KiB entry, the first frame
    // of the 2 MiB block for a huge entry.
    uint64_t frame = 0;
    Stamp stamp;  // stamps recorded at fill / last revalidation
  };

  // Per-VM counter set.  A single-VM TLB only ever touches slot 0.
  struct VmTlbCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t shootdowns = 0;
    // Hits reclassified as misses because the cached translation no longer
    // matched the page tables.  Always also counted in misses.
    uint64_t stale_drops = 0;
    // Entries dropped by InvalidateVm (tagged selective invalidation, the
    // single-context-INVEPT analogue used by the shared TLB domain).
    uint64_t vm_invalidated = 0;
    // This VM's entries evicted by another VM's insert — the direct
    // cross-VM interference channel of a shared TLB.
    uint64_t cross_vm_evictions = 0;
    // Evictions of this VM's valid entries, split by whether the inserting
    // VM still had a free way in another set of its window (conflict:
    // free space existed elsewhere) or its window was completely full
    // (true capacity), per evicted-entry page size.  Feeds the fig16
    // companion table's conflict-vs-capacity split.
    uint64_t conflict_evictions_base = 0;
    uint64_t conflict_evictions_huge = 0;
    uint64_t capacity_evictions_base = 0;
    uint64_t capacity_evictions_huge = 0;
    // Misses attributed by the attached TlbUtilityMonitor's displaced-
    // record layer (zero without a monitor, i.e. in private mode): the
    // missing translation was provably evicted earlier, by this VM's own
    // insert (self — capacity pressure) or by another VM's (other — the
    // cross-VM interference the eviction-side cross_vm_evictions counter
    // sees from the opposite end).  displaced_by_self + displaced_by_other
    // <= misses; the remainder is cold/unattributed.
    uint64_t displaced_by_self = 0;
    uint64_t displaced_by_other = 0;
    // This VM's entries dropped because a dynamic repartition moved its way
    // window and the entries sat outside the new window (RepartitionVmWays;
    // the cost side of adapting the partition).
    uint64_t repartition_evictions = 0;

    bool operator==(const VmTlbCounters&) const = default;
  };

  explicit Tlb(const TlbConfig& config);

  // Registers `vmid` (counter slot + way window).  Construction implicitly
  // registers vmid 0 with the full way window, so standalone single-VM use
  // needs no registration calls.  Re-registering adjusts the window.
  void RegisterVm(uint16_t vmid);
  // Restricts `vmid` to ways [way_begin, way_begin + way_count) of every
  // set (static way partitioning).  Windows of different VMs must be
  // either identical or disjoint; the domain enforces that.
  void SetVmWays(uint16_t vmid, uint32_t way_begin, uint32_t way_count);

  // Moves `vmid`'s way window at runtime (dynamic repartitioning): sets the
  // new window like SetVmWays, then drops every entry of this VM left in a
  // way outside it — a stale cross-window entry would otherwise keep
  // hitting from ways the VM no longer owns.  Dropped entries are charged
  // to the VM's repartition_evictions counter.  Returns entries dropped
  // (zero, without any scan, when the window is unchanged).
  uint32_t RepartitionVmWays(uint16_t vmid, uint32_t way_begin,
                             uint32_t way_count);

  // Current way window of `vmid` (zeroes if never registered).  Exposed for
  // the repartitioner's hysteresis compare, the ways_assigned export
  // column, and window-invariant assertions in tests.
  uint32_t vm_way_begin(uint16_t vmid) const {
    const VmState* vm = VmOrNull(vmid);
    return vm != nullptr ? vm->way_begin : 0;
  }
  uint32_t vm_way_count(uint16_t vmid) const {
    const VmState* vm = VmOrNull(vmid);
    return vm != nullptr ? vm->way_count : 0;
  }

  // Integrity probe (O(sets * ways) scan): valid entries of `vmid` sitting
  // at ways outside its current window.  Always zero after a repartition —
  // the property suite in tests/test_repartitioner.cc asserts it.
  uint32_t entry_count_outside_window(uint16_t vmid) const;

  // Probes for a translation of `vpn` under `vmid`.  Checks both a 4 KiB
  // entry for the page and a 2 MiB entry for its huge region.  Updates LRU
  // on hit.
  LookupResult Lookup(uint64_t vpn, uint16_t vmid = 0);

  // Side-effect-free presence probe: true iff a Lookup of `vpn` would hit
  // right now.  Touches no counters and no LRU state, so tests can check
  // residency without disturbing what they observe.
  bool Probe(uint64_t vpn, uint16_t vmid = 0) const {
    return FindEntry(vpn >> base::kHugeOrder, base::PageSize::kHuge, vmid) >=
               0 ||
           FindEntry(vpn, base::PageSize::kBase, vmid) >= 0;
  }

  // Inserts a translation for `vpn` at the given granularity, evicting the
  // LRU way of the target set (within the inserting VM's way window).  The
  // epoch stage's barrier replay calls it; the engine fills through
  // InsertMiss.  The overload without a stamp inserts a default (all-zero)
  // stamp for vmid 0; only tests and the substrate microbenchmark use it.
  void Insert(uint64_t vpn, base::PageSize size, uint64_t frame,
              const Stamp& stamp, uint16_t vmid = 0);
  void Insert(uint64_t vpn, base::PageSize size, uint64_t frame);

  // Insert for a translation the caller has just proven absent: either a
  // Lookup of `vpn` missed (which probes both sizes), or a ShootdownPage
  // of `vpn` dropped them — and nothing touched the array since.  Skips
  // Insert's update-in-place probe and goes straight to victim selection;
  // behavior is otherwise identical to Insert.  The translation engine's
  // miss path is the intended caller (its contract holds on both the clean
  // miss and the stale-drop path).
  void InsertMiss(uint64_t vpn, base::PageSize size, uint64_t frame,
                  const Stamp& stamp, uint16_t vmid = 0);

  // Replaces the stamp of the entry the most recent Lookup hit.  Called
  // after the engine re-derived a generation-mismatched entry and found it
  // still correct (e.g. after an in-place promotion): the entry is valid
  // again for the new generations.  Does not touch the LRU clock.
  void RestampHit(const Stamp& stamp);

  // Reclassifies the most recent hit as a miss (the engine found the entry
  // stale against the page tables and dropped it).
  void DiscountStaleHit(uint16_t vmid = 0);

  // Uncounts the most recent miss (the walk ended in a page fault; the
  // access will be retried and counted then).
  void UncountFaultMiss(uint16_t vmid = 0);

  // Invalidates every entry tagged `vmid`, leaving other VMs' entries in
  // place — the tagged selective invalidation (single-context INVEPT)
  // that a host-layer remap triggers.  Dropped entries are counted into
  // the VM's vm_invalidated counter.  Returns the number of entries
  // dropped.
  uint32_t InvalidateVm(uint16_t vmid);

  // Invalidates any entry of `vmid` covering `vpn` (TLB shootdown of one
  // page; also drops a covering huge entry).  Returns entries dropped.
  uint32_t ShootdownPage(uint64_t vpn, uint16_t vmid = 0);

  // Invalidates all entries of `vmid` overlapping [vpn, vpn + pages): one
  // pass over the packed tags whatever the range length, so a 512-page
  // region costs one array scan rather than 1,024 probes.  Counts the
  // dropped entries as shootdowns and tells an attached monitor once
  // (OnShootdownRange).  Drops, counts and monitor state match a
  // ShootdownPage of every page in the range; a zero-page range drops
  // nothing.  Returns entries dropped.
  uint32_t ShootdownRange(uint64_t vpn, uint64_t pages, uint16_t vmid = 0);

  // Aggregate counters (summed over every registered VM); identical to the
  // per-VM values on a single-VM instance.
  uint64_t hits() const { return Sum(&VmTlbCounters::hits); }
  uint64_t misses() const { return Sum(&VmTlbCounters::misses); }
  uint64_t shootdowns() const { return Sum(&VmTlbCounters::shootdowns); }
  // Hits reclassified as misses because the cached translation no longer
  // matched the page tables.  Always also counted in misses(): the counter
  // splits out how many misses were precise invalidations rather than
  // capacity/cold misses.
  uint64_t stale_hits() const { return Sum(&VmTlbCounters::stale_drops); }

  // Per-VM counter set (zeroes for a vmid never registered or used).
  const VmTlbCounters& vm_counters(uint16_t vmid) const;

  // Valid entries of all VMs / of one VM.  Residency probes for tests and
  // the substrate microbenchmark, like Probe; no simulated path reads them.
  uint32_t entry_count() const;
  uint32_t entry_count(uint16_t vmid) const;

  // Per-set residency telemetry: valid entries currently in `set`.  The
  // conflict/capacity eviction classification is derived from the same
  // bookkeeping (an eviction with free ways elsewhere in the inserting
  // VM's window is a conflict, not a capacity, eviction).
  uint32_t set_occupancy(uint32_t set) const;

  // Attaches (or detaches, with null) a utility/interference monitor.  The
  // monitor observes hits, fills, evictions, and invalidations, and is
  // probed on every miss for displaced-record attribution; null (the
  // default, and always the case in private mode) skips every hook.  The
  // caller keeps ownership and must outlive the Tlb's use of it.
  void AttachUtilityMonitor(TlbUtilityMonitor* monitor) { monitor_ = monitor; }
  const TlbUtilityMonitor* utility_monitor() const { return monitor_; }

  const TlbConfig& config() const { return config_; }

 private:
  // The epoch stage (mmu/tlb_epoch_stage.h) overlays this array with one
  // VM's staged operations during an epoch-parallel phase and replays them
  // at the barrier; it needs the probe internals and counter slots.
  friend class TlbEpochStage;

  // Storage is structure-of-arrays: the probe identity (tag, size, valid)
  // of every way is packed into one uint64_t in `tags_`, so a 12-way probe
  // scans 96 contiguous bytes — two cache lines — instead of touching 12
  // scattered payload entries.  LRU stamps get the same treatment for the
  // victim scan on insert.  The payload (frame + validity stamp) is only
  // read on the one way that actually hit.
  struct Entry {
    uint64_t frame = 0;
    Stamp stamp;
  };

  // Per-VM bookkeeping beyond the public counters: the way window the VM
  // may occupy and how many valid entries currently sit inside it (for the
  // conflict-vs-capacity eviction classification; windows of distinct VMs
  // are identical or disjoint, so the count is cheap to maintain).
  struct VmState {
    uint32_t way_begin = 0;
    uint32_t way_count = 0;
    uint32_t window_valid = 0;
    VmTlbCounters counters;
  };

  uint32_t SetIndex(uint64_t key) const {
    return static_cast<uint32_t>(key) & (config_.sets - 1);
  }
  // Index of the entry translating (key, size) for `vmid`, or -1.
  int64_t FindEntry(uint64_t key, base::PageSize size, uint16_t vmid) const;

  VmState& Vm(uint16_t vmid);
  const VmState* VmOrNull(uint16_t vmid) const;
  // Counter slot for `vmid` without the way-window registration Vm()
  // performs: hit/miss accounting is the innermost step of every probe, and
  // a counter slot needs no window (Insert registers the window lazily via
  // Vm() before it is ever consulted).  The growth branch is never taken
  // after the VMs of a domain are registered.
  VmTlbCounters& Counters(uint16_t vmid) {
    if (__builtin_expect(vmid >= vms_.size(), 0)) {
      RegisterVm(vmid);
    }
    return vms_[vmid].counters;
  }
  // Validity bookkeeping when slot `i` becomes invalid / gains a valid
  // entry (set residency, total, and every covering way window).
  void DropSlot(size_t i);
  void AddSlot(size_t i);
  uint64_t Sum(uint64_t VmTlbCounters::* field) const;

  TlbConfig config_;
  std::vector<uint64_t> tags_;     // sets * ways tlb_tag::Pack identities
  std::vector<uint64_t> lru_;      // lru_[i]: last touch of entry i
  std::vector<Entry> entries_;     // sets * ways payloads
  std::vector<VmState> vms_;       // indexed by vmid; grown by RegisterVm
  // Vmids with a way window (way_count != 0), in registration order: the
  // only VMs whose window_valid DropSlot/AddSlot must maintain.  A private
  // TLB of a high vmid holds 0 and that vmid, not every state below it.
  std::vector<uint16_t> windowed_;
  std::vector<uint32_t> set_valid_;  // per-set residency
  uint32_t valid_total_ = 0;
  int64_t last_hit_ = -1;  // entry the most recent Lookup hit, or -1
  uint64_t clock_ = 0;
  TlbUtilityMonitor* monitor_ = nullptr;  // not owned; null in private mode
};

}  // namespace mmu

#endif  // SRC_MMU_TLB_H_
