// The translation engine ties the TLB, the page-walk cost model, and the
// two page-table layers together.  It is the component that encodes the
// paper's central observation (§2.2):
//
//   A 2 MiB TLB entry can only be installed when the guest maps the region
//   with a huge page AND the host backs that exact guest-physical region
//   with a huge page (a *well-aligned* huge page).  In every other
//   combination the combined GVA->HPA translation only exists at 4 KiB
//   granularity, so huge pages that are misaligned across the layers do not
//   increase TLB coverage — they only shorten the page walk.
//
// Translation is always two-dimensional: both constructors require a host
// table, as every simulated VM has one.
//
// Hot path: a TLB hit is validated by comparing the entry's generation
// stamp against the guest/host page tables' per-region generation counters
// (see page_table.h) — an O(1) integer compare, no table walks.  Only when
// a generation moved is the translation re-derived, after which the entry
// is restamped (still correct, e.g. in-place promotion) or dropped as
// stale.  DESIGN.md ("Translation hot path") proves this equivalent to
// re-deriving on every hit.
#ifndef SRC_MMU_TRANSLATION_ENGINE_H_
#define SRC_MMU_TRANSLATION_ENGINE_H_

#include <cstdint>
#include <memory>

#include "base/stats.h"
#include "base/types.h"
#include "mmu/nested_walker.h"
#include "mmu/page_table.h"
#include "mmu/tlb.h"
#include "mmu/tlb_domain.h"

namespace mmu {

enum class TranslateStatus : uint8_t {
  kOk,
  kGuestFault,  // no guest mapping for the VPN: guest OS must demand-page
  kHostFault,   // no host mapping for the GFN: host OS must back the page
};

struct TranslateResult {
  TranslateStatus status = TranslateStatus::kOk;
  uint64_t frame = 0;          // host frame
  uint64_t fault_page = 0;     // faulting VPN (guest) or GFN (host)
  base::Cycles cycles = 0;     // translation cost charged to this access
  bool tlb_hit = false;
  bool well_aligned_huge = false;  // translated through a 2M TLB-able mapping
};

class TranslationEngine {
 public:
  struct Config {
    TlbConfig tlb;
    WalkerConfig walker;
  };

  // Neither table may be null.  This form owns a private physical Tlb
  // built from config.tlb (equivalent to a view from a kPrivate domain).
  TranslationEngine(const Config& config, PageTable* guest_table,
                    PageTable* host_table);

  // Domain form: translate through `tlb_view`, a per-VM view handed out by
  // a TlbDomain (which owns the physical arrays).  config.tlb is ignored —
  // the domain already fixed the geometry.
  TranslationEngine(const Config& config, PageTable* guest_table,
                    PageTable* host_table, TlbView tlb_view);

  // Translates one access to the page `vpn`.  On kOk the TLB is updated; on
  // a fault nothing is cached and the caller is expected to resolve the
  // fault and retry.
  TranslateResult Translate(uint64_t vpn);

  // Invalidation hooks for unmap/migration/promotion events.
  void ShootdownPage(uint64_t vpn) { tlb_.ShootdownPage(vpn); }
  void ShootdownRange(uint64_t vpn, uint64_t pages) {
    tlb_.ShootdownRange(vpn, pages);
  }

  // The engine's per-VM TLB view.  Counter accessors on it report this
  // VM's translations only, even when the physical array is shared with
  // other VMs; use tlb().physical() to reach the underlying array.
  const TlbView& tlb() const { return tlb_; }
  TlbView& tlb() { return tlb_; }

  uint64_t translations() const { return translations_; }
  base::Cycles translation_cycles() const { return translation_cycles_; }
  // Log2-bucketed per-access translation-latency histogram (cycles charged
  // to each successful translation; faulting attempts excluded).  Feeds the
  // per-VM lat_p50/p90/p99 export columns.
  const base::Log2Histogram& latency_histogram() const {
    return latency_hist_;
  }
  // Per-level page-walk accounting since construction (replayed walks
  // folded in; see NestedWalker::stats).  Nothing resets it or any other
  // counter here; a phase is measured by the difference of two reads.
  WalkLevelStats walk_stats() const { return walker_.stats(); }

 private:
  // Accounts the cycles of a successful translation.
  void Charge(base::Cycles cycles) {
    translation_cycles_ += cycles;
    latency_hist_.Add(cycles);
  }

  PageTable* guest_table_;
  PageTable* host_table_;
  // Set only by the owning constructor; declared before tlb_ so the view
  // can be initialized from it.
  std::unique_ptr<Tlb> owned_tlb_;
  TlbView tlb_;
  NestedWalker walker_;
  uint64_t translations_ = 0;
  base::Cycles translation_cycles_ = 0;
  base::Log2Histogram latency_hist_;
};

}  // namespace mmu

#endif  // SRC_MMU_TRANSLATION_ENGINE_H_
