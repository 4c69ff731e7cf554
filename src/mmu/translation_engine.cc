#include "mmu/translation_engine.h"

#include "base/check.h"

namespace mmu {

using base::kHugeOrder;
using base::kPagesPerHuge;

namespace {

// Cycles charged to a translation served by the TLB.
constexpr base::Cycles kTlbHitCycles = 1;

}  // namespace

TranslationEngine::TranslationEngine(const Config& config,
                                     PageTable* guest_table,
                                     PageTable* host_table)
    : guest_table_(guest_table),
      host_table_(host_table),
      owned_tlb_(std::make_unique<Tlb>(config.tlb)),
      tlb_(owned_tlb_.get(), /*vmid=*/0),
      walker_(config.walker) {
  SIM_CHECK(guest_table_ != nullptr && host_table_ != nullptr);
}

TranslationEngine::TranslationEngine(const Config& config,
                                     PageTable* guest_table,
                                     PageTable* host_table, TlbView tlb_view)
    : guest_table_(guest_table),
      host_table_(host_table),
      tlb_(tlb_view),
      walker_(config.walker) {
  SIM_CHECK(guest_table_ != nullptr && host_table_ != nullptr);
}

TranslateResult TranslationEngine::Translate(uint64_t vpn) {
  ++translations_;
  TranslateResult result;
  const uint64_t region = vpn >> kHugeOrder;

  const Tlb::LookupResult cached = tlb_.Lookup(vpn);
  // Translations threaded from hit validation into the miss path, so a
  // stale hit never walks the tables twice.
  std::optional<Translation> guest;
  bool guest_fetched = false;
  std::optional<Translation> host;
  bool host_fetched = false;

  if (cached.hit) {
    // Generation compare: if neither the guest region nor the host region
    // the entry was derived from has been remapped since the entry was
    // stamped, the cached translation is correct by construction — the
    // entry behaves exactly like a precisely invalidated (INVLPG / tagged
    // INVEPT) TLB entry and the hit is O(1), with no table walks.
    if (cached.stamp.guest_gen == guest_table_->generation(region) &&
        cached.stamp.host_gen ==
            host_table_->generation(cached.stamp.host_region)) {
      result.tlb_hit = true;
      result.cycles = kTlbHitCycles;
      Charge(result.cycles);
      result.frame = cached.size == base::PageSize::kHuge
                         ? cached.frame + (vpn & (kPagesPerHuge - 1))
                         : cached.frame;
      result.well_aligned_huge = cached.stamp.well_aligned;
      return result;
    }
    // A generation moved: re-derive the translation once.  If it still
    // matches, the remap was compatible (e.g. an in-place promotion kept
    // every frame) — keep the hit and restamp the entry for the new
    // generations.  Otherwise the entry is stale: drop it and fall through
    // to the miss path, reusing the lookups performed here.
    guest = guest_table_->Lookup(vpn);
    guest_fetched = true;
    bool valid = guest.has_value();
    uint64_t frame = 0;
    bool aligned = false;
    Tlb::Stamp stamp;
    if (valid) {
      host = host_table_->Lookup(guest->frame);
      host_fetched = true;
      valid = host.has_value();
      if (valid) {
        frame = host->frame;
        aligned = guest->size == base::PageSize::kHuge &&
                  host->size == base::PageSize::kHuge;
        if (cached.size == base::PageSize::kHuge) {
          valid = aligned && (frame & ~(kPagesPerHuge - 1)) == cached.frame;
        } else {
          valid = frame == cached.frame;
        }
        stamp.guest_gen = guest_table_->generation(region);
        stamp.host_region = guest->frame >> kHugeOrder;
        stamp.host_gen = host_table_->generation(stamp.host_region);
      }
    }
    if (valid) {
      stamp.well_aligned = aligned;
      tlb_.RestampHit(stamp);
      result.tlb_hit = true;
      result.cycles = kTlbHitCycles;
      Charge(result.cycles);
      result.frame = frame;
      result.well_aligned_huge = aligned;
      return result;
    }
    tlb_.DiscountStaleHit();
    tlb_.ShootdownPage(vpn);
  }

  // TLB miss: walk.
  // The walker's memo line for this region will be probed right after the
  // table lookups; starting its fill now overlaps it with both of them.
  // (Prefetching before the TLB probe was measured and lost: it taxes the
  // hit path, which outnumbers misses everywhere but miss_heavy.)
  walker_.PrefetchMemo(region);
  if (!guest_fetched) {
    guest = guest_table_->Lookup(vpn);
  }
  if (!guest.has_value()) {
    result.status = TranslateStatus::kGuestFault;
    result.fault_page = vpn;
    tlb_.UncountFaultMiss();  // the retried access will count
    return result;
  }
  // Start the host-dimension line fills (route word, then frame cell)
  // before the guest-side bookkeeping: the host lookup is the next
  // dependent far load, and the access bump is independent work that can
  // execute under it.
  host_table_->PrefetchPage(guest->frame);
  guest_table_->BumpAccess(region);

  if (!host_fetched) {
    host = host_table_->Lookup(guest->frame);
  }
  if (!host.has_value()) {
    result.status = TranslateStatus::kHostFault;
    result.fault_page = guest->frame;
    tlb_.UncountFaultMiss();  // the retried access will count
    return result;
  }
  host_table_->BumpAccess(guest->frame >> kHugeOrder);

  const WalkResult walk =
      walker_.NestedWalk(vpn, guest->size, guest->frame, host->size);
  result.frame = host->frame;
  result.cycles = walk.cycles;
  Charge(result.cycles);

  // The well-alignment rule: only a huge guest page backed by a huge host
  // page yields a combined translation at 2 MiB granularity.  (A guest huge
  // leaf always targets a huge-aligned GPA block, and MapHuge guarantees a
  // huge host leaf targets a huge-aligned HPA block, so size agreement is
  // sufficient for offset coherence.)
  const bool aligned = guest->size == base::PageSize::kHuge &&
                       host->size == base::PageSize::kHuge;
  result.well_aligned_huge = aligned;
  Tlb::Stamp stamp;
  stamp.guest_gen = guest_table_->generation(region);
  stamp.host_region = guest->frame >> kHugeOrder;
  stamp.host_gen = host_table_->generation(stamp.host_region);
  stamp.well_aligned = aligned;
  if (aligned) {
    tlb_.InsertMiss(vpn, base::PageSize::kHuge,
                host->frame & ~(kPagesPerHuge - 1), stamp);
  } else {
    tlb_.InsertMiss(vpn, base::PageSize::kBase, host->frame, stamp);
  }
  return result;
}

}  // namespace mmu
