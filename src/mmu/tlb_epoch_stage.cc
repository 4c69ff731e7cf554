#include "mmu/tlb_epoch_stage.h"

#include "base/check.h"

namespace mmu {

TlbEpochStage::TlbEpochStage(Tlb* physical, uint16_t vmid)
    : physical_(physical), vmid_(vmid) {
  SIM_CHECK(physical_ != nullptr);
  // The counter slot and way window must exist before the frozen array is
  // probed concurrently: Counters()'s lazy-registration growth branch must
  // never run during a parallel phase.
  physical_->RegisterVm(vmid_);
}

void TlbEpochStage::BeginEpoch() {
  overlay_.clear();
  events_.clear();
  deltas_ = Deltas{};
  last_was_hit_ = false;
}

bool TlbEpochStage::ProbeOne(uint64_t key, base::PageSize size,
                             uint64_t* frame, Tlb::Stamp* stamp) const {
  if (const auto it = overlay_.find(OverlayKey(key, size));
      it != overlay_.end()) {
    if (!it->second.present) {
      return false;  // tombstoned by this lane earlier in the epoch
    }
    *frame = it->second.frame;
    *stamp = it->second.stamp;
    return true;
  }
  const int64_t i = physical_->FindEntry(key, size, vmid_);
  if (i < 0) {
    return false;
  }
  const Tlb::Entry& e = physical_->entries_[i];
  *frame = e.frame;
  *stamp = e.stamp;
  return true;
}

void TlbEpochStage::LogHit(uint64_t key, base::PageSize size) {
  ++deltas_.hits;
  events_.push_back(Event{EventKind::kHit, size, key, 0, Tlb::Stamp{}});
  last_was_hit_ = true;
  last_hit_key_ = key;
  last_hit_size_ = size;
}

Tlb::LookupResult TlbEpochStage::Lookup(uint64_t vpn) {
  // Huge-then-base probe order, exactly as Tlb::Lookup.
  const uint64_t region = vpn >> base::kHugeOrder;
  uint64_t frame = 0;
  Tlb::Stamp stamp;
  if (ProbeOne(region, base::PageSize::kHuge, &frame, &stamp)) {
    LogHit(region, base::PageSize::kHuge);
    return Tlb::LookupResult{true, base::PageSize::kHuge, frame, stamp};
  }
  if (ProbeOne(vpn, base::PageSize::kBase, &frame, &stamp)) {
    LogHit(vpn, base::PageSize::kBase);
    return Tlb::LookupResult{true, base::PageSize::kBase, frame, stamp};
  }
  ++deltas_.misses;
  events_.push_back(
      Event{EventKind::kMiss, base::PageSize::kBase, vpn, 0, Tlb::Stamp{}});
  last_was_hit_ = false;
  return Tlb::LookupResult{};
}

void TlbEpochStage::Insert(uint64_t vpn, base::PageSize size, uint64_t frame,
                           const Tlb::Stamp& stamp) {
  const uint64_t key =
      size == base::PageSize::kHuge ? (vpn >> base::kHugeOrder) : vpn;
  overlay_[OverlayKey(key, size)] = Overlay{true, frame, stamp};
  events_.push_back(Event{EventKind::kInsert, size, key, frame, stamp});
}

void TlbEpochStage::RestampHit(const Tlb::Stamp& stamp) {
  SIM_CHECK(last_was_hit_);
  uint64_t frame = 0;
  Tlb::Stamp old;
  // The entry was epoch-visible a moment ago (the engine restamps right
  // after a hit) and only this lane mutates the overlay.
  SIM_CHECK(ProbeOne(last_hit_key_, last_hit_size_, &frame, &old));
  overlay_[OverlayKey(last_hit_key_, last_hit_size_)] =
      Overlay{true, frame, stamp};
  events_.push_back(
      Event{EventKind::kRestamp, last_hit_size_, last_hit_key_, frame, stamp});
}

void TlbEpochStage::DiscountStaleHit() {
  ++deltas_.stale_drops;
  --deltas_.hits;
  ++deltas_.misses;
  events_.push_back(Event{EventKind::kStale, base::PageSize::kBase, 0, 0,
                          Tlb::Stamp{}});
}

void TlbEpochStage::UncountFaultMiss() {
  --deltas_.misses;
  events_.push_back(Event{EventKind::kUncount, base::PageSize::kBase, 0, 0,
                          Tlb::Stamp{}});
}

uint32_t TlbEpochStage::ShootdownPage(uint64_t vpn) {
  uint32_t dropped = 0;
  uint64_t frame = 0;
  Tlb::Stamp stamp;
  if (ProbeOne(vpn, base::PageSize::kBase, &frame, &stamp)) {
    overlay_[OverlayKey(vpn, base::PageSize::kBase)] = Overlay{};
    ++dropped;
  }
  const uint64_t region = vpn >> base::kHugeOrder;
  if (ProbeOne(region, base::PageSize::kHuge, &frame, &stamp)) {
    overlay_[OverlayKey(region, base::PageSize::kHuge)] = Overlay{};
    ++dropped;
  }
  deltas_.shootdowns += dropped;
  events_.push_back(Event{EventKind::kShootdown, base::PageSize::kBase, vpn,
                          0, Tlb::Stamp{}});
  return dropped;
}

void TlbEpochStage::Commit() {
  Tlb& t = *physical_;
  for (const Event& e : events_) {
    switch (e.kind) {
      case EventKind::kHit: {
        // What Tlb::Lookup's hit branch does, minus the probe: the entry
        // may have been evicted by an earlier replayed insert (own or a
        // lower-ID VM's) — the hit still counts, the LRU touch is skipped.
        ++t.clock_;
        const int64_t i = t.FindEntry(e.key, e.size, vmid_);
        if (i >= 0) {
          t.lru_[i] = t.clock_;
          t.last_hit_ = i;
        } else {
          t.last_hit_ = -1;
        }
        ++t.Counters(vmid_).hits;
        if (t.monitor_ != nullptr) {
          t.monitor_->OnAccess(e.key, e.size, vmid_);
        }
        break;
      }
      case EventKind::kMiss: {
        ++t.clock_;
        t.last_hit_ = -1;
        Tlb::VmTlbCounters& c = t.Counters(vmid_);
        ++c.misses;
        if (t.monitor_ != nullptr) {
          const int32_t evictor = t.monitor_->AttributeMiss(e.key, vmid_);
          if (evictor >= 0) {
            ++(static_cast<uint16_t>(evictor) == vmid_
                   ? c.displaced_by_self
                   : c.displaced_by_other);
          }
        }
        break;
      }
      case EventKind::kStale:
        t.DiscountStaleHit(vmid_);
        break;
      case EventKind::kUncount:
        t.UncountFaultMiss(vmid_);
        break;
      case EventKind::kInsert: {
        // Insert (not InsertMiss): replay ordering can leave the key
        // present (a test staged an overwrite of a live entry), and the
        // probing form handles both cases with full eviction accounting
        // and monitor hooks.
        const uint64_t vpn = e.size == base::PageSize::kHuge
                                 ? (e.key << base::kHugeOrder)
                                 : e.key;
        t.Insert(vpn, e.size, e.frame, e.stamp, vmid_);
        break;
      }
      case EventKind::kShootdown:
        t.ShootdownPage(e.key, vmid_);
        break;
      case EventKind::kRestamp: {
        const int64_t i = t.FindEntry(e.key, e.size, vmid_);
        if (i >= 0) {
          t.entries_[i].stamp = e.stamp;
        }
        break;
      }
    }
  }
  BeginEpoch();  // clear everything for the next epoch
}

}  // namespace mmu
