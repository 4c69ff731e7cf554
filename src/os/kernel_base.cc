#include "os/kernel_base.h"

#include <utility>
#include <vector>

#include "base/check.h"

namespace osim {

using base::kHugeOrder;
using base::kPagesPerHuge;
using vmem::kInvalidFrame;

KernelBase::KernelBase(base::Layer layer, int32_t vm_id,
                       vmem::BuddyAllocator* buddy, vmem::FrameSpace* frames,
                       MachineHooks* hooks,
                       std::unique_ptr<policy::HugePagePolicy> policy)
    : layer_(layer),
      vm_id_(vm_id),
      buddy_(buddy),
      frames_(frames),
      hooks_(hooks),
      policy_(std::move(policy)),
      owned_tier_(std::make_unique<vmem::TierSpace>(
          /*capacity_pages=*/0, kCosts.swap_out_page, kCosts.swap_in_page)),
      tier_(owned_tier_.get()) {
  SIM_CHECK(buddy_ != nullptr && frames_ != nullptr && hooks_ != nullptr);
  SIM_CHECK(policy_ != nullptr);
}

KernelBase::~KernelBase() = default;

void KernelBase::AttachTier(vmem::TierSpace* tier) {
  SIM_CHECK(tier != nullptr);
  SIM_CHECK(tier_->resident(vm_id_) == 0);  // no records to migrate
  tier_ = tier;
}

void KernelBase::AttachTracer(trace::Tracer* tracer) { tracer_ = tracer; }

double KernelBase::Fmfi() const { return buddy_->Fmfi(kHugeOrder); }

void KernelBase::ChargeOverhead(base::Cycles cycles) {
  stats_.overhead_cycles += cycles;
}

base::Cycles KernelBase::DoFault(const policy::FaultInfo& info,
                                 bool region_coverable) {
  const policy::FaultDecision d = policy_->OnFault(*this, info);
  base::Cycles cost = 0;
  if (tier_->Refault(vm_id_, info.page)) {
    // The page was demoted earlier; migrate it back synchronously.
    cost += tier_->refault_cost();
    ++stats_.swap_ins;
    if (tracer_ != nullptr) {
      tracer_->Emit(trace::EventKind::kTierRefault, layer_, vm_id_, info.page,
                    tier_->resident(vm_id_));
    }
  }

  if (d.try_huge && region_coverable && !table_.IsHugeMapped(info.region) &&
      table_.PresentBasePages(info.region) == 0) {
    uint64_t frame = kInvalidFrame;
    if (d.target_frame != kInvalidFrame) {
      const uint64_t target = d.target_frame & ~(kPagesPerHuge - 1);
      if (buddy_->AllocateAt(target, kPagesPerHuge)) {
        frame = target;
      }
    }
    if (frame == kInvalidFrame) {
      frame = buddy_->Allocate(kHugeOrder);
    }
    if (frame == kInvalidFrame && d.synchronous_compaction) {
      // Linux THP "always": the fault stalls on direct compaction.  Under
      // the fragmentation the paper studies, compaction mostly fails to
      // produce a 2 MiB block because pinned pages cannot move; we charge
      // the stall and retry once in case the buddy recovered.
      cost += kCosts.direct_compaction;
      frame = buddy_->Allocate(kHugeOrder);
    }
    if (frame != kInvalidFrame) {
      table_.MapHuge(info.region, frame);
      frames_->SetUse(frame, kPagesPerHuge, vm_id_, vmem::FrameUse::kAnonymous);
      cost += HugeFaultCost();
      // Zeroing the whole 2 MiB touches every backing frame.
      cost += AfterFramesWritten(frame, kPagesPerHuge);
      ++stats_.huge_faults;
      stats_.fault_cycles += cost;
      return cost;
    }
    ++stats_.failed_huge_allocs;
  }

  uint64_t frame = kInvalidFrame;
  if (d.target_frame != kInvalidFrame && buddy_->AllocateAt(d.target_frame, 1)) {
    frame = d.target_frame;
  }
  if (frame == kInvalidFrame) {
    frame = buddy_->Allocate(0);
  }
  if (frame == kInvalidFrame && ReclaimFrames(1, info.region)) {
    frame = buddy_->Allocate(0);
  }
  SIM_CHECK_MSG(frame != kInvalidFrame,
                "%s layer out of memory (vm %d): %llu/%llu frames free",
                base::LayerName(layer_), vm_id_,
                static_cast<unsigned long long>(buddy_->free_frames()),
                static_cast<unsigned long long>(buddy_->frame_count()));
  table_.MapBase(info.page, frame);
  frames_->SetUse(frame, 1, vm_id_, vmem::FrameUse::kAnonymous);
  cost += BaseFaultCost();
  ++stats_.base_faults;
  stats_.fault_cycles += cost;
  return cost;
}

void KernelBase::PromoteInPlace(uint64_t region) {
  table_.PromoteInPlace(region);
  ChargeOverhead(kCosts.promote_in_place);
  ++stats_.promotions_in_place;
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventKind::kPromoteInPlace, layer_, vm_id_, region);
  }
  // Frames are unchanged, so stale base-granularity TLB entries still
  // translate correctly; no shootdown is required (they age out and are
  // replaced by one 2 MiB entry on the next miss).
}

bool KernelBase::PromoteWithMigration(uint64_t region, uint64_t target_frame) {
  SIM_CHECK(!table_.IsHugeMapped(region));
  uint64_t frame = kInvalidFrame;
  if (target_frame != kInvalidFrame) {
    const uint64_t target = target_frame & ~(kPagesPerHuge - 1);
    if (buddy_->AllocateAt(target, kPagesPerHuge)) {
      frame = target;
    }
  }
  if (frame == kInvalidFrame) {
    frame = buddy_->Allocate(kHugeOrder);
  }
  if (frame == kInvalidFrame) {
    return false;
  }
  frames_->SetUse(frame, kPagesPerHuge, vm_id_, vmem::FrameUse::kAnonymous);

  uint64_t copied = 0;
  if (table_.PresentBasePages(region) == 0) {
    // Nothing to migrate; this degenerates to a fresh huge mapping.
    table_.MapHuge(region, frame);
    ChargeOverhead(kCosts.promote_in_place +
                   AfterFramesWritten(frame, kPagesPerHuge));
  } else {
    const auto old_pages = table_.PromoteWithMigration(region, frame);
    std::vector<uint64_t> freed;
    freed.reserve(old_pages.size());
    for (const auto& [slot, old_frame] : old_pages) {
      (void)slot;
      if (frames_->info(old_frame).use == vmem::FrameUse::kPinned) {
        continue;  // shared (deduplicated) frame: not ours to free
      }
      frames_->ClearUse(old_frame, 1);
      freed.push_back(old_frame);
    }
    buddy_->FreeFrames(freed);
    stats_.pages_copied += old_pages.size();
    copied = old_pages.size();
    ChargeOverhead(kCosts.copy_page * old_pages.size() +
                   kCosts.tlb_shootdown + kCosts.promote_in_place +
                   AfterFramesWritten(frame, kPagesPerHuge));
    ShootdownRegion(region);
  }
  ++stats_.promotions_migrated;
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventKind::kPromoteMigrate, layer_, vm_id_, region,
                  frame, copied);
  }
  return true;
}

void KernelBase::Demote(uint64_t region) {
  table_.Demote(region);
  ChargeOverhead(kCosts.promote_in_place);
  ++stats_.demotions;
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventKind::kDemote, layer_, vm_id_, region);
  }
  // Same frames at finer granularity; a stale 2 MiB TLB entry would be
  // incorrect only if pages are subsequently remapped, which is always
  // preceded by a shootdown — but drop it eagerly for strictness.
  ShootdownRegion(region);
}

uint64_t KernelBase::SwapOutRegion(uint64_t region, uint64_t limit) {
  std::vector<std::pair<uint32_t, uint64_t>> pages;
  table_.ForEachBasePage(region, [&](uint32_t slot, uint64_t frame) {
    if (pages.size() < limit) {
      pages.emplace_back(slot, frame);
    }
  });
  uint64_t demoted = 0;
  std::vector<uint64_t> freed;
  freed.reserve(pages.size());
  for (const auto& [slot, frame] : pages) {
    const uint64_t page = (region << kHugeOrder) + slot;
    if (!tier_->Demote(vm_id_, page)) {
      break;  // far tier at capacity: the rest stays mapped in near memory
    }
    table_.UnmapBase(page);
    if (frames_->info(frame).use != vmem::FrameUse::kPinned) {
      frames_->ClearUse(frame, 1);
      freed.push_back(frame);
    }
    ChargeOverhead(tier_->demote_cost());
    ++stats_.pages_swapped_out;
    ++demoted;
  }
  buddy_->FreeFrames(freed);
  if (demoted > 0) {
    ShootdownRegion(region);
    if (tracer_ != nullptr) {
      tracer_->Emit(trace::EventKind::kTierDemote, layer_, vm_id_, region,
                    demoted, tier_->resident(vm_id_));
    }
  }
  return demoted;
}

void KernelBase::ForgetSwapped(uint64_t page, uint64_t count) {
  tier_->Forget(vm_id_, page, count);
}

uint64_t KernelBase::DemoteRegionToTier(uint64_t region, uint64_t limit) {
  if (limit == 0) {
    return 0;
  }
  if (table_.IsHugeMapped(region)) {
    Demote(region);
  }
  return SwapOutRegion(region, limit);
}

bool KernelBase::ReclaimFrames(uint64_t need, uint64_t exclude_region) {
  policy_->OnMemoryPressure(*this);
  constexpr uint64_t kBatch = 256;
  int guard = 0;
  while (buddy_->free_frames() < need && ++guard <= 128) {
    // Swap the coldest base-mapped region's pages first.
    uint64_t victim = vmem::kInvalidFrame;
    uint64_t victim_heat = ~0ull;
    table_.ForEachBaseRegion([&](uint64_t region, uint32_t present) {
      (void)present;
      if (region == exclude_region) {
        return;
      }
      const uint64_t heat = table_.AccessCount(region);
      if (heat < victim_heat) {
        victim_heat = heat;
        victim = region;
      }
    });
    if (victim != vmem::kInvalidFrame && SwapOutRegion(victim, kBatch) > 0) {
      continue;
    }
    // Only huge mappings remain: demote the most expendable one, making
    // its pages swappable on the next iteration.
    const auto victims = policy_->RankHugeDemotionVictims(*this, 1);
    if (victims.empty()) {
      return buddy_->free_frames() >= need;
    }
    Demote(victims[0]);
  }
  return buddy_->free_frames() >= need;
}

uint64_t KernelBase::DrainTlbMisses() {
  const uint64_t total = hooks_->VmTlbMisses(vm_id_);
  const uint64_t delta = total - tlb_miss_cursor_;
  tlb_miss_cursor_ = total;
  return delta;
}

}  // namespace osim
