#include "gemini/promoter.h"

#include <algorithm>
#include <vector>

#include "base/types.h"
#include "os/cost_model.h"

namespace gemini {

using base::kHugeOrder;
using base::kPagesPerHuge;

namespace {

// Ordinary (non-alignment) host migrations stop while fewer than this many
// order-9 blocks remain: the reserve is kept for turning misaligned huge
// pages well-aligned ("first ... before other memory regions").
constexpr uint64_t kOrdinaryBlockReserve = 12;

}  // namespace

bool Promoter::TryPreallocatePromote(policy::KernelOps& kernel,
                                     uint64_t region) {
  mmu::PageTable& table = kernel.table();
  // All present pages must sit at `anchor + slot` for a huge-aligned
  // anchor; ContiguousAnchor sweeps the present bitmap a word at a time.
  const std::optional<uint64_t> maybe_anchor = table.ContiguousAnchor(region);
  if (!maybe_anchor.has_value()) {
    return false;
  }
  const uint64_t anchor = *maybe_anchor;
  // Allocate + map the missing slots at their targets.
  missing_.clear();
  table.MissingSlots(region, &missing_);
  for (uint32_t slot : missing_) {
    if (!kernel.buddy().IsFrameFree(anchor + slot)) {
      return false;  // a target frame is taken; booking lapsed
    }
  }
  for (uint32_t slot : missing_) {
    const bool ok = kernel.buddy().AllocateAt(anchor + slot, 1);
    (void)ok;  // guaranteed by the freeness check above
    kernel.frames().SetUse(anchor + slot, 1, kernel.vm_id(),
                           vmem::FrameUse::kAnonymous);
    table.MapBase((region << kHugeOrder) + slot, anchor + slot);
    // Zero-filling in kernel context: no per-page trap, roughly a page
    // copy's worth of work, in the background.
    kernel.ChargeOverhead(osim::kCosts.copy_page);
  }
  kernel.PromoteInPlace(region);
  ++stats_.preallocated;
  return true;
}

void Promoter::RunGuestTick(policy::KernelOps& kernel,
                            const GeminiChannel& channel) {
  struct Candidate {
    uint64_t region;
    uint32_t present;
    uint64_t backing_region;  // guest-physical region of its first frame
    bool priority;
  };
  std::vector<Candidate> candidates;
  const mmu::PageTable& table = kernel.table();
  table.ForEachBaseRegion([&](uint64_t region, uint32_t present) {
    kernel.ChargeOverhead(osim::kCosts.daemon_scan_region);
    const auto first = table.FirstPresent(region);
    if (!first.has_value()) {
      return;
    }
    const uint64_t backing = first->second >> kHugeOrder;
    // Priority: this guest region's pages live under a host huge page that
    // no guest huge page matches yet (a type-2 misaligned host page).
    const bool priority =
        channel.host_huge_misaligned.count(backing) != 0;
    candidates.push_back(Candidate{region, present, backing, priority});
  });
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.priority > b.priority;
                   });

  const bool prealloc_ok = kernel.Fmfi() <= options_.prealloc_max_fmfi;
  uint32_t budget = options_.promotions_per_tick;
  for (const Candidate& c : candidates) {
    if (budget == 0) {
      break;
    }
    if (kernel.table().CanPromoteInPlace(c.region)) {
      kernel.PromoteInPlace(c.region);
      ++stats_.in_place;
      --budget;
      continue;
    }
    // The FMFI gate is waived when the backing sits under a host huge page
    // (booked/bucketed placements): the host has already committed the
    // whole 2 MiB, so preallocating the guest side wastes nothing new.
    const bool backing_host_huge = channel.HostHuge(c.backing_region);
    if (c.present >= options_.prealloc_min_present &&
        (prealloc_ok || backing_host_huge) &&
        policy::HasFreeMemoryHeadroom(kernel) &&
        TryPreallocatePromote(kernel, c.region)) {
      --budget;
      continue;
    }
    if (!policy::HasFreeMemoryHeadroom(kernel)) {
      continue;
    }
    if (c.priority) {
      // Migrate towards the misaligned host huge page's own region first so
      // the promotion also lands on host-huge-backed frames.
      if (kernel.PromoteWithMigration(c.region,
                                      c.backing_region << kHugeOrder) ||
          kernel.PromoteWithMigration(c.region)) {
        ++stats_.priority_migrations;
        --budget;
      }
      continue;
    }
    if (c.present >= options_.normal_min_present &&
        kernel.PromoteWithMigration(c.region)) {
      ++stats_.normal_migrations;
      --budget;
    }
  }
}

void Promoter::RunHostTick(policy::KernelOps& kernel,
                           const GeminiChannel& channel) {
  mmu::PageTable& ept = kernel.table();
  uint32_t budget = options_.promotions_per_tick;

  // Priority: regions under misaligned *guest* huge pages.  Backing them
  // with a huge EPT leaf turns the guest's huge page well-aligned.
  for (const auto& [region, info] : channel.guest_huge_misaligned) {
    if (budget == 0) {
      break;
    }
    (void)info;
    if (ept.IsHugeMapped(region)) {
      continue;  // fixed since the scan
    }
    if (ept.CanPromoteInPlace(region)) {
      kernel.PromoteInPlace(region);
      ++stats_.in_place;
      --budget;
      continue;
    }
    if (!policy::HasFreeMemoryHeadroom(kernel)) {
      break;
    }
    // Type-1 (no base pages) degenerates inside PromoteWithMigration to a
    // direct huge backing; type-2 migrates the existing base pages.
    if (kernel.PromoteWithMigration(region)) {
      ++stats_.priority_migrations;
      --budget;
    }
  }

  // Ordinary pass with the leftover budget: the paper's design considers
  // the misaligned regions *first*, not exclusively — other dense, live
  // regions still get promoted afterwards (their huge host pages shorten
  // page walks even when misaligned).  In-place-promotable regions are
  // free; dense hot regions qualify for migration.
  std::vector<uint64_t> in_place;
  std::vector<uint64_t> dense;
  ept.ForEachBaseRegion([&](uint64_t region, uint32_t present) {
    kernel.ChargeOverhead(osim::kCosts.daemon_scan_region);
    if (present == kPagesPerHuge && ept.CanPromoteInPlace(region)) {
      in_place.push_back(region);
    } else if (present >= options_.normal_min_present &&
               ept.AccessCount(region) > 0) {
      dense.push_back(region);
    }
  });
  for (uint64_t region : in_place) {
    if (budget == 0) {
      break;
    }
    kernel.PromoteInPlace(region);
    ++stats_.in_place;
    --budget;
  }
  for (uint64_t region : dense) {
    if (budget == 0 || !policy::HasFreeMemoryHeadroom(kernel)) {
      break;
    }
    if (kernel.buddy().BlocksAvailable(base::kHugeOrder) <=
        kOrdinaryBlockReserve) {
      break;  // keep the remaining blocks for alignment repairs
    }
    if (kernel.PromoteWithMigration(region)) {
      ++stats_.normal_migrations;
      --budget;
    } else {
      break;  // out of blocks this tick
    }
  }
  ept.DecayAccessCounts();
}

}  // namespace gemini
