#include "policy/translation_ranger.h"

#include <algorithm>
#include <vector>

#include "os/cost_model.h"

namespace policy {

namespace {

// Regions migrated per tick; Ranger has no utilization bar, so this is
// pure migration throughput.
constexpr uint32_t kMigrationsPerTick = 32;
constexpr uint32_t kMinPresent = 8;  // skip nearly-empty regions
// Pages moved per tick by the continuous defragmentation pass.  Ranger
// keeps exchanging pages to maintain large contiguous ranges even when no
// promotion results; this steady copy + shootdown traffic is where the
// paper's -7% throughput / +11% latency versus Host-B-VM-B comes from.
constexpr uint64_t kBackgroundMovesPerTick = 384;

}  // namespace

FaultDecision TranslationRangerPolicy::OnFault(KernelOps& kernel,
                                               const FaultInfo& info) {
  (void)kernel;
  (void)info;
  return FaultDecision{};
}

void TranslationRangerPolicy::OnDaemonTick(KernelOps& kernel) {
  // Continuous range maintenance: pages are exchanged to keep VMAs
  // contiguous whether or not a promotion results, with the associated
  // TLB shootdowns.
  const uint64_t mapped = kernel.table().mapped_pages();
  if (mapped > 0) {
    const uint64_t moves =
        std::min<uint64_t>(kBackgroundMovesPerTick, mapped / 8);
    kernel.ChargeOverhead(moves * osim::kCosts.copy_page +
                          (moves / 64 + (moves > 0 ? 1 : 0)) *
                              osim::kCosts.tlb_shootdown);
  }
  if (!HasFreeMemoryHeadroom(kernel)) {
    return;
  }
  std::vector<uint64_t> candidates;
  kernel.table().ForEachBaseRegion([&](uint64_t region, uint32_t present) {
    kernel.ChargeOverhead(osim::kCosts.daemon_scan_region);
    if (present >= kMinPresent) {
      candidates.push_back(region);
    }
  });
  uint32_t budget = kMigrationsPerTick;
  for (uint64_t region : candidates) {
    if (budget == 0) {
      break;
    }
    if (kernel.table().CanPromoteInPlace(region)) {
      kernel.PromoteInPlace(region);
      --budget;
      continue;
    }
    // Ranger migrates unconditionally to build contiguity, paying copies
    // and shootdowns even for sparsely populated regions.
    if (!kernel.PromoteWithMigration(region)) {
      break;
    }
    --budget;
  }
}

}  // namespace policy
