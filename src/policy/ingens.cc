#include "policy/ingens.h"

#include <vector>

#include "os/cost_model.h"

namespace policy {

FaultDecision IngensPolicy::OnFault(KernelOps& kernel,
                                    const FaultInfo& info) {
  (void)kernel;
  (void)info;
  return FaultDecision{};  // asynchronous-only huge pages: base at fault
}

void IngensPolicy::OnDaemonTick(KernelOps& kernel) {
  if (!HasFreeMemoryHeadroom(kernel)) {
    return;
  }
  std::vector<uint64_t> candidates;
  kernel.table().ForEachBaseRegion([&](uint64_t region, uint32_t present) {
    kernel.ChargeOverhead(osim::kCosts.daemon_scan_region);
    // Utilization is measured over *recently accessed* memory (Ingens
    // tracks access bits); stale-but-present mappings do not qualify.
    if (present >= options_.promote_min_present &&
        kernel.table().AccessCount(region) > 0) {
      candidates.push_back(region);
    }
  });
  uint32_t budget = options_.promotions_per_tick;
  for (uint64_t region : candidates) {
    if (budget == 0) {
      break;
    }
    if (kernel.table().CanPromoteInPlace(region)) {
      kernel.PromoteInPlace(region);
      --budget;
    } else if (kernel.PromoteWithMigration(region)) {
      --budget;
    } else {
      break;  // out of huge blocks this tick
    }
  }
  kernel.table().DecayAccessCounts();
}

}  // namespace policy
