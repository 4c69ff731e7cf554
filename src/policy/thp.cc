#include "policy/thp.h"

#include <vector>

#include "os/cost_model.h"

namespace policy {

namespace {

// khugepaged's per-pass budget of regions visited.
constexpr uint32_t kScanRegionsPerTick = 4;
// khugepaged collapses a region when at least this many of its 512 pages
// are present (Linux max_ptes_none analogue; 64 present = up to 448 empty
// PTEs tolerated).
constexpr uint32_t kCollapseMinPresent = 64;

}  // namespace

FaultDecision ThpPolicy::OnFault(KernelOps& kernel, const FaultInfo& info) {
  (void)info;
  FaultDecision decision;
  if (options_.fault_huge && HasFreeMemoryHeadroom(kernel)) {
    decision.try_huge = true;
    decision.synchronous_compaction = true;  // "always" stalls on compaction
  }
  return decision;
}

void ThpPolicy::OnDaemonTick(KernelOps& kernel) {
  if (!HasFreeMemoryHeadroom(kernel)) {
    return;
  }
  // khugepaged walks the address space linearly with a resume cursor and a
  // small per-pass budget of regions *visited* — qualifying or not — which
  // is what makes it slow on big address spaces.
  std::vector<std::pair<uint64_t, uint32_t>> visited;
  uint64_t first_region = vmem::kInvalidFrame;
  kernel.table().ForEachBaseRegion([&](uint64_t region, uint32_t present) {
    if (first_region == vmem::kInvalidFrame) {
      first_region = region;
    }
    if (region >= scan_cursor_ &&
        visited.size() < kScanRegionsPerTick) {
      visited.emplace_back(region, present);
    }
  });
  if (visited.empty() && first_region != vmem::kInvalidFrame) {
    scan_cursor_ = first_region;  // wrap around
    kernel.table().ForEachBaseRegion([&](uint64_t region, uint32_t present) {
      if (region >= scan_cursor_ &&
          visited.size() < kScanRegionsPerTick) {
        visited.emplace_back(region, present);
      }
    });
  }
  for (const auto& [region, present] : visited) {
    kernel.ChargeOverhead(osim::kCosts.daemon_scan_region);
    scan_cursor_ = region + 1;
    if (present < kCollapseMinPresent) {
      continue;
    }
    if (kernel.table().CanPromoteInPlace(region)) {
      kernel.PromoteInPlace(region);
    } else if (!kernel.PromoteWithMigration(region)) {
      break;  // no order-9 blocks; retry next tick
    }
  }
}

}  // namespace policy
