#include "policy/hawkeye.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "os/cost_model.h"

namespace policy {

namespace {

// Fraction of zero-filled (absent) pages that are later written and take a
// CoW fault.
constexpr double kCowWriteFraction = 0.5;

}  // namespace

FaultDecision HawkEyePolicy::OnFault(KernelOps& kernel,
                                     const FaultInfo& info) {
  (void)kernel;
  (void)info;
  return FaultDecision{};  // asynchronous-only, like Ingens
}

void HawkEyePolicy::OnDaemonTick(KernelOps& kernel) {
  if (!HasFreeMemoryHeadroom(kernel)) {
    return;
  }
  struct Candidate {
    uint64_t region;
    uint32_t present;
    uint64_t heat;
  };
  std::vector<Candidate> candidates;
  kernel.table().ForEachBaseRegion([&](uint64_t region, uint32_t present) {
    kernel.ChargeOverhead(osim::kCosts.daemon_scan_region);
    const uint64_t heat = kernel.table().AccessCount(region);
    if (present >= options_.promote_min_present && heat > 0) {
      candidates.push_back(Candidate{region, present, heat});
    }
  });
  // Access-coverage ranking: hottest regions first.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.heat > b.heat;
            });
  uint32_t budget = options_.promotions_per_tick;
  for (const Candidate& c : candidates) {
    if (budget == 0) {
      break;
    }
    bool promoted = false;
    if (kernel.table().CanPromoteInPlace(c.region)) {
      kernel.PromoteInPlace(c.region);
      promoted = true;
    } else {
      promoted = kernel.PromoteWithMigration(c.region);
      if (!promoted) {
        break;
      }
    }
    if (promoted) {
      --budget;
      // Zero-page-dedup hole filling: absent pages that are written later
      // take CoW faults.
      const uint32_t absent =
          static_cast<uint32_t>(base::kPagesPerHuge) - c.present;
      const auto cow_faults = static_cast<uint64_t>(
          kCowWriteFraction * static_cast<double>(absent));
      kernel.ChargeOverhead(cow_faults * osim::kCosts.cow_fault);
    }
  }
  kernel.table().DecayAccessCounts();
}

}  // namespace policy
