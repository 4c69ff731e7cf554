// HawkEye (Panwar et al., ASPLOS '19) model.
//
// HawkEye refines Ingens in two ways this model captures:
//  * Promotion candidates are ranked by *access coverage* — the hottest
//    regions (most TLB pressure) are promoted first, measured here by the
//    per-region access counters the translation engine maintains — and the
//    utilization bar is lower because HawkEye fills the holes.
//  * Hole filling uses zero-page deduplication: absent PTEs of a promoted
//    region are satisfied from deduplicated zero pages, so later writes to
//    them take copy-on-write faults.  The paper observes exactly this
//    artifact on Specjbb (§6.2): HawkEye's latency exceeds Ingens' because
//    it "deduplicates Specjbb's in-use zero-pages and incurs extra
//    copy-on-write page faults."  We charge a CoW fault for a fraction of
//    the absent pages of each promoted region.
#ifndef SRC_POLICY_HAWKEYE_H_
#define SRC_POLICY_HAWKEYE_H_

#include "policy/policy.h"

namespace policy {

struct HawkEyeOptions {
  uint32_t promote_min_present = 256;  // lower bar than Ingens; holes filled
  uint32_t promotions_per_tick = 8;
};

class HawkEyePolicy : public HugePagePolicy {
 public:
  explicit HawkEyePolicy(const HawkEyeOptions& options = {})
      : options_(options) {}

  std::string_view name() const override { return "hawkeye"; }

  FaultDecision OnFault(KernelOps& kernel, const FaultInfo& info) override;
  void OnDaemonTick(KernelOps& kernel) override;

 protected:
  HawkEyeOptions options_;
};

}  // namespace policy

#endif  // SRC_POLICY_HAWKEYE_H_
