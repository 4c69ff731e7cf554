// Translation Ranger (Yan et al., ISCA '19) model.
//
// Ranger is an OS service that actively *migrates* pages to coalesce VMAs
// into large contiguous ranges (targeting range-TLB hardware; on stock
// hardware the contiguity manifests as huge-page eligibility).  The defining
// characteristic the paper measures is its cost: it migrates aggressively —
// regardless of region utilization — so it pays copy work and TLB
// shootdowns continuously.  In the paper's virtualized runs this overhead
// exceeds the translation savings (throughput -7% vs Host-B-VM-B, mean
// latency +11%) even though it reaches decent contiguity.
#ifndef SRC_POLICY_TRANSLATION_RANGER_H_
#define SRC_POLICY_TRANSLATION_RANGER_H_

#include "policy/policy.h"

namespace policy {

class TranslationRangerPolicy final : public HugePagePolicy {
 public:
  std::string_view name() const override { return "translation-ranger"; }

  FaultDecision OnFault(KernelOps& kernel, const FaultInfo& info) override;
  void OnDaemonTick(KernelOps& kernel) override;
};

}  // namespace policy

#endif  // SRC_POLICY_TRANSLATION_RANGER_H_
