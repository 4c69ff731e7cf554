// Linux Transparent Huge Pages (THP) model.
//
// Two mechanisms, as in Linux:
//  * Fault path ("always" mode): the first fault into a region that a VMA
//    fully covers tries a synchronous 2 MiB allocation; if the buddy has no
//    order-9 block the fault stalls on direct compaction before falling
//    back to base pages.  This is the latency spike Ingens §2 documents.
//  * khugepaged: a slow background scanner that collapses partially
//    populated regions into huge pages via copy-based migration, limited by
//    a per-tick scan budget (khugepaged defaults scan ~4096 pages per 10 s,
//    i.e. it is deliberately unaggressive).
//
// THP coordinates nothing across layers: when it runs in both the guest and
// the host, huge pages align only by chance — the paper's Table 1 measures
// 18-26 % well-aligned rates for it.
#ifndef SRC_POLICY_THP_H_
#define SRC_POLICY_THP_H_

#include "policy/policy.h"

namespace policy {

struct ThpOptions {
  bool fault_huge = true;  // THP "always" vs "madvise-never"
};

class ThpPolicy : public HugePagePolicy {
 public:
  explicit ThpPolicy(const ThpOptions& options = {}) : options_(options) {}

  std::string_view name() const override { return "thp"; }

  FaultDecision OnFault(KernelOps& kernel, const FaultInfo& info) override;
  void OnDaemonTick(KernelOps& kernel) override;

 protected:
  ThpOptions options_;
  uint64_t scan_cursor_ = 0;  // region where the next khugepaged pass resumes
};

}  // namespace policy

#endif  // SRC_POLICY_THP_H_
