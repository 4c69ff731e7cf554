// Watermark-driven host memory reclaim (the kswapd analogue for the tiered
// host of DESIGN.md §3i).
//
// Registered by the machine as a PeriodicTask when MachineConfig::reclaim
// is enabled, so every tick fires in Machine::RunDueDaemons at a logical
// time boundary — never inside an epoch-parallel phase — and the whole
// reclaim schedule is a deterministic function of (workload, seed), not of
// the executor's thread count or batch size.
//
// Each tick: (1) let the reclaim policy observe (DAMON sampling / LRU
// aging), (2) compare the shared host buddy's free frames against the low
// watermark, and (3) when short, demote policy-ranked cold EPT regions of
// every VM to the machine's far tier until the high watermark, the pass
// budget, or the far tier's capacity is reached.  Demoted pages free their
// frames into the host buddy allocator — exactly the churn that fragments
// (and, once the buddy re-merges blocks, compacts) the free lists the
// coalescing policies allocate from.  A later guest access to a demoted
// GFN takes the normal EPT-violation path and pays the far tier's refault
// latency (kernel_base.cc).
#ifndef SRC_OS_RECLAIM_DAEMON_H_
#define SRC_OS_RECLAIM_DAEMON_H_

#include <memory>
#include <vector>

#include "os/machine.h"
#include "policy/reclaim.h"

namespace osim {

struct ReclaimDaemonStats {
  uint64_t ticks = 0;          // daemon activations
  uint64_t passes = 0;         // ticks that reclaimed at least one page
  uint64_t pages_demoted = 0;  // pages moved to the far tier, total
};

class ReclaimDaemon final : public PeriodicTask {
 public:
  ReclaimDaemon(Machine* machine, policy::ReclaimPolicyKind kind);

  void Run(base::Cycles now) override;

  const ReclaimDaemonStats& stats() const { return stats_; }
  const policy::ReclaimPolicy& policy() const { return *policy_; }

 private:
  Machine* machine_;
  std::unique_ptr<policy::ReclaimPolicy> policy_;
  ReclaimDaemonStats stats_;
};

}  // namespace osim

#endif  // SRC_OS_RECLAIM_DAEMON_H_
