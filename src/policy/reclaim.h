// Host reclaim policies: which guest-physical regions to demote to the far
// tier when the host runs short of near memory.
//
// Both policies pick victims in EPT huge-region (2 MiB of guest-physical
// address space) units across every VM on the host; the reclaim daemon
// (os/reclaim_daemon.h) then demotes the victims' pages through the
// ordinary kernel swap-out path, so freed frames land in the shared host
// buddy allocator and reclaim-induced fragmentation is observable by the
// coalescing policies under test.
//
//  * kLruApprox — classic kernel-style aging: every pass scans each VM's
//    whole EPT, ranks regions by their page-table access counters, and
//    halves the counters (the clock-algorithm referenced-bit sweep).
//    Accurate but pays O(mapped regions) scan overhead per pass, charged
//    to each VM's host kernel slice.
//  * kDamon — DAMON-guided: one damon::RegionMonitor per VM samples one
//    page per adaptive region per tick, so overhead is O(regions bound),
//    and victims are the coldest monitored regions (zero sampled accesses,
//    oldest first).  Cheap and cold-exact, at the price of sampling noise
//    on the warm/hot boundary.
#ifndef SRC_POLICY_RECLAIM_H_
#define SRC_POLICY_RECLAIM_H_

#include <memory>
#include <string>
#include <vector>

#include "base/types.h"
#include "damon/region_monitor.h"

namespace osim {
class HostKernel;
}  // namespace osim

namespace policy {

enum class ReclaimPolicyKind : uint8_t {
  kLruApprox,
  kDamon,
};

// Stable lowercase name ("lru" / "damon"), used in bench scenario labels.
const char* ReclaimPolicyName(ReclaimPolicyKind kind);

// One reclaim candidate: an EPT huge-region of one VM, coldest first.
struct ReclaimVictim {
  int32_t vm_id = -1;
  uint64_t region = 0;
};

class ReclaimPolicy {
 public:
  virtual ~ReclaimPolicy() = default;
  virtual ReclaimPolicyKind kind() const = 0;

  // Called once per daemon tick, before any victim selection: sampling,
  // aging, and overhead charging happen here.
  virtual void Observe(osim::HostKernel& host) = 0;

  // Appends up to `max_victims` reclaim candidates, coldest first.  Only
  // regions with something to reclaim (present base pages or a huge leaf)
  // are returned.  Deterministic: ties break on (vm_id, region).
  virtual void RankVictims(osim::HostKernel& host, size_t max_victims,
                           std::vector<ReclaimVictim>* out) = 0;

  // The DAMON-guided policy's per-VM monitors (null for other kinds / VMs
  // not yet observed); exposed for tests and metrics.
  virtual const damon::RegionMonitor* monitor(int32_t vm_id) const {
    (void)vm_id;
    return nullptr;
  }
};

// kDamon runs one monitor per VM at damon::MonitorConfig's defaults, its
// seed derived from the default seed and the vm id.
std::unique_ptr<ReclaimPolicy> MakeReclaimPolicy(ReclaimPolicyKind kind);

// Host reclaim configuration, consumed by osim::Machine (which
// instantiates the far tier and the reclaim daemon when enabled).  The
// watermarks and the per-pass budget are the daemon's constants
// (os/reclaim_daemon.cc, DESIGN.md §3i).
struct ReclaimConfig {
  bool enabled = false;
  ReclaimPolicyKind policy = ReclaimPolicyKind::kLruApprox;
  // Far-tier capacity in pages (0 = unbounded).
  uint64_t far_capacity_pages = 0;
  // Daemon tick period (0 = the machine's daemon_period).  A PeriodicTask,
  // so it only ever fires at logical-time boundaries: reclaim decisions
  // are byte-identical at any executor thread count / batch size.
  base::Cycles interval = 0;
};

}  // namespace policy

#endif  // SRC_POLICY_RECLAIM_H_
