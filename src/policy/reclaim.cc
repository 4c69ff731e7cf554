#include "policy/reclaim.h"

#include <algorithm>
#include <map>

#include "base/check.h"
#include "os/cost_model.h"
#include "os/host_kernel.h"

namespace policy {

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;

// Does this EPT huge-region hold anything the swap-out path can reclaim?
bool HasReclaimable(const mmu::PageTable& table, uint64_t region) {
  return table.IsHugeMapped(region) || table.PresentBasePages(region) > 0;
}

// Kernel-style aging: rank by the EPT's per-region access counters, halve
// them after every ranking sweep (the clock-algorithm referenced-bit
// scan), and charge the full-table scan to the VM it served.
class LruApproxPolicy final : public ReclaimPolicy {
 public:
  ReclaimPolicyKind kind() const override {
    return ReclaimPolicyKind::kLruApprox;
  }

  void Observe(osim::HostKernel& host) override {
    (void)host;
    ++tick_;  // scanning is lazy: no watermark pressure, no sweep
  }

  void RankVictims(osim::HostKernel& host, size_t max_victims,
                   std::vector<ReclaimVictim>* out) override {
    struct Candidate {
      uint64_t heat;
      int32_t vm_id;
      uint64_t region;
    };
    std::vector<Candidate> candidates;
    const bool charge = last_swept_tick_ != tick_;
    last_swept_tick_ = tick_;
    for (size_t vm = 0; vm < host.vm_count(); ++vm) {
      osim::HostVmKernel& slice = host.vm_kernel(static_cast<int32_t>(vm));
      mmu::PageTable& table = slice.table();
      uint64_t scanned = 0;
      table.ForEachBaseRegion([&](uint64_t region, uint32_t present) {
        (void)present;
        ++scanned;
        candidates.push_back({table.AccessCount(region),
                              static_cast<int32_t>(vm), region});
      });
      table.ForEachHuge([&](uint64_t region, uint64_t frame) {
        (void)frame;
        ++scanned;
        candidates.push_back({table.AccessCount(region),
                              static_cast<int32_t>(vm), region});
      });
      if (charge) {
        // One referenced-bit sweep per daemon tick, at most: the cost that
        // makes full-EPT aging expensive on big VMs.
        slice.ChargeOverhead(osim::kCosts.daemon_scan_region * scanned);
        table.DecayAccessCounts();
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.heat != b.heat) {
                  return a.heat < b.heat;
                }
                if (a.vm_id != b.vm_id) {
                  return a.vm_id < b.vm_id;
                }
                return a.region < b.region;
              });
    for (const Candidate& c : candidates) {
      if (out->size() >= max_victims) {
        break;
      }
      out->push_back({c.vm_id, c.region});
    }
  }

 private:
  uint64_t tick_ = 0;
  uint64_t last_swept_tick_ = ~0ull;
};

// DAMON-guided: one adaptive region monitor per VM, ticked every Observe;
// victims are the coldest monitored regions' mapped EPT huge-regions.
class DamonPolicy final : public ReclaimPolicy {
 public:
  ReclaimPolicyKind kind() const override { return ReclaimPolicyKind::kDamon; }

  void Observe(osim::HostKernel& host) override {
    for (size_t vm = 0; vm < host.vm_count(); ++vm) {
      const int32_t id = static_cast<int32_t>(vm);
      osim::HostVmKernel& slice = host.vm_kernel(id);
      auto it = monitors_.find(id);
      if (it == monitors_.end()) {
        const uint64_t span =
            std::max<uint64_t>(1, (slice.gfn_count() + kPagesPerHuge - 1) >>
                                      kHugeOrder);
        damon::MonitorConfig per_vm;
        per_vm.seed = per_vm.seed * 0x9e3779b97f4a7c15ull +
                      static_cast<uint64_t>(id) * 131 + 1;
        it = monitors_
                 .emplace(id, std::make_unique<damon::RegionMonitor>(per_vm,
                                                                     span))
                 .first;
      }
      const mmu::PageTable& table = slice.table();
      it->second->Tick(
          [&table](uint64_t region) { return table.AccessCount(region); });
      // The whole point of region sampling: overhead scales with the
      // region bound, not with the VM's memory size.
      slice.ChargeOverhead(osim::kCosts.daemon_scan_region *
                           it->second->regions().size());
    }
  }

  void RankVictims(osim::HostKernel& host, size_t max_victims,
                   std::vector<ReclaimVictim>* out) override {
    struct Candidate {
      uint32_t nr;
      uint32_t age;
      int32_t vm_id;
      damon::Region region;
    };
    std::vector<Candidate> cold;
    for (const auto& [vm_id, monitor] : monitors_) {
      for (const damon::Region& r : monitor->ColdOrder()) {
        cold.push_back({r.last_nr_accesses, r.age, vm_id, r});
      }
    }
    // Global cold order across VMs (each monitor's ColdOrder is already
    // sorted; re-sorting the union keeps the global order exact).
    std::sort(cold.begin(), cold.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.nr != b.nr) {
                  return a.nr < b.nr;
                }
                if (a.age != b.age) {
                  return a.age > b.age;
                }
                if (a.vm_id != b.vm_id) {
                  return a.vm_id < b.vm_id;
                }
                return a.region.start < b.region.start;
              });
    for (const Candidate& c : cold) {
      if (out->size() >= max_victims) {
        break;
      }
      const mmu::PageTable& table = host.vm_kernel(c.vm_id).table();
      for (uint64_t region = c.region.start;
           region < c.region.start + c.region.len; ++region) {
        if (out->size() >= max_victims) {
          break;
        }
        if (HasReclaimable(table, region)) {
          out->push_back({c.vm_id, region});
        }
      }
    }
  }

  const damon::RegionMonitor* monitor(int32_t vm_id) const override {
    auto it = monitors_.find(vm_id);
    return it == monitors_.end() ? nullptr : it->second.get();
  }

 private:
  std::map<int32_t, std::unique_ptr<damon::RegionMonitor>> monitors_;
};

}  // namespace

const char* ReclaimPolicyName(ReclaimPolicyKind kind) {
  switch (kind) {
    case ReclaimPolicyKind::kLruApprox:
      return "lru";
    case ReclaimPolicyKind::kDamon:
      return "damon";
  }
  return "unknown";
}

std::optional<ReclaimPolicyKind> ParseReclaimPolicy(std::string_view name) {
  if (name == "lru") {
    return ReclaimPolicyKind::kLruApprox;
  }
  if (name == "damon") {
    return ReclaimPolicyKind::kDamon;
  }
  return std::nullopt;
}

std::unique_ptr<ReclaimPolicy> MakeReclaimPolicy(ReclaimPolicyKind kind) {
  switch (kind) {
    case ReclaimPolicyKind::kLruApprox:
      return std::make_unique<LruApproxPolicy>();
    case ReclaimPolicyKind::kDamon:
      return std::make_unique<DamonPolicy>();
  }
  SIM_CHECK(false);
  return nullptr;
}

}  // namespace policy
