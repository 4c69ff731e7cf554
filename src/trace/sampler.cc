#include "trace/sampler.h"

#include <sstream>

#include "base/check.h"
#include "metrics/counters.h"

namespace trace {

using base::kHugeOrder;
using base::kMaxOrder;
using base::kPagesPerHuge;

namespace {

double HugeCoverage(const mmu::PageTable& table) {
  const uint64_t mapped = table.mapped_pages();
  if (mapped == 0) {
    return 0.0;
  }
  return static_cast<double>(table.huge_leaves() * kPagesPerHuge) /
         static_cast<double>(mapped);
}

}  // namespace

StackSampler::StackSampler(osim::Machine* machine) : machine_(machine) {
  SIM_CHECK(machine_ != nullptr);
}

void StackSampler::Run(base::Cycles now) {
  const vmem::BuddyAllocator& host_buddy = machine_->host().buddy();
  for (int32_t id = 0; id < static_cast<int32_t>(machine_->vm_count()); ++id) {
    osim::VirtualMachine& vm = machine_->vm(id);
    SamplePoint p;
    p.ts = now;
    p.vm_id = id;
    p.guest_coverage = HugeCoverage(vm.guest().table());
    p.host_coverage = HugeCoverage(vm.host_slice().table());
    p.guest_fmfi = vm.guest().buddy().Fmfi(kHugeOrder);
    p.host_fmfi = host_buddy.Fmfi(kHugeOrder);
    const policy::PolicyTelemetry gt = vm.guest().policy().Telemetry();
    const policy::PolicyTelemetry ht = vm.host_slice().policy().Telemetry();
    p.booking_timeout = gt.booking_timeout;
    p.bookings_active = gt.bookings_active + ht.bookings_active;
    p.bucket_held = gt.bucket_held + ht.bucket_held;
    const metrics::StackSnapshot s = metrics::Snapshot(*machine_, id);
    const uint64_t lookups = s.tlb_hits + s.tlb_misses;
    p.tlb_miss_rate = lookups == 0 ? 0.0
                                   : static_cast<double>(s.tlb_misses) /
                                         static_cast<double>(lookups);
    p.stale_hits = s.tlb_stale_hits;
    p.cross_vm_evictions = s.tlb_cross_vm_evictions;
    p.vm_invalidated = s.tlb_vm_invalidated;
    p.displaced_by_self = s.tlb_displaced_by_self;
    p.displaced_by_other = s.tlb_displaced_by_other;
    for (const uint64_t h : s.util_way_hits) {
      p.util_shadow_hits += h;
    }
    p.util_shadow_misses = s.util_shadow_misses;
    p.ways_assigned = s.tlb_ways_assigned;
    p.repartitions = s.tlb_repartitions;
    p.repartition_evictions = s.tlb_repartition_evictions;
    p.lat_p50 = base::Log2Histogram::PercentileOfCounts(s.lat_hist, 0.50);
    p.lat_p90 = base::Log2Histogram::PercentileOfCounts(s.lat_hist, 0.90);
    p.lat_p99 = base::Log2Histogram::PercentileOfCounts(s.lat_hist, 0.99);
    p.tier_demoted = s.tier_demoted_pages;
    p.tier_refaults = s.tier_refaults;
    p.tier_resident = s.tier_resident;
    for (int o = 0; o < kMaxOrder; ++o) {
      p.guest_free[o] = vm.guest().buddy().FreeBlocksOfOrder(o);
      p.host_free[o] = host_buddy.FreeBlocksOfOrder(o);
    }
    samples_.push_back(p);
  }
}

std::string StackSampler::ToCsv() const {
  std::ostringstream out;
  out << "ts_cycles,vm,guest_coverage,host_coverage,guest_fmfi,host_fmfi,"
         "booking_timeout_cycles,bookings_active,bucket_held,tlb_miss_rate,"
         "stale_hits,cross_vm_evictions,vm_invalidated,"
         "displaced_by_self,displaced_by_other,util_shadow_hits,"
         "util_shadow_misses,ways_assigned,repartitions,"
         "repartition_evictions,lat_p50,lat_p90,lat_p99,"
         "tier_demoted,tier_refaults,tier_resident";
  for (int o = 0; o < kMaxOrder; ++o) {
    out << ",guest_free_o" << o;
  }
  for (int o = 0; o < kMaxOrder; ++o) {
    out << ",host_free_o" << o;
  }
  out << '\n';
  for (const SamplePoint& p : samples_) {
    out << p.ts << ',' << p.vm_id << ',' << p.guest_coverage << ','
        << p.host_coverage << ',' << p.guest_fmfi << ',' << p.host_fmfi << ','
        << p.booking_timeout << ',' << p.bookings_active << ','
        << p.bucket_held << ',' << p.tlb_miss_rate << ',' << p.stale_hits
        << ',' << p.cross_vm_evictions << ',' << p.vm_invalidated
        << ',' << p.displaced_by_self << ',' << p.displaced_by_other
        << ',' << p.util_shadow_hits << ',' << p.util_shadow_misses
        << ',' << p.ways_assigned << ',' << p.repartitions
        << ',' << p.repartition_evictions
        << ',' << p.lat_p50 << ',' << p.lat_p90 << ',' << p.lat_p99
        << ',' << p.tier_demoted << ',' << p.tier_refaults
        << ',' << p.tier_resident;
    for (int o = 0; o < kMaxOrder; ++o) {
      out << ',' << p.guest_free[o];
    }
    for (int o = 0; o < kMaxOrder; ++o) {
      out << ',' << p.host_free[o];
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace trace
