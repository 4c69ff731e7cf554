#include "trace/sampler.h"

#include <string>

#include "base/check.h"
#include "metrics/export.h"

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

// The series columns of one sample.
constexpr auto SampleColumns = [](const SamplePoint& p, auto& sink) {
  sink("ts_cycles", p.ts);
  sink("vm", p.vm_id);
  sink("guest_coverage", p.guest_coverage);
  sink("host_coverage", p.host_coverage);
  sink("guest_fmfi", p.guest_fmfi);
  sink("host_fmfi", p.host_fmfi);
  sink("booking_timeout_cycles", p.booking_timeout);
  sink("bookings_active", p.bookings_active);
  sink("bucket_held", p.bucket_held);
  sink("tlb_miss_rate", p.tlb_miss_rate);
  metrics::StaleHitColumn(p.snapshot, sink);
  metrics::SharingColumns(p.snapshot, sink);
  metrics::UtilityColumns(p.snapshot, sink);
  metrics::RepartitionColumns(p.snapshot, sink);
  metrics::LatencyColumns(p.snapshot, sink);
  metrics::TierColumns(p.snapshot, sink);
  for (int o = 0; o < kMaxOrder; ++o) {
    sink("guest_free_o" + std::to_string(o), p.guest_free[o]);
  }
  for (int o = 0; o < kMaxOrder; ++o) {
    sink("host_free_o" + std::to_string(o), p.host_free[o]);
  }
};

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
    p.snapshot = metrics::Snapshot(*machine_, id);
    p.tlb_miss_rate = metrics::TlbMissRate(p.snapshot);
    for (int o = 0; o < kMaxOrder; ++o) {
      p.guest_free[o] = vm.guest().buddy().FreeBlocksOfOrder(o);
      p.host_free[o] = host_buddy.FreeBlocksOfOrder(o);
    }
    samples_.push_back(p);
  }
}

std::string StackSampler::ToCsv() const {
  return metrics::RenderCsv(samples_, SampleColumns);
}

}  // namespace trace
