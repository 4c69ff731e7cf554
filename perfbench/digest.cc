#include "digest.h"

#include <cstring>
#include <string>

namespace perfbench {

namespace {

class Fnv {
 public:
  void U(uint64_t v) { h_ = (h_ ^ v) * 1099511628211ull; }
  void D(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U(bits);
  }
  void S(const std::string& s) {
    U(s.size());
    for (const char c : s) {
      U(static_cast<unsigned char>(c));
    }
  }
  template <typename Array>
  void A(const Array& values) {
    for (const auto v : values) {
      U(v);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

void Mix(Fnv& h, const metrics::StackSnapshot& c) {
  h.U(c.tlb_hits);
  h.U(c.tlb_misses);
  h.U(c.tlb_stale_hits);
  h.U(c.tlb_shootdowns);
  h.U(c.tlb_vm_invalidated);
  h.U(c.tlb_cross_vm_evictions);
  h.U(c.tlb_conflict_evictions_base);
  h.U(c.tlb_conflict_evictions_huge);
  h.U(c.tlb_capacity_evictions_base);
  h.U(c.tlb_capacity_evictions_huge);
  h.U(c.tlb_flushes);
  h.U(c.tlb_displaced_by_self);
  h.U(c.tlb_displaced_by_other);
  h.A(c.util_way_hits);
  h.U(c.util_shadow_misses);
  h.U(c.tlb_ways_assigned);
  h.U(c.tlb_repartitions);
  h.U(c.tlb_repartition_evictions);
  h.A(c.lat_hist);
  h.U(c.translation_cycles);
  h.U(c.guest_fault_cycles);
  h.U(c.guest_overhead_cycles);
  h.U(c.host_fault_cycles);
  h.U(c.host_overhead_cycles);
  h.U(c.guest_promotions);
  h.U(c.host_promotions);
  h.U(c.pages_copied);
  h.U(c.demotions);
  h.U(c.tier_demoted_pages);
  h.U(c.tier_refaults);
  h.U(c.tier_resident);
  h.U(c.bookings_started);
  h.U(c.bookings_expired);
  h.U(c.bucket_hits);
  h.A(c.walk.guest_mem);
  h.A(c.walk.guest_cached);
  h.A(c.walk.host_mem);
  h.A(c.walk.host_cached);
  h.A(c.walk.nested_hit);
  h.A(c.walk.nested_walk);
}

void Mix(Fnv& h, const workload::RunResult& r) {
  h.S(r.workload);
  h.U(r.ops);
  h.U(r.requests);
  h.U(r.busy_cycles);
  h.D(r.throughput);
  h.D(r.mean_latency);
  h.D(r.p99_latency);
  h.U(r.tlb_hits);
  h.U(r.tlb_misses);
  h.D(r.tlb_miss_rate);
  h.U(r.faulting_accesses);
  h.U(r.alignment.guest_huge);
  h.U(r.alignment.host_huge);
  h.U(r.alignment.aligned_pairs);
  h.D(r.alignment.well_aligned_rate);
  h.D(r.alignment.aligned_coverage);
  Mix(h, r.counters);
}

}  // namespace

uint64_t Digest(const workload::RunResult& r) {
  Fnv h;
  Mix(h, r);
  return h.value();
}

uint64_t Digest(const harness::CollocatedManyResult& r) {
  Fnv h;
  for (const workload::RunResult& vm : r.vms) {
    Mix(h, vm);
  }
  for (const metrics::VmInterferenceRow& row : r.interference.vms) {
    h.S(row.label);
    h.A(row.displaced_by);
    h.A(row.way_hits);
    h.U(row.shadow_misses);
    h.U(row.tlb_misses);
  }
  h.U(r.epochs);
  h.U(r.parallel_ops);
  h.U(r.serial_ops);
  h.D(r.final_host_fmfi);
  h.U(r.tier_resident_total);
  h.U(r.tier_peak_resident);
  h.U(r.reclaim_passes);
  h.U(r.reclaim_pages_demoted);
  return h.value();
}

}  // namespace perfbench
