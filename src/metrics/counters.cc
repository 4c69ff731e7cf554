#include "metrics/counters.h"

namespace metrics {

StackSnapshot StackSnapshot::Delta(const StackSnapshot& earlier) const {
  StackSnapshot d;
  ForEachField(
      [](FieldKind kind, uint64_t& out, uint64_t later, uint64_t before) {
        out = kind == FieldKind::kLevel ? later : later - before;
      },
      d, *this, earlier);
  return d;
}

double TlbMissRate(const StackSnapshot& s) {
  const uint64_t lookups = s.tlb_hits + s.tlb_misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(s.tlb_misses) /
                            static_cast<double>(lookups);
}

uint64_t UtilShadowHits(const StackSnapshot& s) {
  uint64_t total = 0;
  for (const uint64_t h : s.util_way_hits) {
    total += h;
  }
  return total;
}

uint32_t UtilMinWays90(const StackSnapshot& s) {
  const uint64_t total = UtilShadowHits(s);
  if (total == 0) {
    return 0;
  }
  const double want = 0.9 * static_cast<double>(total);
  uint64_t cum = 0;
  for (size_t d = 0; d < s.util_way_hits.size(); ++d) {
    cum += s.util_way_hits[d];
    if (static_cast<double>(cum) >= want) {
      return static_cast<uint32_t>(d + 1);
    }
  }
  return static_cast<uint32_t>(s.util_way_hits.size());
}

StackSnapshot Snapshot(osim::Machine& machine, int32_t vm_id) {
  StackSnapshot s;
  osim::VirtualMachine& vm = machine.vm(vm_id);
  s.tlb_hits = vm.engine().tlb().hits();
  s.tlb_misses = vm.engine().tlb().misses();
  s.tlb_stale_hits = vm.engine().tlb().stale_hits();
  s.tlb_shootdowns = vm.engine().tlb().shootdowns();
  const mmu::TlbView& tlb = vm.engine().tlb();
  s.tlb_vm_invalidated = tlb.vm_invalidated();
  s.tlb_cross_vm_evictions = tlb.cross_vm_evictions();
  s.tlb_conflict_evictions_base = tlb.conflict_evictions_base();
  s.tlb_conflict_evictions_huge = tlb.conflict_evictions_huge();
  s.tlb_capacity_evictions_base = tlb.capacity_evictions_base();
  s.tlb_capacity_evictions_huge = tlb.capacity_evictions_huge();
  s.tlb_displaced_by_self = tlb.displaced_by_self();
  s.tlb_displaced_by_other = tlb.displaced_by_other();
  if (const mmu::TlbUtilityMonitor* mon =
          machine.tlb_domain().utility_monitor()) {
    const mmu::TlbUtilityMonitor::VmUtility& u =
        mon->utility(static_cast<uint16_t>(vm_id));
    for (size_t d = 0; d < u.way_hits.size(); ++d) {
      // Fold ways beyond the snapshot array into its last slot.
      const size_t slot = d < s.util_way_hits.size()
                              ? d
                              : s.util_way_hits.size() - 1;
      s.util_way_hits[slot] += u.way_hits[d];
    }
    s.util_shadow_misses = u.shadow_misses;
  }
  s.tlb_ways_assigned = tlb.ways_assigned();
  s.lat_hist = vm.engine().latency_histogram().buckets();
  s.translation_cycles = vm.engine().translation_cycles();
  const osim::KernelStats& g = vm.guest().stats();
  s.guest_fault_cycles = g.fault_cycles;
  s.guest_overhead_cycles = g.overhead_cycles;
  s.guest_promotions = g.promotions_in_place + g.promotions_migrated;
  const osim::KernelStats& h = vm.host_slice().stats();
  s.host_fault_cycles = h.fault_cycles;
  s.host_overhead_cycles = h.overhead_cycles;
  s.host_promotions = h.promotions_in_place + h.promotions_migrated;
  s.pages_copied = g.pages_copied + h.pages_copied;
  s.demotions = g.demotions + h.demotions;
  if (const vmem::TierSpace* tier = machine.host_tier()) {
    const vmem::TierStats tier_stats = tier->stats(vm_id);
    s.tier_demoted_pages = tier_stats.demoted_pages;
    s.tier_refaults = tier_stats.refaults;
    s.tier_resident = tier->resident(vm_id);
  }
  const policy::PolicyTelemetry gt = vm.guest().policy().Telemetry();
  const policy::PolicyTelemetry ht = vm.host_slice().policy().Telemetry();
  s.bookings_started = gt.bookings_started + ht.bookings_started;
  s.bookings_expired = gt.bookings_expired + ht.bookings_expired;
  s.bucket_hits = gt.bucket_hits + ht.bucket_hits;
  s.walk = vm.engine().walk_stats();
  return s;
}

}  // namespace metrics
