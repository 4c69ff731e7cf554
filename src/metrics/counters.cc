#include "metrics/counters.h"

namespace metrics {

StackSnapshot StackSnapshot::Delta(const StackSnapshot& earlier) const {
  StackSnapshot d;
  d.tlb_hits = tlb_hits - earlier.tlb_hits;
  d.tlb_misses = tlb_misses - earlier.tlb_misses;
  d.tlb_stale_hits = tlb_stale_hits - earlier.tlb_stale_hits;
  d.tlb_shootdowns = tlb_shootdowns - earlier.tlb_shootdowns;
  d.tlb_vm_invalidated = tlb_vm_invalidated - earlier.tlb_vm_invalidated;
  d.tlb_cross_vm_evictions =
      tlb_cross_vm_evictions - earlier.tlb_cross_vm_evictions;
  d.tlb_conflict_evictions_base =
      tlb_conflict_evictions_base - earlier.tlb_conflict_evictions_base;
  d.tlb_conflict_evictions_huge =
      tlb_conflict_evictions_huge - earlier.tlb_conflict_evictions_huge;
  d.tlb_capacity_evictions_base =
      tlb_capacity_evictions_base - earlier.tlb_capacity_evictions_base;
  d.tlb_capacity_evictions_huge =
      tlb_capacity_evictions_huge - earlier.tlb_capacity_evictions_huge;
  d.tlb_flushes = tlb_flushes - earlier.tlb_flushes;
  d.tlb_displaced_by_self =
      tlb_displaced_by_self - earlier.tlb_displaced_by_self;
  d.tlb_displaced_by_other =
      tlb_displaced_by_other - earlier.tlb_displaced_by_other;
  for (size_t i = 0; i < util_way_hits.size(); ++i) {
    d.util_way_hits[i] = util_way_hits[i] - earlier.util_way_hits[i];
  }
  d.util_shadow_misses = util_shadow_misses - earlier.util_shadow_misses;
  // A level, not a counter: the delta reports the allocation in force at
  // the later snapshot (differencing window sizes would be meaningless).
  d.tlb_ways_assigned = tlb_ways_assigned;
  d.tlb_repartitions = tlb_repartitions - earlier.tlb_repartitions;
  d.tlb_repartition_evictions =
      tlb_repartition_evictions - earlier.tlb_repartition_evictions;
  for (size_t i = 0; i < lat_hist.size(); ++i) {
    d.lat_hist[i] = lat_hist[i] - earlier.lat_hist[i];
  }
  d.translation_cycles = translation_cycles - earlier.translation_cycles;
  d.guest_fault_cycles = guest_fault_cycles - earlier.guest_fault_cycles;
  d.guest_overhead_cycles =
      guest_overhead_cycles - earlier.guest_overhead_cycles;
  d.host_fault_cycles = host_fault_cycles - earlier.host_fault_cycles;
  d.host_overhead_cycles = host_overhead_cycles - earlier.host_overhead_cycles;
  d.guest_promotions = guest_promotions - earlier.guest_promotions;
  d.host_promotions = host_promotions - earlier.host_promotions;
  d.pages_copied = pages_copied - earlier.pages_copied;
  d.demotions = demotions - earlier.demotions;
  d.tier_demoted_pages = tier_demoted_pages - earlier.tier_demoted_pages;
  d.tier_refaults = tier_refaults - earlier.tier_refaults;
  // A level, not a counter (see counters.h): report the later residency.
  d.tier_resident = tier_resident;
  d.bookings_started = bookings_started - earlier.bookings_started;
  d.bookings_expired = bookings_expired - earlier.bookings_expired;
  d.bucket_hits = bucket_hits - earlier.bucket_hits;
  for (size_t l = 0; l < d.walk.guest_mem.size(); ++l) {
    d.walk.guest_mem[l] = walk.guest_mem[l] - earlier.walk.guest_mem[l];
    d.walk.guest_cached[l] =
        walk.guest_cached[l] - earlier.walk.guest_cached[l];
    d.walk.host_mem[l] = walk.host_mem[l] - earlier.walk.host_mem[l];
    d.walk.host_cached[l] = walk.host_cached[l] - earlier.walk.host_cached[l];
    d.walk.nested_hit[l] = walk.nested_hit[l] - earlier.walk.nested_hit[l];
    d.walk.nested_walk[l] = walk.nested_walk[l] - earlier.walk.nested_walk[l];
  }
  d.walk.memo_hits = walk.memo_hits - earlier.walk.memo_hits;
  d.walk.memo_upper_hits =
      walk.memo_upper_hits - earlier.walk.memo_upper_hits;
  return d;
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
  s.tlb_flushes = tlb.flushes();
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
  s.tlb_repartitions = machine.tlb_domain().repartition_count();
  s.tlb_repartition_evictions = tlb.repartition_evictions();
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
