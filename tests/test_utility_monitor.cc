// Tests for the TLB utility monitor (mmu/tlb_utility_monitor.h) and its
// rendering (metrics/interference_matrix.h):
//
//  * Unit tests of the shadow-tag sampler (the stack-depth histogram IS
//    the marginal-utility curve) and of displaced-record attribution,
//    including every record-invalidation path (reinsert, shootdown,
//    range shootdown, selective invalidation).
//  * A differential against a brute-force full-LRU reference: a real Tlb
//    with an attached monitor is driven by fuzzed lookup / insert /
//    shootdown / invalidate streams while the reference replays
//    the same stream with no packing or sampling cleverness; the utility
//    curves must match exactly.  Runs over shared and way-partitioned
//    arrangements and over sampling strides, and checks on the way that
//    the attribution matrix reconciles with the per-VM displaced_by
//    counters.
//  * Machine-level behavior in all three GEMINI_TLB_MODE arrangements:
//    private has no monitor and zero attribution (the historical fast
//    path), shared attributes the victim's misses to the aggressor, and
//    partitioned never blames the peer (windows confine evictions).
//  * Exact goldens for the rendered fig17/fig18 interference-matrix and
//    utility-curve tables.
#include "mmu/tlb_utility_monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "harness/systems.h"
#include "metrics/counters.h"
#include "metrics/interference_matrix.h"
#include "mmu/tlb.h"
#include "mmu/tlb_domain.h"
#include "os/machine.h"
#include "os/virtual_machine.h"

namespace {

using base::kHugeOrder;
using base::PageSize;
using mmu::TlbShareMode;
using mmu::TlbUtilityMonitor;
using osim::VirtualMachine;

TlbUtilityMonitor::Config SmallMonitor(uint32_t stride = 1) {
  TlbUtilityMonitor::Config mc;
  mc.sets = 4;
  mc.ways = 4;
  mc.sample_stride = stride;
  mc.displaced_slots = 64;
  return mc;
}

// --- Shadow-stack sampler unit tests ---------------------------------------

TEST(UtilityMonitor, ShadowStackBuildsUtilityCurve) {
  TlbUtilityMonitor mon(SmallMonitor());
  // Keys 0, 4, 8 all index set 0 (sets = 4).  Stream on VM 0:
  //   A B A C B A  ->  misses A B, hit A@1, miss C, hit B@2, hit A@2.
  const uint64_t A = 0, B = 4, C = 8;
  mon.OnInsert(A, PageSize::kBase, 0);
  mon.OnInsert(B, PageSize::kBase, 0);
  mon.OnAccess(A, PageSize::kBase, 0);
  mon.OnInsert(C, PageSize::kBase, 0);
  mon.OnAccess(B, PageSize::kBase, 0);
  mon.OnAccess(A, PageSize::kBase, 0);

  const TlbUtilityMonitor::VmUtility& u = mon.utility(0);
  ASSERT_EQ(u.way_hits.size(), 4u);
  EXPECT_EQ(u.way_hits[0], 0u);
  EXPECT_EQ(u.way_hits[1], 1u);
  EXPECT_EQ(u.way_hits[2], 2u);
  EXPECT_EQ(u.way_hits[3], 0u);
  EXPECT_EQ(u.shadow_misses, 3u);
  EXPECT_EQ(u.shadow_hits(), 3u);
  EXPECT_EQ(u.sampled_accesses(), 6u);

  // The export's curve readout: 90% of the three shadow hits needs all
  // three, so the smallest covering way count is 3; a snapshot without
  // shadow hits reads 0.
  metrics::StackSnapshot snapshot;
  std::copy(u.way_hits.begin(), u.way_hits.end(),
            snapshot.util_way_hits.begin());
  EXPECT_EQ(metrics::UtilMinWays90(snapshot), 3u);
  EXPECT_EQ(metrics::UtilMinWays90(metrics::StackSnapshot{}), 0u);
  // 19 of 20 hits at depth 0 already pass 90%: one way suffices.
  metrics::StackSnapshot skewed;
  skewed.util_way_hits[0] = 19;
  skewed.util_way_hits[1] = 1;
  EXPECT_EQ(metrics::UtilMinWays90(skewed), 1u);

  // A vmid never seen reads as all-zero, not UB.
  EXPECT_EQ(mon.utility(9).sampled_accesses(), 0u);
}

TEST(UtilityMonitor, StrideSkipsUnsampledSets) {
  TlbUtilityMonitor mon(SmallMonitor(/*stride=*/2));
  // Set 0 is sampled, set 1 is not (stride 2 over 4 sets).
  mon.OnInsert(0, PageSize::kBase, 0);  // set 0: counted
  mon.OnInsert(1, PageSize::kBase, 0);  // set 1: ignored
  mon.OnAccess(0, PageSize::kBase, 0);  // set 0: depth-0 hit
  mon.OnAccess(1, PageSize::kBase, 0);  // set 1: ignored
  const TlbUtilityMonitor::VmUtility& u = mon.utility(0);
  EXPECT_EQ(u.sampled_accesses(), 2u);
  EXPECT_EQ(u.way_hits[0], 1u);
  EXPECT_EQ(u.shadow_misses, 1u);
}

TEST(UtilityMonitor, BaseAndHugeKeysAreDistinctStackEntries) {
  TlbUtilityMonitor mon(SmallMonitor());
  // Same numeric key, different granularities: both live in the stack.
  mon.OnInsert(0, PageSize::kBase, 0);
  mon.OnInsert(0, PageSize::kHuge, 0);
  mon.OnAccess(0, PageSize::kBase, 0);  // must hit at depth 1, not 0
  const TlbUtilityMonitor::VmUtility& u = mon.utility(0);
  EXPECT_EQ(u.way_hits[0], 0u);
  EXPECT_EQ(u.way_hits[1], 1u);
  EXPECT_EQ(u.shadow_misses, 2u);
}

// --- Displaced-record attribution unit tests -------------------------------

TEST(UtilityMonitor, AttributesMissToRecordedEvictorOnce) {
  TlbUtilityMonitor mon(SmallMonitor());
  mon.OnEviction(/*key=*/3, PageSize::kBase, /*victim=*/0, /*evictor=*/1);
  EXPECT_EQ(mon.AttributeMiss(/*vpn=*/3, 0), 1);
  EXPECT_EQ(mon.displaced(0, 1), 1u);
  EXPECT_EQ(mon.displaced(0, 0), 0u);
  EXPECT_EQ(mon.displaced(1, 0), 0u);
  // The record is consumed: a second miss on the key is cold.
  EXPECT_EQ(mon.AttributeMiss(3, 0), -1);
  EXPECT_EQ(mon.displaced(0, 1), 1u);
}

TEST(UtilityMonitor, SelfDisplacementChargesTheVictimItself) {
  TlbUtilityMonitor mon(SmallMonitor());
  mon.OnEviction(7, PageSize::kBase, 0, 0);
  EXPECT_EQ(mon.AttributeMiss(7, 0), 0);
  EXPECT_EQ(mon.displaced(0, 0), 1u);
}

TEST(UtilityMonitor, HugeRecordMatchesAnyVpnOfTheRegion) {
  TlbUtilityMonitor mon(SmallMonitor());
  // The evicted entry was the huge entry of region 0; a miss on any page
  // of the region would have been served by it.
  mon.OnEviction(/*key=*/0, PageSize::kHuge, 0, 1);
  EXPECT_EQ(mon.AttributeMiss(/*vpn=*/5, 0), 1);
  EXPECT_EQ(mon.displaced(0, 1), 1u);
}

TEST(UtilityMonitor, RecordsAreScopedToTheVictimVm) {
  TlbUtilityMonitor mon(SmallMonitor());
  mon.OnEviction(3, PageSize::kBase, 0, 1);
  // VM 1 missing the same key finds nothing: the record names VM 0's entry.
  EXPECT_EQ(mon.AttributeMiss(3, 1), -1);
  EXPECT_EQ(mon.AttributeMiss(3, 0), 1);
}

TEST(UtilityMonitor, ReinsertClearsTheStaleRecord) {
  TlbUtilityMonitor mon(SmallMonitor());
  mon.OnEviction(9, PageSize::kBase, 0, 1);
  mon.OnInsert(9, PageSize::kBase, 0);  // mapping present again
  EXPECT_EQ(mon.AttributeMiss(9, 0), -1);
}

TEST(UtilityMonitor, ShootdownClearsRecordsAndShadowEntries) {
  TlbUtilityMonitor mon(SmallMonitor());
  mon.OnEviction(3, PageSize::kBase, 0, 1);
  mon.OnShootdown(3, 0);
  EXPECT_EQ(mon.AttributeMiss(3, 0), -1);

  // The shot-down key is also gone from the shadow stack: the next access
  // is a shadow miss again, not a depth-0 hit.
  mon.OnInsert(4, PageSize::kBase, 0);
  mon.OnAccess(4, PageSize::kBase, 0);
  mon.OnShootdown(4, 0);
  mon.OnAccess(4, PageSize::kBase, 0);
  const TlbUtilityMonitor::VmUtility& u = mon.utility(0);
  EXPECT_EQ(u.way_hits[0], 1u);
  EXPECT_EQ(u.shadow_misses, 2u);
}

TEST(UtilityMonitor, RangeShootdownClearsOnlyOverlappingRecords) {
  TlbUtilityMonitor mon(SmallMonitor());
  mon.OnEviction(3, PageSize::kBase, 0, 1);
  mon.OnShootdownRange(/*vpn=*/100, /*pages=*/8, 0);  // no overlap
  EXPECT_EQ(mon.AttributeMiss(3, 0), 1);
  mon.OnEviction(3, PageSize::kBase, 0, 1);
  mon.OnShootdownRange(/*vpn=*/0, /*pages=*/8, 0);  // covers key 3
  EXPECT_EQ(mon.AttributeMiss(3, 0), -1);
  // A huge record overlaps through its whole region, but an empty range
  // overlaps nothing.
  mon.OnEviction(/*key=*/1, PageSize::kHuge, 0, 1);
  mon.OnShootdownRange(base::kPagesPerHuge + 5, 0, 0);
  EXPECT_EQ(mon.AttributeMiss(base::kPagesPerHuge + 7, 0), 1);
  mon.OnEviction(/*key=*/1, PageSize::kHuge, 0, 1);
  mon.OnShootdownRange(base::kPagesPerHuge + 5, 1, 0);
  EXPECT_EQ(mon.AttributeMiss(base::kPagesPerHuge + 7, 0), -1);
}

TEST(UtilityMonitor, InvalidateVmClearsOnlyThatVmsRecords) {
  TlbUtilityMonitor mon(SmallMonitor());
  mon.OnEviction(3, PageSize::kBase, 0, 1);
  mon.OnEviction(4, PageSize::kBase, 1, 0);
  mon.OnInvalidateVm(0);
  EXPECT_EQ(mon.AttributeMiss(3, 0), -1);  // VM 0's record dropped
  EXPECT_EQ(mon.AttributeMiss(4, 1), 0);   // VM 1's record survives
}

// --- Differential vs brute-force full-LRU reference ------------------------

// The specification of the sampler, written with none of the monitor's
// packing/striding tricks: per-VM, per-sampled-set MRU vectors of
// (key, is_huge) pairs searched linearly.
class ShadowReference {
 public:
  ShadowReference(uint32_t sets, uint32_t ways, uint32_t stride)
      : sets_(sets), ways_(ways), stride_(stride) {}

  void Access(uint64_t key, PageSize size, uint16_t vmid) {
    const uint32_t set = static_cast<uint32_t>(key) & (sets_ - 1);
    if ((set & (stride_ - 1)) != 0) {
      return;
    }
    Vm& vm = Slot(vmid);
    std::vector<Entry>& stack = vm.stacks[set];
    const Entry e{key, size == PageSize::kHuge};
    for (size_t d = 0; d < stack.size(); ++d) {
      if (stack[d] == e) {
        ++vm.way_hits[d];
        stack.erase(stack.begin() + static_cast<ptrdiff_t>(d));
        stack.insert(stack.begin(), e);
        return;
      }
    }
    ++vm.shadow_misses;
    stack.insert(stack.begin(), e);
    if (stack.size() > ways_) {
      stack.pop_back();
    }
  }

  void Shootdown(uint64_t vpn, uint16_t vmid) {
    Vm& vm = Slot(vmid);
    Remove(vm, vpn, Entry{vpn, false});
    const uint64_t region = vpn >> kHugeOrder;
    Remove(vm, region, Entry{region, true});
  }

  void InvalidateVm(uint16_t vmid) { Slot(vmid).stacks.clear(); }

  void ExpectMatches(const TlbUtilityMonitor& mon, uint16_t vmid,
                     const std::string& context) {
    Vm& vm = Slot(vmid);
    const TlbUtilityMonitor::VmUtility& u = mon.utility(vmid);
    ASSERT_EQ(u.way_hits.size(), vm.way_hits.size());
    for (size_t d = 0; d < vm.way_hits.size(); ++d) {
      ASSERT_EQ(u.way_hits[d], vm.way_hits[d])
          << "vm " << vmid << " depth " << d << " " << context;
    }
    ASSERT_EQ(u.shadow_misses, vm.shadow_misses)
        << "vm " << vmid << " " << context;
  }

 private:
  using Entry = std::pair<uint64_t, bool>;  // (key, is_huge)
  struct Vm {
    std::map<uint32_t, std::vector<Entry>> stacks;
    std::vector<uint64_t> way_hits;
    uint64_t shadow_misses = 0;
  };

  Vm& Slot(uint16_t vmid) {
    Vm& vm = vms_[vmid];
    if (vm.way_hits.empty()) {
      vm.way_hits.assign(ways_, 0);
    }
    return vm;
  }
  void Remove(Vm& vm, uint64_t key, const Entry& e) {
    const uint32_t set = static_cast<uint32_t>(key) & (sets_ - 1);
    if ((set & (stride_ - 1)) != 0) {
      return;
    }
    std::vector<Entry>& stack = vm.stacks[set];
    stack.erase(std::remove(stack.begin(), stack.end(), e), stack.end());
  }

  uint32_t sets_;
  uint32_t ways_;
  uint32_t stride_;
  std::map<uint16_t, Vm> vms_;
};

struct DifferentialParam {
  bool partitioned;
  uint32_t stride;
  uint64_t seed;
};

class UtilityMonitorDifferentialTest
    : public ::testing::TestWithParam<DifferentialParam> {};

// Drives a real Tlb + monitor with a fuzzed stream of every operation that
// reaches the monitor's hooks, mirrored into the brute-force reference.
// The utility curves must match exactly at every checkpoint, and the
// attribution matrix must reconcile with the Tlb's displaced_by counters.
TEST_P(UtilityMonitorDifferentialTest, MatchesBruteForceFullLruReference) {
  const DifferentialParam param = GetParam();
  mmu::TlbConfig tc;
  tc.sets = 16;
  tc.ways = 4;
  mmu::Tlb tlb(tc);
  TlbUtilityMonitor::Config mc;
  mc.sets = tc.sets;
  mc.ways = tc.ways;
  mc.sample_stride = param.stride;
  mc.displaced_slots = 256;
  TlbUtilityMonitor mon(mc);
  tlb.AttachUtilityMonitor(&mon);
  for (uint16_t vmid = 0; vmid < 2; ++vmid) {
    tlb.RegisterVm(vmid);
    mon.RegisterVm(vmid);
  }
  if (param.partitioned) {
    tlb.SetVmWays(0, 0, 2);
    tlb.SetVmWays(1, 2, 2);
  }
  ShadowReference ref(tc.sets, tc.ways, param.stride);

  base::Rng rng(param.seed);
  const uint64_t vpn_space = 4 * base::kPagesPerHuge;
  std::string last_op;
  for (int i = 0; i < 4000; ++i) {
    const uint16_t vmid = static_cast<uint16_t>(rng.NextBelow(2));
    // Half the keys come from a hot window four times the array's size,
    // and whole-VM invalidations are rare, so the array fills,
    // evicted translations come back and displaced records get consumed.
    const uint64_t vpn =
        rng.NextBelow(rng.NextBool(0.5) ? 4 * tc.sets * tc.ways : vpn_space);
    const double r = rng.NextDouble();
    last_op = "iter " + std::to_string(i) + " r=" + std::to_string(r) +
              " vmid=" + std::to_string(vmid) + " vpn=" + std::to_string(vpn);
    if (r < 0.55) {
      // The engine's pattern: probe, fill on miss.
      const mmu::Tlb::LookupResult result = tlb.Lookup(vpn, vmid);
      if (result.hit) {
        const uint64_t key =
            result.size == PageSize::kHuge ? vpn >> kHugeOrder : vpn;
        ref.Access(key, result.size, vmid);
      } else {
        const PageSize size =
            rng.NextBool(0.2) ? PageSize::kHuge : PageSize::kBase;
        tlb.Insert(vpn, size, vpn + 1, mmu::Tlb::Stamp{}, vmid);
        const uint64_t key =
            size == PageSize::kHuge ? vpn >> kHugeOrder : vpn;
        ref.Access(key, size, vmid);
      }
    } else if (r < 0.75) {
      // Direct insert (update-in-place or fill): OnInsert fires exactly
      // once with the key either way.
      const PageSize size =
          rng.NextBool(0.2) ? PageSize::kHuge : PageSize::kBase;
      tlb.Insert(vpn, size, vpn + 1, mmu::Tlb::Stamp{}, vmid);
      const uint64_t key = size == PageSize::kHuge ? vpn >> kHugeOrder : vpn;
      ref.Access(key, size, vmid);
    } else if (r < 0.85) {
      tlb.ShootdownPage(vpn, vmid);
      ref.Shootdown(vpn, vmid);
    } else if (r < 0.90) {
      // A range is one pass over the array and one OnShootdownRange; the
      // reference shoots it down page by page.  One range in four is the
      // whole region around `vpn`, as the kernels issue; the rest are a
      // few pages.
      const bool region = rng.NextBool(0.25);
      const uint64_t lo = region ? vpn & ~(base::kPagesPerHuge - 1) : vpn;
      const uint64_t pages = region ? base::kPagesPerHuge : 4;
      tlb.ShootdownRange(lo, pages, vmid);
      for (uint64_t p = 0; p < pages; ++p) {
        ref.Shootdown(lo + p, vmid);
      }
    } else if (r < 0.995) {
      // Probe without filling: a hit still samples, a miss stays cold (or
      // consumes a displaced record).
      const mmu::Tlb::LookupResult result = tlb.Lookup(vpn, vmid);
      if (result.hit) {
        const uint64_t key =
            result.size == PageSize::kHuge ? vpn >> kHugeOrder : vpn;
        ref.Access(key, result.size, vmid);
      }
    } else {
      tlb.InvalidateVm(vmid);
      ref.InvalidateVm(vmid);
    }

    {
      for (uint16_t v = 0; v < 2; ++v) {
        ref.ExpectMatches(mon, v, last_op);
        // Attribution reconciliation: every matrix increment bumped
        // exactly one displaced_by counter, and attribution never
        // exceeds counted misses.
        const mmu::Tlb::VmTlbCounters& c = tlb.vm_counters(v);
        ASSERT_EQ(mon.displaced(v, v), c.displaced_by_self) << "vm " << v;
        ASSERT_EQ(mon.displaced(v, static_cast<uint16_t>(1 - v)),
                  c.displaced_by_other)
            << "vm " << v;
        ASSERT_LE(c.displaced_by_self + c.displaced_by_other, c.misses)
            << "vm " << v;
        if (param.partitioned) {
          // Way windows make cross-VM eviction impossible, so nothing
          // can ever be blamed on the peer.
          ASSERT_EQ(c.displaced_by_other, 0u) << "vm " << v;
        }
      }
    }
  }
  // The stream genuinely exercised both layers.
  EXPECT_GT(mon.utility(0).sampled_accesses(), 0u);
  EXPECT_GT(mon.utility(1).sampled_accesses(), 0u);
  if (!param.partitioned) {
    EXPECT_GT(tlb.vm_counters(0).displaced_by_other +
                  tlb.vm_counters(1).displaced_by_other,
              0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arrangements, UtilityMonitorDifferentialTest,
    ::testing::Values(DifferentialParam{false, 1, 11},
                      DifferentialParam{false, 4, 12},
                      DifferentialParam{true, 1, 13},
                      DifferentialParam{true, 4, 14}));

// --- Machine-level behavior across the three sharing modes -----------------

// Victim loops a TLB-fitting set while an aggressor streams; same shape as
// the tlb_domain interference tests, sized down for speed.
void DriveVictimAggressor(osim::Machine& machine, uint64_t steps) {
  VirtualMachine& victim = machine.vm(0);
  VirtualMachine& aggressor = machine.vm(1);
  const uint64_t victim_pages = 512;
  const uint64_t victim_base =
      victim.guest().aspace().MapAnonymous(victim_pages).start_page;
  const uint64_t agg_base =
      aggressor.guest().aspace().MapAnonymous(8192).start_page;
  for (uint64_t i = 0; i < steps; ++i) {
    machine.Access(0, victim_base + (i % victim_pages), 50);
    for (uint64_t k = 0; k < 8; ++k) {
      machine.Access(1, agg_base + ((i * 8 + k) % 8192), 50);
    }
  }
}

osim::MachineConfig TwoVmConfig(TlbShareMode mode) {
  osim::MachineConfig config;
  config.host_frames = 65536;
  config.daemon_period = 20000;
  config.seed = 7;
  config.tlb_mode = mode;
  return config;
}

TEST(UtilityMonitorMachine, PrivateModeHasNoMonitorAndZeroAttribution) {
  osim::Machine machine(TwoVmConfig(TlbShareMode::kPrivate));
  harness::AddSystemVm(machine, harness::SystemKind::kHostBVmB, 16384);
  harness::AddSystemVm(machine, harness::SystemKind::kHostBVmB, 16384);
  DriveVictimAggressor(machine, 2000);
  EXPECT_EQ(machine.tlb_domain().utility_monitor(), nullptr);
  for (int32_t id = 0; id < 2; ++id) {
    const mmu::TlbView& tlb = machine.vm(id).engine().tlb();
    EXPECT_EQ(tlb.displaced_by_self(), 0u) << "vm " << id;
    EXPECT_EQ(tlb.displaced_by_other(), 0u) << "vm " << id;
  }
  // Private arrays render nothing: the historical stdout stays clean.
  const metrics::InterferenceReport report = metrics::BuildInterferenceReport(
      machine.tlb_domain(), {{0, "vm0"}, {1, "vm1"}});
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(metrics::RenderInterferenceMatrix("t", {{"cell", &report}}), "");
  EXPECT_EQ(metrics::RenderUtilityCurves("t", {{"cell", &report}}), "");
}

TEST(UtilityMonitorMachine, SharedModeAttributesCrossVmDisplacement) {
  osim::Machine machine(TwoVmConfig(TlbShareMode::kShared));
  harness::AddSystemVm(machine, harness::SystemKind::kHostBVmB, 16384);
  harness::AddSystemVm(machine, harness::SystemKind::kHostBVmB, 16384);
  DriveVictimAggressor(machine, 4000);
  const TlbUtilityMonitor* mon = machine.tlb_domain().utility_monitor();
  ASSERT_NE(mon, nullptr);

  const mmu::TlbView& v0 = machine.vm(0).engine().tlb();
  const mmu::TlbView& v1 = machine.vm(1).engine().tlb();
  // The aggressor's stream displaces the victim's fitting working set, and
  // the displaced-record layer proves it per miss.
  EXPECT_GT(v0.displaced_by_other(), 0u);
  // Attribution is a lower bound on misses for both VMs.
  EXPECT_LE(v0.displaced_by_self() + v0.displaced_by_other(), v0.misses());
  EXPECT_LE(v1.displaced_by_self() + v1.displaced_by_other(), v1.misses());
  // The matrix and the per-VM counters are two views of the same events.
  EXPECT_EQ(mon->displaced(0, 0), v0.displaced_by_self());
  EXPECT_EQ(mon->displaced(0, 1), v0.displaced_by_other());
  EXPECT_EQ(mon->displaced(1, 1), v1.displaced_by_self());
  EXPECT_EQ(mon->displaced(1, 0), v1.displaced_by_other());
  // The sampler saw the stream.
  EXPECT_GT(mon->utility(0).sampled_accesses(), 0u);
  EXPECT_GT(mon->utility(1).sampled_accesses(), 0u);

  // The harness-facing report carries the same numbers.
  const metrics::InterferenceReport report = metrics::BuildInterferenceReport(
      machine.tlb_domain(), {{0, "vm0"}, {1, "vm1"}});
  ASSERT_EQ(report.vms.size(), 2u);
  EXPECT_EQ(report.vms[0].displaced_by,
            (std::vector<uint64_t>{mon->displaced(0, 0), mon->displaced(0, 1)}));
  EXPECT_EQ(report.vms[0].tlb_misses, v0.misses());
  EXPECT_EQ(report.vms[0].way_hits, mon->utility(0).way_hits);
  const std::string rendered =
      metrics::RenderInterferenceMatrix("m", {{"cell", &report}});
  EXPECT_NE(rendered.find("vm0"), std::string::npos);
  EXPECT_NE(rendered.find("by vm1"), std::string::npos);
}

TEST(UtilityMonitorMachine, PartitionedModeNeverBlamesThePeer) {
  osim::Machine machine(TwoVmConfig(TlbShareMode::kPartitioned));
  harness::AddSystemVm(machine, harness::SystemKind::kHostBVmB, 16384);
  harness::AddSystemVm(machine, harness::SystemKind::kHostBVmB, 16384);
  DriveVictimAggressor(machine, 4000);
  const TlbUtilityMonitor* mon = machine.tlb_domain().utility_monitor();
  ASSERT_NE(mon, nullptr);
  for (int32_t id = 0; id < 2; ++id) {
    const mmu::TlbView& tlb = machine.vm(id).engine().tlb();
    EXPECT_EQ(tlb.displaced_by_other(), 0u) << "vm " << id;
    EXPECT_EQ(mon->displaced(static_cast<uint16_t>(id),
                             static_cast<uint16_t>(1 - id)),
              0u)
        << "vm " << id;
  }
  // Windows confine but do not eliminate pressure: the streaming
  // aggressor displaces itself inside its own window.
  EXPECT_GT(machine.vm(1).engine().tlb().displaced_by_self(), 0u);
}

// --- Rendered-table goldens ------------------------------------------------

metrics::InterferenceReport GoldenReport() {
  metrics::InterferenceReport report;
  metrics::VmInterferenceRow vm0;
  vm0.label = "vm0";
  vm0.displaced_by = {3, 40};
  vm0.way_hits = {8, 4, 2, 1};
  vm0.shadow_misses = 5;
  vm0.tlb_misses = 50;
  metrics::VmInterferenceRow vm1;
  vm1.label = "vm1";
  vm1.displaced_by = {10, 0};
  vm1.way_hits = {10, 0, 0, 0};
  vm1.shadow_misses = 10;
  vm1.tlb_misses = 25;
  report.vms.push_back(std::move(vm0));
  report.vms.push_back(std::move(vm1));
  return report;
}

TEST(InterferenceGolden, MatrixTableRendersExactly) {
  const metrics::InterferenceReport report = GoldenReport();
  const std::string rendered = metrics::RenderInterferenceMatrix(
      "fig17 interference golden", {{"A+B", &report}});
  const std::string expected =
      "\n== fig17 interference golden ==\n"
      "pair  victim  by vm0  by vm1  unattrib  misses\n"
      "----------------------------------------------\n"
      "A+B   vm0     3       40      7         50    \n"
      "A+B   vm1     10      0       15        25    \n";
  EXPECT_EQ(rendered, expected);
}

// Past `dense_vm_limit` VMs the matrix switches to the sparse triplet
// render: per victim, only the top-k evictors as "vmE:count", descending
// count with ties to the lower evictor id, "-" when nothing is attributed.
// The same report stays dense under the default limit, so every existing
// small-sweep artifact is unchanged.
TEST(InterferenceGolden, SparseTripletRenderPastDenseVmLimit) {
  metrics::InterferenceReport report;
  metrics::VmInterferenceRow vm0;
  vm0.label = "vm0";
  vm0.displaced_by = {4, 9, 9};  // tie: vm1 before vm2, vm0 truncated
  vm0.tlb_misses = 30;
  metrics::VmInterferenceRow vm1;
  vm1.label = "vm1";
  vm1.displaced_by = {0, 0, 0};  // nothing attributed
  vm1.tlb_misses = 5;
  metrics::VmInterferenceRow vm2;
  vm2.label = "vm2";
  vm2.displaced_by = {1, 2, 3};
  vm2.tlb_misses = 6;
  report.vms.push_back(std::move(vm0));
  report.vms.push_back(std::move(vm1));
  report.vms.push_back(std::move(vm2));

  // Default limit (64): three VMs render the dense per-evictor columns.
  const std::string dense =
      metrics::RenderInterferenceMatrix("rack golden", {{"rack", &report}});
  EXPECT_NE(dense.find("by vm2"), std::string::npos);
  EXPECT_EQ(dense.find("top evictors"), std::string::npos);

  const std::string sparse = metrics::RenderInterferenceMatrix(
      "rack golden", {{"rack", &report}}, /*dense_vm_limit=*/2, /*top_k=*/2);
  const std::string expected =
      "\n== rack golden ==\n"
      "pair  victim  top evictors  unattrib  misses\n"
      "--------------------------------------------\n"
      "rack  vm0     vm1:9 vm2:9   8         30    \n"
      "rack  vm1     -             5         5     \n"
      "rack  vm2     vm2:3 vm1:2   0         6     \n";
  EXPECT_EQ(sparse, expected);
}

TEST(InterferenceGolden, UtilityCurveTableRendersExactly) {
  const metrics::InterferenceReport report = GoldenReport();
  const std::string rendered = metrics::RenderUtilityCurves(
      "fig17 utility golden", {{"A+B", &report}});
  const std::string expected =
      "\n== fig17 utility golden ==\n"
      "pair  vm   sampled  miss%  w<=1  w<=2  w<=3  w<=4\n"
      "-------------------------------------------------\n"
      "A+B   vm0  20       25%    40%   60%   70%   75% \n"
      "A+B   vm1  20       50%    50%   50%   50%   50% \n";
  EXPECT_EQ(rendered, expected);
}

}  // namespace
