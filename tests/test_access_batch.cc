// Differential property test for the span API: Machine::AccessBatch is a
// plain loop over scalar Machine::Access, so how an access stream is split
// into spans must be unobservable.  We drive byte-identical machines
// through the same access plan — one scalar, one through AccessBatch at
// each span size in {1, 7, 64, 4096} — and require every observable to
// match exactly:
//
//  * the AccessResult stream (cycles, tlb_hit, well_aligned, faults),
//  * TLB counters including stale hits and shootdowns, LRU state
//    (witnessed indirectly through hit/miss equality under later reuse),
//  * translation counters and charged cycles,
//  * logical time, so daemon schedules never skew, and
//  * final page-table state at both layers (digested structurally).
//
// The plan interleaves access bursts with think time, and the daemon
// period is chosen so promotions, demotions, and reclaim fire in the
// middle of large spans — the hard case the contract must survive.  One
// configuration also runs the watermark reclaim daemon, a registered
// PeriodicTask on its own period, so the machine's cached next-event time
// is exercised with tasks pending.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "harness/systems.h"
#include "mmu/page_table.h"
#include "os/machine.h"
#include "os/reclaim_daemon.h"
#include "os/virtual_machine.h"

namespace {

using base::kPagesPerHuge;
using osim::VirtualMachine;

// One scripted run: VMA layout, then segments of accesses separated by
// think time.  Everything is derived from `seed` so the scalar and span
// drivers replay the identical plan.
struct Plan {
  struct Segment {
    std::vector<uint64_t> vpns;
    base::Cycles advance_after = 0;
  };
  std::vector<Segment> segments;
};

Plan BuildPlan(uint64_t seed) {
  base::Rng rng(seed);
  Plan plan;
  // ~6000 accesses across segments of irregular length, so every span
  // size under test splits the stream at different points.
  for (int s = 0; s < 12; ++s) {
    Plan::Segment seg;
    const uint64_t len = 100 + rng.NextBelow(800);
    for (uint64_t i = 0; i < len; ++i) {
      seg.vpns.push_back(rng.NextBelow(6 * kPagesPerHuge));
    }
    if (rng.NextBool(0.5)) {
      seg.advance_after = 1000 * (1 + rng.NextBelow(50));
    }
    plan.segments.push_back(std::move(seg));
  }
  return plan;
}

// Everything we compare between drivers.
struct Observation {
  std::vector<VirtualMachine::AccessResult> results;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t tlb_stale = 0;
  uint64_t tlb_shootdowns = 0;
  uint64_t translations = 0;
  base::Cycles translation_cycles = 0;
  base::Cycles now = 0;
  uint64_t reclaim_ticks = 0;
  uint64_t reclaim_pages_demoted = 0;
  uint64_t guest_digest = 0;
  uint64_t host_digest = 0;
};

uint64_t DigestTable(const mmu::PageTable& table) {
  // Structural digest: every huge leaf and every present base page, with
  // region generations (so a promotion that lands in one driver but not
  // the other cannot cancel out in the frame sum).
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  table.ForEachHuge([&](uint64_t region, uint64_t frame) {
    mix(region * 2 + 1);
    mix(frame);
    mix(table.generation(region));
  });
  table.ForEachBaseRegion([&](uint64_t region, uint32_t) {
    mix(region * 2);
    mix(table.generation(region));
    table.ForEachBasePage(region, [&](uint32_t slot, uint64_t frame) {
      mix(slot);
      mix(frame);
    });
  });
  return h;
}

// One machine configuration under test: the system stack, and whether the
// watermark reclaim daemon runs as a PeriodicTask.
struct MachineSetup {
  harness::SystemKind kind;
  bool reclaim = false;
};

// Replays `plan`, scalar when batch == 0, else via AccessBatch in
// `batch`-sized spans.  The machine is built identically for every
// driver: one VM under `setup.kind`, fragmented memory at both layers, a
// daemon period short enough that promotion/demotion/reclaim work fires
// mid-span at size 4096 (~400 accesses apart at 50 work cycles per
// access).  With `setup.reclaim`, the host is overcommitted and the
// reclaim daemon ticks on a period of its own, interleaved with the
// promotion daemons.
Observation Drive(const MachineSetup& setup, uint64_t seed, const Plan& plan,
                  uint64_t batch) {
  osim::MachineConfig config;
  config.host_frames = 16384;
  config.daemon_period = 20000;
  config.seed = seed;
  if (setup.reclaim) {
    // The plan touches ~2600 distinct pages: more than this host holds, so
    // reclaim demotes pages to the far tier and later accesses refault.
    config.host_frames = 2048;
    config.reclaim.enabled = true;
    config.reclaim.interval = 30000;
  }
  osim::Machine machine(config);
  VirtualMachine& vm = harness::AddSystemVm(machine, setup.kind, 8192);
  machine.FragmentGuestMemory(0, 0.6);
  machine.FragmentHostMemory(0.6);
  // Plan vpns are offsets into this VMA.
  const uint64_t base_vpn =
      vm.guest().aspace().MapAnonymous(6 * kPagesPerHuge).start_page;

  Observation obs;
  std::vector<uint64_t> vpns;
  std::vector<VirtualMachine::AccessResult> out;
  for (const Plan::Segment& seg : plan.segments) {
    vpns.clear();
    for (const uint64_t off : seg.vpns) {
      vpns.push_back(base_vpn + off);
    }
    if (batch == 0) {
      for (const uint64_t vpn : vpns) {
        obs.results.push_back(machine.Access(0, vpn, 50));
      }
    } else {
      for (size_t i = 0; i < vpns.size(); i += batch) {
        const size_t n = std::min<size_t>(batch, vpns.size() - i);
        machine.AccessBatch(0, std::span(vpns.data() + i, n), 50, &out);
        obs.results.insert(obs.results.end(), out.begin(), out.end());
      }
    }
    if (seg.advance_after != 0) {
      machine.AdvanceTime(seg.advance_after);
    }
  }

  const mmu::TlbView& tlb = vm.engine().tlb();
  obs.tlb_hits = tlb.hits();
  obs.tlb_misses = tlb.misses();
  obs.tlb_stale = tlb.stale_hits();
  obs.tlb_shootdowns = tlb.shootdowns();
  obs.translations = vm.engine().translations();
  obs.translation_cycles = vm.engine().translation_cycles();
  obs.now = machine.Now();
  if (const osim::ReclaimDaemon* daemon = machine.reclaim_daemon()) {
    obs.reclaim_ticks = daemon->stats().ticks;
    obs.reclaim_pages_demoted = daemon->stats().pages_demoted;
  }
  obs.guest_digest = DigestTable(vm.guest().table());
  obs.host_digest = DigestTable(vm.host_slice().table());
  return obs;
}

void ExpectSameObservation(const Observation& scalar, const Observation& b,
                           uint64_t batch) {
  ASSERT_EQ(scalar.results.size(), b.results.size()) << "batch " << batch;
  for (size_t i = 0; i < scalar.results.size(); ++i) {
    const auto& s = scalar.results[i];
    const auto& r = b.results[i];
    ASSERT_EQ(s.cycles, r.cycles) << "batch " << batch << " access " << i;
    ASSERT_EQ(s.tlb_hit, r.tlb_hit) << "batch " << batch << " access " << i;
    ASSERT_EQ(s.well_aligned, r.well_aligned)
        << "batch " << batch << " access " << i;
    ASSERT_EQ(s.faults_taken, r.faults_taken)
        << "batch " << batch << " access " << i;
  }
  EXPECT_EQ(scalar.tlb_hits, b.tlb_hits) << "batch " << batch;
  EXPECT_EQ(scalar.tlb_misses, b.tlb_misses) << "batch " << batch;
  EXPECT_EQ(scalar.tlb_stale, b.tlb_stale) << "batch " << batch;
  EXPECT_EQ(scalar.tlb_shootdowns, b.tlb_shootdowns) << "batch " << batch;
  EXPECT_EQ(scalar.translations, b.translations) << "batch " << batch;
  EXPECT_EQ(scalar.translation_cycles, b.translation_cycles)
      << "batch " << batch;
  EXPECT_EQ(scalar.now, b.now) << "batch " << batch;
  EXPECT_EQ(scalar.reclaim_ticks, b.reclaim_ticks) << "batch " << batch;
  EXPECT_EQ(scalar.reclaim_pages_demoted, b.reclaim_pages_demoted)
      << "batch " << batch;
  EXPECT_EQ(scalar.guest_digest, b.guest_digest) << "batch " << batch;
  EXPECT_EQ(scalar.host_digest, b.host_digest) << "batch " << batch;
}

class AccessBatchDifferentialTest
    : public ::testing::TestWithParam<MachineSetup> {};

TEST_P(AccessBatchDifferentialTest, BatchSizeIsUnobservable) {
  const MachineSetup& setup = GetParam();
  const uint64_t seed = 20230425;
  const Plan plan = BuildPlan(seed);
  const Observation scalar = Drive(setup, seed, plan, 0);
  // The plan must actually exercise the interesting machinery, or the
  // equivalence claim is vacuous.
  uint64_t faults = 0;
  for (const auto& r : scalar.results) {
    faults += r.faults_taken;
  }
  ASSERT_GT(faults, 0u);
  ASSERT_GT(scalar.tlb_hits, 0u);
  ASSERT_GT(scalar.tlb_misses, 0u);
  if (setup.reclaim) {
    ASSERT_GT(scalar.reclaim_ticks, 0u);
    ASSERT_GT(scalar.reclaim_pages_demoted, 0u);
  }

  for (const uint64_t batch : {1ull, 7ull, 64ull, 4096ull}) {
    const Observation batched = Drive(setup, seed, plan, batch);
    ExpectSameObservation(scalar, batched, batch);
  }
}

// Gemini exercises promotion + demotion + reclaim daemons (the hardest
// mid-span mutations); THP and HawkEye cover the other promotion styles;
// kHostBVmB pins the no-huge-page baseline.  The last setup adds the
// overcommit reclaim daemon as a registered PeriodicTask.
INSTANTIATE_TEST_SUITE_P(
    Systems, AccessBatchDifferentialTest,
    ::testing::Values(
        MachineSetup{harness::SystemKind::kGemini},
        MachineSetup{harness::SystemKind::kThp},
        MachineSetup{harness::SystemKind::kHawkEye},
        MachineSetup{harness::SystemKind::kHostBVmB},
        MachineSetup{harness::SystemKind::kGemini, /*reclaim=*/true}));

}  // namespace
