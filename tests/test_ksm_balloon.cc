#include <set>
// Tests for the KSM deduplication scanner and the balloon driver — the
// paper's §8 future-work mechanisms and their interplay with huge pages.
#include <gtest/gtest.h>

#include "base/types.h"
#include "gemini/gemini_policy.h"
#include "metrics/alignment_audit.h"
#include "os/balloon.h"
#include "os/ksm.h"
#include "os/machine.h"
#include "policy/base_only.h"
#include "policy/misalignment.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;

osim::MachineConfig SmallConfig() {
  osim::MachineConfig config;
  config.host_frames = 65536;
  config.daemon_period = 50000;
  config.seed = 12;
  return config;
}

// --- KSM --------------------------------------------------------------------

TEST(Ksm, BreaksColdHugeBackingsAndReclaimsFrames) {
  osim::Machine machine(SmallConfig());
  auto& vm = machine.AddVm(8192, std::make_unique<policy::BaseOnlyPolicy>(),
                           std::make_unique<policy::AlwaysHugePolicy>());
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(4 * kPagesPerHuge);
  for (uint64_t p = 0; p < vma.pages; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  // Install the scanner once the memory exists (and is about to go cold).
  osim::KsmScanner* ksm = osim::InstallKsm(machine, 0, {}, /*period=*/100000);
  const uint64_t host_free_before = machine.host().buddy().free_frames();
  const uint64_t huge_before = vm.host_slice().table().huge_leaves();
  ASSERT_GT(huge_before, 0u);
  // Let the memory go cold, then let KSM pass over it.
  for (int i = 0; i < 16; ++i) {
    vm.host_slice().table().DecayAccessCounts();
  }
  machine.AdvanceTime(20 * 100000);
  EXPECT_GT(ksm->stats().huge_pages_broken, 0u);
  EXPECT_GT(ksm->stats().pages_merged, 0u);
  EXPECT_LT(vm.host_slice().table().huge_leaves(), huge_before);
  EXPECT_GT(machine.host().buddy().free_frames(), host_free_before);
}

TEST(Ksm, SkipsHotRegions) {
  osim::Machine machine(SmallConfig());
  auto& vm = machine.AddVm(8192, std::make_unique<policy::BaseOnlyPolicy>(),
                           std::make_unique<policy::AlwaysHugePolicy>());
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(2 * kPagesPerHuge);
  for (uint64_t p = 0; p < vma.pages; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  osim::KsmScanner* ksm = osim::InstallKsm(machine, 0, {}, 100000);
  // Keep the memory hot across the whole window.  (Access heat is bumped
  // on TLB misses; pin it explicitly so TLB hits don't mask the hotness.)
  auto& ept = vm.host_slice().table();
  for (int round = 0; round < 30; ++round) {
    ept.ForEachHuge([&](uint64_t region, uint64_t) {
      for (int i = 0; i < 32; ++i) {
        ept.BumpAccess(region);
      }
    });
    machine.AdvanceTime(100000);
  }
  EXPECT_EQ(ksm->stats().huge_pages_broken, 0u);
}

TEST(Ksm, MergedPagesShareOneFrame) {
  osim::Machine machine(SmallConfig());
  auto& vm = machine.AddVm(8192, std::make_unique<policy::BaseOnlyPolicy>(),
                           std::make_unique<policy::AlwaysHugePolicy>());
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(kPagesPerHuge);
  for (uint64_t p = 0; p < vma.pages; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  osim::KsmOptions options;
  options.mergeable_fraction = 1.0;
  osim::InstallKsm(machine, 0, options, 100000);
  for (int i = 0; i < 16; ++i) {
    vm.host_slice().table().DecayAccessCounts();
  }
  machine.AdvanceTime(20 * 100000);
  // All 512 EPT entries of the (former) huge region now map one frame.
  const auto g = vm.guest().table().Lookup(vma.start_page);
  ASSERT_TRUE(g.has_value());
  const uint64_t region = g->frame >> kHugeOrder;
  std::set<uint64_t> distinct;
  vm.host_slice().table().ForEachBasePage(
      region, [&](uint32_t, uint64_t frame) { distinct.insert(frame); });
  EXPECT_EQ(distinct.size(), 1u);
  // Accesses still translate correctly (to the shared frame).
  const auto r = machine.Access(0, vma.start_page + 5);
  EXPECT_GT(r.cycles, 0u);
}

TEST(Ksm, GeminiRepairsKsmDamageOverTime) {
  // The paper's §8 concern, end to end: KSM demotes Gemini's host-huge
  // backings; the scanner re-detects the misalignment and the promoter
  // repairs it.
  osim::Machine machine(SmallConfig());
  auto& vm = gemini::InstallGeminiVm(machine, 8192);
  osim::KsmOptions options;
  options.regions_per_pass = 1;
  osim::InstallKsm(machine, 0, options, 400000);
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(4 * kPagesPerHuge);
  auto touch_all = [&]() {
    for (uint64_t p = 0; p < vma.pages; ++p) {
      machine.Access(0, vma.start_page + p);
    }
  };
  touch_all();
  machine.AdvanceTime(40 * machine.config().daemon_period);
  touch_all();  // keep the data hot so KSM stays away and repair can win
  machine.AdvanceTime(40 * machine.config().daemon_period);
  const auto report =
      metrics::AuditAlignment(vm.guest().table(), vm.host_slice().table());
  EXPECT_GE(report.well_aligned_rate, 0.7);
}

// --- Ballooning --------------------------------------------------------------

TEST(Balloon, InflateReleasesHostMemory) {
  osim::Machine machine(SmallConfig());
  auto& vm = machine.AddVm(8192, std::make_unique<policy::BaseOnlyPolicy>(),
                           std::make_unique<policy::BaseOnlyPolicy>());
  // Touch memory then free it so the guest's free frames carry stale host
  // backing — the state a balloon actually reclaims from.
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(2048);
  for (uint64_t p = 0; p < 2048; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  vm.guest().UnmapVma(vma.id);
  const uint64_t host_free_before = machine.host().buddy().free_frames();
  const uint64_t guest_free_before = vm.guest().buddy().free_frames();
  osim::BalloonDriver balloon(&machine, 0, /*alignment_aware=*/false);
  const uint64_t inflated = balloon.Inflate(1024);
  EXPECT_GT(inflated, 0u);
  EXPECT_GT(machine.host().buddy().free_frames(), host_free_before);
  // The guest gave up exactly the ballooned frames.
  EXPECT_EQ(vm.guest().buddy().free_frames(), guest_free_before - inflated);
  EXPECT_EQ(balloon.stats().inflated_frames, inflated);
}

TEST(Balloon, NaiveBalloonBreaksHugeBackings) {
  osim::Machine machine(SmallConfig());
  auto& vm = machine.AddVm(8192, std::make_unique<policy::BaseOnlyPolicy>(),
                           std::make_unique<policy::AlwaysHugePolicy>());
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(4 * kPagesPerHuge);
  for (uint64_t p = 0; p < vma.pages; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  ASSERT_GT(vm.host_slice().table().huge_leaves(), 0u);
  vm.guest().UnmapVma(vma.id);  // freed guest frames keep huge backing
  osim::BalloonDriver balloon(&machine, 0, /*alignment_aware=*/false);
  balloon.Inflate(1024);
  EXPECT_GT(balloon.stats().huge_backings_broken, 0u);
}

TEST(Balloon, AlignmentAwareBalloonPreservesHugeBackings) {
  auto run = [](bool aware) {
    osim::Machine machine(SmallConfig());
    auto& vm = machine.AddVm(8192, std::make_unique<policy::BaseOnlyPolicy>(),
                             std::make_unique<policy::AlwaysHugePolicy>());
    osim::Vma& vma = vm.guest().aspace().MapAnonymous(4 * kPagesPerHuge);
    for (uint64_t p = 0; p < vma.pages; ++p) {
      machine.Access(0, vma.start_page + p);
    }
    vm.guest().UnmapVma(vma.id);  // freed guest frames keep huge backing
    osim::BalloonDriver balloon(&machine, 0, aware);
    balloon.Inflate(1024);
    return balloon.stats().huge_backings_broken;
  };
  EXPECT_LT(run(true), run(false));
}

}  // namespace
