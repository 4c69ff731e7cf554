// Tests for memory-pressure handling: policy reserve release, cold-page
// swapping, huge-page demotion ranking, and OOM-free overcommit.
#include <gtest/gtest.h>

#include "base/types.h"
#include "gemini/gemini_policy.h"
#include "os/cost_model.h"
#include "os/machine.h"
#include "policy/base_only.h"
#include "policy/thp.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;

osim::MachineConfig SmallConfig() {
  osim::MachineConfig config;
  config.host_frames = 65536;
  config.daemon_period = 50000;
  config.seed = 8;
  return config;
}

TEST(Reclaim, OvercommitSwapsInsteadOfAborting) {
  osim::Machine machine(SmallConfig());
  auto& vm = machine.AddVm(2048, std::make_unique<policy::BaseOnlyPolicy>(),
                           std::make_unique<policy::BaseOnlyPolicy>());
  // Working set larger than guest memory: must swap, not abort.
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(3000);
  for (uint64_t p = 0; p < 3000; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  EXPECT_GT(vm.guest().stats().pages_swapped_out, 900u);
  EXPECT_LE(vm.guest().table().mapped_pages(), 2048u);
}

TEST(Reclaim, SwapInChargesTheReturningFault) {
  osim::Machine machine(SmallConfig());
  auto& vm = machine.AddVm(2048, std::make_unique<policy::BaseOnlyPolicy>(),
                           std::make_unique<policy::BaseOnlyPolicy>());
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(3000);
  for (uint64_t p = 0; p < 3000; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  ASSERT_GT(vm.guest().swapped_pages(), 0u);
  // Touch pages until one comes back from swap.
  const uint64_t swap_ins_before = vm.guest().stats().swap_ins;
  base::Cycles max_cost = 0;
  for (uint64_t p = 0; p < 3000; ++p) {
    const auto r = machine.Access(0, vma.start_page + p);
    max_cost = std::max(max_cost, r.cycles);
    if (vm.guest().stats().swap_ins > swap_ins_before) {
      break;
    }
  }
  EXPECT_GT(vm.guest().stats().swap_ins, swap_ins_before);
  EXPECT_GE(max_cost, osim::kCosts.swap_in_page);
}

TEST(Reclaim, ColdRegionsSwappedBeforeHotOnes) {
  osim::Machine machine(SmallConfig());
  auto& vm = machine.AddVm(2048, std::make_unique<policy::BaseOnlyPolicy>(),
                           std::make_unique<policy::BaseOnlyPolicy>());
  osim::Vma& cold = vm.guest().aspace().MapAnonymous(900);
  osim::Vma& hot = vm.guest().aspace().MapAnonymous(900);
  for (uint64_t p = 0; p < 900; ++p) {
    machine.Access(0, cold.start_page + p);
    machine.Access(0, hot.start_page + p);
  }
  // Cool everything down, then heat up `hot` only.
  for (int i = 0; i < 16; ++i) {
    vm.guest().table().DecayAccessCounts();
  }
  for (int round = 0; round < 20; ++round) {
    for (uint64_t p = 0; p < 900; p += 7) {
      machine.Access(0, hot.start_page + p);
    }
  }
  // Overcommit: force a reclaim.
  osim::Vma& extra = vm.guest().aspace().MapAnonymous(500);
  for (uint64_t p = 0; p < 500; ++p) {
    machine.Access(0, extra.start_page + p);
  }
  // The cold VMA must have lost more pages than the hot one.
  uint64_t cold_mapped = 0;
  uint64_t hot_mapped = 0;
  for (uint64_t p = 0; p < 900; ++p) {
    cold_mapped += vm.guest().table().Lookup(cold.start_page + p) ? 1 : 0;
    hot_mapped += vm.guest().table().Lookup(hot.start_page + p) ? 1 : 0;
  }
  EXPECT_LT(cold_mapped, hot_mapped);
}

TEST(Reclaim, HugeRegionsDemotedWhenOnlyHugeRemain) {
  osim::Machine machine(SmallConfig());
  auto& vm = machine.AddVm(2048, std::make_unique<policy::ThpPolicy>(),
                           std::make_unique<policy::BaseOnlyPolicy>());
  // Four huge-backed regions fill guest memory completely.
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(4 * kPagesPerHuge);
  for (uint64_t r = 0; r < 4; ++r) {
    machine.Access(0, vma.start_page + r * kPagesPerHuge);
  }
  ASSERT_EQ(vm.guest().table().huge_leaves(), 4u);
  // Demand more memory than remains, from a single region (which is
  // excluded from swap victims): the huge regions must give way.
  osim::Vma& extra = vm.guest().aspace().MapAnonymous(400);
  for (uint64_t p = 0; p < 400; ++p) {
    machine.Access(0, extra.start_page + p);
  }
  EXPECT_LT(vm.guest().table().huge_leaves(), 4u);
  EXPECT_GT(vm.guest().stats().demotions, 0u);
  EXPECT_GT(vm.guest().stats().pages_swapped_out, 0u);
}

TEST(Reclaim, DefaultVictimRankingPrefersCold) {
  osim::Machine machine(SmallConfig());
  auto& vm = machine.AddVm(8192, std::make_unique<policy::ThpPolicy>(),
                           std::make_unique<policy::BaseOnlyPolicy>());
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(2 * kPagesPerHuge);
  machine.Access(0, vma.start_page);
  machine.Access(0, vma.start_page + kPagesPerHuge);
  ASSERT_EQ(vm.guest().table().huge_leaves(), 2u);
  const uint64_t hot_region = vma.start_page >> kHugeOrder;
  for (int i = 0; i < 50; ++i) {
    vm.guest().table().BumpAccess(hot_region);
  }
  const auto victims =
      vm.guest().policy().RankHugeDemotionVictims(vm.guest(), 2);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], hot_region + 1);  // the cold one first
}

TEST(Reclaim, GeminiRankingPrefersMisaligned) {
  osim::Machine machine(SmallConfig());
  auto& vm = gemini::InstallGeminiVm(machine, 8192);
  auto& guest = vm.guest();
  // Region A: guest huge, host-huge-backed (well aligned).
  // Region B: guest huge, base-backed (misaligned) and HOTTER than A.
  ASSERT_TRUE(guest.buddy().AllocateAt(2 * kPagesPerHuge, kPagesPerHuge));
  ASSERT_TRUE(guest.buddy().AllocateAt(4 * kPagesPerHuge, kPagesPerHuge));
  guest.table().MapHuge(10, 2 * kPagesPerHuge);
  guest.table().MapHuge(11, 4 * kPagesPerHuge);
  auto& ept = vm.host_slice().table();
  const uint64_t block = machine.host().buddy().Allocate(base::kHugeOrder);
  ept.MapHuge(2, block);  // backs region A hugely
  for (int i = 0; i < 100; ++i) {
    guest.table().BumpAccess(11);  // B is hot
  }
  const auto victims = guest.policy().RankHugeDemotionVictims(guest, 2);
  ASSERT_EQ(victims.size(), 2u);
  // Misaligned (B, region 11) goes first even though it is hotter.
  EXPECT_EQ(victims[0], 11u);
  EXPECT_EQ(victims[1], 10u);
}

TEST(Reclaim, GeminiPressureReleasesBookingsAndBucket) {
  osim::Machine machine(SmallConfig());
  auto& vm = gemini::InstallGeminiVm(machine, 4096);
  auto* gp = dynamic_cast<gemini::GeminiGuestPolicy*>(&vm.guest().policy());
  // Touch once so components exist, then reserve manually via pressure API.
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(64);
  machine.Access(0, vma.start_page);
  ASSERT_NE(gp->booking(), nullptr);
  const_cast<gemini::BookingManager*>(gp->booking())
      ->Book(4 * kPagesPerHuge, machine.Now(), 1ull << 40);
  ASSERT_EQ(gp->booking()->booked_count(), 1u);
  gp->OnMemoryPressure(vm.guest());
  EXPECT_EQ(gp->booking()->booked_count(), 0u);
}

TEST(Reclaim, HostLayerSwapsVmMemoryUnderPressure) {
  osim::MachineConfig config = SmallConfig();
  config.host_frames = 4096;  // tiny host
  osim::Machine machine(config);
  auto& vm = machine.AddVm(8192, std::make_unique<policy::BaseOnlyPolicy>(),
                           std::make_unique<policy::BaseOnlyPolicy>());
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(6000);
  for (uint64_t p = 0; p < 6000; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  // The host had only 4096 frames for 6000 guest pages: it must have
  // swapped VM memory.
  EXPECT_GT(vm.host_slice().stats().pages_swapped_out, 1000u);
}

}  // namespace
