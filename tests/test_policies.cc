// Tests for the baseline huge-page policies (THP, Misalignment/AlwaysHuge,
// Ingens, HawkEye, CA-paging, Translation Ranger).
#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/types.h"
#include "os/machine.h"
#include "policy/base_only.h"
#include "policy/ca_paging.h"
#include "policy/hawkeye.h"
#include "policy/ingens.h"
#include "policy/misalignment.h"
#include "policy/thp.h"
#include "policy/translation_ranger.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;

osim::MachineConfig SmallConfig() {
  osim::MachineConfig config;
  config.host_frames = 32768;
  config.daemon_period = 10000;
  config.seed = 9;
  return config;
}

// Touches every page of a fresh VMA covering `regions` huge regions.
osim::Vma& PopulateVma(osim::Machine& machine, int32_t vm_id,
                       uint64_t regions) {
  auto& guest = machine.vm(vm_id).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(regions * kPagesPerHuge);
  for (uint64_t p = 0; p < vma.pages; ++p) {
    machine.Access(vm_id, vma.start_page + p);
  }
  return vma;
}

TEST(BaseOnly, NeverCreatesHugePages) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(8192, std::make_unique<policy::BaseOnlyPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  PopulateVma(machine, 0, 4);
  machine.AdvanceTime(1000000);
  EXPECT_EQ(machine.vm(0).guest().table().huge_leaves(), 0u);
  EXPECT_EQ(machine.vm(0).host_slice().table().huge_leaves(), 0u);
}

TEST(Thp, EagerFaultCreatesHugePagesImmediately) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(8192, std::make_unique<policy::ThpPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(2 * kPagesPerHuge);
  machine.Access(0, vma.start_page);
  EXPECT_EQ(guest.table().huge_leaves(), 1u);
}

TEST(Thp, SynchronousCompactionChargedOnFailure) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(2048, std::make_unique<policy::ThpPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  // Destroy all guest contiguity.
  for (uint64_t f = 256; f < 2048; f += 512) {
    ASSERT_TRUE(guest.buddy().AllocateAt(f, 1));
  }
  osim::Vma& vma = guest.aspace().MapAnonymous(kPagesPerHuge);
  const auto r = machine.Access(0, vma.start_page);
  EXPECT_EQ(guest.stats().failed_huge_allocs, 1u);
  // The access stalled on direct compaction.
  EXPECT_GT(r.cycles, machine.config().costs.direct_compaction);
}

TEST(Thp, KhugepagedCollapsesPartialRegions) {
  osim::Machine machine(SmallConfig());
  policy::ThpOptions options;
  options.fault_huge = false;  // force the daemon path
  machine.AddVm(8192, std::make_unique<policy::ThpPolicy>(options),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(kPagesPerHuge);
  // Populate above the collapse bar (64) but far from complete.
  for (uint64_t p = 0; p < 128; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  machine.AdvanceTime(20 * machine.config().daemon_period);
  EXPECT_TRUE(guest.table().IsHugeMapped(vma.start_page >> kHugeOrder));
  EXPECT_EQ(guest.stats().promotions_migrated, 1u);
}

TEST(AlwaysHuge, HostBacksEveryRegionHuge) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(8192, std::make_unique<policy::BaseOnlyPolicy>(),
                std::make_unique<policy::AlwaysHugePolicy>());
  PopulateVma(machine, 0, 2);
  // Guest stays base; host is all huge: the Misalignment scenario.
  EXPECT_EQ(machine.vm(0).guest().table().huge_leaves(), 0u);
  EXPECT_GE(machine.vm(0).host_slice().table().huge_leaves(), 2u);
}

TEST(Ingens, NoFaultTimeHugePages) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(8192, std::make_unique<policy::IngensPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(kPagesPerHuge);
  machine.Access(0, vma.start_page);
  EXPECT_EQ(guest.stats().huge_faults, 0u);
}

TEST(Ingens, PromotesOnlyAboveUtilizationBar) {
  osim::Machine machine(SmallConfig());
  policy::IngensOptions options;
  options.promote_min_present = 460;
  machine.AddVm(16384, std::make_unique<policy::IngensPolicy>(options),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(2 * kPagesPerHuge);
  // Region 0: 400 pages (below bar).  Region 1: full (above bar).
  for (uint64_t p = 0; p < 400; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  for (uint64_t p = kPagesPerHuge; p < 2 * kPagesPerHuge; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  machine.AdvanceTime(20 * machine.config().daemon_period);
  EXPECT_FALSE(guest.table().IsHugeMapped(vma.start_page >> kHugeOrder));
  EXPECT_TRUE(guest.table().IsHugeMapped((vma.start_page >> kHugeOrder) + 1));
}

TEST(Ingens, IgnoresStaleUnaccessedRegions) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(16384, std::make_unique<policy::IngensPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(kPagesPerHuge);
  for (uint64_t p = 0; p < kPagesPerHuge; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  // Let access counters decay to zero with repeated idle ticks.
  for (int i = 0; i < 40; ++i) {
    machine.AdvanceTime(machine.config().daemon_period);
  }
  guest.table().DecayAccessCounts();
  const uint64_t promotions_before = guest.stats().promotions_in_place +
                                     guest.stats().promotions_migrated;
  machine.AdvanceTime(5 * machine.config().daemon_period);
  // If already promoted during population that is fine; the point is that
  // a *cold* base region is not promoted.
  if (!guest.table().IsHugeMapped(vma.start_page >> kHugeOrder)) {
    EXPECT_EQ(guest.stats().promotions_in_place +
                  guest.stats().promotions_migrated,
              promotions_before);
  }
}

TEST(HawkEye, PromotesHottestRegionFirst) {
  osim::Machine machine(SmallConfig());
  policy::HawkEyeOptions options;
  options.promotions_per_tick = 1;  // one promotion per tick: order visible
  machine.AddVm(16384, std::make_unique<policy::HawkEyePolicy>(options),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(2 * kPagesPerHuge);
  for (uint64_t p = 0; p < 2 * kPagesPerHuge; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  // Make region 1 much hotter than region 0.
  for (int i = 0; i < 3000; ++i) {
    machine.vm(0).engine().Translate(vma.start_page + kPagesPerHuge +
                                     (i % kPagesPerHuge));
  }
  const uint64_t region0 = vma.start_page >> kHugeOrder;
  // Run exactly one daemon tick.
  machine.AdvanceTime(machine.config().daemon_period);
  if (guest.table().huge_leaves() == 1) {
    EXPECT_TRUE(guest.table().IsHugeMapped(region0 + 1));
    EXPECT_FALSE(guest.table().IsHugeMapped(region0));
  }
}

TEST(CaPaging, AnchorsVmaToContiguousRun) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(16384, std::make_unique<policy::CaPagingPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(256);
  for (uint64_t p = 0; p < 256; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  // All pages must be physically consecutive.
  const uint64_t first = guest.table().Lookup(vma.start_page)->frame;
  for (uint64_t p = 0; p < 256; ++p) {
    EXPECT_EQ(guest.table().Lookup(vma.start_page + p)->frame, first + p);
  }
}

TEST(CaPaging, FindContiguousRunHelper) {
  vmem::BuddyAllocator buddy(4096);
  ASSERT_TRUE(buddy.AllocateAt(1000, 1));
  EXPECT_EQ(policy::FindContiguousRun(buddy, 500, 0), 0u);
  EXPECT_EQ(policy::FindContiguousRun(buddy, 1001, 0), 1001u);
  EXPECT_EQ(policy::FindContiguousRun(buddy, 4000, 0), vmem::kInvalidFrame);
  // Cursor past the only fitting run wraps around.
  EXPECT_EQ(policy::FindContiguousRun(buddy, 900, 2000), 2000u);
  EXPECT_EQ(policy::FindContiguousRun(buddy, 900, 3500), 0u);
}

// FindContiguousRun stops at its answer; the full-scan version it came from
// visited every free block.  Both must agree, wrap quirk included (after a
// run before the cursor qualifies, the rest of that run restarts the count).
uint64_t FullScanContiguousRun(const vmem::BuddyAllocator& buddy,
                               uint64_t min_frames, uint64_t cursor) {
  uint64_t best_before_cursor = vmem::kInvalidFrame;
  uint64_t run_start = vmem::kInvalidFrame;
  uint64_t run_end = 0;
  uint64_t found = vmem::kInvalidFrame;
  buddy.ForEachFreeBlock([&](uint64_t head, int order) {
    if (found != vmem::kInvalidFrame) {
      return;
    }
    if (run_start == vmem::kInvalidFrame || head != run_end) {
      run_start = head;
      run_end = head;
    }
    run_end += 1ull << order;
    if (run_end - run_start >= min_frames) {
      if (run_start >= cursor) {
        found = run_start;
      } else if (run_end >= cursor && run_end - cursor >= min_frames) {
        found = cursor;
      } else if (best_before_cursor == vmem::kInvalidFrame) {
        best_before_cursor = run_start;
        run_start = run_end;
      }
    }
  });
  return found != vmem::kInvalidFrame ? found : best_before_cursor;
}

TEST(CaPaging, FindContiguousRunMatchesFullScan) {
  base::Rng rng(17);
  vmem::BuddyAllocator buddy(1 << 15);
  int compared = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 60; ++i) {
      buddy.AllocateAt(rng.NextBelow(1 << 15), 1 + rng.NextBelow(8));
    }
    for (int q = 0; q < 50; ++q) {
      const uint64_t min_frames = 1 + rng.NextBelow(rng.NextBelow(2) ? 64
                                                                     : 4096);
      const uint64_t cursor = rng.NextBelow(1 << 15);
      ASSERT_EQ(policy::FindContiguousRun(buddy, min_frames, cursor),
                FullScanContiguousRun(buddy, min_frames, cursor))
          << "round " << round << " min " << min_frames << " cursor "
          << cursor;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 2000);
}

TEST(Ranger, MigratesSparseRegionsUnconditionally) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(16384, std::make_unique<policy::TranslationRangerPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  osim::Vma& vma = guest.aspace().MapAnonymous(kPagesPerHuge);
  for (uint64_t p = 0; p < 32; ++p) {  // far below any utilization bar
    machine.Access(0, vma.start_page + p);
  }
  machine.AdvanceTime(5 * machine.config().daemon_period);
  EXPECT_TRUE(guest.table().IsHugeMapped(vma.start_page >> kHugeOrder));
}

TEST(Ranger, ChargesContinuousBackgroundOverhead) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(16384, std::make_unique<policy::TranslationRangerPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  PopulateVma(machine, 0, 2);
  machine.AdvanceTime(10 * machine.config().daemon_period);
  const base::Cycles overhead_a = guest.stats().overhead_cycles;
  machine.AdvanceTime(10 * machine.config().daemon_period);
  const base::Cycles overhead_b = guest.stats().overhead_cycles;
  // Even with nothing left to promote, Ranger keeps paying.
  EXPECT_GT(overhead_b, overhead_a);
}

TEST(Policies, WatermarkGuardStopsPromotionUnderPressure) {
  osim::Machine machine(SmallConfig());
  machine.AddVm(2048, std::make_unique<policy::IngensPolicy>(),
                std::make_unique<policy::BaseOnlyPolicy>());
  auto& guest = machine.vm(0).guest();
  // Leave < 1/16 of memory free.
  ASSERT_TRUE(guest.buddy().AllocateAt(0, 2048 - 64));
  EXPECT_FALSE(policy::HasFreeMemoryHeadroom(guest));
  osim::Vma& vma = guest.aspace().MapAnonymous(32);
  for (uint64_t p = 0; p < 32; ++p) {
    machine.Access(0, vma.start_page + p);
  }
  machine.AdvanceTime(5 * machine.config().daemon_period);
  EXPECT_EQ(guest.table().huge_leaves(), 0u);
}

}  // namespace
