// Integration tests for the composed Gemini policy: EMA placement,
// promotion to well-aligned huge pages, booking, bucket reuse, ablations.
#include "gemini/gemini_policy.h"

#include <gtest/gtest.h>

#include "base/types.h"
#include "metrics/alignment_audit.h"
#include "os/machine.h"
#include "policy/base_only.h"
#include "policy/thp.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;

osim::MachineConfig SmallConfig() {
  osim::MachineConfig config;
  config.host_frames = 131072;
  config.daemon_period = 50000;
  config.seed = 21;
  return config;
}

void TouchRange(osim::Machine& machine, int32_t vm, uint64_t start,
                uint64_t pages) {
  for (uint64_t p = 0; p < pages; ++p) {
    machine.Access(vm, start + p, 50);
  }
}

TEST(GeminiPolicy, FormsWellAlignedHugePagesOnCleanSlate) {
  osim::Machine machine(SmallConfig());
  auto& vm = gemini::InstallGeminiVm(machine, 32768);
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(8 * kPagesPerHuge);
  TouchRange(machine, 0, vma.start_page, vma.pages);
  // Give the scanner and daemons time to converge.
  machine.AdvanceTime(50 * machine.config().daemon_period);
  TouchRange(machine, 0, vma.start_page, vma.pages);
  machine.AdvanceTime(50 * machine.config().daemon_period);

  const auto report =
      metrics::AuditAlignment(vm.guest().table(), vm.host_slice().table());
  EXPECT_GE(report.guest_huge, 6u);
  EXPECT_GE(report.aligned_pairs, 6u);
  EXPECT_GE(report.well_aligned_rate, 0.8);
}

TEST(GeminiPolicy, EmaPlacesPagesContiguouslyAtAlignedAnchors) {
  osim::Machine machine(SmallConfig());
  auto& vm = gemini::InstallGeminiVm(machine, 32768);
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(2 * kPagesPerHuge);
  TouchRange(machine, 0, vma.start_page, 100);
  const uint64_t first = vm.guest().table().Lookup(vma.start_page)->frame;
  EXPECT_EQ(first % kPagesPerHuge, 0u);  // huge-aligned anchor
  for (uint64_t p = 1; p < 100; ++p) {
    EXPECT_EQ(vm.guest().table().Lookup(vma.start_page + p)->frame,
              first + p);
  }
}

TEST(GeminiPolicy, BucketEnablesInstantReuseAfterTeardown) {
  osim::Machine machine(SmallConfig());
  auto& vm = gemini::InstallGeminiVm(machine, 32768);
  // Phase 1: populate, promote, converge to aligned pages.
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(6 * kPagesPerHuge);
  TouchRange(machine, 0, vma.start_page, vma.pages);
  machine.AdvanceTime(50 * machine.config().daemon_period);
  TouchRange(machine, 0, vma.start_page, vma.pages);
  machine.AdvanceTime(50 * machine.config().daemon_period);
  const auto before =
      metrics::AuditAlignment(vm.guest().table(), vm.host_slice().table());
  ASSERT_GE(before.aligned_pairs, 4u);

  auto* guest_policy =
      dynamic_cast<gemini::GeminiGuestPolicy*>(&vm.guest().policy());
  ASSERT_NE(guest_policy, nullptr);
  vm.guest().UnmapVma(vma.id);
  ASSERT_NE(guest_policy->bucket(), nullptr);
  EXPECT_GE(guest_policy->bucket()->deposits(), 4u);

  // Phase 2: a new workload in the reused VM is placed onto bucketed
  // (still hugely-backed) regions and re-promoted by the next daemon pass.
  osim::Vma& vma2 = vm.guest().aspace().MapAnonymous(4 * kPagesPerHuge);
  TouchRange(machine, 0, vma2.start_page, vma2.pages);
  machine.AdvanceTime(20 * machine.config().daemon_period);
  const auto after =
      metrics::AuditAlignment(vm.guest().table(), vm.host_slice().table());
  EXPECT_GE(guest_policy->bucket()->reuses(), 1u);
  EXPECT_GE(after.aligned_pairs, 2u);
  EXPECT_GE(after.well_aligned_rate, 0.5);
}

TEST(GeminiPolicy, HostBacksGuestHugePagesViaChannel) {
  osim::Machine machine(SmallConfig());
  auto& vm = gemini::InstallGeminiVm(machine, 32768);
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(4 * kPagesPerHuge);
  TouchRange(machine, 0, vma.start_page, vma.pages);
  machine.AdvanceTime(80 * machine.config().daemon_period);
  // Every guest huge page must end up backed by a huge EPT leaf.
  uint64_t matched = 0;
  uint64_t total = 0;
  vm.guest().table().ForEachHuge([&](uint64_t, uint64_t gfn) {
    ++total;
    matched += vm.host_slice().table().IsHugeMapped(gfn >> kHugeOrder) ? 1 : 0;
  });
  ASSERT_GT(total, 0u);
  EXPECT_EQ(matched, total);
}

TEST(GeminiPolicy, BeatsThpAlignmentUnderFragmentation) {
  auto run = [](bool use_gemini) {
    osim::Machine machine(SmallConfig());
    osim::VirtualMachine* vm;
    if (use_gemini) {
      vm = &gemini::InstallGeminiVm(machine, 32768);
    } else {
      vm = &machine.AddVm(32768, std::make_unique<policy::ThpPolicy>(),
                          std::make_unique<policy::ThpPolicy>());
    }
    machine.FragmentHostMemory(0.9);
    machine.FragmentGuestMemory(0, 0.7);
    // Boot-like noise: scattered base traffic that leaves stale EPT state.
    osim::Vma& noise = vm->guest().aspace().MapAnonymous(8000);
    for (uint64_t p = 0; p < 8000; p += 2) {
      machine.Access(0, noise.start_page + p, 20);
    }
    vm->guest().UnmapVma(noise.id);
    osim::Vma& vma = vm->guest().aspace().MapAnonymous(8 * kPagesPerHuge);
    TouchRange(machine, 0, vma.start_page, vma.pages);
    machine.AdvanceTime(80 * machine.config().daemon_period);
    TouchRange(machine, 0, vma.start_page, vma.pages);
    machine.AdvanceTime(80 * machine.config().daemon_period);
    return metrics::AuditAlignment(vm->guest().table(),
                                   vm->host_slice().table());
  };
  const auto gemini_report = run(true);
  const auto thp_report = run(false);
  EXPECT_GT(gemini_report.well_aligned_rate, thp_report.well_aligned_rate);
}

TEST(GeminiPolicy, AblationEmaOffDegradesAlignment) {
  auto run = [](bool ema_on) {
    gemini::GeminiOptions options;
    options.enable_ema = ema_on;
    osim::Machine machine(SmallConfig());
    auto& vm = gemini::InstallGeminiVm(machine, 32768, options);
    machine.FragmentGuestMemory(0, 0.7);
    osim::Vma& vma = vm.guest().aspace().MapAnonymous(8 * kPagesPerHuge);
    TouchRange(machine, 0, vma.start_page, vma.pages);
    machine.AdvanceTime(60 * machine.config().daemon_period);
    return metrics::AuditAlignment(vm.guest().table(),
                                   vm.host_slice().table());
  };
  const auto on = run(true);
  const auto off = run(false);
  EXPECT_GE(on.aligned_pairs, off.aligned_pairs);
  EXPECT_GT(on.aligned_pairs, 0u);
}

TEST(GeminiPolicy, AblationBucketOffStopsReuse) {
  gemini::GeminiOptions options;
  options.enable_bucket = false;
  osim::Machine machine(SmallConfig());
  auto& vm = gemini::InstallGeminiVm(machine, 32768, options);
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(4 * kPagesPerHuge);
  TouchRange(machine, 0, vma.start_page, vma.pages);
  machine.AdvanceTime(50 * machine.config().daemon_period);
  auto* guest_policy =
      dynamic_cast<gemini::GeminiGuestPolicy*>(&vm.guest().policy());
  vm.guest().UnmapVma(vma.id);
  EXPECT_EQ(guest_policy->bucket()->deposits(), 0u);
}

TEST(GeminiPolicy, BookingReservesType1HostHugeRegions) {
  osim::Machine machine(SmallConfig());
  auto& vm = gemini::InstallGeminiVm(machine, 32768);
  // Create a misaligned host huge page over untouched guest space: back
  // GPA region 20 hugely, directly in the EPT.
  auto& host = vm.host_slice();
  const uint64_t block = machine.host().buddy().Allocate(base::kHugeOrder);
  ASSERT_NE(block, vmem::kInvalidFrame);
  host.table().MapHuge(20, block);
  // Let MHPS scan and the guest daemon book.
  machine.AdvanceTime(50 * machine.config().daemon_period);
  auto* guest_policy =
      dynamic_cast<gemini::GeminiGuestPolicy*>(&vm.guest().policy());
  ASSERT_NE(guest_policy->booking(), nullptr);
  EXPECT_TRUE(guest_policy->booking()->IsBooked(20 * kPagesPerHuge));
}

TEST(GeminiPolicy, InstallWiresScannerTask) {
  osim::Machine machine(SmallConfig());
  auto& vm = gemini::InstallGeminiVm(machine, 32768);
  vm.guest().table().MapHuge(9, 3 * kPagesPerHuge);
  ASSERT_TRUE(vm.guest().buddy().AllocateAt(3 * kPagesPerHuge,
                                            kPagesPerHuge));
  machine.AdvanceTime(10000000);  // let the periodic scan run
  // The scan must have published the misaligned guest huge page; the host
  // promoter then fixes it, so EITHER it is listed OR already fixed.
  EXPECT_TRUE(vm.host_slice().table().IsHugeMapped(3));
}

// A fixed booking timeout never ticks Algorithm 1's controller, so both
// layers keep exactly the configured value through many daemon periods
// and several controller periods.  The default VM runs Algorithm 1, whose
// first tick ends a period at once and probes up to 1.1x.
TEST(GeminiPolicy, FixedBookingTimeoutStaysFixed) {
  osim::Machine adaptive_machine(SmallConfig());
  auto& adaptive = gemini::InstallGeminiVm(adaptive_machine, 32768);
  adaptive_machine.AdvanceTime(4 * adaptive_machine.config().daemon_period);
  EXPECT_EQ(adaptive.guest().policy().Telemetry().booking_timeout,
            44'000'000u);
  EXPECT_EQ(adaptive.host_slice().policy().Telemetry().booking_timeout,
            44'000'000u);

  osim::Machine machine(SmallConfig());
  gemini::GeminiOptions options;
  options.fixed_booking_timeout = 2'000'000;
  auto& vm = gemini::InstallGeminiVm(machine, 32768, options);
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(4 * kPagesPerHuge);
  TouchRange(machine, 0, vma.start_page, vma.pages);
  // 1,000 daemon periods of 50k cycles: two and a half controller periods.
  machine.AdvanceTime(1000 * machine.config().daemon_period);
  EXPECT_EQ(vm.guest().policy().Telemetry().booking_timeout, 2'000'000u);
  EXPECT_EQ(vm.host_slice().policy().Telemetry().booking_timeout, 2'000'000u);
}

}  // namespace
