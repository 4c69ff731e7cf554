// Randomized end-to-end consistency test: drives a full machine (random
// system choice, random VMA map/unmap/access/daemon interleavings — with
// access bursts randomly issued scalar or through AccessBatch at assorted
// batch sizes — random fragmentation and pressure) and verifies global
// invariants after every burst:
//
//  * frame conservation at both layers (buddy + mapped + held == total is
//    checked inside BuddyAllocator::CheckInvariants),
//  * page tables structurally sound,
//  * every guest-mapped page translates to a host frame within bounds or
//    faults cleanly,
//  * the alignment audit agrees with a brute-force recomputation,
//  * tier residency reconciles with its counters at both layers
//    (resident == demoted - refaults - forgotten, the TierSpace contract)
//    and the metrics snapshot reports exactly the far tier's numbers.
//
// Half the seeds run with overcommit reclaim enabled (random LRU/DAMON
// policy, host sized to force watermark pressure), so demotions, refaults,
// and reclaim passes interleave with everything else.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "gemini/gemini_policy.h"
#include "harness/systems.h"
#include "metrics/alignment_audit.h"
#include "metrics/counters.h"
#include "mmu/translation_engine.h"
#include "os/machine.h"
#include "vmem/tier_space.h"

namespace {

using base::kHugeOrder;
using base::kPagesPerHuge;

struct LiveVma {
  int32_t id;
  uint64_t start;
  uint64_t pages;
};

class MachineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MachineFuzzTest, RandomOpsKeepInvariants) {
  base::Rng rng(GetParam());
  osim::MachineConfig config;
  config.host_frames = 65536;
  config.daemon_period = 20000;
  config.seed = GetParam();
  if (rng.NextBool(0.5)) {
    // Overcommit mode: a host small enough that the watermark daemon and
    // the synchronous ReclaimFrames backstop both fire (the single VM's
    // 16384 gfns overcommit the host ~2.7x), an unbounded far tier
    // (capacity 0) so allocation can always be satisfied by swapping, and
    // a random reclaim policy.
    config.host_frames = 6144;
    config.reclaim.enabled = true;
    config.reclaim.policy = rng.NextBool(0.5)
                                ? policy::ReclaimPolicyKind::kLruApprox
                                : policy::ReclaimPolicyKind::kDamon;
  }
  osim::Machine machine(config);

  const auto systems = harness::AllSystems();
  const harness::SystemKind kind =
      systems[rng.NextBelow(systems.size())];
  osim::VirtualMachine& vm =
      harness::AddSystemVm(machine, kind, 16384);
  if (rng.NextBool(0.5)) {
    machine.FragmentGuestMemory(0, 0.5 + rng.NextDouble() * 0.4);
  }
  if (rng.NextBool(0.5)) {
    machine.FragmentHostMemory(0.5 + rng.NextDouble() * 0.4);
  }

  std::vector<LiveVma> vmas;
  for (int burst = 0; burst < 60; ++burst) {
    const double dice = rng.NextDouble();
    if (dice < 0.25 && vmas.size() < 12) {
      const uint64_t pages = 1 + rng.NextBelow(3 * kPagesPerHuge);
      osim::Vma& vma = vm.guest().aspace().MapAnonymous(pages);
      vmas.push_back(LiveVma{vma.id, vma.start_page, vma.pages});
    } else if (dice < 0.35 && !vmas.empty()) {
      const size_t victim = rng.NextBelow(vmas.size());
      vm.guest().UnmapVma(vmas[victim].id);
      vmas.erase(vmas.begin() + static_cast<long>(victim));
    } else if (dice < 0.9 && !vmas.empty()) {
      // A burst of accesses into a random VMA — scalar and AccessBatch
      // bursts interleave freely, with span sizes from sub-daemon-period
      // chunks up to spans long enough that promotions, demotions, and
      // reclaim fire mid-span.  The invariants below (and the engine
      // re-derivation check) must hold regardless of the interleaving.
      const LiveVma& vma = vmas[rng.NextBelow(vmas.size())];
      if (rng.NextBool(0.5)) {
        for (int i = 0; i < 200; ++i) {
          const uint64_t vpn = vma.start + rng.NextBelow(vma.pages);
          const auto r = machine.Access(0, vpn, 50);
          ASSERT_GT(r.cycles, 0u);
        }
      } else {
        static constexpr uint64_t kBatchSizes[] = {3, 64, 512};
        const uint64_t batch = kBatchSizes[rng.NextBelow(3)];
        std::vector<uint64_t> vpns(200);
        for (auto& v : vpns) {
          v = vma.start + rng.NextBelow(vma.pages);
        }
        std::vector<osim::VirtualMachine::AccessResult> out;
        for (size_t i = 0; i < vpns.size(); i += batch) {
          const size_t n = std::min<size_t>(batch, vpns.size() - i);
          machine.AccessBatch(0, std::span(vpns.data() + i, n), 50, &out);
          for (const auto& r : out) {
            ASSERT_GT(r.cycles, 0u);
          }
        }
      }
    } else {
      machine.AdvanceTime(config.daemon_period * (1 + rng.NextBelow(5)));
    }

    // --- Invariants ------------------------------------------------------
    vm.guest().buddy().CheckInvariants();
    machine.host().buddy().CheckInvariants();
    vm.guest().table().CheckInvariants();
    vm.host_slice().table().CheckInvariants();

    // Every guest translation must compose into a valid in-bounds host
    // frame (or be absent), and the engine's generation-tagged fast path
    // must agree with a direct re-derivation through both tables —
    // regardless of what stale or restamped TLB state the burst left
    // behind.
    for (const LiveVma& vma : vmas) {
      for (int probe = 0; probe < 8; ++probe) {
        const uint64_t vpn = vma.start + rng.NextBelow(vma.pages);
        const auto g = vm.guest().table().Lookup(vpn);
        const auto r = vm.engine().Translate(vpn);
        if (!g.has_value()) {
          ASSERT_EQ(r.status, mmu::TranslateStatus::kGuestFault);
          continue;
        }
        ASSERT_LT(g->frame, vm.guest().buddy().frame_count());
        const auto h = vm.host_slice().table().Lookup(g->frame);
        if (h.has_value()) {
          ASSERT_LT(h->frame, machine.host().buddy().frame_count());
          ASSERT_EQ(r.status, mmu::TranslateStatus::kOk);
          ASSERT_EQ(r.frame, h->frame) << "vpn " << vpn;
          ASSERT_EQ(r.well_aligned_huge,
                    g->size == base::PageSize::kHuge &&
                        h->size == base::PageSize::kHuge)
              << "vpn " << vpn;
        } else {
          ASSERT_EQ(r.status, mmu::TranslateStatus::kHostFault);
          ASSERT_EQ(r.fault_page, g->frame);
        }
      }
    }

    // Alignment audit equals brute force.
    const auto report = metrics::AuditAlignment(vm.guest().table(),
                                                vm.host_slice().table());
    uint64_t brute_pairs = 0;
    vm.guest().table().ForEachHuge([&](uint64_t, uint64_t gfn) {
      brute_pairs +=
          vm.host_slice().table().IsHugeMapped(gfn >> kHugeOrder) ? 1 : 0;
    });
    ASSERT_EQ(report.aligned_pairs, brute_pairs);

    // Tier residency reconciles with its counters at both layers.  The
    // TierSpace contract (tier_space.h) is that residency is EXACTLY the
    // demotions that neither refaulted nor were forgotten — demotion is
    // idempotent and never double-counts — and the kernel's swapped_pages
    // view must agree with the tier it demotes into.
    for (const osim::KernelBase* k :
         {static_cast<const osim::KernelBase*>(&vm.guest()),
          static_cast<const osim::KernelBase*>(&vm.host_slice())}) {
      const vmem::TierStats t = k->tier().stats(0);
      ASSERT_LE(t.refaults, t.demoted_pages);
      ASSERT_EQ(k->tier().resident(0),
                t.demoted_pages - t.refaults - t.forgotten);
      ASSERT_EQ(k->swapped_pages(), k->tier().resident(0));
    }
    // And the metrics snapshot reports exactly the shared far tier's
    // numbers (zero when overcommit is off — the per-kernel default tiers
    // never demote without reclaim pressure from the shared host tier).
    const metrics::StackSnapshot snap = metrics::Snapshot(machine, 0);
    if (const vmem::TierSpace* host_tier = machine.host_tier()) {
      const vmem::TierStats t = host_tier->stats(0);
      ASSERT_EQ(snap.tier_demoted_pages, t.demoted_pages);
      ASSERT_EQ(snap.tier_refaults, t.refaults);
      ASSERT_EQ(snap.tier_resident, host_tier->resident(0));
      ASSERT_LE(host_tier->resident(0), host_tier->peak_resident());
    } else {
      ASSERT_FALSE(config.reclaim.enabled);
      ASSERT_EQ(snap.tier_demoted_pages, 0u);
      ASSERT_EQ(snap.tier_refaults, 0u);
      ASSERT_EQ(snap.tier_resident, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineFuzzTest,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005,
                                           6006, 7007, 8008));

}  // namespace
