// Tests for the TLB sharing domain (mmu/tlb_domain.h): VMID-tagged views
// over private, shared, and way-partitioned physical arrays.
//
// Four layers of coverage:
//
//  * Domain unit tests: tag isolation on a shared array, selective
//    invalidation of one VM's entries, way windows confining evictions.
//  * A private-vs-HEAD differential at the engine level: an engine that
//    *owns* its Tlb (the pre-domain construction, still the default) and
//    an engine borrowing a private-mode domain view must be bit-for-bit
//    indistinguishable under translation streams, batched translation,
//    and generation churn.
//  * A machine-level differential reusing the test_access_batch.cc
//    FNV-digest pattern across the four representative system stacks: on
//    a private-mode machine with two collocated VMs, access batching must
//    be unobservable (results, per-VM TLB counters, logical time, and
//    structural page-table digests all equal).
//  * Behavioral assertions for the sharing modes: shared mode makes a
//    cache-fitting victim measurably miss more when an aggressor streams
//    (cross-VM evictions visible in the victim's counters); partitioned
//    mode makes the victim's hit/miss counts *exactly* independent of the
//    aggressor's intensity; and fuzz epochs rotating through all three
//    modes keep the per-VM counter accounting consistent with the
//    physical array.
#include "mmu/tlb_domain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "base/rng.h"
#include "base/types.h"
#include "harness/systems.h"
#include "mmu/page_table.h"
#include "mmu/translation_engine.h"
#include "os/machine.h"
#include "os/virtual_machine.h"

namespace {

using base::kPagesPerHuge;
using base::PageSize;
using mmu::TlbShareMode;
using osim::VirtualMachine;

mmu::TlbDomainConfig SmallDomain(TlbShareMode mode, uint32_t sets,
                                 uint32_t ways) {
  mmu::TlbDomainConfig config;
  config.tlb.sets = sets;
  config.tlb.ways = ways;
  config.mode = mode;
  return config;
}

// --- Domain unit tests -----------------------------------------------------

TEST(TlbDomain, PrivateModeBuildsSeparateArrays) {
  mmu::TlbDomain domain(SmallDomain(TlbShareMode::kPrivate, 16, 4));
  mmu::TlbView v0 = domain.AddVm(0);
  mmu::TlbView v1 = domain.AddVm(1);
  EXPECT_NE(&v0.physical(), &v1.physical());
  EXPECT_EQ(domain.shared_tlb(), nullptr);

  v0.Insert(100, PageSize::kBase, 5);
  v1.Insert(100, PageSize::kBase, 9);
  EXPECT_EQ(v0.Lookup(100).frame, 5u);
  EXPECT_EQ(v1.Lookup(100).frame, 9u);

  // Invalidating one VM empties its own array and leaves the other's.
  EXPECT_EQ(domain.InvalidateVm(0), 1u);
  EXPECT_FALSE(v0.Probe(100));
  EXPECT_TRUE(v1.Probe(100));
  EXPECT_EQ(v0.vm_invalidated(), 1u);
  EXPECT_EQ(v1.vm_invalidated(), 0u);
  EXPECT_EQ(v0.entry_count(), 0u);
  EXPECT_EQ(v1.entry_count(), 1u);
}

TEST(TlbDomain, SharedArrayIsolatesHitsByVmid) {
  mmu::TlbDomain domain(SmallDomain(TlbShareMode::kShared, 16, 4));
  mmu::TlbView v0 = domain.AddVm(0);
  mmu::TlbView v1 = domain.AddVm(1);
  EXPECT_EQ(&v0.physical(), &v1.physical());
  EXPECT_EQ(&v0.physical(), domain.shared_tlb());

  // The same VPN translates differently in each VM; tags keep them apart.
  v0.Insert(100, PageSize::kBase, 5);
  EXPECT_FALSE(v1.Probe(100));
  v1.Insert(100, PageSize::kBase, 9);
  EXPECT_EQ(v0.Lookup(100).frame, 5u);
  EXPECT_EQ(v1.Lookup(100).frame, 9u);
  EXPECT_EQ(v0.hits(), 1u);
  EXPECT_EQ(v1.hits(), 1u);

  // Invalidating one VM is a tagged selective invalidation: only its
  // entries leave the shared array.
  EXPECT_EQ(domain.InvalidateVm(0), 1u);
  EXPECT_FALSE(v0.Probe(100));
  EXPECT_TRUE(v1.Probe(100));
  EXPECT_EQ(v0.vm_invalidated(), 1u);
  EXPECT_EQ(v1.vm_invalidated(), 0u);
  EXPECT_EQ(domain.shared_tlb()->entry_count(), 1u);
}

TEST(TlbDomain, SharedModeInsertsEvictAcrossVms) {
  // One set, two ways: the second VM's fill must evict the LRU entry, which
  // belongs to the first VM — counted on the victim as a cross-VM eviction.
  mmu::TlbDomain domain(SmallDomain(TlbShareMode::kShared, 1, 2));
  mmu::TlbView v0 = domain.AddVm(0);
  mmu::TlbView v1 = domain.AddVm(1);
  v0.Insert(1, PageSize::kBase, 10);
  v0.Insert(2, PageSize::kBase, 20);
  EXPECT_EQ(v0.entry_count(), 2u);
  v1.Insert(3, PageSize::kBase, 30);
  EXPECT_EQ(v0.cross_vm_evictions(), 1u);
  EXPECT_EQ(v0.entry_count(), 1u);
  EXPECT_EQ(v1.entry_count(), 1u);
}

TEST(TlbDomain, PartitionedWindowsConfineEvictions) {
  // Four ways split two-and-two: each VM can only evict inside its own
  // window, so an aggressor churning its window never displaces the peer.
  mmu::TlbDomainConfig config = SmallDomain(TlbShareMode::kPartitioned, 1, 4);
  config.expected_vms = 2;
  mmu::TlbDomain domain(config);
  mmu::TlbView v0 = domain.AddVm(0);
  mmu::TlbView v1 = domain.AddVm(1);
  v0.Insert(1, PageSize::kBase, 10);
  v0.Insert(2, PageSize::kBase, 20);
  for (uint64_t vpn = 100; vpn < 120; ++vpn) {
    v1.Insert(vpn, PageSize::kBase, vpn);
  }
  EXPECT_TRUE(v0.Probe(1));
  EXPECT_TRUE(v0.Probe(2));
  EXPECT_EQ(v0.cross_vm_evictions(), 0u);
  EXPECT_EQ(v1.cross_vm_evictions(), 0u);
  EXPECT_EQ(v0.entry_count(), 2u);
  EXPECT_EQ(v1.entry_count(), 2u);
}

TEST(TlbDomain, InvalidateVmCountsEntriesNotFlushes) {
  mmu::TlbDomain domain(SmallDomain(TlbShareMode::kShared, 16, 4));
  mmu::TlbView v0 = domain.AddVm(0);
  mmu::TlbView v1 = domain.AddVm(1);
  for (uint64_t vpn = 0; vpn < 8; ++vpn) {
    v0.Insert(vpn, PageSize::kBase, vpn);
  }
  v1.Insert(3, PageSize::kBase, 99);
  EXPECT_EQ(domain.InvalidateVm(0), 8u);
  EXPECT_EQ(v0.vm_invalidated(), 8u);
  EXPECT_EQ(domain.shared_tlb()->entry_count(), 1u);
  EXPECT_TRUE(v1.Probe(3));
}

// --- Engine-level private-vs-HEAD differential -----------------------------

// The pre-domain construction (an engine owning its Tlb) and a private-mode
// domain view must be indistinguishable: same hits, misses, stale hits,
// charged cycles, and translation results, with generation churn between
// rounds of translation.
TEST(TlbDomainDifferential, PrivateViewMatchesOwnedEngine) {
  mmu::PageTable guest_a, ept_a, guest_b, ept_b;
  for (uint64_t r = 0; r < 8; ++r) {
    guest_a.MapHuge(r, r * kPagesPerHuge);
    ept_a.MapHuge(r, (8 + r) * kPagesPerHuge);
    guest_b.MapHuge(r, r * kPagesPerHuge);
    ept_b.MapHuge(r, (8 + r) * kPagesPerHuge);
  }
  // HEAD path: the engine builds and owns its array.
  mmu::TranslationEngine owned(mmu::TranslationEngine::Config{}, &guest_a,
                               &ept_a);
  // Domain path: identical geometry, private mode, vmid 0.
  mmu::TlbDomainConfig domain_config;
  domain_config.tlb = owned.tlb().config();
  mmu::TlbDomain domain(domain_config);
  mmu::TranslationEngine viewed(mmu::TranslationEngine::Config{}, &guest_b,
                                &ept_b, domain.AddVm(0));

  base::Rng rng(13);
  std::vector<uint64_t> vpns(64);
  for (int round = 0; round < 100; ++round) {
    for (auto& v : vpns) {
      v = rng.NextBelow(8 * kPagesPerHuge);
    }
    for (const uint64_t v : vpns) {
      const auto a = owned.Translate(v);
      const auto b = viewed.Translate(v);
      ASSERT_EQ(a.status, b.status) << round;
      ASSERT_EQ(a.frame, b.frame) << round;
      ASSERT_EQ(a.well_aligned_huge, b.well_aligned_huge) << round;
    }
    for (const uint64_t v : vpns) {
      ASSERT_EQ(viewed.Translate(v).status, mmu::TranslateStatus::kOk);
    }
    for (const uint64_t v : vpns) {
      ASSERT_EQ(owned.Translate(v).status, mmu::TranslateStatus::kOk);
    }
    // Demote + re-promote a region in place on both sides so stale-stamp
    // revalidation fires through both constructions.
    const uint64_t r = rng.NextBelow(8);
    guest_a.Demote(r);
    guest_a.PromoteInPlace(r);
    guest_b.Demote(r);
    guest_b.PromoteInPlace(r);
    ASSERT_EQ(owned.tlb().hits(), viewed.tlb().hits()) << round;
    ASSERT_EQ(owned.tlb().misses(), viewed.tlb().misses()) << round;
    ASSERT_EQ(owned.tlb().stale_hits(), viewed.tlb().stale_hits())
        << round;
    ASSERT_EQ(owned.translation_cycles(), viewed.translation_cycles())
        << round;
  }
  // Churn is revalidated in place (restamp, not drop), so hits — not stale
  // drops — prove the generation path ran identically on both sides.
  EXPECT_GT(owned.tlb().hits(), 0u);
}

// --- Machine-level differential across the four system stacks --------------

// Scripted two-VM access plan; everything derives from the seed so every
// driver replays the identical interleaving.
struct Plan {
  struct Segment {
    std::vector<uint64_t> vpns0;  // offsets into VM 0's VMA
    std::vector<uint64_t> vpns1;  // offsets into VM 1's VMA
    base::Cycles advance_after = 0;
  };
  std::vector<Segment> segments;
};

Plan BuildPlan(uint64_t seed) {
  base::Rng rng(seed);
  Plan plan;
  for (int s = 0; s < 8; ++s) {
    Plan::Segment seg;
    const uint64_t len = 100 + rng.NextBelow(400);
    for (uint64_t i = 0; i < len; ++i) {
      seg.vpns0.push_back(rng.NextBelow(4 * kPagesPerHuge));
      seg.vpns1.push_back(rng.NextBelow(4 * kPagesPerHuge));
    }
    if (rng.NextBool(0.5)) {
      seg.advance_after = 1000 * (1 + rng.NextBelow(50));
    }
    plan.segments.push_back(std::move(seg));
  }
  return plan;
}

struct VmObservation {
  std::vector<VirtualMachine::AccessResult> results;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t tlb_stale = 0;
  uint64_t tlb_shootdowns = 0;
  uint64_t cross_vm = 0;
  uint64_t guest_digest = 0;
  uint64_t host_digest = 0;
};

struct Observation {
  VmObservation vm[2];
  base::Cycles now = 0;
};

uint64_t DigestTable(const mmu::PageTable& table) {
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

// Replays `plan` on a private-mode machine with two collocated VMs under
// `kind`, alternating 50-access bursts between the VMs.  Scalar when
// batch == 0, else via AccessBatch in `batch`-sized chunks.
Observation Drive(harness::SystemKind kind, uint64_t seed, const Plan& plan,
                  uint64_t batch) {
  osim::MachineConfig config;
  config.host_frames = 32768;
  config.daemon_period = 20000;
  config.seed = seed;
  osim::Machine machine(config);
  VirtualMachine& vm0 = harness::AddSystemVm(machine, kind, 8192);
  VirtualMachine& vm1 = harness::AddSystemVm(machine, kind, 8192);
  machine.FragmentGuestMemory(0, 0.6);
  machine.FragmentGuestMemory(1, 0.6);
  machine.FragmentHostMemory(0.6);
  const uint64_t base0 =
      vm0.guest().aspace().MapAnonymous(4 * kPagesPerHuge).start_page;
  const uint64_t base1 =
      vm1.guest().aspace().MapAnonymous(4 * kPagesPerHuge).start_page;

  Observation obs;
  std::vector<uint64_t> vpns;
  std::vector<VirtualMachine::AccessResult> out;
  const auto burst = [&](int32_t id, std::span<const uint64_t> offs,
                         uint64_t base) {
    vpns.clear();
    for (const uint64_t off : offs) {
      vpns.push_back(base + off);
    }
    if (batch == 0) {
      for (const uint64_t vpn : vpns) {
        obs.vm[id].results.push_back(machine.Access(id, vpn, 50));
      }
    } else {
      for (size_t i = 0; i < vpns.size(); i += batch) {
        const size_t n = std::min<size_t>(batch, vpns.size() - i);
        machine.AccessBatch(id, std::span(vpns.data() + i, n), 50, &out);
        obs.vm[id].results.insert(obs.vm[id].results.end(), out.begin(),
                                  out.end());
      }
    }
  };
  for (const Plan::Segment& seg : plan.segments) {
    // Alternate 50-access bursts so the VMs genuinely interleave on the
    // clock (and, in shared arrangements, in the physical array).
    for (size_t i = 0; i < seg.vpns0.size(); i += 50) {
      const size_t n = std::min<size_t>(50, seg.vpns0.size() - i);
      burst(0, std::span(seg.vpns0.data() + i, n), base0);
      burst(1, std::span(seg.vpns1.data() + i, n), base1);
    }
    if (seg.advance_after != 0) {
      machine.AdvanceTime(seg.advance_after);
    }
  }

  for (int32_t id = 0; id < 2; ++id) {
    VirtualMachine& vm = machine.vm(id);
    const mmu::TlbView& tlb = vm.engine().tlb();
    obs.vm[id].tlb_hits = tlb.hits();
    obs.vm[id].tlb_misses = tlb.misses();
    obs.vm[id].tlb_stale = tlb.stale_hits();
    obs.vm[id].tlb_shootdowns = tlb.shootdowns();
    obs.vm[id].cross_vm = tlb.cross_vm_evictions();
    obs.vm[id].guest_digest = DigestTable(vm.guest().table());
    obs.vm[id].host_digest = DigestTable(vm.host_slice().table());
  }
  obs.now = machine.Now();
  return obs;
}

void ExpectSameObservation(const Observation& scalar, const Observation& b,
                           uint64_t batch) {
  for (int32_t id = 0; id < 2; ++id) {
    const VmObservation& s = scalar.vm[id];
    const VmObservation& r = b.vm[id];
    ASSERT_EQ(s.results.size(), r.results.size())
        << "batch " << batch << " vm " << id;
    for (size_t i = 0; i < s.results.size(); ++i) {
      ASSERT_EQ(s.results[i].cycles, r.results[i].cycles)
          << "batch " << batch << " vm " << id << " access " << i;
      ASSERT_EQ(s.results[i].tlb_hit, r.results[i].tlb_hit)
          << "batch " << batch << " vm " << id << " access " << i;
      ASSERT_EQ(s.results[i].faults_taken, r.results[i].faults_taken)
          << "batch " << batch << " vm " << id << " access " << i;
    }
    EXPECT_EQ(s.tlb_hits, r.tlb_hits) << "batch " << batch << " vm " << id;
    EXPECT_EQ(s.tlb_misses, r.tlb_misses)
        << "batch " << batch << " vm " << id;
    EXPECT_EQ(s.tlb_stale, r.tlb_stale) << "batch " << batch << " vm " << id;
    EXPECT_EQ(s.tlb_shootdowns, r.tlb_shootdowns)
        << "batch " << batch << " vm " << id;
    EXPECT_EQ(s.cross_vm, r.cross_vm) << "batch " << batch << " vm " << id;
    EXPECT_EQ(s.guest_digest, r.guest_digest)
        << "batch " << batch << " vm " << id;
    EXPECT_EQ(s.host_digest, r.host_digest)
        << "batch " << batch << " vm " << id;
  }
  EXPECT_EQ(scalar.now, b.now) << "batch " << batch;
}

class TlbDomainDifferentialTest
    : public ::testing::TestWithParam<harness::SystemKind> {};

TEST_P(TlbDomainDifferentialTest, BatchSizeIsUnobservableWithTwoVms) {
  const harness::SystemKind kind = GetParam();
  const uint64_t seed = 20230817;
  const Plan plan = BuildPlan(seed);
  const Observation scalar = Drive(kind, seed, plan, 0);
  ASSERT_GT(scalar.vm[0].tlb_hits, 0u);
  ASSERT_GT(scalar.vm[0].tlb_misses, 0u);
  ASSERT_GT(scalar.vm[1].tlb_hits, 0u);
  // Private arrays: collocation can never evict across VMs.
  EXPECT_EQ(scalar.vm[0].cross_vm, 0u);
  EXPECT_EQ(scalar.vm[1].cross_vm, 0u);

  for (const uint64_t batch : {7ull, 64ull}) {
    const Observation batched = Drive(kind, seed, plan, batch);
    ExpectSameObservation(scalar, batched, batch);
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, TlbDomainDifferentialTest,
                         ::testing::Values(harness::SystemKind::kGemini,
                                           harness::SystemKind::kThp,
                                           harness::SystemKind::kHawkEye,
                                           harness::SystemKind::kHostBVmB));

// --- Sharing-mode behavior -------------------------------------------------

struct InterferenceResult {
  uint64_t victim_hits = 0;
  uint64_t victim_misses = 0;
  uint64_t victim_cross_vm = 0;
};

// Victim loops over a TLB-fitting working set while an aggressor streams
// `aggressor_pages` distinct pages in 16-access bursts per victim access —
// bursty enough that, on a shared array, a victim entry ages past the
// aggressor's refills before its next reuse (plain 1:1 interleaving lets
// LRU protect the hotter victim set, which is the *absence* of
// interference).  Counters are deltas over the post-warmup window.
// Base-only stacks keep every entry 4 KiB so the arithmetic is exact.
InterferenceResult RunInterference(TlbShareMode mode,
                                   uint64_t aggressor_pages) {
  osim::MachineConfig config;
  config.host_frames = 65536;
  config.daemon_period = 20000;
  config.seed = 7;
  config.tlb_mode = mode;
  osim::Machine machine(config);
  VirtualMachine& victim =
      harness::AddSystemVm(machine, harness::SystemKind::kHostBVmB, 16384);
  VirtualMachine& aggressor =
      harness::AddSystemVm(machine, harness::SystemKind::kHostBVmB, 16384);
  const uint64_t victim_pages = 1024;  // < 1536 entries: fits when private
  const uint64_t victim_base =
      victim.guest().aspace().MapAnonymous(victim_pages).start_page;
  const uint64_t agg_base =
      aggressor.guest().aspace().MapAnonymous(8192).start_page;

  const auto step = [&](uint64_t i) {
    machine.Access(0, victim_base + (i % victim_pages), 50);
    for (uint64_t k = 0; k < 16; ++k) {
      machine.Access(1, agg_base + ((i * 16 + k) % aggressor_pages), 50);
    }
  };
  for (uint64_t i = 0; i < 2048; ++i) {
    step(i);  // warmup: victim set resident, aggressor stream started
  }
  const mmu::TlbView& tlb = victim.engine().tlb();
  const uint64_t hits0 = tlb.hits();
  const uint64_t misses0 = tlb.misses();
  const uint64_t cross0 = tlb.cross_vm_evictions();
  for (uint64_t i = 2048; i < 10240; ++i) {
    step(i);
  }
  InterferenceResult r;
  r.victim_hits = tlb.hits() - hits0;
  r.victim_misses = tlb.misses() - misses0;
  r.victim_cross_vm = tlb.cross_vm_evictions() - cross0;
  return r;
}

TEST(TlbDomainSharing, SharedModeRaisesVictimMissRate) {
  const InterferenceResult priv =
      RunInterference(TlbShareMode::kPrivate, 8192);
  const InterferenceResult shared =
      RunInterference(TlbShareMode::kShared, 8192);
  // Private arrays: the victim's working set fits and stays resident.
  EXPECT_EQ(priv.victim_cross_vm, 0u);
  EXPECT_LT(priv.victim_misses, 100u);
  // Shared array: the aggressor's stream displaces the victim's entries —
  // the interference channel the arrangement exists to expose.
  EXPECT_GT(shared.victim_cross_vm, 1000u);
  EXPECT_GT(shared.victim_misses, priv.victim_misses + 1000u);
}

TEST(TlbDomainSharing, PartitionedModeIsolatesVictimFromAggressor) {
  // Same machine, same victim stream; only the aggressor's footprint
  // changes.  With static way windows the victim's hit/miss counts must be
  // *exactly* independent of the aggressor's intensity.
  const InterferenceResult quiet =
      RunInterference(TlbShareMode::kPartitioned, 16);
  const InterferenceResult noisy =
      RunInterference(TlbShareMode::kPartitioned, 8192);
  EXPECT_EQ(quiet.victim_hits, noisy.victim_hits);
  EXPECT_EQ(quiet.victim_misses, noisy.victim_misses);
  EXPECT_EQ(quiet.victim_cross_vm, 0u);
  EXPECT_EQ(noisy.victim_cross_vm, 0u);
  // The window (6 of 12 ways) is smaller than the working set, so the
  // isolation is not vacuous: the victim genuinely misses in its window.
  EXPECT_GT(noisy.victim_misses, 0u);
}

// --- Fuzz epochs rotating modes --------------------------------------------

class TlbDomainFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TlbDomainFuzzTest, RotatingModesKeepCounterAccounting) {
  const uint64_t seed = GetParam();
  base::Rng rng(seed);
  const TlbShareMode mode = static_cast<TlbShareMode>(seed % 3);
  osim::MachineConfig config;
  config.host_frames = 32768;
  config.daemon_period = 20000;
  config.seed = seed;
  config.tlb_mode = mode;
  osim::Machine machine(config);
  const auto systems = harness::AllSystems();
  VirtualMachine* vms[2];
  uint64_t bases[2];
  for (int32_t id = 0; id < 2; ++id) {
    const harness::SystemKind kind = systems[rng.NextBelow(systems.size())];
    vms[id] = &harness::AddSystemVm(machine, kind, 8192);
    bases[id] =
        vms[id]->guest().aspace().MapAnonymous(4 * kPagesPerHuge).start_page;
  }
  machine.FragmentHostMemory(0.5 + rng.NextDouble() * 0.4);

  std::vector<uint64_t> vpns;
  std::vector<VirtualMachine::AccessResult> out;
  for (int burst = 0; burst < 30; ++burst) {
    const int32_t id = static_cast<int32_t>(rng.NextBelow(2));
    vpns.resize(100);
    for (auto& v : vpns) {
      v = bases[id] + rng.NextBelow(4 * kPagesPerHuge);
    }
    if (rng.NextBool(0.5)) {
      for (const uint64_t vpn : vpns) {
        const auto r = machine.Access(id, vpn, 50);
        ASSERT_GT(r.cycles, 0u);
      }
    } else {
      machine.AccessBatch(id, vpns, 50, &out);
      for (const auto& r : out) {
        ASSERT_GT(r.cycles, 0u);
      }
    }
    if (rng.NextBool(0.3)) {
      machine.AdvanceTime(config.daemon_period * (1 + rng.NextBelow(3)));
    }

    // --- Invariants -----------------------------------------------------
    for (int32_t v = 0; v < 2; ++v) {
      vms[v]->guest().buddy().CheckInvariants();
      vms[v]->guest().table().CheckInvariants();
      vms[v]->host_slice().table().CheckInvariants();
    }
    machine.host().buddy().CheckInvariants();

    const mmu::TlbView& t0 = vms[0]->engine().tlb();
    const mmu::TlbView& t1 = vms[1]->engine().tlb();
    if (mode == TlbShareMode::kPrivate) {
      ASSERT_EQ(machine.tlb_domain().shared_tlb(), nullptr);
      ASSERT_EQ(t0.cross_vm_evictions(), 0u);
      ASSERT_EQ(t1.cross_vm_evictions(), 0u);
    } else {
      // One physical array: the per-VM slots must tile the aggregate
      // counters and the aggregate residency exactly.
      const mmu::Tlb* shared = machine.tlb_domain().shared_tlb();
      ASSERT_NE(shared, nullptr);
      ASSERT_EQ(shared->hits(), t0.hits() + t1.hits());
      ASSERT_EQ(shared->misses(), t0.misses() + t1.misses());
      ASSERT_EQ(shared->entry_count(),
                shared->entry_count(0) + shared->entry_count(1));
      uint64_t occupancy = 0;
      for (uint32_t s = 0; s < shared->config().sets; ++s) {
        occupancy += shared->set_occupancy(s);
      }
      ASSERT_EQ(occupancy, shared->entry_count());
      if (mode == TlbShareMode::kPartitioned) {
        ASSERT_EQ(t0.cross_vm_evictions(), 0u);
        ASSERT_EQ(t1.cross_vm_evictions(), 0u);
      }
    }

    // Translations still compose correctly through both tables.
    for (int probe = 0; probe < 4; ++probe) {
      const int32_t v = static_cast<int32_t>(rng.NextBelow(2));
      const uint64_t vpn = bases[v] + rng.NextBelow(4 * kPagesPerHuge);
      const auto g = vms[v]->guest().table().Lookup(vpn);
      const auto r = vms[v]->engine().Translate(vpn);
      if (!g.has_value()) {
        ASSERT_EQ(r.status, mmu::TranslateStatus::kGuestFault);
        continue;
      }
      const auto h = vms[v]->host_slice().table().Lookup(g->frame);
      if (h.has_value()) {
        ASSERT_EQ(r.status, mmu::TranslateStatus::kOk);
        ASSERT_EQ(r.frame, h->frame) << "vpn " << vpn;
      } else {
        ASSERT_EQ(r.status, mmu::TranslateStatus::kHostFault);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbDomainFuzzTest,
                         ::testing::Values(301, 302, 303, 304, 305, 306));

}  // namespace
