// Determinism tests for the epoch-barriered parallel backend (DESIGN.md
// §3g).  The backend's contract is that GEMINI_VM_THREADS is unobservable
// in simulation output: the epoch schedule — which ops run in which epoch,
// when faults and driver events drain, the canonical VM-ID replay order of
// staged shared-TLB traffic — is fixed by the lane specs alone.  We pin
// that down three ways:
//
//  * full rack-density scenarios (arrival waves, diurnal load, churn, GC,
//    latency requests, teardown) digested at 1/2/4/8 worker threads must
//    be bit-identical, in all three TLB sharing modes;
//  * the machine-level epoch primitives on pre-faulted (clean) private-
//    mode streams must match Machine::AccessBatch access-for-access,
//    including the clock;
//  * a seeded fuzz interleaving VM boots, VMA churn, scalar accesses, and
//    manual epochs must replay bit-identically run-to-run.
#include "workload/epoch_executor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/rng.h"
#include "harness/experiment.h"
#include "harness/systems.h"
#include "metrics/counters.h"
#include "os/machine.h"

namespace {

using harness::BedOptions;
using harness::ScaleOptions;
using harness::SystemKind;
using mmu::TlbShareMode;

void Append(std::string* out, const char* label, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", label, v);
  *out += buf;
}

void Append(std::string* out, const char* label, uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%llu;", label,
                static_cast<unsigned long long>(v));
  *out += buf;
}

std::string DigestResult(const workload::RunResult& r) {
  std::string d = r.workload + ":";
  Append(&d, "ops", r.ops);
  Append(&d, "req", r.requests);
  Append(&d, "busy", r.busy_cycles);
  Append(&d, "thr", r.throughput);
  Append(&d, "lat", r.mean_latency);
  Append(&d, "p99", r.p99_latency);
  Append(&d, "hit", r.tlb_hits);
  Append(&d, "miss", r.tlb_misses);
  Append(&d, "fault", r.faulting_accesses);
  Append(&d, "ghuge", r.alignment.guest_huge);
  Append(&d, "align", r.alignment.well_aligned_rate);
  // Every StackSnapshot word, in field-list order.
  metrics::ForEachField(
      [&](metrics::FieldKind, uint64_t v) { Append(&d, "c", v); },
      r.counters);
  return d;
}

// A 3-VM rack-density slice: a churning key/value store, a GC'd latency
// server arriving in the second wave, and a gradually-growing throughput
// job — every driver event class the serial phase must drain.
std::vector<workload::WorkloadSpec> ScenarioSpecs() {
  workload::WorkloadSpec kv = workload::SpecByName("Canneal");
  kv.name = "kv";
  kv.working_set_pages = 4096;
  kv.vma_count = 8;
  kv.ops = 24000;
  kv.churn_period_ops = 3000;

  workload::WorkloadSpec server = kv;
  server.name = "server";
  server.kind = workload::Kind::kLatency;
  server.accesses_per_request = 16;
  server.churn_period_ops = 0;
  server.gc_sweep_period_ops = 8000;
  server.ops = 20000;

  workload::WorkloadSpec grower = kv;
  grower.name = "grower";
  grower.alloc = workload::AllocPattern::kGradual;
  grower.churn_period_ops = 0;
  grower.ops = 16000;
  return {kv, server, grower};
}

std::string RunScenario(TlbShareMode mode, uint32_t threads) {
  BedOptions bed;
  bed.host_frames = 131072;
  bed.vm_gfn_count = 16384;
  bed.fragmented = false;
  bed.boot_noise_fraction = 0.1;
  bed.seed = 33;
  bed.tlb_mode = mode;
  ScaleOptions scale;
  scale.threads = threads;
  scale.quantum = 64;
  scale.wave_size = 2;
  scale.wave_epochs = 16;
  scale.teardown_on_finish = true;
  scale.load_phases = {100, 25};
  scale.load_phase_epochs = 32;
  const harness::CollocatedManyResult r = harness::RunCollocatedMany(
      SystemKind::kGemini, ScenarioSpecs(), bed, scale);
  std::string digest;
  Append(&digest, "epochs", r.epochs);
  for (const workload::RunResult& vm : r.vms) {
    digest += DigestResult(vm);
  }
  for (const auto& row : r.interference.vms) {
    digest += row.label + ";";
    Append(&digest, "rmiss", row.tlb_misses);
    for (const uint64_t d : row.displaced_by) {
      Append(&digest, "d", d);
    }
  }
  return digest;
}

TEST(EpochExecutor, ThreadCountUnobservableAllModes) {
  for (const TlbShareMode mode :
       {TlbShareMode::kPrivate, TlbShareMode::kShared,
        TlbShareMode::kPartitioned}) {
    const std::string serial = RunScenario(mode, 1);
    for (const uint32_t threads : {2u, 4u, 8u}) {
      EXPECT_EQ(serial, RunScenario(mode, threads))
          << "mode=" << mmu::TlbShareModeName(mode)
          << " threads=" << threads;
    }
  }
}

// --- machine-level primitives --------------------------------------------

struct TwoVmBed {
  std::unique_ptr<osim::Machine> machine;
  std::vector<int32_t> vm_ids;
  std::vector<uint64_t> base_vpns;  // one mapped VMA start per VM
};

TwoVmBed MakeTwoVmBed(TlbShareMode mode, uint64_t pages) {
  TwoVmBed bed;
  osim::MachineConfig config;
  config.host_frames = 65536;
  config.seed = 5;
  config.tlb_mode = mode;
  // No daemon interference: the clean-prefix equivalence below compares
  // pure translation streams.
  config.daemon_period = 1ull << 40;
  bed.machine = std::make_unique<osim::Machine>(config);
  for (int v = 0; v < 2; ++v) {
    osim::VirtualMachine& vm =
        harness::AddSystemVm(*bed.machine, SystemKind::kThp, 8192);
    bed.vm_ids.push_back(vm.id());
    osim::Vma& vma = vm.guest().aspace().MapAnonymous(pages);
    bed.base_vpns.push_back(vma.start_page);
    for (uint64_t p = 0; p < pages; ++p) {
      bed.machine->Access(vm.id(), vma.start_page + p);  // pre-fault
    }
  }
  return bed;
}

TEST(EpochExecutor, CleanEpochBatchMatchesSerialBatchPrivate) {
  constexpr uint64_t kPages = 512;
  constexpr uint64_t kOps = 2000;
  TwoVmBed serial = MakeTwoVmBed(TlbShareMode::kPrivate, kPages);
  TwoVmBed epoch = MakeTwoVmBed(TlbShareMode::kPrivate, kPages);

  base::Rng rng(99);
  std::vector<std::vector<uint64_t>> plans(2);
  for (int v = 0; v < 2; ++v) {
    for (uint64_t i = 0; i < kOps; ++i) {
      plans[v].push_back(serial.base_vpns[v] + rng.NextBelow(kPages));
    }
  }
  std::vector<osim::VirtualMachine::AccessResult> serial_out, epoch_out;
  epoch_out.resize(kOps);
  epoch.machine->BeginEpoch();
  for (int v = 0; v < 2; ++v) {
    serial.machine->AccessBatch(serial.vm_ids[v], plans[v], /*work=*/37,
                                &serial_out);
    const size_t done = epoch.machine->EpochAccessBatch(
        epoch.vm_ids[v], plans[v], /*work=*/37, &epoch_out);
    ASSERT_EQ(done, kOps) << "pre-faulted stream must stay clean";
    for (uint64_t i = 0; i < kOps; ++i) {
      ASSERT_EQ(serial_out[i].cycles, epoch_out[i].cycles) << i;
      ASSERT_EQ(serial_out[i].tlb_hit, epoch_out[i].tlb_hit) << i;
      ASSERT_EQ(serial_out[i].well_aligned, epoch_out[i].well_aligned) << i;
    }
  }
  epoch.machine->EpochBarrier();
  EXPECT_EQ(serial.machine->Now(), epoch.machine->Now());
  for (int v = 0; v < 2; ++v) {
    const auto& st = serial.machine->vm(serial.vm_ids[v]).engine().tlb();
    const auto& et = epoch.machine->vm(epoch.vm_ids[v]).engine().tlb();
    EXPECT_EQ(st.hits(), et.hits()) << v;
    EXPECT_EQ(st.misses(), et.misses()) << v;
  }
}

TEST(EpochExecutor, EpochGuardsRejectSerialEntryPoints) {
  TwoVmBed bed = MakeTwoVmBed(TlbShareMode::kPrivate, 64);
  bed.machine->BeginEpoch();
  EXPECT_TRUE(bed.machine->in_epoch());
  EXPECT_DEATH(bed.machine->Access(bed.vm_ids[0], bed.base_vpns[0]), "");
  EXPECT_DEATH(bed.machine->AdvanceTime(100), "");
  bed.machine->EpochBarrier();
  EXPECT_FALSE(bed.machine->in_epoch());
}

TEST(EpochExecutor, MalformedVmThreadsAborts) {
  for (const char* bad : {"abc", "0"}) {
    EXPECT_DEATH(
        {
          ::setenv("GEMINI_VM_THREADS", bad, 1);
          workload::VmThreadsFromEnv();
        },
        std::string("GEMINI_VM_THREADS='") + bad + "'");
  }
}

// Seeded fuzz: boots, VMA churn (map/unmap = shutdown noise), scalar
// accesses, and manual epochs with faulting streams interleave under one
// plan; the whole machine must replay bit-identically.
std::string FuzzRun(uint64_t seed, TlbShareMode mode) {
  osim::MachineConfig config;
  config.host_frames = 131072;
  config.seed = 11;
  config.tlb_mode = mode;
  // Up to five VMs boot; a partitioned array gives each its window.
  config.tlb_expected_vms = 5;
  config.daemon_period = 200000;
  osim::Machine machine(config);
  base::Rng rng(seed);

  struct FuzzVm {
    int32_t id;
    std::vector<osim::Vma*> vmas;
  };
  std::vector<FuzzVm> vms;
  std::vector<uint64_t> vpns;
  std::vector<osim::VirtualMachine::AccessResult> results;
  auto boot = [&] {
    osim::VirtualMachine& vm =
        harness::AddSystemVm(machine, SystemKind::kGemini, 8192);
    vms.push_back({vm.id(), {}});
    vms.back().vmas.push_back(&vm.guest().aspace().MapAnonymous(256));
  };
  boot();
  for (int round = 0; round < 160; ++round) {
    const uint32_t action = rng.NextBelow(10);
    FuzzVm& vm = vms[rng.NextBelow(vms.size())];
    osim::GuestKernel& guest = machine.vm(vm.id).guest();
    if (action == 0 && vms.size() < 5) {
      boot();
    } else if (action == 1 && vm.vmas.size() < 6) {
      vm.vmas.push_back(&guest.aspace().MapAnonymous(128 + rng.NextBelow(256)));
    } else if (action == 2 && vm.vmas.size() > 1) {
      const size_t victim = rng.NextBelow(vm.vmas.size());
      guest.UnmapVma(vm.vmas[victim]->id);
      vm.vmas.erase(vm.vmas.begin() + victim);
    } else if (action <= 5) {
      // Scalar accesses, possibly faulting.
      const osim::Vma* vma = vm.vmas[rng.NextBelow(vm.vmas.size())];
      for (int i = 0; i < 32; ++i) {
        machine.Access(vm.id, vma->start_page + rng.NextBelow(vma->pages),
                       rng.NextBelow(50));
      }
    } else {
      // One manual epoch over every VM, faults drained after the barrier.
      struct Pending {
        int32_t id;
        std::vector<uint64_t> rest;
      };
      std::vector<Pending> pending;
      machine.BeginEpoch();
      for (FuzzVm& lane : vms) {
        const osim::Vma* vma = lane.vmas[rng.NextBelow(lane.vmas.size())];
        vpns.clear();
        for (int i = 0; i < 64; ++i) {
          vpns.push_back(vma->start_page + rng.NextBelow(vma->pages));
        }
        if (results.size() < vpns.size()) {
          results.resize(vpns.size());
        }
        const size_t done =
            machine.EpochAccessBatch(lane.id, vpns, 25, &results);
        if (done < vpns.size()) {
          pending.push_back(
              {lane.id, {vpns.begin() + done, vpns.end()}});
        }
      }
      machine.EpochBarrier();
      for (const Pending& p : pending) {
        machine.AccessBatch(p.id, p.rest, 25, &results);
      }
    }
  }
  std::string digest;
  Append(&digest, "now", machine.Now());
  for (const FuzzVm& vm : vms) {
    const auto& tlb = machine.vm(vm.id).engine().tlb();
    Append(&digest, "h", tlb.hits());
    Append(&digest, "m", tlb.misses());
    Append(&digest, "acc", machine.vm(vm.id).accesses());
    Append(&digest, "mapped",
           machine.vm(vm.id).host_slice().table().mapped_pages());
  }
  return digest;
}

TEST(EpochExecutor, FuzzChurnReplaysBitIdentically) {
  for (const TlbShareMode mode :
       {TlbShareMode::kPrivate, TlbShareMode::kShared,
        TlbShareMode::kPartitioned}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      EXPECT_EQ(FuzzRun(seed, mode), FuzzRun(seed, mode))
          << "mode=" << mmu::TlbShareModeName(mode) << " seed=" << seed;
    }
  }
}

}  // namespace
