#include "cells.h"

#include <sched.h>

#include <algorithm>
#include <memory>

#include "base/check.h"
#include "base/rng.h"
#include "digest.h"
#include "gemini/gemini_policy.h"
#include "metrics/counters.h"
#include "metrics/export.h"
#include "os/reclaim_daemon.h"
#include "workload/catalog.h"
#include "workload/driver.h"
#include "workload/epoch_executor.h"

namespace perfbench {

namespace {

using harness::SystemKind;

// The op scale of GEMINI_FAST=1 for the catalog workloads.
constexpr double kFastOpScale = 0.3;
// InstallGeminiVm's default MHPS period.
constexpr base::Cycles kGeminiScanPeriod = 1'000'000;

// The CPUs this process may run on (what nproc reports): the affinity
// mask, so a cpuset or taskset limit is respected.
uint32_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return static_cast<uint32_t>(CPU_COUNT(&set));
}

std::string CellName(const std::string& what, SystemKind kind) {
  return what + "/" + std::string(harness::SystemName(kind));
}

// fig08 (fragmented half): every catalog workload on every system, one
// fresh fragmented clean-slate VM per cell.
std::vector<CellSpec> CleanFragCells(uint64_t variant) {
  std::vector<CellSpec> cells;
  for (const workload::WorkloadSpec& spec : workload::CleanSlateCatalog()) {
    for (const SystemKind kind : harness::AllSystems()) {
      CellSpec cell;
      cell.name = CellName(spec.name, kind);
      cell.kind = kind;
      cell.shape = Shape::kCleanSlate;
      cell.bed.seed += variant;
      cell.specs = {harness::ScaleSpec(spec, kFastOpScale)};
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// fig12: SVM prefill, teardown, then the measured workload in the same
// VM.  A reused cell costs ~2.6x a clean one, so a pass takes every
// fourth catalog workload (all four access/allocation styles stay
// represented) on all eight systems.
std::vector<CellSpec> ReusedVmCells(uint64_t variant) {
  std::vector<CellSpec> cells;
  const std::vector<workload::WorkloadSpec> catalog =
      workload::CleanSlateCatalog();
  for (size_t w = 0; w < catalog.size(); w += 4) {
    for (const SystemKind kind : harness::AllSystems()) {
      CellSpec cell;
      cell.name = CellName(catalog[w].name, kind);
      cell.kind = kind;
      cell.shape = Shape::kReusedVm;
      cell.bed.seed += variant;
      cell.specs = {harness::ScaleSpec(catalog[w], kFastOpScale)};
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// bench_collocation's scale_private_64vms cell (fast mode): 64 Gemini VMs
// in three tenant flavors with boot waves, diurnal load and teardown.
std::vector<CellSpec> RackChurnCells(uint64_t variant) {
  constexpr size_t kVms = 64;
  CellSpec cell;
  cell.name = CellName("scale_private_64vms", SystemKind::kGemini);
  cell.kind = SystemKind::kGemini;
  cell.shape = Shape::kCollocated;
  for (size_t i = 0; i < kVms; ++i) {
    workload::WorkloadSpec spec;
    switch (i % 3) {
      case 0:
        spec.name = "kv_churn";
        spec.working_set_pages = 1536;
        spec.vma_count = 6;
        spec.ops = 2500;
        spec.churn_period_ops = 2000;
        break;
      case 1:
        spec.name = "serve_gc";
        spec.kind = workload::Kind::kLatency;
        spec.working_set_pages = 2048;
        spec.vma_count = 4;
        spec.ops = 2000;
        spec.accesses_per_request = 8;
        spec.gc_sweep_period_ops = 3000;
        break;
      default:
        spec.name = "batch";
        spec.working_set_pages = 2048;
        spec.vma_count = 4;
        spec.ops = 2500;
        break;
    }
    cell.specs.push_back(spec);
  }
  cell.bed.host_frames = 320 * 1024;
  cell.bed.vm_gfn_count = 8 * 1024;
  cell.bed.fragmented = false;
  cell.bed.boot_noise_fraction = 0.05;
  cell.bed.seed = 97 + variant;
  cell.bed.tlb_mode = mmu::TlbShareMode::kPrivate;
  cell.scale.quantum = 128;
  cell.scale.wave_size = kVms / 4;
  cell.scale.wave_epochs = 16;
  cell.scale.teardown_on_finish = true;
  cell.scale.load_phases = {100, 40};
  cell.scale.load_phase_epochs = 32;
  // The only workload whose lanes run in parallel.  Two lanes, not four:
  // on a shared 4-vCPU VM, four busy lanes got slower over the first
  // minutes of back-to-back runs while one or two did not (NOTES.md).
  cell.scale.threads = std::clamp(UsableCpus(), 1u, 2u);
  return {cell};
}

// bench_overcommit's 4-VM cells at ratios 1.5 and 2.0, both reclaim
// policies, four systems; tenant ops scaled 4x over fast mode so reclaim
// and refault churn dominate the cell rather than boot.
std::vector<CellSpec> OvercommitCells(uint64_t variant) {
  constexpr uint64_t kVms = 4;
  constexpr uint64_t kTenantPages = 1920;
  constexpr uint64_t kDemandPages = kVms * kTenantPages + kVms * 205;
  std::vector<CellSpec> cells;
  for (const SystemKind kind : {SystemKind::kGemini, SystemKind::kThp,
                                SystemKind::kIngens, SystemKind::kHawkEye}) {
    for (const double ratio : {1.5, 2.0}) {
      for (const policy::ReclaimPolicyKind reclaim :
           {policy::ReclaimPolicyKind::kLruApprox,
            policy::ReclaimPolicyKind::kDamon}) {
        CellSpec cell;
        cell.name = CellName(std::string("oc_r") +
                                 std::to_string(static_cast<int>(ratio * 100)) +
                                 "_" + policy::ReclaimPolicyName(reclaim),
                             kind);
        cell.kind = kind;
        cell.shape = Shape::kCollocated;
        for (uint64_t i = 0; i < kVms; ++i) {
          workload::WorkloadSpec spec;
          spec.working_set_pages = kTenantPages;
          spec.ops = 10000;
          spec.work_per_access = 200;
          switch (i) {
            case 0:
            case 1:
              spec.name = "kv_zipf";
              spec.access = workload::AccessPattern::kZipf;
              spec.vma_count = 6;
              break;
            case 2:
              spec.name = "scan_mix";
              spec.access = workload::AccessPattern::kScanMix;
              spec.vma_count = 4;
              break;
            default:
              spec.name = "batch_uniform";
              spec.vma_count = 4;
              break;
          }
          cell.specs.push_back(spec);
        }
        cell.bed.host_frames = static_cast<uint64_t>(
            static_cast<double>(kDemandPages) * 1.30 / ratio);
        cell.bed.vm_gfn_count = 4096;
        cell.bed.fragmented = false;
        cell.bed.boot_noise_fraction = 0.05;
        cell.bed.seed = 211 + variant;
        cell.bed.reclaim.enabled = true;
        cell.bed.reclaim.policy = reclaim;
        cell.bed.reclaim.far_capacity_pages = 0;
        cell.scale.quantum = 256;
        cell.scale.daemon_period = 500'000;
        cell.scale.threads = 1;
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

// harness::AddSystemVm, with both policies — and for Gemini the runtime
// InstallGeminiVm registers — wrapped in timing decorators.
osim::VirtualMachine& AddDecoratedVm(osim::Machine& machine, SystemKind kind,
                                     uint64_t gfn_count,
                                     SpanRecorder* recorder) {
  auto timed = [recorder](std::unique_ptr<policy::HugePagePolicy> inner) {
    return std::make_unique<TimedPolicy>(std::move(inner), recorder);
  };
  if (kind != SystemKind::kGemini) {
    return machine.AddVm(gfn_count, timed(harness::MakeGuestPolicy(kind)),
                         timed(harness::MakeHostPolicy(kind)));
  }
  const gemini::GeminiOptions options;
  auto runtime = std::make_unique<gemini::GeminiRuntime>();
  gemini::GeminiRuntime* rt = runtime.get();
  osim::VirtualMachine& vm = machine.AddVm(
      gfn_count, timed(std::make_unique<gemini::GeminiGuestPolicy>(rt, options)),
      timed(std::make_unique<gemini::GeminiHostPolicy>(rt, options)));
  rt->Attach(&vm.guest().table(), &vm.host_slice().table(),
             &vm.guest().buddy());
  machine.AddTask(
      std::make_unique<TimedGeminiRuntime>(std::move(runtime), recorder),
      kGeminiScanPeriod);
  return vm;
}

// The harness's guest-boot model (file-local in harness/experiment.cc),
// step for step: scattered partial touches of 1 MiB mappings over ~30% of
// free guest memory, all unmapped again.  Only staged beds use it; every
// run checks one cell against the harness entry point (main.cc), so the
// copy cannot drift unnoticed.
void SimulateGuestBoot(osim::Machine& machine, int32_t vm_id, double fraction,
                       uint64_t seed) {
  if (fraction <= 0.0) {
    return;
  }
  osim::GuestKernel& guest = machine.vm(vm_id).guest();
  constexpr uint64_t kBootVmaPages = 256;
  constexpr double kBootTouchDensity = 0.45;
  base::Rng rng(seed ^ 0xb007b007ull);
  uint64_t span = static_cast<uint64_t>(
      fraction * 0.95 * static_cast<double>(guest.buddy().free_frames()));
  std::vector<int32_t> vma_ids;
  while (span > 0) {
    const uint64_t len = std::min(span, kBootVmaPages);
    osim::Vma& vma = guest.aspace().MapAnonymous(len);
    vma_ids.push_back(vma.id);
    for (uint64_t p = 0; p < len; ++p) {
      if (rng.NextBool(kBootTouchDensity)) {
        machine.Access(vm_id, vma.start_page + p, /*work_cycles=*/20);
      }
    }
    span -= len;
  }
  for (const int32_t id : vma_ids) {
    guest.UnmapVma(id);
  }
}

struct Bed {
  std::unique_ptr<osim::Machine> machine;
  std::vector<int32_t> vm_ids;
  uint64_t guest_mutations0 = 0;
  uint64_t host_mutations0 = 0;
};

uint64_t TotalAccesses(osim::Machine& machine,
                       const std::vector<int32_t>& vm_ids) {
  uint64_t total = 0;
  for (const int32_t id : vm_ids) {
    total += machine.vm(id).accesses();
  }
  return total;
}

uint64_t GuestMutations(osim::Machine& machine,
                        const std::vector<int32_t>& vm_ids) {
  uint64_t total = 0;
  for (const int32_t id : vm_ids) {
    total += machine.vm(id).guest().buddy().mutation_epoch();
  }
  return total;
}

// harness::MakeTestBed (one VM) / the set-up half of RunCollocatedMany
// (N VMs), split into the four timed stages.
Bed BuildStagedBed(const CellSpec& cell, SpanRecorder* recorder,
                   bool traced) {
  ScopedSpan setup(recorder, Span::kSetup);
  const harness::BedOptions& o = cell.bed;
  Bed bed;
  {
    ScopedSpan stage(recorder, Span::kSetupMachine);
    osim::MachineConfig config;
    config.host_frames = o.host_frames;
    config.seed = o.seed;
    config.reclaim = o.reclaim;
    config.tlb_mode = o.tlb_mode;
    config.tlb_partition_ways = o.tlb_partition_ways;
    config.tlb_repart_interval = o.tlb_repart_interval;
    config.tlb_repart_min_ways =
        o.tlb_repart_min_ways != 0 ? o.tlb_repart_min_ways : 1;
    if (cell.shape == Shape::kCollocated) {
      config.tlb_expected_vms = static_cast<uint32_t>(cell.specs.size());
      if (cell.scale.daemon_period != 0) {
        config.daemon_period = cell.scale.daemon_period;
      }
    }
    bed.machine = std::make_unique<osim::Machine>(config);
    bed.host_mutations0 = bed.machine->host().buddy().mutation_epoch();
    for (size_t i = 0; i < cell.specs.size(); ++i) {
      osim::VirtualMachine& vm =
          traced ? AddDecoratedVm(*bed.machine, cell.kind, o.vm_gfn_count,
                                  recorder)
                 : harness::AddSystemVm(*bed.machine, cell.kind,
                                        o.vm_gfn_count);
      bed.vm_ids.push_back(vm.id());
    }
    bed.guest_mutations0 = GuestMutations(*bed.machine, bed.vm_ids);
  }
  {
    ScopedSpan stage(recorder, Span::kSetupFragHost);
    if (o.fragmented) {
      bed.machine->FragmentHostMemory(o.host_fragmentation_target);
    }
  }
  {
    ScopedSpan stage(recorder, Span::kSetupFragGuest);
    if (o.fragmented) {
      for (const int32_t id : bed.vm_ids) {
        bed.machine->FragmentGuestMemory(id, o.fragmentation_target);
      }
    }
  }
  {
    ScopedSpan stage(recorder, Span::kSetupBoot);
    for (const int32_t id : bed.vm_ids) {
      SimulateGuestBoot(*bed.machine, id, o.boot_noise_fraction,
                        o.seed + static_cast<uint64_t>(id));
    }
  }
  return bed;
}

// An untraced single-VM cell takes harness::MakeTestBed itself, so its
// set-up span times the harness's own set-up.  Traced cells need stage
// spans and decorated VMs, and the harness builds a collocated bed only
// inside RunCollocatedMany, so those are staged.
Bed MakeBed(const CellSpec& cell, SpanRecorder* recorder, bool traced) {
  if (traced || cell.shape == Shape::kCollocated) {
    return BuildStagedBed(cell, recorder, traced);
  }
  ScopedSpan setup(recorder, Span::kSetup);
  harness::TestBed test_bed = harness::MakeTestBed(cell.kind, cell.bed);
  Bed bed;
  bed.machine = std::move(test_bed.machine);
  bed.vm_ids = {test_bed.vm_id};
  return bed;
}

std::vector<metrics::StackSnapshot> Snapshots(osim::Machine& machine,
                                              const std::vector<int32_t>& ids,
                                              SpanRecorder* recorder) {
  ScopedSpan span(recorder, Span::kSnapshot);
  std::vector<metrics::StackSnapshot> out;
  out.reserve(ids.size());
  for (const int32_t id : ids) {
    out.push_back(metrics::Snapshot(machine, id));
  }
  return out;
}

// Renders the cell's results through the CSV and JSON exporters (the
// strings are discarded: only the host time of rendering is wanted).
void TimeExport(const CellSpec& cell,
                const std::vector<workload::RunResult>& results,
                SpanRecorder* recorder) {
  std::vector<metrics::ResultRow> rows;
  for (const workload::RunResult& r : results) {
    rows.push_back(metrics::ResultRow{
        r.workload, std::string(harness::SystemName(cell.kind)), &r, 0.0,
        cell.bed.seed});
  }
  ScopedSpan span(recorder, Span::kExport);
  const std::string csv = metrics::ToCsv(rows);
  const std::string json = metrics::ToJson(rows);
  SIM_CHECK(!csv.empty() && !json.empty());
}

void CollectCounts(const CellSpec& cell, const Bed& bed,
                   const std::vector<metrics::StackSnapshot>& before,
                   const std::vector<workload::RunResult>& results,
                   SpanRecorder* recorder, LayerCounts* counts) {
  osim::Machine& machine = *bed.machine;
  const std::vector<metrics::StackSnapshot> after =
      Snapshots(machine, bed.vm_ids, recorder);
  for (size_t i = 0; i < after.size(); ++i) {
    const metrics::StackSnapshot d = after[i].Delta(before[i]);
    counts->tlb_hits += d.tlb_hits;
    counts->tlb_misses += d.tlb_misses;
    counts->tlb_stale_hits += d.tlb_stale_hits;
    counts->tlb_shootdowns += d.tlb_shootdowns;
    for (size_t l = 0; l < d.walk.guest_mem.size(); ++l) {
      counts->walk_mem_refs += d.walk.guest_mem[l] + d.walk.host_mem[l];
    }
    counts->guest_promotions += d.guest_promotions;
    counts->host_promotions += d.host_promotions;
    counts->pages_copied += d.pages_copied;
    counts->demotions += d.demotions;
    counts->tier_refaults += d.tier_refaults;
    // Cumulative since the policies were built, so this covers boot too.
    counts->bookings_started += after[i].bookings_started;
    counts->bucket_hits += after[i].bucket_hits;
  }
  for (const workload::RunResult& r : results) {
    counts->faulting_accesses += r.faulting_accesses;
  }
  if (const osim::ReclaimDaemon* daemon = machine.reclaim_daemon()) {
    counts->reclaim_ticks += daemon->stats().ticks;
    counts->reclaim_pages_demoted += daemon->stats().pages_demoted;
  }
  if (const vmem::TierSpace* tier = machine.host_tier()) {
    counts->tier_peak_resident = tier->peak_resident();
  }
  counts->guest_buddy_mutations =
      GuestMutations(machine, bed.vm_ids) - bed.guest_mutations0;
  counts->host_buddy_mutations =
      machine.host().buddy().mutation_epoch() - bed.host_mutations0;
  counts->final_host_fmfi = machine.host().Fmfi();
  TimeExport(cell, results, recorder);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "clean_frag", "reused_vm", "rack_churn64", "overcommit_reclaim"};
  return names;
}

bool IsWorkload(const std::string& name) {
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::vector<CellSpec> VariantCells(const std::string& workload,
                                   uint64_t variant) {
  SIM_CHECK(variant < kSeedCycle);
  std::vector<CellSpec> cells;
  if (workload == "clean_frag") {
    cells = CleanFragCells(variant);
  } else if (workload == "reused_vm") {
    cells = ReusedVmCells(variant);
  } else if (workload == "rack_churn64") {
    cells = RackChurnCells(variant);
  } else {
    SIM_CHECK_MSG(workload == "overcommit_reclaim", "unknown workload %s",
                  workload.c_str());
    cells = OvercommitCells(variant);
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i].variant = variant;
    cells[i].index = i;
  }
  return cells;
}

std::vector<CellSpec> MakeCells(const std::string& workload, uint64_t seed) {
  // A pass mixes many variants, so its cost does not hinge on one
  // variant's fragmentation, churn or reclaim pattern: cell i of a variant
  // takes variant seed + i, and its k-th repeat (the collocated workloads
  // have few cells and repeat each) moves kSeedCycle / repeats further.
  const size_t repeats = workload == "rack_churn64"         ? 4
                         : workload == "overcommit_reclaim" ? 8
                                                            : 1;
  const size_t per_variant = VariantCells(workload, 0).size();
  std::vector<std::vector<CellSpec>> by_variant(kSeedCycle);
  std::vector<CellSpec> cells;
  for (size_t k = 0; k < repeats; ++k) {
    for (size_t i = 0; i < per_variant; ++i) {
      const uint64_t variant =
          (seed + i + k * (kSeedCycle / repeats)) % kSeedCycle;
      if (by_variant[variant].empty()) {
        by_variant[variant] = VariantCells(workload, variant);
      }
      cells.push_back(by_variant[variant][i]);
    }
  }
  return cells;
}

void LayerCounts::Add(const LayerCounts& o) {
  boot_accesses += o.boot_accesses;
  tlb_hits += o.tlb_hits;
  tlb_misses += o.tlb_misses;
  tlb_stale_hits += o.tlb_stale_hits;
  tlb_shootdowns += o.tlb_shootdowns;
  walk_mem_refs += o.walk_mem_refs;
  guest_promotions += o.guest_promotions;
  host_promotions += o.host_promotions;
  pages_copied += o.pages_copied;
  demotions += o.demotions;
  faulting_accesses += o.faulting_accesses;
  reclaim_ticks += o.reclaim_ticks;
  reclaim_pages_demoted += o.reclaim_pages_demoted;
  guest_buddy_mutations += o.guest_buddy_mutations;
  host_buddy_mutations += o.host_buddy_mutations;
  tier_refaults += o.tier_refaults;
  tier_peak_resident = std::max(tier_peak_resident, o.tier_peak_resident);
  bookings_started += o.bookings_started;
  bucket_hits += o.bucket_hits;
  epochs += o.epochs;
  parallel_ops += o.parallel_ops;
  serial_ops += o.serial_ops;
  final_host_fmfi += o.final_host_fmfi;
}

CellOutcome RunCell(const CellSpec& cell, SpanRecorder* recorder,
                    bool traced) {
  ScopedSpan whole(recorder, Span::kCell);
  CellOutcome out;
  const Bed bed = MakeBed(cell, recorder, traced);
  osim::Machine& machine = *bed.machine;
  const uint64_t accesses0 = TotalAccesses(machine, bed.vm_ids);
  out.counts.boot_accesses = accesses0;
  std::vector<metrics::StackSnapshot> before;
  if (traced) {
    before = Snapshots(machine, bed.vm_ids, recorder);
  }

  std::vector<workload::RunResult> results;
  if (cell.shape != Shape::kCollocated) {
    workload::WorkloadDriver driver(&machine, bed.vm_ids[0]);
    if (cell.shape == Shape::kReusedVm) {
      ScopedSpan span(recorder, Span::kPrefill);
      workload::DriverOptions prefill;
      prefill.seed = cell.bed.seed + 500;
      prefill.teardown = true;
      driver.Run(workload::SvmPrefill(cell.bed.vm_gfn_count), prefill);
    }
    workload::DriverOptions options;
    options.seed = cell.bed.seed + 1000;
    {
      ScopedSpan span(recorder, Span::kRun);
      results.push_back(driver.Run(cell.specs[0], options));
    }
    out.digest = Digest(results[0]);
  } else {
    workload::EpochExecutorOptions xopt;
    xopt.threads = cell.scale.threads;
    xopt.quantum = cell.scale.quantum;
    xopt.load_phases = cell.scale.load_phases;
    xopt.load_phase_epochs = cell.scale.load_phase_epochs;
    workload::EpochExecutor exec(&machine, xopt);
    std::vector<std::pair<uint16_t, std::string>> labels;
    for (size_t i = 0; i < cell.specs.size(); ++i) {
      workload::LaneSpec lane;
      lane.spec = cell.specs[i];
      lane.options.seed = cell.bed.seed + 1000 * (i + 1);
      lane.options.teardown = cell.scale.teardown_on_finish;
      lane.arrival_epoch = cell.scale.wave_size == 0
                               ? 0
                               : (i / cell.scale.wave_size) *
                                     cell.scale.wave_epochs;
      lane.phase_offset = i;
      exec.AddLane(bed.vm_ids[i], lane);
      labels.emplace_back(static_cast<uint16_t>(bed.vm_ids[i]),
                          "vm" + std::to_string(i) + " " + cell.specs[i].name);
    }
    harness::CollocatedManyResult r;
    {
      ScopedSpan span(recorder, Span::kRun);
      r.vms = exec.Run();
    }
    r.epochs = exec.epochs();
    r.parallel_ops = exec.parallel_ops();
    r.serial_ops = exec.serial_ops();
    r.interference =
        metrics::BuildInterferenceReport(machine.tlb_domain(), labels);
    r.final_host_fmfi = machine.host().Fmfi();
    if (const vmem::TierSpace* tier = machine.host_tier()) {
      r.tier_resident_total = tier->resident_total();
      r.tier_peak_resident = tier->peak_resident();
    }
    if (const osim::ReclaimDaemon* daemon = machine.reclaim_daemon()) {
      r.reclaim_passes = daemon->stats().passes;
      r.reclaim_pages_demoted = daemon->stats().pages_demoted;
    }
    out.digest = Digest(r);
    out.counts.epochs = r.epochs;
    out.counts.parallel_ops = r.parallel_ops;
    out.counts.serial_ops = r.serial_ops;
    results = std::move(r.vms);
  }
  out.run_accesses = TotalAccesses(machine, bed.vm_ids) - accesses0;
  if (traced) {
    CollectCounts(cell, bed, before, results, recorder, &out.counts);
  }
  return out;
}

uint64_t RunCellViaHarness(const CellSpec& cell) {
  switch (cell.shape) {
    case Shape::kCleanSlate:
      return Digest(harness::RunCleanSlate(cell.kind, cell.specs[0], cell.bed));
    case Shape::kReusedVm:
      return Digest(harness::RunReusedVm(cell.kind, cell.specs[0], cell.bed));
    case Shape::kCollocated:
      return Digest(harness::RunCollocatedMany(cell.kind, cell.specs,
                                               cell.bed, cell.scale));
  }
  SIM_CHECK(false);
  return 0;
}

}  // namespace perfbench
