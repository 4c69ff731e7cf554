#include "harness/experiment.h"

#include <algorithm>
#include <cfloat>
#include <chrono>

#include "base/check.h"
#include "base/env.h"
#include "base/rng.h"
#include "os/reclaim_daemon.h"
#include "workload/epoch_executor.h"

namespace harness {

namespace {

// Models VM boot: the guest kernel and early services touch scattered
// memory and free most of it.  The guest frames return to the guest buddy,
// but the EPT keeps base-grained mappings for everything touched — so the
// host can no longer create huge pages there at fault time, only by
// collapse.  This is the state a VM is really in when a workload starts.
void SimulateGuestBoot(osim::Machine& machine, int32_t vm_id,
                       double fraction, uint64_t gfn_count, uint64_t seed) {
  if (fraction <= 0.0) {
    return;
  }
  osim::GuestKernel& guest = machine.vm(vm_id).guest();
  (void)gfn_count;
  // Boot traffic is kernel code, slab and page-cache data: many mappings
  // smaller than a huge page, never huge-mapped by the guest, and — the
  // property the utilization-based promoters key on — only partially dense
  // at 2 MiB granularity.  An eager or greedy host policy that backs every
  // sparsely-touched guest-physical region with a 2 MiB page burns its
  // scarce contiguous blocks on this traffic (the THP bloat problem);
  // utilization-gated policies skip it; Gemini conserves and books.
  constexpr uint64_t kBootVmaPages = 256;  // 1 MiB mappings
  constexpr double kBootTouchDensity = 0.45;
  base::Rng rng(seed ^ 0xb007b007ull);
  // Span sized against currently-free guest memory (the fragmenter holds a
  // seed-dependent share) so boot always fits with slack.
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
  for (int32_t id : vma_ids) {
    guest.UnmapVma(id);
  }
}

// Resolves the bed's TLB arrangement (mode, boot split, repartitioner
// knobs) into the machine config.  A zero repartitioner knob keeps the
// machine's own default (daemon-period interval, 1-way floor).
void ApplyTlbOptions(const BedOptions& options, osim::MachineConfig* config) {
  // Ride-along machine knobs that every bed assembly site needs: the
  // tiered-memory reclaim config maps straight through.
  config->reclaim = options.reclaim;
  config->tlb_mode = options.tlb_mode;
  config->tlb_partition_ways = options.tlb_partition_ways;
  config->tlb_repart_interval = options.tlb_repart_interval;
  config->tlb_repart_min_ways = std::max(options.tlb_repart_min_ways, 1u);
}

}  // namespace

TestBed MakeTestBed(SystemKind kind, const BedOptions& options,
                    const gemini::GeminiOptions* gemini_options) {
  TestBed bed;
  osim::MachineConfig config;
  config.host_frames = options.host_frames;
  config.seed = options.seed;
  ApplyTlbOptions(options, &config);
  bed.machine = std::make_unique<osim::Machine>(config);
  bed.sampler = trace::SetupTracing(*bed.machine, options.trace);
  osim::VirtualMachine& vm =
      AddSystemVm(*bed.machine, kind, options.vm_gfn_count, gemini_options);
  bed.vm_id = vm.id();
  if (options.fragmented) {
    // The paper fragments both guest- and host-level memory before each
    // run (§6.1), measuring with FMFI.
    bed.machine->FragmentHostMemory(options.host_fragmentation_target);
    bed.machine->FragmentGuestMemory(bed.vm_id, options.fragmentation_target);
  }
  SimulateGuestBoot(*bed.machine, bed.vm_id, options.boot_noise_fraction,
                    options.vm_gfn_count, options.seed);
  return bed;
}

workload::RunResult RunCleanSlate(SystemKind kind,
                                  const workload::WorkloadSpec& spec,
                                  const BedOptions& options) {
  TestBed bed = MakeTestBed(kind, options);
  workload::WorkloadDriver driver(bed.machine.get(), bed.vm_id);
  workload::DriverOptions driver_options;
  driver_options.seed = options.seed + 1000;
  workload::RunResult result = driver.Run(spec, driver_options);
  trace::WriteTraceFiles(options.trace, *bed.machine, bed.sampler);
  return result;
}

workload::RunResult RunReusedVm(SystemKind kind,
                                const workload::WorkloadSpec& spec,
                                const BedOptions& options) {
  TestBed bed = MakeTestBed(kind, options);
  workload::WorkloadDriver driver(bed.machine.get(), bed.vm_id);

  // Phase 1: the large-working-set SVM run, then process exit.  Guest
  // frames go back to the guest (or to Gemini's bucket); the EPT and host
  // frames stay with the VM.
  workload::DriverOptions prefill_options;
  prefill_options.seed = options.seed + 500;
  prefill_options.teardown = true;
  driver.Run(workload::SvmPrefill(options.vm_gfn_count), prefill_options);

  // Phase 2: the measured workload in the same (now reused) VM.
  workload::DriverOptions driver_options;
  driver_options.seed = options.seed + 1000;
  workload::RunResult result = driver.Run(spec, driver_options);
  trace::WriteTraceFiles(options.trace, *bed.machine, bed.sampler);
  return result;
}

workload::RunResult RunGeminiAblation(const workload::WorkloadSpec& spec,
                                      const BedOptions& options,
                                      const gemini::GeminiOptions& gem) {
  TestBed bed = MakeTestBed(SystemKind::kGemini, options, &gem);
  workload::WorkloadDriver driver(bed.machine.get(), bed.vm_id);

  // The breakdown is measured under the reused-VM scenario, where both the
  // EMA/HB path (phase 2 allocations) and the bucket (phase 1 teardown)
  // have work to do.
  workload::DriverOptions prefill_options;
  prefill_options.seed = options.seed + 500;
  prefill_options.teardown = true;
  driver.Run(workload::SvmPrefill(options.vm_gfn_count), prefill_options);

  workload::DriverOptions driver_options;
  driver_options.seed = options.seed + 1000;
  workload::RunResult result = driver.Run(spec, driver_options);
  trace::WriteTraceFiles(options.trace, *bed.machine, bed.sampler);
  return result;
}

CollocatedManyResult RunCollocatedMany(
    SystemKind kind, const std::vector<workload::WorkloadSpec>& specs,
    const BedOptions& options, const ScaleOptions& scale) {
  SIM_CHECK(!specs.empty());
  osim::MachineConfig config;
  config.host_frames = options.host_frames;
  config.seed = options.seed;
  ApplyTlbOptions(options, &config);
  config.tlb_expected_vms = static_cast<uint32_t>(specs.size());
  if (scale.daemon_period != 0) {
    config.daemon_period = scale.daemon_period;
  }
  auto machine = std::make_unique<osim::Machine>(config);
  trace::StackSampler* sampler = trace::SetupTracing(*machine, options.trace);

  std::vector<int32_t> vm_ids;
  std::vector<std::pair<uint16_t, std::string>> labels;
  for (size_t i = 0; i < specs.size(); ++i) {
    osim::VirtualMachine& vm =
        AddSystemVm(*machine, kind, options.vm_gfn_count);
    vm_ids.push_back(vm.id());
    labels.emplace_back(static_cast<uint16_t>(vm.id()),
                        "vm" + std::to_string(i) + " " + specs[i].name);
  }
  if (options.fragmented) {
    machine->FragmentHostMemory(options.host_fragmentation_target);
    for (const int32_t id : vm_ids) {
      machine->FragmentGuestMemory(id, options.fragmentation_target);
    }
  }
  for (const int32_t id : vm_ids) {
    SimulateGuestBoot(*machine, id, options.boot_noise_fraction,
                      options.vm_gfn_count, options.seed + id);
  }

  workload::EpochExecutorOptions xopt;
  xopt.threads = scale.threads;
  xopt.quantum = scale.quantum;
  xopt.load_phases = scale.load_phases;
  xopt.load_phase_epochs = scale.load_phase_epochs;
  workload::EpochExecutor exec(machine.get(), xopt);
  for (size_t i = 0; i < specs.size(); ++i) {
    workload::LaneSpec lane;
    lane.spec = specs[i];
    lane.options.seed = options.seed + 1000 * (i + 1);
    lane.options.teardown = scale.teardown_on_finish;
    lane.arrival_epoch =
        scale.wave_size == 0 ? 0 : (i / scale.wave_size) * scale.wave_epochs;
    lane.phase_offset = i;
    exec.AddLane(vm_ids[i], lane);
  }

  CollocatedManyResult result;
  const auto wall_begin = std::chrono::steady_clock::now();
  result.vms = exec.Run();
  const auto wall_end = std::chrono::steady_clock::now();
  result.exec_wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_begin)
          .count();
  result.epochs = exec.epochs();
  result.parallel_ops = exec.parallel_ops();
  result.serial_ops = exec.serial_ops();
  result.interference =
      metrics::BuildInterferenceReport(machine->tlb_domain(), labels);
  result.final_host_fmfi = machine->host().Fmfi();
  if (const vmem::TierSpace* tier = machine->host_tier()) {
    result.tier_resident_total = tier->resident_total();
    result.tier_peak_resident = tier->peak_resident();
  }
  if (const osim::ReclaimDaemon* daemon = machine->reclaim_daemon()) {
    result.reclaim_passes = daemon->stats().passes;
    result.reclaim_pages_demoted = daemon->stats().pages_demoted;
  }
  trace::WriteTraceFiles(options.trace, *machine, sampler);
  return result;
}

workload::WorkloadSpec ScaleSpec(const workload::WorkloadSpec& spec,
                                 double op_scale) {
  workload::WorkloadSpec scaled = spec;
  scaled.ops = std::max<uint64_t>(
      10000, static_cast<uint64_t>(static_cast<double>(spec.ops) * op_scale));
  if (scaled.churn_period_ops != 0) {
    scaled.churn_period_ops = std::max<uint64_t>(
        5000, static_cast<uint64_t>(
                  static_cast<double>(spec.churn_period_ops) * op_scale));
  }
  return scaled;
}

bool ParseTlbShareMode(const std::string& name, mmu::TlbShareMode* mode) {
  if (name == "private") {
    *mode = mmu::TlbShareMode::kPrivate;
  } else if (name == "shared") {
    *mode = mmu::TlbShareMode::kShared;
  } else if (name == "partitioned") {
    *mode = mmu::TlbShareMode::kPartitioned;
  } else if (name == "dynamic") {
    *mode = mmu::TlbShareMode::kDynamic;
  } else {
    return false;
  }
  return true;
}

std::optional<double> OvercommitFromEnv() {
  return base::EnvRatio("GEMINI_OVERCOMMIT", 1.0, DBL_MAX);
}

std::optional<policy::ReclaimPolicyKind> ReclaimPolicyFromEnv() {
  const char* env = base::EnvValue("GEMINI_RECLAIM_POLICY");
  if (env == nullptr) {
    return std::nullopt;
  }
  const auto kind = policy::ParseReclaimPolicy(env);
  SIM_CHECK_MSG(kind.has_value(),
                "GEMINI_RECLAIM_POLICY: unknown policy '%s'", env);
  return kind;
}

std::vector<mmu::TlbShareMode> TlbModesFromEnv() {
  const char* env = base::EnvValue("GEMINI_TLB_MODE");
  if (env == nullptr) {
    return {mmu::TlbShareMode::kPrivate};
  }
  const std::string spec(env);
  if (spec == "all") {
    return {mmu::TlbShareMode::kPrivate, mmu::TlbShareMode::kShared,
            mmu::TlbShareMode::kPartitioned, mmu::TlbShareMode::kDynamic};
  }
  std::vector<mmu::TlbShareMode> modes;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string name = spec.substr(start, comma - start);
    mmu::TlbShareMode mode;
    SIM_CHECK_MSG(ParseTlbShareMode(name, &mode),
                  "GEMINI_TLB_MODE: unknown mode '%s'", name.c_str());
    modes.push_back(mode);
    start = comma + 1;
  }
  return modes;
}

}  // namespace harness
