#include "harness/experiment.h"

#include <algorithm>
#include <chrono>

#include "base/check.h"
#include "base/rng.h"
#include "os/reclaim_daemon.h"

namespace harness {

namespace {

// Models VM boot: the guest kernel and early services touch scattered
// memory and free most of it.  The guest frames return to the guest buddy,
// but the EPT keeps base-grained mappings for everything touched — so the
// host can no longer create huge pages there at fault time, only by
// collapse.  This is the state a VM is really in when a workload starts.
void SimulateGuestBoot(osim::Machine& machine, int32_t vm_id,
                       double fraction, uint64_t seed) {
  if (fraction <= 0.0) {
    return;
  }
  osim::GuestKernel& guest = machine.vm(vm_id).guest();
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

// A built bed: the machine, its VMs in the order they were added, and the
// machine-owned sampler (null unless tracing is enabled).
struct Bed {
  std::unique_ptr<osim::Machine> machine;
  std::vector<int32_t> vm_ids;
  trace::StackSampler* sampler = nullptr;
};

// The one bed builder: a machine with `vm_count` VMs under `kind`, built
// in the order every bed needs — machine config, tracing, VMs,
// fragmentation, boot.  A collocated run passes its `scale`, which sets
// the expected VM count and may override the daemon period; a single-VM
// bed passes null and keeps both at the MachineConfig defaults.  Each VM
// boots with seed + its id, which is `seed` for a one-VM bed.
Bed BuildBed(SystemKind kind, const BedOptions& options, size_t vm_count,
             const ScaleOptions* scale,
             const gemini::GeminiOptions* gemini_options) {
  osim::MachineConfig config;
  config.host_frames = options.host_frames;
  config.seed = options.seed;
  config.reclaim = options.reclaim;
  config.tlb_mode = options.tlb_mode;
  if (scale != nullptr) {
    config.tlb_expected_vms = static_cast<uint32_t>(vm_count);
    if (scale->daemon_period != 0) {
      config.daemon_period = scale->daemon_period;
    }
  }
  Bed bed;
  bed.machine = std::make_unique<osim::Machine>(config);
  bed.sampler = trace::SetupTracing(*bed.machine, options.trace);
  for (size_t i = 0; i < vm_count; ++i) {
    bed.vm_ids.push_back(AddSystemVm(*bed.machine, kind, options.vm_gfn_count,
                                     gemini_options)
                             .id());
  }
  if (options.fragmented) {
    // The paper fragments both guest- and host-level memory before each
    // run (§6.1), measuring with FMFI.
    bed.machine->FragmentHostMemory(options.host_fragmentation_target);
    for (const int32_t id : bed.vm_ids) {
      bed.machine->FragmentGuestMemory(id, options.fragmentation_target);
    }
  }
  for (const int32_t id : bed.vm_ids) {
    SimulateGuestBoot(*bed.machine, id, options.boot_noise_fraction,
                      options.seed + static_cast<uint64_t>(id));
  }
  return bed;
}

// The one single-VM scenario body.  A reused VM (§6.3) first runs the SVM
// prefill to completion in the same VM and tears it down — guest frames
// return to the guest (or to Gemini's bucket), the EPT and host frames
// stay with the VM — so both the EMA/HB path and the bucket have work to
// do.  Then `spec` is measured and the bed's trace files are written.
workload::RunResult RunSingleVm(SystemKind kind,
                                const workload::WorkloadSpec& spec,
                                const BedOptions& options, bool reused,
                                const gemini::GeminiOptions* gemini_options) {
  TestBed bed = MakeTestBed(kind, options, gemini_options);
  workload::WorkloadDriver driver(bed.machine.get(), bed.vm_id);
  if (reused) {
    workload::DriverOptions prefill_options;
    prefill_options.seed = options.seed + 500;
    prefill_options.teardown = true;
    driver.Run(workload::SvmPrefill(options.vm_gfn_count), prefill_options);
  }
  workload::DriverOptions driver_options;
  driver_options.seed = options.seed + 1000;
  workload::RunResult result = driver.Run(spec, driver_options);
  trace::WriteTraceFiles(options.trace, *bed.machine, bed.sampler);
  return result;
}

}  // namespace

TestBed MakeTestBed(SystemKind kind, const BedOptions& options,
                    const gemini::GeminiOptions* gemini_options) {
  Bed bed = BuildBed(kind, options, 1, nullptr, gemini_options);
  return TestBed{std::move(bed.machine), bed.vm_ids[0], bed.sampler};
}

workload::RunResult RunCleanSlate(SystemKind kind,
                                  const workload::WorkloadSpec& spec,
                                  const BedOptions& options) {
  return RunSingleVm(kind, spec, options, /*reused=*/false, nullptr);
}

workload::RunResult RunReusedVm(SystemKind kind,
                                const workload::WorkloadSpec& spec,
                                const BedOptions& options) {
  return RunSingleVm(kind, spec, options, /*reused=*/true, nullptr);
}

workload::RunResult RunGeminiAblation(const workload::WorkloadSpec& spec,
                                      const BedOptions& options,
                                      const gemini::GeminiOptions& gem) {
  return RunSingleVm(SystemKind::kGemini, spec, options, /*reused=*/true,
                     &gem);
}

CollocatedManyResult RunCollocatedMany(
    SystemKind kind, const std::vector<workload::WorkloadSpec>& specs,
    const BedOptions& options, const ScaleOptions& scale) {
  SIM_CHECK(!specs.empty());
  Bed bed = BuildBed(kind, options, specs.size(), &scale, nullptr);
  std::vector<std::pair<uint16_t, std::string>> labels;
  for (size_t i = 0; i < specs.size(); ++i) {
    labels.emplace_back(static_cast<uint16_t>(bed.vm_ids[i]),
                        "vm" + std::to_string(i) + " " + specs[i].name);
  }

  workload::EpochExecutor exec(bed.machine.get(), scale);
  for (size_t i = 0; i < specs.size(); ++i) {
    workload::LaneSpec lane;
    lane.spec = specs[i];
    lane.options.seed = options.seed + 1000 * (i + 1);
    lane.options.teardown = scale.teardown_on_finish;
    lane.arrival_epoch =
        scale.wave_size == 0 ? 0 : (i / scale.wave_size) * scale.wave_epochs;
    lane.phase_offset = i;
    exec.AddLane(bed.vm_ids[i], lane);
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
      metrics::BuildInterferenceReport(bed.machine->tlb_domain(), labels);
  result.final_host_fmfi = bed.machine->host().Fmfi();
  if (const vmem::TierSpace* tier = bed.machine->host_tier()) {
    result.tier_resident_total = tier->resident_total();
    result.tier_peak_resident = tier->peak_resident();
  }
  if (const osim::ReclaimDaemon* daemon = bed.machine->reclaim_daemon()) {
    result.reclaim_passes = daemon->stats().passes;
    result.reclaim_pages_demoted = daemon->stats().pages_demoted;
  }
  trace::WriteTraceFiles(options.trace, *bed.machine, bed.sampler);
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

}  // namespace harness
