// Experiment harness shared by every bench binary: builds a testbed
// (machine + VM under a system), applies the paper's fragmentation
// methodology, and runs the scenarios of §6 (clean-slate VM, reused VM,
// collocated VMs).
#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/systems.h"
#include "metrics/interference_matrix.h"
#include "mmu/tlb_domain.h"
#include "policy/reclaim.h"
#include "trace/session.h"
#include "workload/catalog.h"
#include "workload/driver.h"

namespace harness {

struct BedOptions {
  uint64_t host_frames = 400 * 1024;  // ~1.6 GiB simulated host memory
  uint64_t vm_gfn_count = 128 * 1024; // ~512 MiB per VM
  bool fragmented = true;             // fragment both layers (paper default)
  double fragmentation_target = 0.8;  // guest FMFI target at huge order
  // The host carries every tenant's history, so its contiguity is scarcer:
  // which regions a system spends its few remaining blocks on decides its
  // well-aligned rate.
  double host_fragmentation_target = 0.85;
  // Fraction of guest-physical space touched (and freed) by "VM boot":
  // kernel/page-cache activity that leaves stale base-grained EPT mappings
  // behind — the reason host-side huge pages must be formed by collapse,
  // not fault-time allocation, on real reused hosts.
  double boot_noise_fraction = 0.3;
  uint64_t seed = 17;
  // Observability: when trace.enabled, the machine records tracepoints and
  // time series, written by the Run* helpers when the measurement ends.
  trace::TraceConfig trace;
  // TLB sharing arrangement for the machine's VMs (mmu/tlb_domain.h).
  // kPrivate reproduces the historical per-engine TLB exactly; kShared /
  // kPartitioned make collocated VMs contend for one physical array;
  // kDynamic adds the periodic way repartitioner on top of kPartitioned's
  // boot-time split.
  mmu::TlbShareMode tlb_mode = mmu::TlbShareMode::kPrivate;
  // kPartitioned / kDynamic: boot ways per VM (0 = even split over the
  // collocated VMs).
  uint32_t tlb_partition_ways = 0;
  // kDynamic repartitioner knobs; 0 means the machine defaults (daemon
  // period / 1 way).
  uint64_t tlb_repart_interval = 0;
  uint32_t tlb_repart_min_ways = 0;
  // Tiered-memory overcommit (DESIGN.md §3i): copied verbatim into
  // MachineConfig::reclaim by every Run* helper.  Disabled by default, so
  // the historical testbeds — and every committed golden — stay
  // byte-identical.
  policy::ReclaimConfig reclaim;
};

// A single-VM testbed under one system.
struct TestBed {
  std::unique_ptr<osim::Machine> machine;
  int32_t vm_id = 0;
  // Machine-owned time-series sampler; null unless tracing is enabled.
  trace::StackSampler* sampler = nullptr;

  osim::VirtualMachine& vm() { return machine->vm(vm_id); }
};

TestBed MakeTestBed(SystemKind kind, const BedOptions& options,
                    const gemini::GeminiOptions* gemini_options = nullptr);

// One (workload, system) measurement in a clean-slate VM (§6.2).
workload::RunResult RunCleanSlate(SystemKind kind,
                                  const workload::WorkloadSpec& spec,
                                  const BedOptions& options);

// Reused-VM measurement (§6.3): run the SVM prefill to completion in the
// same VM, tear it down (guest frames return to the guest; host backing
// stays), then run `spec`.
workload::RunResult RunReusedVm(SystemKind kind,
                                const workload::WorkloadSpec& spec,
                                const BedOptions& options);

// Figure 16 ablation variants of Gemini.
workload::RunResult RunGeminiAblation(const workload::WorkloadSpec& spec,
                                      const BedOptions& options,
                                      const gemini::GeminiOptions& gem);

// Collocated-VM measurement: N VMs under one system on one host, executed
// by the epoch-barriered parallel backend (workload/epoch_executor.h).
// The two-VM pairs of §6.5 (fig17, fig18) and the rack-density sweep
// (bench_collocation) both run here.  Results are deterministic at any
// thread count; `threads` only changes wall-clock.
struct ScaleOptions {
  // Worker threads / ops-per-epoch; 0 means GEMINI_VM_THREADS / 256 ops
  // (workload/epoch_executor.h).
  uint32_t threads = 0;
  uint64_t quantum = 0;
  // Boot arrival waves: VM i arrives at epoch (i / wave_size) * wave_epochs.
  // wave_size 0 = everyone boots at epoch 0.
  uint64_t wave_size = 0;
  uint64_t wave_epochs = 32;
  // Tear each VM's VMAs down when its workload completes (shutdown churn).
  bool teardown_on_finish = false;
  // Diurnal load phases (percent of quantum per slot, phase-shifted one
  // slot per VM).  Empty = constant load.
  std::vector<uint32_t> load_phases;
  uint64_t load_phase_epochs = 64;
  // Daemon period override for the machine (0 = MachineConfig default).
  uint64_t daemon_period = 0;
};

struct CollocatedManyResult {
  std::vector<workload::RunResult> vms;  // one per spec, in order
  metrics::InterferenceReport interference;
  uint64_t epochs = 0;
  double exec_wall_ms = 0.0;  // host wall-clock of the execution loop
  // Deterministic op split: parallel-phase ops vs serial barrier-phase ops
  // (faults, driver events).  parallel / (parallel + serial) bounds the
  // achievable wall-clock speedup on any host (Amdahl).
  uint64_t parallel_ops = 0;
  uint64_t serial_ops = 0;
  // Machine-final state captured before teardown: the shared host buddy's
  // FMFI (where reclaim-induced churn shows up) and, when the bed ran with
  // a far tier, its footprint and the reclaim daemon's totals (all zero
  // otherwise).
  double final_host_fmfi = 0.0;
  uint64_t tier_resident_total = 0;
  uint64_t tier_peak_resident = 0;
  uint64_t reclaim_passes = 0;
  uint64_t reclaim_pages_demoted = 0;
};

CollocatedManyResult RunCollocatedMany(
    SystemKind kind, const std::vector<workload::WorkloadSpec>& specs,
    const BedOptions& options, const ScaleOptions& scale);

// Scales a spec's op count (floored at 10 000) and churn period (floored
// at 5 000) by `op_scale`; perfbench sizes its catalog cells with it.
workload::WorkloadSpec ScaleSpec(const workload::WorkloadSpec& spec,
                                 double op_scale);

// Parses a TLB sharing-mode name ("private" / "shared" / "partitioned" /
// "dynamic").  Returns false (and leaves *mode untouched) on anything else.
bool ParseTlbShareMode(const std::string& name, mmu::TlbShareMode* mode);

// The sharing modes a collocated bench should sweep, from GEMINI_TLB_MODE:
// a mode name, a comma-separated list, or "all" for all four.  Unset or
// empty means {kPrivate} — the historical single-mode output.  Aborts on
// an unrecognized name (silently measuring the wrong mode would poison
// comparisons).
std::vector<mmu::TlbShareMode> TlbModesFromEnv();

// Overcommit ratio from GEMINI_OVERCOMMIT: total guest-physical memory as
// a multiple of host frames (e.g. "1.5"), at least 1.  Unset or empty
// returns nullopt.
std::optional<double> OvercommitFromEnv();

// Reclaim victim-selection policy from GEMINI_RECLAIM_POLICY ("lru" /
// "damon"); unset or empty returns nullopt, unknown names abort.
std::optional<policy::ReclaimPolicyKind> ReclaimPolicyFromEnv();

}  // namespace harness

#endif  // SRC_HARNESS_EXPERIMENT_H_
