// Overcommit / tiered-memory benchmark (engineering benchmark, not a
// paper figure): how well each system keeps huge-page coverage — and how
// badly it fragments the host — while the reclaim daemon demotes cold
// pages to the far tier under memory overcommit (DESIGN.md §3i).
//
// Sweep: system x overcommit ratio x reclaim policy.
//
//   systems   Gemini plus the THP / Ingens / HawkEye baselines — the
//             interesting contrast is between systems that rebuild huge
//             pages after reclaim breaks them and systems that do not.
//   ratios    committed base-page guest demand as a multiple of the
//             host's frames: {1.0, 1.5, 2.0}.  At 1.0 the host carries
//             30% headroom over that nominal demand, so conservative
//             systems idle at the watermark (Gemini: one reclaim pass) —
//             but fault-greedy huge allocation can bloat real residency
//             far past nominal demand (THP backs a region with 512 frames
//             on first touch), so greedy systems reclaim even in the
//             nominal-1.0 column.  That bloat is part of what the bench
//             measures, not an artifact.
//   policies  lru (coldest-region approximation over EPT access counts)
//             vs damon (region-sampling monitor; src/damon/).
//
// Each cell collocates 4 VMs (two zipf key-value stores whose cold tails
// are what a good policy should demote, one scan-heavy analytics job, one
// uniform batch job) on one machine via the epoch-parallel backend, with
// the far tier unbounded so capacity rejections never mask policy
// differences.
//
// Everything printed to stdout is deterministic — a pure function of the
// seed.  The cells run on one executor thread; tests/test_epoch_executor.cc
// runs cells of this shape at 1 and 4 threads and requires identical
// digests.  Host wall-clock and Mops/s appear only in the JSON export.
//
// Output: BENCH_overcommit.json in $GEMINI_EXPORT (if set) or the current
// directory — an array of one object per cell, with the columns
// RowColumns declares below.  tools/bench_diff.py consumes it by the
// shared "scenario"/"mops_per_s" keys (report-only in CI).  Schema
// documented in BENCHMARKS.md.
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "base/check.h"
#include "bench/bench_common.h"
#include "harness/experiment.h"
#include "harness/systems.h"
#include "metrics/export.h"
#include "policy/reclaim.h"
#include "workload/workload.h"

namespace {

struct Row {
  std::string scenario;
  std::string system;
  double ratio = 0.0;
  std::string policy;
  uint64_t vms = 0;
  uint64_t host_frames = 0;
  uint64_t ops = 0;
  double wall_ms = 0.0;  // JSON only; never printed
  uint64_t tlb_misses = 0;
  double tlb_miss_rate = 0.0;
  double host_coverage = 0.0;  // mean huge-aligned coverage across VMs
  double well_aligned_rate = 0.0;
  double final_host_fmfi = 0.0;
  uint64_t tier_demoted = 0;
  uint64_t tier_refaults = 0;
  uint64_t tier_resident = 0;
  uint64_t tier_peak_resident = 0;
  uint64_t reclaim_passes = 0;
  uint64_t digest = 0;
};

using bench::Mix;
using bench::MixDouble;

// FNV digest over every deterministic field the cell produces; stdout
// prints it, so the golden pins every field.
uint64_t Digest(const harness::CollocatedManyResult& r) {
  uint64_t d = bench::kFnvOffsetBasis;
  Mix(&d, r.epochs);
  Mix(&d, r.parallel_ops);
  Mix(&d, r.serial_ops);
  Mix(&d, r.tier_resident_total);
  Mix(&d, r.tier_peak_resident);
  Mix(&d, r.reclaim_passes);
  Mix(&d, r.reclaim_pages_demoted);
  MixDouble(&d, r.final_host_fmfi);
  for (const workload::RunResult& vm : r.vms) {
    Mix(&d, vm.ops);
    Mix(&d, vm.busy_cycles);
    Mix(&d, vm.tlb_hits);
    Mix(&d, vm.tlb_misses);
    Mix(&d, vm.faulting_accesses);
    Mix(&d, vm.counters.tier_demoted_pages);
    Mix(&d, vm.counters.tier_refaults);
    Mix(&d, vm.counters.tier_resident);
    MixDouble(&d, vm.alignment.well_aligned_rate);
    MixDouble(&d, vm.alignment.aligned_coverage);
  }
  return d;
}

// The four-tenant mix of one cell.  The zipf stores have hot heads and
// long cold tails — exactly the shape DAMON-guided demotion should
// exploit and coverage-blind reclaim should not.
workload::WorkloadSpec CellTenant(size_t i) {
  workload::WorkloadSpec spec;
  switch (i % 4) {
    case 0:
    case 1:
      spec.name = "kv_zipf";
      spec.access = workload::AccessPattern::kZipf;
      spec.working_set_pages = 1920;
      spec.vma_count = 6;
      break;
    case 2:
      spec.name = "scan_mix";
      spec.access = workload::AccessPattern::kScanMix;
      spec.working_set_pages = 1920;
      spec.vma_count = 4;
      break;
    default:
      spec.name = "batch_uniform";
      spec.working_set_pages = 1920;
      spec.vma_count = 4;
      break;
  }
  spec.ops = 5000;
  spec.work_per_access = 200;
  return spec;
}

constexpr uint64_t kVmsPerCell = 4;
// Committed demand per cell: the working sets plus the resident tail of
// boot noise (5% of each VM's 4096-page guest-physical space stays host-
// backed after boot).
constexpr uint64_t kDemandPages = kVmsPerCell * 1920 + kVmsPerCell * 205;

// Host sizing for a ratio: 30% headroom at ratio 1.0 keeps the control
// cell's free pool above the low watermark (0.08), so reclaim stays idle
// there; every higher ratio shrinks the host below demand and forces the
// daemon to hold the watermark by demoting to the far tier.
uint64_t HostFramesFor(double ratio) {
  return static_cast<uint64_t>(static_cast<double>(kDemandPages) * 1.30 /
                               ratio);
}

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

Row RunCell(harness::SystemKind kind, double ratio,
            policy::ReclaimPolicyKind policy) {
  std::vector<workload::WorkloadSpec> specs;
  for (size_t i = 0; i < kVmsPerCell; ++i) {
    specs.push_back(CellTenant(i));
  }

  harness::BedOptions bed;
  bed.host_frames = HostFramesFor(ratio);
  bed.vm_gfn_count = 4096;
  bed.fragmented = false;  // fragmentation here must come from reclaim churn
  bed.boot_noise_fraction = 0.05;
  bed.seed = 211;
  bed.reclaim.enabled = true;
  bed.reclaim.policy = policy;
  bed.reclaim.far_capacity_pages = 0;  // unbounded: never reject a demotion

  harness::ScaleOptions scale;
  scale.daemon_period = 500'000;  // denser reclaim ticks than the default

  const harness::CollocatedManyResult r =
      harness::RunCollocatedMany(kind, specs, bed, scale);

  Row row;
  std::ostringstream scenario;
  scenario << "oc_" << Lower(harness::SystemName(kind)) << '_'
           << policy::ReclaimPolicyName(policy) << "_r"
           << static_cast<int>(ratio * 100.0 + 0.5);
  row.scenario = scenario.str();
  row.system = std::string(harness::SystemName(kind));
  row.ratio = ratio;
  row.policy = policy::ReclaimPolicyName(policy);
  row.vms = r.vms.size();
  row.host_frames = bed.host_frames;
  row.wall_ms = r.exec_wall_ms;
  row.final_host_fmfi = r.final_host_fmfi;
  row.tier_demoted = r.reclaim_pages_demoted;
  row.tier_resident = r.tier_resident_total;
  row.tier_peak_resident = r.tier_peak_resident;
  row.reclaim_passes = r.reclaim_passes;
  uint64_t lookups = 0;
  for (const workload::RunResult& vm : r.vms) {
    row.ops += vm.ops;
    row.tlb_misses += vm.tlb_misses;
    lookups += vm.tlb_hits + vm.tlb_misses;
    row.host_coverage += vm.alignment.aligned_coverage;
    row.well_aligned_rate += vm.alignment.well_aligned_rate;
    row.tier_refaults += vm.counters.tier_refaults;
  }
  row.tlb_miss_rate = lookups == 0 ? 0.0
                                   : static_cast<double>(row.tlb_misses) /
                                         static_cast<double>(lookups);
  row.host_coverage /= static_cast<double>(r.vms.size());
  row.well_aligned_rate /= static_cast<double>(r.vms.size());
  row.digest = Digest(r);
  return row;
}

void PrintHeader() {
  std::printf(
      "%-26s %5s %6s  %9s  %9s  %8s  %8s  %6s  %8s %8s %8s  %6s  digest\n",
      "scenario", "ratio", "policy", "ops", "tlb_miss", "coverage",
      "aligned", "fmfi", "demoted", "refault", "resident", "passes");
}

void PrintRow(const Row& r) {
  std::printf(
      "%-26s %5.2f %6s  %9llu  %9llu  %8.4f  %8.4f  %6.4f  %8llu %8llu "
      "%8llu  %6llu  %llu\n",
      r.scenario.c_str(), r.ratio, r.policy.c_str(),
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.tlb_misses), r.host_coverage,
      r.well_aligned_rate, r.final_host_fmfi,
      static_cast<unsigned long long>(r.tier_demoted),
      static_cast<unsigned long long>(r.tier_refaults),
      static_cast<unsigned long long>(r.tier_resident),
      static_cast<unsigned long long>(r.reclaim_passes),
      static_cast<unsigned long long>(r.digest));
}

// The BENCH_overcommit.json columns of one cell.
constexpr auto RowColumns = [](const Row& r, auto& sink) {
  sink("scenario", r.scenario);
  sink("system", r.system);
  sink("ratio", r.ratio);
  sink("policy", r.policy);
  sink("vms", r.vms);
  sink("host_frames", r.host_frames);
  sink("ops", r.ops);
  sink("wall_ms", r.wall_ms);
  sink("mops_per_s", bench::Mops(r.ops, r.wall_ms));
  sink("tlb_misses", r.tlb_misses);
  sink("tlb_miss_rate", r.tlb_miss_rate);
  sink("host_coverage", r.host_coverage);
  sink("well_aligned_rate", r.well_aligned_rate);
  sink("final_host_fmfi", r.final_host_fmfi);
  sink("tier_demoted", r.tier_demoted);
  sink("tier_refaults", r.tier_refaults);
  sink("tier_resident", r.tier_resident);
  sink("tier_peak_resident", r.tier_peak_resident);
  sink("reclaim_passes", r.reclaim_passes);
  sink("digest", r.digest);
};

}  // namespace

int main() {
  bench::CheckEnvironment();
  const std::vector<double> ratios = {1.0, 1.5, 2.0};
  const std::vector<policy::ReclaimPolicyKind> policies = {
      policy::ReclaimPolicyKind::kLruApprox, policy::ReclaimPolicyKind::kDamon};
  const std::vector<harness::SystemKind> systems = {
      harness::SystemKind::kGemini, harness::SystemKind::kThp,
      harness::SystemKind::kIngens, harness::SystemKind::kHawkEye};

  std::vector<Row> rows;
  PrintHeader();
  for (const harness::SystemKind kind : systems) {
    for (const double ratio : ratios) {
      for (const policy::ReclaimPolicyKind policy : policies) {
        rows.push_back(RunCell(kind, ratio, policy));
        PrintRow(rows.back());
      }
    }
  }

  const std::string path = bench::ExportPath("BENCH_overcommit.json");
  metrics::WriteFile(path, metrics::RenderJson(rows, RowColumns));
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
