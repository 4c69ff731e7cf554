// Collocation-scaling benchmark for the epoch-parallel execution backend
// (engineering benchmark, not a paper figure).  Two parts:
//
//   collocated_64   64 private-TLB VMs on one machine, identical uniform
//                   workloads, run twice through the identical epoch
//                   schedule: on 1 executor thread (serial) and on 8.
//                   The two runs MUST produce bit-identical simulation
//                   digests (SIM_CHECK — this is the perf-side witness of
//                   the determinism contract); wall-clock and the measured
//                   speedup ratio are then reported.  On a single-core
//                   runner the t8 wall time shows pure threading overhead.
//
//   fig17_scale     Rack-density sweep: N = 2..64 collocated VMs (128 in
//                   shared mode, where the interference artifact switches
//                   to the sparse top-k render past 64 VMs) with
//                   lifecycle churn — boot arrival waves, VMA
//                   churn/GC-sweep workload flavors, diurnal load phase
//                   shifts, teardown on completion — for each TLB sharing
//                   mode in GEMINI_TLB_MODE.  Partitioned mode is capped
//                   at N=8 (12 ways, >=1 way per VM).  Shared-mode cells
//                   exercise the interference-attribution matrix at NxN;
//                   the rendered matrices are written to
//                   INTERFERENCE_scale.txt.
//
// The simulated side (ops, TLB counters, epochs, the parallel/serial op
// split, digests) is deterministic at any thread count; only wall_ms
// and mops_per_s are host-performance numbers.  Each collocated_64 run
// happens once: the machine is 64 VMs big.
//
// Output: BENCH_collocation.json in $GEMINI_EXPORT (if set) or the
// current directory — an array of one object per scenario, with the
// columns RowColumns declares below.  tools/bench_diff.py consumes it by
// the shared "scenario"/"mops_per_s" keys (report-only in CI: collocation
// wall time on shared runners is too noisy to gate).  Schema documented in
// BENCHMARKS.md.
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "base/check.h"
#include "bench/bench_common.h"
#include "harness/experiment.h"
#include "metrics/export.h"
#include "mmu/tlb_domain.h"
#include "workload/workload.h"

namespace {

struct Row {
  std::string scenario;
  uint64_t vms = 0;
  uint32_t threads = 0;
  uint64_t ops = 0;
  double wall_ms = 0.0;
  uint64_t epochs = 0;
  uint64_t parallel_ops = 0;
  uint64_t serial_ops = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t digest = 0;
};

using bench::Mix;
using bench::MixDouble;

// FNV digest over every deterministic field the run produces: per-VM
// results plus the NxN interference rows.  Bit-identical digests across
// thread counts are the determinism witness this bench enforces.
uint64_t Digest(const harness::CollocatedManyResult& r) {
  uint64_t d = bench::kFnvOffsetBasis;
  Mix(&d, r.epochs);
  Mix(&d, r.parallel_ops);
  Mix(&d, r.serial_ops);
  for (const workload::RunResult& vm : r.vms) {
    Mix(&d, vm.ops);
    Mix(&d, vm.requests);
    Mix(&d, vm.busy_cycles);
    Mix(&d, vm.tlb_hits);
    Mix(&d, vm.tlb_misses);
    Mix(&d, vm.faulting_accesses);
    MixDouble(&d, vm.throughput);
    MixDouble(&d, vm.mean_latency);
    MixDouble(&d, vm.p99_latency);
    MixDouble(&d, vm.alignment.well_aligned_rate);
  }
  for (const metrics::VmInterferenceRow& row : r.interference.vms) {
    Mix(&d, row.tlb_misses);
    Mix(&d, row.shadow_misses);
    for (const uint64_t by : row.displaced_by) {
      Mix(&d, by);
    }
  }
  return d;
}

Row MakeRow(const std::string& scenario, uint32_t threads,
            const harness::CollocatedManyResult& r) {
  Row row;
  row.scenario = scenario;
  row.vms = r.vms.size();
  row.threads = threads;
  row.wall_ms = r.exec_wall_ms;
  row.epochs = r.epochs;
  row.parallel_ops = r.parallel_ops;
  row.serial_ops = r.serial_ops;
  row.digest = Digest(r);
  for (const workload::RunResult& vm : r.vms) {
    row.ops += vm.ops;
    row.tlb_hits += vm.tlb_hits;
    row.tlb_misses += vm.tlb_misses;
  }
  return row;
}

void PrintRow(const Row& r) {
  std::printf(
      "%-26s %2u thr  %3llu vms  %9llu ops  %6llu epochs  "
      "%9.1f ms  %7.3f Mops/s  digest %llu\n",
      r.scenario.c_str(), r.threads, static_cast<unsigned long long>(r.vms),
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.epochs), r.wall_ms,
      bench::Mops(r.ops, r.wall_ms),
      static_cast<unsigned long long>(r.digest));
}

// ---------------------------------------------------------------------------
// collocated_64: the serial-vs-8-thread speedup pair.

workload::WorkloadSpec SpeedupSpec() {
  workload::WorkloadSpec spec;
  spec.name = "colloc_uniform";
  spec.kind = workload::Kind::kThroughput;
  spec.alloc = workload::AllocPattern::kStaticUpfront;
  spec.access = workload::AccessPattern::kUniform;
  spec.working_set_pages = 2048;  // 8 MiB per VM; faults resolve during init
  spec.vma_count = 4;
  spec.ops = 20000;
  spec.work_per_access = 200;
  return spec;
}

harness::BedOptions SpeedupBed() {
  harness::BedOptions bed;
  bed.host_frames = 320 * 1024;
  bed.vm_gfn_count = 8 * 1024;
  bed.fragmented = false;  // scaling bench, not a fidelity bench
  bed.boot_noise_fraction = 0.05;
  bed.seed = 97;
  bed.tlb_mode = mmu::TlbShareMode::kPrivate;
  return bed;
}

Row RunSpeedup(const std::string& scenario, uint32_t threads) {
  const std::vector<workload::WorkloadSpec> specs(64, SpeedupSpec());
  harness::ScaleOptions scale;
  scale.threads = threads;
  return MakeRow(scenario, threads,
                 harness::RunCollocatedMany(harness::SystemKind::kGemini,
                                            specs, SpeedupBed(), scale));
}

// ---------------------------------------------------------------------------
// fig17_scale: rack-density sweep with lifecycle churn.

// Three tenant flavors cycled across the N VMs: VMA-churning key-value
// store, GC-sweeping latency server, plain throughput batch job.
workload::WorkloadSpec ScaleFlavor(size_t i) {
  workload::WorkloadSpec spec;
  switch (i % 3) {
    case 0:
      spec.name = "kv_churn";
      spec.working_set_pages = 1536;
      spec.vma_count = 6;
      spec.ops = 5000;
      spec.churn_period_ops = 2000;
      break;
    case 1:
      spec.name = "serve_gc";
      spec.kind = workload::Kind::kLatency;
      spec.working_set_pages = 2048;
      spec.vma_count = 4;
      spec.ops = 4000;
      spec.accesses_per_request = 8;
      spec.gc_sweep_period_ops = 3000;
      break;
    default:
      spec.name = "batch";
      spec.working_set_pages = 2048;
      spec.vma_count = 4;
      spec.ops = 5000;
      break;
  }
  return spec;
}

Row RunScaleCell(mmu::TlbShareMode mode, uint64_t n,
                 std::string* interference_text) {
  std::vector<workload::WorkloadSpec> specs;
  specs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    specs.push_back(ScaleFlavor(i));
  }
  harness::BedOptions bed = SpeedupBed();
  bed.tlb_mode = mode;
  harness::ScaleOptions scale;
  scale.quantum = 128;
  scale.wave_size = std::max<uint64_t>(1, n / 4);
  scale.wave_epochs = 16;
  scale.teardown_on_finish = true;
  scale.load_phases = {100, 40};
  scale.load_phase_epochs = 32;
  const harness::CollocatedManyResult result = harness::RunCollocatedMany(
      harness::SystemKind::kGemini, specs, bed, scale);
  const char* mode_name = mmu::TlbShareModeName(mode);
  std::ostringstream scenario;
  scenario << "scale_" << mode_name << "_" << n << "vms";
  if (mode != mmu::TlbShareMode::kPrivate) {
    *interference_text += bench::RenderInterferenceSection(
        "fig17_scale", mode_name,
        {{scenario.str(), &result.interference}});
  }
  return MakeRow(scenario.str(), scale.threads, result);
}

// ---------------------------------------------------------------------------

// The BENCH_collocation.json columns of one row.
constexpr auto RowColumns = [](const Row& r, auto& sink) {
  sink("scenario", r.scenario);
  sink("vms", r.vms);
  sink("threads", r.threads);
  sink("ops", r.ops);
  sink("wall_ms", r.wall_ms);
  sink("mops_per_s", bench::Mops(r.ops, r.wall_ms));
  sink("epochs", r.epochs);
  sink("parallel_ops", r.parallel_ops);
  sink("serial_ops", r.serial_ops);
  sink("tlb_hits", r.tlb_hits);
  sink("tlb_misses", r.tlb_misses);
  sink("digest", r.digest);
};

}  // namespace

int main() {
  bench::CheckEnvironment();
  std::vector<Row> rows;

  // Part 1: collocated_64 serial-vs-parallel pair.  The digests MUST be
  // identical — the thread count is unobservable by contract — before
  // any wall-clock comparison is meaningful.
  rows.push_back(RunSpeedup("collocated_64_serial", 1));
  rows.push_back(RunSpeedup("collocated_64_t8", 8));
  SIM_CHECK_MSG(rows[0].digest == rows[1].digest,
                "collocated_64 diverged between 1 and 8 threads");
  PrintRow(rows[0]);
  PrintRow(rows[1]);
  const double speedup =
      rows[1].wall_ms > 0.0 ? rows[0].wall_ms / rows[1].wall_ms : 0.0;
  std::printf("collocated_64: digests identical; speedup t8/serial %.2fx\n",
              speedup);

  // Part 2: rack-density sweep.  Modes from GEMINI_TLB_MODE; partitioned
  // needs >=1 of the 12 ways per VM, so it stops at N=8.
  // Only shared mode climbs to 128 VMs: that is where the sparse top-k
  // interference render takes over (metrics/interference_matrix.h), and
  // private mode at 128 would only re-measure the backend, more slowly.
  const std::vector<uint64_t> counts = {2, 4, 8, 16, 32, 64, 128};
  std::string interference_text;
  for (const mmu::TlbShareMode mode : bench::TlbModesFromEnv()) {
    for (const uint64_t n : counts) {
      if (mode == mmu::TlbShareMode::kPartitioned && n > 8) {
        continue;
      }
      if (mode != mmu::TlbShareMode::kShared && n > 64) {
        continue;
      }
      rows.push_back(RunScaleCell(mode, n, &interference_text));
      PrintRow(rows.back());
    }
  }

  const std::string path = bench::ExportPath("BENCH_collocation.json");
  metrics::WriteFile(path, metrics::RenderJson(rows, RowColumns));
  std::printf("wrote %s\n", path.c_str());
  if (!interference_text.empty()) {
    const std::string ipath = bench::ExportPath("INTERFERENCE_scale.txt");
    metrics::WriteFile(ipath, interference_text);
    std::printf("wrote %s\n", ipath.c_str());
  }
  return 0;
}
