// The benchmark's workloads and the code that runs one cell of them.
//
// A cell is one testbed plus the workload(s) run on it, shaped like one
// cell of a figure binary: a clean-slate VM (fig08), a reused VM (fig12)
// or N collocated VMs on the epoch executor (bench_collocation,
// bench_overcommit).  Untraced single-VM cells build their testbed with
// harness::MakeTestBed.  Traced cells, and collocated cells (the harness
// builds those only inside RunCollocatedMany), are assembled from the
// simulator's public calls in the same steps, so that each set-up stage
// gets a span and, in the traced run, every policy and the Gemini runtime
// is decorated.  RunCellViaHarness runs a cell through the harness entry
// point; each run and the self-test require equal digests from both.
#ifndef PERFBENCH_CELLS_H_
#define PERFBENCH_CELLS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/systems.h"
#include "spans.h"
#include "workload/workload.h"

namespace perfbench {

enum class Shape : uint8_t { kCleanSlate, kReusedVm, kCollocated };

struct CellSpec {
  std::string name;
  uint64_t variant = 0;  // seed variant the cell's inputs come from
  size_t index = 0;      // position among its variant's cells
  harness::SystemKind kind = harness::SystemKind::kGemini;
  Shape shape = Shape::kCleanSlate;
  harness::BedOptions bed;
  std::vector<workload::WorkloadSpec> specs;  // one per VM
  harness::ScaleOptions scale;                // kCollocated only
};

// Inputs come in kSeedCycle variants per workload: variant v sets
// BedOptions::seed = (the figure binary's own seed) + v, so variant 0
// reproduces the figure binaries' cells exactly, and every variant has
// committed reference digests.
inline constexpr uint64_t kSeedCycle = 32;

// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();
bool IsWorkload(const std::string& name);

// The cells of one input variant of `workload`.
std::vector<CellSpec> VariantCells(const std::string& workload,
                                   uint64_t variant);

// The cells of one pass of `workload` under benchmark seed `seed`: every
// cell of a variant (repeated 4x on rack_churn64, 8x on
// overcommit_reclaim), each taking its inputs from a variant picked by
// the seed, the cell and the repeat.
std::vector<CellSpec> MakeCells(const std::string& workload, uint64_t seed);

// Deterministic per-layer counts of one cell (collected in traced runs).
struct LayerCounts {
  uint64_t boot_accesses = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t tlb_stale_hits = 0;
  uint64_t tlb_shootdowns = 0;
  uint64_t walk_mem_refs = 0;
  uint64_t guest_promotions = 0;
  uint64_t host_promotions = 0;
  uint64_t pages_copied = 0;
  uint64_t demotions = 0;
  uint64_t faulting_accesses = 0;
  uint64_t reclaim_ticks = 0;
  uint64_t reclaim_pages_demoted = 0;
  uint64_t guest_buddy_mutations = 0;
  uint64_t host_buddy_mutations = 0;
  uint64_t tier_refaults = 0;
  uint64_t tier_peak_resident = 0;
  uint64_t bookings_started = 0;
  uint64_t bucket_hits = 0;
  uint64_t epochs = 0;
  uint64_t parallel_ops = 0;
  uint64_t serial_ops = 0;
  double final_host_fmfi = 0.0;

  // Sums counts; tier_peak_resident takes the max.  final_host_fmfi is
  // summed too (callers divide by the cell count for the mean).
  void Add(const LayerCounts& other);
};

struct CellOutcome {
  uint64_t digest = 0;
  uint64_t run_accesses = 0;
  LayerCounts counts;  // filled only when run with `traced`
};

// Runs one cell.  Set-up and run phases always get spans in `recorder`,
// and set-up stages do wherever the bed is staged.  With `traced`, every
// policy and Gemini runtime is decorated, the per-layer counts are
// collected, and the benchmark's metrics::Snapshot / export calls are
// timed.
CellOutcome RunCell(const CellSpec& cell, SpanRecorder* recorder, bool traced);

// The same cell through harness::RunCleanSlate / RunReusedVm /
// RunCollocatedMany; returns its digest.
uint64_t RunCellViaHarness(const CellSpec& cell);

}  // namespace perfbench

#endif  // PERFBENCH_CELLS_H_
