// Shared helpers for the figure/table reproduction binaries.
//
// Every bench binary prints one table shaped like the paper's figure it
// regenerates: workloads as rows, the eight systems as columns, values
// normalized the way the paper normalizes them.  Environment contract
// (full details in BENCHMARKS.md):
//   GEMINI_JOBS=N        worker threads for the sweep (default: all cores)
//   GEMINI_EXPORT=DIR    also write <DIR>/<label>.csv and .json per sweep
//   GEMINI_TRACE=DIR     per-cell Perfetto trace + time-series CSV
//   GEMINI_TRACE_INTERVAL=N   sampler period, simulated cycles
// Tables on stdout are bit-identical at any job count; progress and
// timing go to stderr.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/env.h"
#include "harness/experiment.h"
#include "harness/sweep_runner.h"
#include "metrics/export.h"
#include "metrics/perf_model.h"
#include "metrics/table.h"
#include "trace/session.h"

namespace bench {

using RunFn = std::function<workload::RunResult(
    harness::SystemKind, const workload::WorkloadSpec&,
    const harness::BedOptions&)>;

// One (workload, system) measurement of a sweep, in deterministic
// workload-major, system-minor order.
struct SweepCell {
  std::string workload;
  harness::SystemKind system = harness::SystemKind::kHostBVmB;
  workload::RunResult result;
  double wall_ms = 0.0;  // host wall-clock; NOT deterministic
  uint64_t seed = 0;     // BedOptions::seed the cell ran under
};

struct SweepResult {
  std::vector<std::string> workloads;          // row order
  std::vector<harness::SystemKind> systems;    // column order
  std::vector<SweepCell> cells;                // workload-major
  // results[workload][system] -> run result (view over `cells`).
  std::map<std::string, std::map<harness::SystemKind, workload::RunResult>>
      results;
};

// The GEMINI_EXPORT directory; empty when unset.
inline std::string ExportDir() {
  const char* dir = base::EnvValue("GEMINI_EXPORT");
  return dir != nullptr ? dir : "";
}

// Where the artifact `file` goes: into GEMINI_EXPORT when set, else into
// the working directory.
inline std::string ExportPath(const std::string& file) {
  const std::string dir = ExportDir();
  return dir.empty() ? file : dir + "/" + file;
}

// If GEMINI_EXPORT=<dir> is set, writes <dir>/<label>.csv and .json.
// Every exported field except wall_ms is deterministic (BENCHMARKS.md
// "Export schema").
inline void ExportRows(const std::string& label,
                       const std::vector<metrics::ResultRow>& rows) {
  if (ExportDir().empty()) {
    return;
  }
  const std::string base = ExportPath(label);
  metrics::WriteFile(base + ".csv", metrics::ToCsv(rows));
  metrics::WriteFile(base + ".json", metrics::ToJson(rows));
  std::fprintf(stderr, "[%s] exported %s.{csv,json}\n", label.c_str(),
               base.c_str());
}

// Export rows of a sweep, in cell (row-major) order.
inline std::vector<metrics::ResultRow> SweepRows(const SweepResult& sweep) {
  std::vector<metrics::ResultRow> rows;
  rows.reserve(sweep.cells.size());
  for (const SweepCell& cell : sweep.cells) {
    rows.push_back(metrics::ResultRow{
        cell.workload, std::string(harness::SystemName(cell.system)),
        &cell.result, cell.wall_ms, cell.seed});
  }
  return rows;
}

// Renders the displaced-by matrix and the utility-curve companion for one
// sharing mode of a collocated sweep (cells = (pair x system label,
// captured report)).  Returns the exact text to print/persist; empty when
// every report is empty — the private arrangement — so the historical
// private-mode stdout stays byte-identical.
inline std::string RenderInterferenceSection(
    const std::string& figure, const char* mode_name,
    const std::vector<std::pair<std::string,
                                const metrics::InterferenceReport*>>& cells) {
  const std::string suffix = std::string(" [tlb=") + mode_name + "]";
  std::string out = metrics::RenderInterferenceMatrix(
      figure + ": displaced-by matrix (victim misses charged to evictor)" +
          suffix,
      cells);
  out += metrics::RenderUtilityCurves(
      figure + ": per-VM utility curves (would-hit fraction with <=w ways)" +
          suffix,
      cells);
  return out;
}

// Persists the accumulated interference sections of a collocated bench as
// INTERFERENCE_matrix.txt — in GEMINI_EXPORT when set, else the working
// directory (CI uploads it as an artifact).  No-op when `text` is empty
// (private-only runs produce no artifact, matching the historical set).
inline void WriteInterferenceArtifact(const std::string& text) {
  if (text.empty()) {
    return;
  }
  const std::string path = ExportPath("INTERFERENCE_matrix.txt");
  metrics::WriteFile(path, text);
  std::fprintf(stderr, "[interference] wrote %s\n", path.c_str());
}

// Per-cell trace config for benches that drive cells directly through
// harness::ParallelMap instead of RunSweep.  Same artifact-naming
// convention: <label>_cellNN_<cell name>, keyed by cell index so the
// artifact set is identical at any GEMINI_JOBS count.
inline harness::BedOptions TracedBed(const harness::BedOptions& bed,
                                     const std::string& label, size_t i,
                                     const std::string& cell_name) {
  harness::BedOptions out = bed;
  char cell_tag[32];
  std::snprintf(cell_tag, sizeof(cell_tag), "cell%02zu", i);
  out.trace = trace::TraceConfigFromEnv(trace::SanitizeFileStem(label) + "_" +
                                        cell_tag + "_" +
                                        trace::SanitizeFileStem(cell_name));
  return out;
}

// Runs `fn` for every (workload, system) pair, in parallel across
// GEMINI_JOBS worker threads.  Each cell builds its own machine and RNGs
// from `bed`, so cells are independent; results are keyed by cell index
// (workload-major, system-minor), which makes the sweep deterministic at
// any job count.  `label` names the sweep in stderr progress lines and in
// GEMINI_EXPORT file names.
inline SweepResult RunSweep(const std::vector<workload::WorkloadSpec>& specs,
                            const std::vector<harness::SystemKind>& systems,
                            const harness::BedOptions& bed, const RunFn& fn,
                            const std::string& label = "sweep") {
  SweepResult sweep;
  sweep.systems = systems;
  for (const auto& spec : specs) {
    sweep.workloads.push_back(spec.name);
  }

  const size_t columns = systems.size();
  sweep.cells.resize(specs.size() * columns);
  harness::SweepRunnerOptions options;
  options.label = label;
  options.cell_name = [&](size_t i) {
    return specs[i / columns].name + " x " +
           std::string(harness::SystemName(systems[i % columns]));
  };
  harness::SweepRunner runner(std::move(options));
  runner.Run(sweep.cells.size(), [&](size_t i) {
    SweepCell& cell = sweep.cells[i];
    cell.workload = specs[i / columns].name;
    cell.system = systems[i % columns];
    cell.seed = bed.seed;
    // Per-cell trace files are keyed by cell index (like results), so the
    // set of artifacts is identical at any GEMINI_JOBS count.
    harness::BedOptions cell_bed = bed;
    char cell_tag[32];
    std::snprintf(cell_tag, sizeof(cell_tag), "cell%02zu",
                  static_cast<size_t>(i));
    cell_bed.trace = trace::TraceConfigFromEnv(
        trace::SanitizeFileStem(label) + "_" + cell_tag + "_" +
        trace::SanitizeFileStem(cell.workload) + "_" +
        trace::SanitizeFileStem(
            std::string(harness::SystemName(cell.system))));
    const auto start = std::chrono::steady_clock::now();
    cell.result = fn(cell.system, specs[i / columns], cell_bed);
    cell.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  });

  for (const SweepCell& cell : sweep.cells) {
    sweep.results[cell.workload][cell.system] = cell.result;
  }
  ExportRows(label, SweepRows(sweep));
  return sweep;
}

// Prints one metric of a sweep as a table, with each row normalized
// against the metric's value under `baseline` (so the baseline column
// prints 1.00).  The geomean row is annotated with the metric's
// direction: `higher_is_better` selects between "geomean (higher is
// better)" and "geomean (lower is better)".
inline void PrintNormalizedTable(
    const std::string& title, const SweepResult& sweep,
    const std::vector<harness::SystemKind>& systems,
    harness::SystemKind baseline,
    const std::function<double(const workload::RunResult&)>& extract,
    bool higher_is_better) {
  metrics::TextTable table(title);
  std::vector<std::string> columns{"workload"};
  for (harness::SystemKind kind : systems) {
    columns.emplace_back(harness::SystemName(kind));
  }
  table.SetColumns(columns);

  std::map<harness::SystemKind, std::vector<double>> normalized;
  for (const auto& name : sweep.workloads) {
    const auto& row = sweep.results.at(name);
    const double base_value = extract(row.at(baseline));
    std::vector<std::string> cells{name};
    for (harness::SystemKind kind : systems) {
      const double v = metrics::Normalize(extract(row.at(kind)), base_value);
      normalized[kind].push_back(v);
      cells.push_back(metrics::TextTable::Fmt(v));
    }
    table.AddRow(cells);
  }
  std::vector<std::string> mean_row{
      higher_is_better ? "geomean (higher is better)"
                       : "geomean (lower is better)"};
  for (harness::SystemKind kind : systems) {
    mean_row.push_back(
        metrics::TextTable::Fmt(metrics::GeometricMean(normalized[kind])));
  }
  table.AddRow(mean_row);
  table.Print();
}

// Prints the well-aligned-rate table (Tables 1/3/4 format).
inline void PrintAlignmentTable(
    const std::string& title, const SweepResult& sweep,
    const std::vector<harness::SystemKind>& systems) {
  metrics::TextTable table(title);
  std::vector<std::string> columns{"workload"};
  for (harness::SystemKind kind : systems) {
    columns.emplace_back(harness::SystemName(kind));
  }
  table.SetColumns(columns);
  for (const auto& name : sweep.workloads) {
    std::vector<std::string> cells{name};
    for (harness::SystemKind kind : systems) {
      cells.push_back(metrics::TextTable::Pct(
          sweep.results.at(name).at(kind).alignment.well_aligned_rate));
    }
    table.AddRow(cells);
  }
  table.Print();
}

// Latency-reporting workloads only (the TailBench-style subset).
inline std::vector<workload::WorkloadSpec> LatencyWorkloads() {
  std::vector<workload::WorkloadSpec> out;
  for (const auto& spec : workload::CleanSlateCatalog()) {
    if (spec.kind == workload::Kind::kLatency) {
      out.push_back(spec);
    }
  }
  return out;
}

}  // namespace bench

#endif  // BENCH_BENCH_COMMON_H_
