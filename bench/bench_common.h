// Shared helpers for the figure/table reproduction binaries.
//
// Each paper experiment is one binary: it runs its sweep once and prints
// every figure and table that sweep feeds, each a row/column Subset of it.
// Every figure runs its cells through one cell runner, RunCells: the cells
// run on the sweep pool (GEMINI_JOBS workers), each gets its GEMINI_TRACE
// config, named <label>_cellNN_<cell name>, and each cell's host wall time
// is recorded beside its result.  RunSweep is the (workload, system) grid
// on top of it, and RunPairFigure the collocated-pair sweep that fig17 and
// fig18 share.  Tables print one row per workload and one column per
// system, normalized the way the paper normalizes them.  The GEMINI_*
// knobs are declared once, in kKnobs below; BENCHMARKS.md's environment
// table documents them and test_export checks it against kKnobs.  Tables
// on stdout are bit-identical at any job count; progress and timing go to
// stderr.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "base/check.h"
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

  // The result of row `w`, column `k`.
  const workload::RunResult& result(size_t w, size_t k) const {
    return cells[w * systems.size() + k].result;
  }
};

// One cell's result beside its host wall time.
template <typename Result>
struct Timed {
  Result result;
  double wall_ms = 0.0;  // host wall-clock; NOT deterministic
};

// --- Digests and rates of the engineering benches -------------------------
// bench_collocation and bench_overcommit fold each cell's deterministic
// fields into a 64-bit FNV-1a digest, word by word, starting from
// kFnvOffsetBasis; each bench keeps its own field list.

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;

inline void Mix(uint64_t* digest, uint64_t value) {
  *digest = (*digest ^ value) * 1099511628211ull;
}

// Mixes the bit pattern, so equal digests mean bit-identical doubles.
inline void MixDouble(uint64_t* digest, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  Mix(digest, bits);
}

// Simulated operations per second of host wall time, in millions; 0 for
// a run too short to time.
inline double Mops(uint64_t ops, double wall_ms) {
  return wall_ms > 0.0 ? static_cast<double>(ops) / (wall_ms * 1000.0) : 0.0;
}

// --- The GEMINI_* environment knobs ---------------------------------------
// The bench layer is the only reader of the environment; the simulator
// library takes its configuration as arguments.  Unset and empty mean the
// default; a malformed value aborts naming the variable.

// Sweep workers from GEMINI_JOBS, a positive integer; 0 when it is unset,
// which harness::SweepRunner resolves to every hardware thread.
inline int SweepJobs() {
  return static_cast<int>(
      base::EnvInt("GEMINI_JOBS", 1, std::numeric_limits<int>::max())
          .value_or(0));
}

// The existing directory the variable `name` holds; empty when it is unset.
inline std::string EnvDir(const char* name) {
  const char* dir = base::EnvValue(name);
  if (dir == nullptr) {
    return "";
  }
  std::error_code error;
  SIM_CHECK_MSG(std::filesystem::is_directory(dir, error),
                "%s='%s' is not an existing directory", name, dir);
  return dir;
}

// The GEMINI_EXPORT directory; empty when unset.
inline std::string ExportDir() { return EnvDir("GEMINI_EXPORT"); }

// The trace config of the files named `stem`: into the GEMINI_TRACE
// directory, or tracing off when it is unset.
inline trace::TraceConfig TraceConfigFromEnv(const std::string& stem) {
  return trace::TraceConfig{EnvDir("GEMINI_TRACE"), stem};
}

// The sharing modes a collocated bench should sweep, from GEMINI_TLB_MODE:
// a mode name (mmu::TlbShareModeName), a comma-separated list, or "all" for
// all three.  Unset or empty means {kPrivate} — the historical single-mode
// output.  Aborts on an unrecognized name (silently measuring the wrong
// mode would poison comparisons) and on a name listed twice (its cells
// would run, print and export twice).
inline std::vector<mmu::TlbShareMode> TlbModesFromEnv() {
  const std::vector<mmu::TlbShareMode> all = {
      mmu::TlbShareMode::kPrivate, mmu::TlbShareMode::kShared,
      mmu::TlbShareMode::kPartitioned};
  const char* env = base::EnvValue("GEMINI_TLB_MODE");
  if (env == nullptr) {
    return {mmu::TlbShareMode::kPrivate};
  }
  const std::string spec(env);
  if (spec == "all") {
    return all;
  }
  std::vector<mmu::TlbShareMode> modes;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string name = spec.substr(start, comma - start);
    const auto mode =
        std::find_if(all.begin(), all.end(), [&](mmu::TlbShareMode m) {
          return name == mmu::TlbShareModeName(m);
        });
    SIM_CHECK_MSG(mode != all.end(), "GEMINI_TLB_MODE: unknown mode '%s'",
                  name.c_str());
    SIM_CHECK_MSG(std::find(modes.begin(), modes.end(), *mode) == modes.end(),
                  "GEMINI_TLB_MODE: mode '%s' listed twice", name.c_str());
    modes.push_back(*mode);
    start = comma + 1;
  }
  return modes;
}

// One knob: the variable, what an unset or empty value means (the
// "default" column of BENCHMARKS.md's table), and its check, which reads
// the value through the knob's reader above.
struct Knob {
  const char* name;
  const char* fallback;
  void (*check)();
};

// Every knob, in BENCHMARKS.md's order.
inline constexpr Knob kKnobs[] = {
    {"GEMINI_JOBS", "all cores", [] { SweepJobs(); }},
    {"GEMINI_EXPORT", "unset", [] { ExportDir(); }},
    {"GEMINI_TRACE", "unset", [] { TraceConfigFromEnv(""); }},
    {"GEMINI_TLB_MODE", "private", [] { TlbModesFromEnv(); }},
};

// The first call of every bench main.  Warns on stderr about each set
// GEMINI_* variable that is not a knob (a misspelt knob would otherwise
// run the default unannounced), then runs every knob's check, so a
// malformed value aborts before the first cell whether or not the binary
// reads that knob.  Unknown names only warn: other tools share the prefix
// (GEMINI_API_KEY), and a shell that sets one must still run the benches.
inline void CheckEnvironment() {
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view var(*entry);
    const std::string_view name = var.substr(0, var.find('='));
    if (name.starts_with("GEMINI_") &&
        std::none_of(std::begin(kKnobs), std::end(kKnobs),
                     [&](const Knob& knob) { return name == knob.name; })) {
      std::fprintf(stderr,
                   "warning: %.*s is not a knob of these benches "
                   "(BENCHMARKS.md); ignored\n",
                   static_cast<int>(name.size()), name.data());
    }
  }
  for (const Knob& knob : kKnobs) {
    knob.check();
  }
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

// The one cell runner.  Runs run(i, bed_i) for every i in [0, count) on
// the sweep pool (harness::SweepRunner, SweepJobs() workers) and returns
// the results in index order, each beside its host wall time.  Each cell
// builds its own machine and RNGs from `bed`, so cells are independent
// and the results are identical at any job count.  bed_i is `bed` with
// GEMINI_TRACE's config for cell i, whose files are named
// <label>_cellNN_<cell_name(i)>: keyed by cell index, so the artifact set
// is identical at any job count too.  `label` and cell_name(i) also name
// the cell in stderr progress lines.
template <typename Run>
auto RunCells(const std::string& label, size_t count,
              const harness::BedOptions& bed,
              const std::function<std::string(size_t)>& cell_name,
              const Run& run) {
  using Result =
      std::invoke_result_t<const Run&, size_t, const harness::BedOptions&>;
  harness::SweepRunnerOptions options;
  options.jobs = SweepJobs();
  options.label = label;
  options.cell_name = cell_name;
  return harness::ParallelMap(
      count,
      [&](size_t i) {
        harness::BedOptions cell_bed = bed;
        char cell_tag[32];
        std::snprintf(cell_tag, sizeof(cell_tag), "cell%02zu", i);
        cell_bed.trace = TraceConfigFromEnv(
            trace::SanitizeFileStem(label) + "_" + cell_tag + "_" +
            trace::SanitizeFileStem(cell_name(i)));
        const auto start = std::chrono::steady_clock::now();
        Timed<Result> cell{run(i, cell_bed)};
        cell.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        return cell;
      },
      std::move(options));
}

// Runs `fn` for every (workload, system) pair through RunCells, in
// workload-major, system-minor cell order; cell names are
// <workload>_<system>.  `label` names the sweep in progress lines, trace
// files and the GEMINI_EXPORT file names.
inline SweepResult RunSweep(const std::vector<workload::WorkloadSpec>& specs,
                            const std::vector<harness::SystemKind>& systems,
                            const harness::BedOptions& bed, const RunFn& fn,
                            const std::string& label) {
  const size_t columns = systems.size();
  auto cells = RunCells(
      label, specs.size() * columns, bed,
      [&](size_t i) {
        return specs[i / columns].name + "_" +
               std::string(harness::SystemName(systems[i % columns]));
      },
      [&](size_t i, const harness::BedOptions& cell_bed) {
        return fn(systems[i % columns], specs[i / columns], cell_bed);
      });
  SweepResult sweep;
  sweep.systems = systems;
  for (const auto& spec : specs) {
    sweep.workloads.push_back(spec.name);
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    sweep.cells.push_back(SweepCell{specs[i / columns].name,
                                    systems[i % columns],
                                    std::move(cells[i].result),
                                    cells[i].wall_ms, bed.seed});
  }
  ExportRows(label, SweepRows(sweep));
  return sweep;
}

// A table header: `first`, then one column per system.
inline std::vector<std::string> SystemColumns(
    const std::string& first, const std::vector<harness::SystemKind>& systems) {
  std::vector<std::string> columns{first};
  for (harness::SystemKind kind : systems) {
    columns.emplace_back(harness::SystemName(kind));
  }
  return columns;
}

// The column of `kind` in `systems`; aborts when it is absent.
inline size_t SystemColumn(const std::vector<harness::SystemKind>& systems,
                           harness::SystemKind kind) {
  const auto it = std::find(systems.begin(), systems.end(), kind);
  SIM_CHECK(it != systems.end());
  return static_cast<size_t>(it - systems.begin());
}

// The rows `workloads` and columns `systems` of `sweep`, in that order;
// aborts when one is absent.  A cell's result does not depend on the sweep
// around it, so a figure over some of a sweep's cells reads them from the
// sweep instead of running them again.
inline SweepResult Subset(const SweepResult& sweep,
                          const std::vector<std::string>& workloads,
                          const std::vector<harness::SystemKind>& systems) {
  SweepResult out;
  out.workloads = workloads;
  out.systems = systems;
  for (const std::string& name : workloads) {
    const auto row =
        std::find(sweep.workloads.begin(), sweep.workloads.end(), name);
    SIM_CHECK(row != sweep.workloads.end());
    const size_t w = static_cast<size_t>(row - sweep.workloads.begin());
    for (harness::SystemKind kind : systems) {
      out.cells.push_back(sweep.cells[w * sweep.systems.size() +
                                      SystemColumn(sweep.systems, kind)]);
    }
  }
  return out;
}

// The metrics the figures plot.
inline double Throughput(const workload::RunResult& r) { return r.throughput; }
inline double MeanLatency(const workload::RunResult& r) {
  return r.mean_latency;
}
inline double P99Latency(const workload::RunResult& r) {
  return r.p99_latency;
}
inline double TlbMisses(const workload::RunResult& r) {
  return static_cast<double>(r.tlb_misses);
}

// Prints one metric of a sweep as the table "<title> (normalized to
// <baseline>)", with each row normalized against the metric's value under
// `baseline` (so the baseline column prints 1.00).  A lower-is-better
// metric's title ends "(normalized to <baseline>; lower is better)", and
// the geomean row names the direction.  A row whose baseline value is not
// positive has no ratio: it prints "-" in every column and the geomean
// skips it (Img-dnn's TLB misses, which Gemini drives to zero).
inline void PrintNormalizedTable(const std::string& title,
                                 const SweepResult& sweep,
                                 harness::SystemKind baseline,
                                 double (*metric)(const workload::RunResult&),
                                 bool higher_is_better) {
  metrics::TextTable table(title + " (normalized to " +
                           std::string(harness::SystemName(baseline)) +
                           (higher_is_better ? ")" : "; lower is better)"));
  table.SetColumns(SystemColumns("workload", sweep.systems));
  const size_t base = SystemColumn(sweep.systems, baseline);
  std::vector<std::vector<double>> normalized(sweep.systems.size());
  for (size_t w = 0; w < sweep.workloads.size(); ++w) {
    const double base_value = metric(sweep.result(w, base));
    std::vector<std::string> cells{sweep.workloads[w]};
    for (size_t k = 0; k < sweep.systems.size(); ++k) {
      if (base_value <= 0.0) {
        cells.emplace_back("-");
        continue;
      }
      const double v = metric(sweep.result(w, k)) / base_value;
      normalized[k].push_back(v);
      cells.push_back(metrics::TextTable::Fmt(v));
    }
    table.AddRow(cells);
  }
  std::vector<std::string> mean_row{
      higher_is_better ? "geomean (higher is better)"
                       : "geomean (lower is better)"};
  for (const std::vector<double>& column : normalized) {
    mean_row.push_back(
        metrics::TextTable::Fmt(metrics::GeometricMean(column)));
  }
  table.AddRow(mean_row);
  table.Print();
}

// Prints the well-aligned-rate table (Tables 1/3/4 format).
inline void PrintAlignmentTable(const std::string& title,
                                const SweepResult& sweep) {
  metrics::TextTable table(title);
  table.SetColumns(SystemColumns("workload", sweep.systems));
  for (size_t w = 0; w < sweep.workloads.size(); ++w) {
    std::vector<std::string> cells{sweep.workloads[w]};
    for (size_t k = 0; k < sweep.systems.size(); ++k) {
      cells.push_back(metrics::TextTable::Pct(
          sweep.result(w, k).alignment.well_aligned_rate));
    }
    table.AddRow(cells);
  }
  table.Print();
}

// The latency-reporting workloads (the TailBench-style subset), in
// catalog order.
inline std::vector<std::string> LatencyWorkloads() {
  std::vector<std::string> out;
  for (const auto& spec : workload::CleanSlateCatalog()) {
    if (spec.kind == workload::Kind::kLatency) {
      out.push_back(spec.name);
    }
  }
  return out;
}

// A collocated pair: the workloads of vm0 and vm1.
struct VmPair {
  const char* vm0;
  const char* vm1;
};

// Host memory of the collocated pair figures: room for two VMs.
inline constexpr uint64_t kPairHostFrames = 640 * 1024;

// The collocated pair figures (17, 18): one two-VM RunCollocatedMany cell
// per mode x pair x system.  Prints, per mode, a table with two rows per
// pair (each VM's `metric`, normalized to Host-B-VM-B) and the mode's
// interference section: the displaced-by matrix and utility curves, which
// private mode renders as nothing.  A sweep over anything but the private
// mode alone annotates the tables and trace names with the mode.  The
// sections are persisted as INTERFERENCE_matrix.txt, in GEMINI_EXPORT when
// set, else the working directory; a private-only run writes no file.  The
// cells run mode-major, then pair, then system, and their rows are
// exported under `label` in that order.
inline void RunPairFigure(const std::string& figure, const std::string& label,
                          const std::vector<VmPair>& pairs,
                          const std::string& title,
                          double (*metric)(const workload::RunResult&)) {
  const std::vector<mmu::TlbShareMode> modes = TlbModesFromEnv();
  const bool annotate_mode =
      modes.size() > 1 || modes[0] != mmu::TlbShareMode::kPrivate;
  const auto systems = harness::AllSystems();
  const size_t per_mode = pairs.size() * systems.size();
  harness::BedOptions bed;
  bed.host_frames = kPairHostFrames;
  // The pair figures never modelled VM boot.
  bed.boot_noise_fraction = 0;
  const std::vector<Timed<harness::CollocatedManyResult>> cells = RunCells(
      label, modes.size() * per_mode, bed,
      [&](size_t i) {
        const VmPair& pair = pairs[(i % per_mode) / systems.size()];
        std::string name =
            std::string(pair.vm0) + "_" + pair.vm1 + "_" +
            std::string(harness::SystemName(systems[i % systems.size()]));
        if (annotate_mode) {
          name += std::string("_") +
                  mmu::TlbShareModeName(modes[i / per_mode]);
        }
        return name;
      },
      [&](size_t i, harness::BedOptions cell_bed) {
        const VmPair& pair = pairs[(i % per_mode) / systems.size()];
        cell_bed.tlb_mode = modes[i / per_mode];
        return harness::RunCollocatedMany(
            systems[i % systems.size()],
            {workload::SpecByName(pair.vm0), workload::SpecByName(pair.vm1)},
            cell_bed, harness::ScaleOptions{});
      });

  const size_t base = SystemColumn(systems, harness::SystemKind::kHostBVmB);
  // Each row points into `cells`.
  std::vector<metrics::ResultRow> rows;
  std::string interference_text;
  for (size_t m = 0; m < modes.size(); ++m) {
    const char* mode_name = mmu::TlbShareModeName(modes[m]);
    metrics::TextTable table(
        annotate_mode ? title + " [tlb=" + mode_name + "]" : title);
    table.SetColumns(SystemColumns("VM / workload", systems));
    std::vector<std::pair<std::string, const metrics::InterferenceReport*>>
        interference_cells;
    for (size_t p = 0; p < pairs.size(); ++p) {
      const std::string tag = std::string(pairs[p].vm0) + "+" + pairs[p].vm1;
      const auto* row_cells = &cells[m * per_mode + p * systems.size()];
      std::vector<std::string> vm_rows[2] = {
          {std::string("vm0 ") + pairs[p].vm0},
          {std::string("vm1 ") + pairs[p].vm1}};
      for (size_t k = 0; k < systems.size(); ++k) {
        const auto& cell = row_cells[k];
        const std::string system(harness::SystemName(systems[k]));
        for (size_t v = 0; v < 2; ++v) {
          vm_rows[v].push_back(metrics::TextTable::Fmt(
              metrics::Normalize(metric(cell.result.vms[v]),
                                 metric(row_cells[base].result.vms[v]))));
          rows.push_back(metrics::ResultRow{
              tag + "/vm" + std::to_string(v), system, &cell.result.vms[v],
              cell.wall_ms, bed.seed, mode_name});
        }
        interference_cells.emplace_back(tag + " x " + system,
                                        &cell.result.interference);
      }
      table.AddRow(vm_rows[0]);
      table.AddRow(vm_rows[1]);
    }
    table.Print();
    const std::string section =
        RenderInterferenceSection(figure, mode_name, interference_cells);
    std::fputs(section.c_str(), stdout);
    interference_text += section;
  }
  if (!interference_text.empty()) {
    const std::string path = ExportPath("INTERFERENCE_matrix.txt");
    metrics::WriteFile(path, interference_text);
    std::fprintf(stderr, "[interference] wrote %s\n", path.c_str());
  }
  ExportRows(label, rows);
}

}  // namespace bench

#endif  // BENCH_BENCH_COMMON_H_
