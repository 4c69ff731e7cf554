// Host-time benchmark of the simulator: runs one workload's cells in
// passes for a fixed time, checks every cell's digest against the
// committed reference, and prints the metrics of BENCHMARK.json.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE [--spans-out FILE]
//   perfbench --workload NAME --seed N --print-digests
//
// Before the timed passes, the first cell runs once through the harness
// entry point and is digest-checked like the others.
// --trace 0 measures the end-to-end metrics with nothing decorated.
// --trace 1 alternates undecorated and traced passes (decorated policies
// and tasks, SIGPROF sampling) and reports the per-layer metrics; the
// undecorated passes give trace.overhead_frac.  The human-readable report
// goes to stderr; the last line of stdout is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/check.h"
#include "calibrator.h"
#include "cells.h"
#include "profiler.h"
#include "spans.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool print_digests = false;
  std::string reference;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --reference FILE [--spans-out FILE]"
               "\n       perfbench --workload NAME --seed N --print-digests\n",
               why);
  std::exit(2);
}

uint64_t ParseUint(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digests") {
      args.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseUint(value, "--seed");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseUint(value, "--seconds"));
    } else if (flag == "--trace") {
      const uint64_t t = ParseUint(value, "--trace");
      if (t > 1) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = t == 1;
    } else if (flag == "--reference") {
      args.reference = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!IsWorkload(args.workload)) {
    Usage("unknown or missing --workload");
  }
  if (!args.print_digests && args.reference.empty()) {
    Usage("--reference is required");
  }
  if (args.seconds < 1.0 || args.seconds > 600.0) {
    Usage("--seconds must be in [1, 600]");
  }
  return args;
}

// Reference file lines: <workload> <variant> <cell index> <cell name>
// <digest, 16 hex digits>.  Returns one entry per cell of `cells`, empty
// where the file has none.
std::vector<std::optional<uint64_t>> LoadReference(
    const std::string& path, const std::string& workload,
    const std::vector<CellSpec>& cells) {
  std::ifstream in(path);
  SIM_CHECK_MSG(in.good(), "cannot read reference digests %s", path.c_str());
  std::map<std::pair<uint64_t, size_t>, std::pair<std::string, uint64_t>>
      table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string w, name, hex;
    uint64_t variant = 0;
    size_t index = 0;
    SIM_CHECK_MSG(
        static_cast<bool>(fields >> w >> variant >> index >> name >> hex),
        "malformed reference line: %s", line.c_str());
    if (w == workload) {
      table[{variant, index}] = {name, std::strtoull(hex.c_str(), nullptr, 16)};
    }
  }
  std::vector<std::optional<uint64_t>> out(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto it = table.find({cells[i].variant, cells[i].index});
    if (it != table.end()) {
      SIM_CHECK_MSG(it->second.first == cells[i].name,
                    "reference cell %s does not match the workload's %s",
                    it->second.first.c_str(), cells[i].name.c_str());
      out[i] = it->second.second;
    }
  }
  return out;
}

double Median(std::vector<double> v) {
  SIM_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  SIM_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

struct Pass {
  bool traced = false;
  // Host times normalized by the calibrator (see calibrator.h), summed
  // over the pass's cells; raw_wall_ns is the same sum unnormalized.
  double wall_ns = 0.0;
  double raw_wall_ns = 0.0;
  double setup_ns = 0.0;
  double run_ns = 0.0;  // prefill + run phases
  uint64_t run_accesses = 0;
  std::vector<double> cell_ms;
  SpanRecorder::Totals spans{};  // this pass's share, raw
  LayerCounts counts;
};

SpanRecorder::Totals Minus(const SpanRecorder::Totals& a,
                           const SpanRecorder::Totals& b) {
  SpanRecorder::Totals d{};
  for (size_t i = 0; i < d.size(); ++i) {
    d[i].count = a[i].count - b[i].count;
    d[i].total_ns = a[i].total_ns - b[i].total_ns;
    d[i].child_ns = a[i].child_ns - b[i].child_ns;
    d[i].in_run_ns = a[i].in_run_ns - b[i].in_run_ns;
  }
  return d;
}

struct Checker {
  std::vector<std::optional<uint64_t>> reference;
  std::vector<std::optional<uint64_t>> first_seen;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(size_t index, const std::string& name, uint64_t digest) {
    ++attempted;
    bool ok = reference[index].has_value() && *reference[index] == digest;
    if (first_seen[index].has_value()) {
      ok = ok && *first_seen[index] == digest;
    } else {
      first_seen[index] = digest;
    }
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "FAIL cell %zu %s: digest %016llx, reference %s\n",
                   index, name.c_str(), static_cast<unsigned long long>(digest),
                   reference[index].has_value() ? "differs" : "missing");
    }
  }
};

Pass RunPass(const std::vector<CellSpec>& cells, bool traced,
             SpanRecorder* recorder, Calibrator* calibrator,
             uint32_t pass_index, Checker* checker) {
  Pass pass;
  pass.traced = traced;
  const SpanRecorder::Totals before = recorder->totals();
  double cal_before = calibrator->Sample();
  for (size_t i = 0; i < cells.size(); ++i) {
    recorder->SetContext(pass_index, static_cast<uint32_t>(i));
    const SpanRecorder::Totals cell_before = recorder->totals();
    const CellOutcome outcome = RunCell(cells[i], recorder, traced);
    const SpanRecorder::Totals d = Minus(recorder->totals(), cell_before);
    const double cal_after = calibrator->Sample();
    const double scale =
        Calibrator::kNominalNs / (0.5 * (cal_before + cal_after));
    cal_before = cal_after;
    auto ns = [&d](Span s) {
      return static_cast<double>(d[static_cast<size_t>(s)].total_ns);
    };
    pass.raw_wall_ns += ns(Span::kCell);
    pass.wall_ns += scale * ns(Span::kCell);
    pass.setup_ns += scale * ns(Span::kSetup);
    pass.run_ns += scale * (ns(Span::kRun) + ns(Span::kPrefill));
    pass.cell_ms.push_back(scale * ns(Span::kCell) / 1e6);
    pass.run_accesses += outcome.run_accesses;
    pass.counts.Add(outcome.counts);
    checker->Check(i, cells[i].name, outcome.digest);
  }
  pass.spans = Minus(recorder->totals(), before);
  return pass;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  const char* direction;  // "lower", "higher" or "" (no direction)
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void PrintReport(const std::string& title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "\n%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %16.6f %-9s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(),
                 m.direction[0] != '\0'
                     ? (std::string(m.direction) + " is better").c_str()
                     : "");
  }
}

std::vector<double> Collect(const std::vector<Pass>& passes, bool traced,
                            double (*get)(const Pass&)) {
  std::vector<double> out;
  for (const Pass& p : passes) {
    if (p.traced == traced) {
      out.push_back(get(p));
    }
  }
  return out;
}

std::vector<double> UntracedCellMs(const std::vector<Pass>& passes) {
  std::vector<double> cell_ms;
  for (const Pass& p : passes) {
    if (!p.traced) {
      cell_ms.insert(cell_ms.end(), p.cell_ms.begin(), p.cell_ms.end());
    }
  }
  return cell_ms;
}

std::vector<Metric> EndToEnd(const std::vector<Pass>& passes) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"wall_s",
       Median(Collect(passes, false,
                      [](const Pass& p) { return p.wall_ns / 1e9; })),
       "s", "lower"},
      {"setup_s",
       Median(Collect(passes, false,
                      [](const Pass& p) { return p.setup_ns / 1e9; })),
       "s", "lower"},
      {"sim_mops_per_s",
       Median(Collect(passes, false,
                      [](const Pass& p) {
                        return static_cast<double>(p.run_accesses) * 1e3 /
                               p.run_ns;
                      })),
       "Mops/s", "higher"},
      {"cell_ms_p50", Median(UntracedCellMs(passes)), "ms", "lower"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB",
       "lower"},
  };
}

std::vector<Metric> PerLayer(const std::vector<Pass>& passes,
                             const SampleReport& samples) {
  std::vector<const Pass*> traced;
  for (const Pass& p : passes) {
    if (p.traced) {
      traced.push_back(&p);
    }
  }
  SIM_CHECK(!traced.empty());
  // Times: median over the traced passes, normalized like the pass's
  // wall time.  Counts are deterministic, so any traced pass gives them;
  // take the last.
  auto median_of = [&](auto get) {
    std::vector<double> v;
    for (const Pass* p : traced) {
      v.push_back(static_cast<double>(get(p->spans)) / 1e6 *
                  (p->wall_ns / p->raw_wall_ns));
    }
    return Median(v);
  };
  auto ms = [&](Span s) {
    return median_of([s](const SpanRecorder::Totals& t) {
      return t[static_cast<size_t>(s)].total_ns;
    });
  };
  auto self_ms = [&](Span s) {
    return median_of([s](const SpanRecorder::Totals& t) {
      return t[static_cast<size_t>(s)].self_ns();
    });
  };
  // Daemon work inside the measured run phase: policy ticks plus MHPS.
  const double daemon_ms = median_of([](const SpanRecorder::Totals& t) {
    return t[static_cast<size_t>(Span::kPolicyTick)].in_run_ns +
           t[static_cast<size_t>(Span::kGeminiScan)].in_run_ns;
  });
  const Pass& last = *traced.back();
  auto count = [&](Span s) {
    return static_cast<double>(last.spans[static_cast<size_t>(s)].count);
  };
  const LayerCounts& c = last.counts;
  std::fprintf(stderr, "\nself time per span (ms, median traced pass):\n");
  for (size_t i = 0; i < static_cast<size_t>(Span::kCount); ++i) {
    std::fprintf(stderr, "  %-28s %12.3f\n", SpanName(static_cast<Span>(i)),
                 self_ms(static_cast<Span>(i)));
  }
  const double cells = static_cast<double>(last.cell_ms.size());
  const double run_ms = ms(Span::kRun);
  auto wall = [](const Pass& p) { return p.wall_ns / 1e9; };
  const double untraced_setup = Median(
      Collect(passes, false, [](const Pass& p) { return p.setup_ns / 1e9; }));
  const double untraced_wall = Median(Collect(passes, false, wall));

  std::vector<Metric> m = {
      {"harness.setup.machine_ms", ms(Span::kSetupMachine), "ms", ""},
      {"harness.setup.frag_host_ms", ms(Span::kSetupFragHost), "ms", ""},
      {"harness.setup.frag_guest_ms", ms(Span::kSetupFragGuest), "ms", ""},
      {"harness.setup.boot_ms", ms(Span::kSetupBoot), "ms", ""},
      {"harness.setup.boot_accesses", static_cast<double>(c.boot_accesses),
       "count", ""},
      {"harness.setup_share", untraced_setup / untraced_wall, "fraction", ""},
      {"policy.fault_ms", ms(Span::kPolicyFault), "ms", ""},
      {"policy.faults", count(Span::kPolicyFault), "count", ""},
      {"policy.tick_ms", ms(Span::kPolicyTick), "ms", ""},
      {"policy.ticks", count(Span::kPolicyTick), "count", ""},
      {"policy.free_region_ms", ms(Span::kPolicyFreeRegion), "ms", ""},
      {"policy.free_regions", count(Span::kPolicyFreeRegion), "count", ""},
      {"gemini.mhps_ms", ms(Span::kGeminiScan), "ms", ""},
      {"gemini.mhps_scans", count(Span::kGeminiScan), "count", ""},
      {"gemini.bookings_started", static_cast<double>(c.bookings_started),
       "count", ""},
      {"gemini.bucket_hits", static_cast<double>(c.bucket_hits), "count", ""},
      {"workload.run_ms", run_ms, "ms", ""},
      {"workload.prefill_ms", ms(Span::kPrefill), "ms", ""},
      {"workload.access_self_ms", self_ms(Span::kRun), "ms", ""},
      {"workload.barrier_daemon_ms", daemon_ms, "ms", ""},
      {"workload.daemon_share", daemon_ms / run_ms, "fraction", ""},
      {"workload.epochs", static_cast<double>(c.epochs), "count", ""},
      {"workload.parallel_ops", static_cast<double>(c.parallel_ops), "count",
       ""},
      {"workload.serial_ops", static_cast<double>(c.serial_ops), "count", ""},
      {"mmu.tlb_hits", static_cast<double>(c.tlb_hits), "count", ""},
      {"mmu.tlb_misses", static_cast<double>(c.tlb_misses), "count", ""},
      {"mmu.tlb_stale_hits", static_cast<double>(c.tlb_stale_hits), "count",
       ""},
      {"mmu.tlb_shootdowns", static_cast<double>(c.tlb_shootdowns), "count",
       ""},
      {"mmu.walk_mem_refs", static_cast<double>(c.walk_mem_refs), "count", ""},
      {"os.guest_promotions", static_cast<double>(c.guest_promotions), "count",
       ""},
      {"os.host_promotions", static_cast<double>(c.host_promotions), "count",
       ""},
      {"os.pages_copied", static_cast<double>(c.pages_copied), "count", ""},
      {"os.demotions", static_cast<double>(c.demotions), "count", ""},
      {"os.faulting_accesses", static_cast<double>(c.faulting_accesses),
       "count", ""},
      {"os.reclaim_ticks", static_cast<double>(c.reclaim_ticks), "count", ""},
      {"os.reclaim_pages_demoted", static_cast<double>(c.reclaim_pages_demoted),
       "count", ""},
      {"vmem.guest_buddy_mutations",
       static_cast<double>(c.guest_buddy_mutations), "count", ""},
      {"vmem.host_buddy_mutations", static_cast<double>(c.host_buddy_mutations),
       "count", ""},
      {"vmem.final_host_fmfi", c.final_host_fmfi / cells, "fraction", ""},
      {"vmem.tier_refaults", static_cast<double>(c.tier_refaults), "count", ""},
      {"vmem.tier_peak_resident", static_cast<double>(c.tier_peak_resident),
       "count", ""},
      {"metrics.snapshot_ms", ms(Span::kSnapshot), "ms", ""},
      {"metrics.export_ms", ms(Span::kExport), "ms", ""},
      {"harness.teardown_ms", self_ms(Span::kCell), "ms", ""},
      {"trace.overhead_frac",
       Median(Collect(passes, true, wall)) / untraced_wall - 1.0, "fraction",
       ""},
      // The share of cell time inside a named set-up, run or layer span;
      // the rest is the cell's own self time (harness.teardown_ms).
      {"trace.attributed_frac", 1.0 - self_ms(Span::kCell) / ms(Span::kCell),
       "fraction", ""},
  };
  const double total = static_cast<double>(std::max<uint64_t>(samples.samples, 1));
  for (size_t i = 0; i < kSampleCategories.size(); ++i) {
    m.push_back({std::string("sampled.") + kSampleCategories[i] + "_frac",
                 static_cast<double>(samples.counts[i]) / total, "fraction",
                 ""});
  }
  m.push_back({"sampled.samples", static_cast<double>(samples.samples),
               "count", ""});
  return m;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  SpanRecorder recorder;
  Calibrator calibrator;

  if (args.print_digests) {
    for (const CellSpec& cell :
         VariantCells(args.workload, args.seed % kSeedCycle)) {
      const CellOutcome outcome = RunCell(cell, &recorder, false);
      std::printf("%s %llu %zu %s %016llx\n", args.workload.c_str(),
                  static_cast<unsigned long long>(cell.variant), cell.index,
                  cell.name.c_str(),
                  static_cast<unsigned long long>(outcome.digest));
      std::fflush(stdout);
    }
    return 0;
  }

  const std::vector<CellSpec> cells = MakeCells(args.workload, args.seed);
  Checker checker;
  checker.reference = LoadReference(args.reference, args.workload, cells);
  checker.first_seen.resize(cells.size());
  // Staged beds (traced and collocated cells) repeat the harness's set-up
  // from public calls.  The first cell also runs through the harness entry
  // point the figure binaries call, untimed, and must match the reference.
  checker.Check(0, cells[0].name + " via harness",
                RunCellViaHarness(cells[0]));
  std::optional<Profiler> profiler;
  if (args.trace) {
    profiler.emplace(argv[0]);
  }

  std::vector<Pass> passes;
  size_t untraced = 0;
  size_t traced = 0;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Stop at the pass boundary nearest the time budget: another pass runs
  // only if at least half of it would fit.
  while (untraced == 0 || (args.trace && traced == 0) ||
         elapsed_s() * (1.0 + 0.5 / static_cast<double>(passes.size())) <
             args.seconds) {
    const bool trace_this = args.trace && traced < untraced;
    if (trace_this) {
      profiler->Start();
    }
    passes.push_back(RunPass(cells, trace_this, &recorder, &calibrator,
                             static_cast<uint32_t>(passes.size()), &checker));
    if (trace_this) {
      profiler->Stop();
    }
    (trace_this ? traced : untraced) += 1;
    std::fprintf(stderr, "[%s] pass %zu (%s): %.3f s normalized, %.3f s raw\n",
                 args.workload.c_str(), passes.size(),
                 trace_this ? "traced" : "untraced", passes.back().wall_ns / 1e9,
                 passes.back().raw_wall_ns / 1e9);
  }

  const std::vector<Metric> metrics =
      args.trace ? PerLayer(passes, profiler->Report()) : EndToEnd(passes);
  const std::vector<double> cell_ms = UntracedCellMs(passes);
  std::ostringstream title;
  title << "perfbench " << args.workload << " seed " << args.seed << ", "
        << (args.trace ? "traced" : "untraced")
        << ": " << untraced << " untraced + " << traced << " traced passes of "
        << cells.size() << " cells";
  PrintReport(title.str(), metrics);
  std::fprintf(stderr, "  cells_attempted %llu  cells_failed %llu  "
                       "fail_frac %.6f\n",
               static_cast<unsigned long long>(checker.attempted),
               static_cast<unsigned long long>(checker.failed),
               static_cast<double>(checker.failed) /
                   static_cast<double>(checker.attempted));
  std::fprintf(stderr, "  cell_ms over %zu untraced cells: p50 %.3f",
               cell_ms.size(), Median(cell_ms));
  if (cell_ms.size() >= 20) {
    std::fprintf(stderr, "  p90 %.3f", Percentile(cell_ms, 0.9));
  }
  std::fprintf(stderr, "\n");

  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    out << recorder.LogJson();
    SIM_CHECK_MSG(out.good(), "cannot write %s", args.spans_out.c_str());
  }

  std::ostringstream json;
  json << "{\"correct\": " << (checker.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << checker.attempted
       << ", \"failed\": " << checker.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << '"' << metrics[i].name
         << "\": {\"value\": " << JsonNumber(metrics[i].value)
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
