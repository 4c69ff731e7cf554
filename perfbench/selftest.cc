// Self-tests of the benchmark itself, one cell per workload:
//   * the benchmark-assembled bed (plain and decorated) gives the same
//     digest as the harness entry point the figure binaries use;
//   * the four set-up stage spans sum to the set-up span within timer
//     resolution;
//   * a different seed gives a different digest;
//   * the reference file has a digest for every cell of every seed
//     variant (so every --seed is checked).
//
//   perfbench_selftest REFERENCE_FILE
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "cells.h"
#include "spans.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

// The workload's Gemini cell with the fewest VMs (Gemini has the most
// decorated surface: two policies and the MHPS runtime).
size_t PickCell(const std::vector<CellSpec>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].kind == harness::SystemKind::kGemini) {
      return i;
    }
  }
  return 0;
}

void TestWorkload(const std::string& workload) {
  const std::vector<CellSpec> cells = MakeCells(workload, 0);
  const size_t index = PickCell(cells);
  const CellSpec& cell = cells[index];
  const std::string tag = workload + " " + cell.name;

  const uint64_t via_harness = RunCellViaHarness(cell);
  SpanRecorder plain_recorder;
  const uint64_t plain = RunCell(cell, &plain_recorder, false).digest;
  SpanRecorder traced_recorder;
  const uint64_t traced = RunCell(cell, &traced_recorder, true).digest;
  Expect(plain == via_harness, tag + ": benchmark bed == harness digest");
  Expect(traced == via_harness, tag + ": decorated bed == harness digest");

  const SpanRecorder::Totals& t = traced_recorder.totals();
  auto total = [&](Span s) { return t[static_cast<size_t>(s)].total_ns; };
  const int64_t stages = total(Span::kSetupMachine) +
                         total(Span::kSetupFragHost) +
                         total(Span::kSetupFragGuest) + total(Span::kSetupBoot);
  const int64_t setup = total(Span::kSetup);
  // Four stage boundaries, each two clock reads apart.
  Expect(setup >= stages && setup - stages <= 50'000,
         tag + ": set-up stages sum to set-up (gap " +
             std::to_string(setup - stages) + " ns of " +
             std::to_string(setup) + " ns)");
  Expect(t[static_cast<size_t>(Span::kPolicyFault)].count > 0,
         tag + ": decorated policies saw faults");
  Expect(t[static_cast<size_t>(Span::kGeminiScan)].count > 0,
         tag + ": decorated Gemini runtime ran");

  const std::vector<CellSpec> reseeded = MakeCells(workload, 1);
  SpanRecorder other_recorder;
  Expect(RunCell(reseeded[index], &other_recorder, false).digest != plain,
         tag + ": seed 1 digest differs from seed 0");
}

void TestReferenceComplete(const std::string& path) {
  std::ifstream in(path);
  Expect(in.good(), "reference file " + path + " readable");
  std::set<std::tuple<std::string, uint64_t, size_t>> present;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, name, hex;
    uint64_t variant = 0;
    size_t index = 0;
    if (line.empty() || line[0] == '#' ||
        !(fields >> workload >> variant >> index >> name >> hex)) {
      continue;
    }
    present.emplace(workload, variant, index);
  }
  for (const std::string& workload : WorkloadNames()) {
    const size_t cells = VariantCells(workload, 0).size();
    size_t missing = 0;
    for (uint64_t v = 0; v < kSeedCycle; ++v) {
      for (size_t i = 0; i < cells; ++i) {
        missing += present.count({workload, v, i}) == 0 ? 1 : 0;
      }
    }
    Expect(missing == 0, workload + ": reference digests for all " +
                             std::to_string(kSeedCycle) + " seed variants (" +
                             std::to_string(missing) + " missing)");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest REFERENCE_FILE\n");
    return 2;
  }
  perfbench::TestReferenceComplete(argv[1]);
  for (const std::string& workload : perfbench::WorkloadNames()) {
    perfbench::TestWorkload(workload);
  }
  std::fprintf(stderr, "%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
