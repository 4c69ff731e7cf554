// Ablation (paper §8, future work): how memory deduplication (KSM) and
// ballooning interact with Gemini's well-aligned huge pages.  KSM demotes
// huge EPT backings of cold memory; a naive balloon splinters them.  The
// experiment measures Gemini with and without each mechanism active, and
// with the alignment-aware balloon variant.
#include "bench/bench_common.h"
#include "os/balloon.h"
#include "os/ksm.h"

namespace {

workload::RunResult RunWith(bool with_ksm,
                            int balloon_mode /*0=none,1=naive,2=aware*/,
                            const harness::BedOptions& bed) {
  const workload::WorkloadSpec spec = workload::SpecByName("Canneal");
  harness::TestBed testbed =
      harness::MakeTestBed(harness::SystemKind::kGemini, bed);
  if (with_ksm) {
    osim::InstallKsm(*testbed.machine, testbed.vm_id);
  }
  workload::WorkloadDriver driver(testbed.machine.get(), testbed.vm_id);
  workload::DriverOptions options;
  options.seed = bed.seed + 1000;
  driver.Begin(spec, options);
  driver.Step(spec.ops / 2);
  if (balloon_mode != 0) {
    osim::BalloonDriver balloon(testbed.machine.get(), testbed.vm_id,
                                /*alignment_aware=*/balloon_mode == 2);
    balloon.Inflate(8192);  // host reclaims 32 MiB mid-run
  }
  while (driver.Step(spec.ops) > 0) {
  }
  workload::RunResult result = driver.Finish();
  trace::WriteTraceFiles(bed.trace, *testbed.machine, testbed.sampler);
  return result;
}

struct Cell {
  workload::RunResult result;
  double wall_ms = 0.0;
};

}  // namespace

int main() {
  struct Case {
    const char* label;
    bool ksm;
    int balloon;
  };
  const std::vector<Case> cases = {{"Gemini alone", false, 0},
                                   {"+ KSM dedup", true, 0},
                                   {"+ naive balloon", false, 1},
                                   {"+ alignment-aware balloon", false, 2}};

  harness::SweepRunnerOptions pool;
  pool.label = "ablation_interference";
  pool.cell_name = [&](size_t i) { return std::string(cases[i].label); };
  const auto cells = harness::ParallelMap(
      cases.size(),
      [&](size_t i) {
        const auto start = std::chrono::steady_clock::now();
        Cell cell;
        cell.result =
            RunWith(cases[i].ksm, cases[i].balloon,
                    bench::TracedBed(harness::BedOptions{},
                                     "ablation_interference", i,
                                     cases[i].label));
        cell.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        return cell;
      },
      std::move(pool));

  metrics::TextTable table(
      "Ablation: Gemini vs memory deduplication and ballooning (paper §8)");
  table.SetColumns({"configuration", "throughput", "aligned", "miss rate"});
  std::vector<metrics::ResultRow> rows;
  for (size_t i = 0; i < cases.size(); ++i) {
    const workload::RunResult& r = cells[i].result;
    table.AddRow({cases[i].label, metrics::TextTable::Fmt(r.throughput, 3),
                  metrics::TextTable::Pct(r.alignment.well_aligned_rate),
                  metrics::TextTable::Fmt(r.tlb_miss_rate, 3)});
    rows.push_back(metrics::ResultRow{"Canneal", cases[i].label,
                                      &cells[i].result, cells[i].wall_ms,
                                      harness::BedOptions{}.seed});
  }
  table.Print();
  bench::ExportRows("ablation_interference", rows);
  return 0;
}
