// Tests for the parallel sweep runner: bit-identical results at any job
// count and in any sweep around a cell, deterministic index-keyed
// ordering, the jobs=1 inline fallback, exception safety of the pool, the
// startup check of the GEMINI_* knobs (bench::CheckEnvironment), the
// per-cell GEMINI_TRACE file names of bench::RunSweep, and
// bench::PrintNormalizedTable's rendering.
#include "harness/sweep_runner.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <list>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "bench/bench_common.h"

namespace {

// Sets an environment variable for the duration of a test and restores the
// previous value on destruction (tests in this binary share the process
// environment).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) {
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

std::vector<workload::WorkloadSpec> TinySpecs() {
  std::vector<workload::WorkloadSpec> specs;
  for (const char* name : {"Canneal", "Shore"}) {
    workload::WorkloadSpec spec = workload::SpecByName(name);
    spec.working_set_pages = 8192;
    spec.ops = 30000;
    specs.push_back(spec);
  }
  return specs;
}

std::vector<harness::SystemKind> TinySystems() {
  return {harness::SystemKind::kHostBVmB, harness::SystemKind::kThp,
          harness::SystemKind::kGemini};
}

harness::BedOptions TinyBed() {
  harness::BedOptions bed;
  bed.host_frames = 131072;
  bed.vm_gfn_count = 49152;
  bed.seed = 23;
  return bed;
}

bench::SweepResult RunTinySweep() {
  return bench::RunSweep(TinySpecs(), TinySystems(), TinyBed(),
                         harness::RunCleanSlate, "test_sweep");
}

// Every simulated field of two results is equal: the run totals,
// throughput, latencies, alignment and each ForEachField word of the
// measured-phase snapshot.
void ExpectSameResult(const workload::RunResult& a,
                      const workload::RunResult& b, const std::string& where) {
  EXPECT_EQ(a.workload, b.workload) << where;
  EXPECT_EQ(a.ops, b.ops) << where;
  EXPECT_EQ(a.requests, b.requests) << where;
  EXPECT_EQ(a.busy_cycles, b.busy_cycles) << where;
  EXPECT_EQ(a.tlb_hits, b.tlb_hits) << where;
  EXPECT_EQ(a.tlb_misses, b.tlb_misses) << where;
  EXPECT_EQ(a.faulting_accesses, b.faulting_accesses) << where;
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput) << where;
  EXPECT_DOUBLE_EQ(a.mean_latency, b.mean_latency) << where;
  EXPECT_DOUBLE_EQ(a.p99_latency, b.p99_latency) << where;
  EXPECT_DOUBLE_EQ(a.tlb_miss_rate, b.tlb_miss_rate) << where;
  EXPECT_EQ(a.alignment.guest_huge, b.alignment.guest_huge) << where;
  EXPECT_EQ(a.alignment.host_huge, b.alignment.host_huge) << where;
  EXPECT_EQ(a.alignment.aligned_pairs, b.alignment.aligned_pairs) << where;
  EXPECT_DOUBLE_EQ(a.alignment.well_aligned_rate,
                   b.alignment.well_aligned_rate)
      << where;
  EXPECT_DOUBLE_EQ(a.alignment.aligned_coverage, b.alignment.aligned_coverage)
      << where;
  size_t word = 0;
  metrics::ForEachField(
      [&](metrics::FieldKind, uint64_t x, uint64_t y) {
        EXPECT_EQ(x, y) << where << ", StackSnapshot word " << word;
        ++word;
      },
      a.counters, b.counters);
}

// The workers a bench sweep of `cells` cells runs on under the current
// GEMINI_JOBS.
int SweepWorkers(size_t cells) {
  harness::SweepRunnerOptions options;
  options.jobs = bench::SweepJobs();
  return harness::SweepRunner(options).EffectiveJobs(cells);
}

TEST(CheckEnvironment, ChecksEveryKnobAndWarnsOnUnknownNames) {
  // Each case runs the startup check with one variable set and every other
  // GEMINI_* variable unset.  A malformed value aborts naming the variable;
  // an accepted one prints nothing but a warning for an unknown name and
  // reads as `expect` says.
  std::vector<std::string> set_names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view var(*entry);
    if (var.starts_with("GEMINI_")) {
      set_names.emplace_back(var.substr(0, var.find('=')));
    }
  }
  std::list<ScopedEnv> cleared;
  for (const std::string& name : set_names) {
    cleared.emplace_back(name.c_str(), nullptr);
  }
  const std::string dir = ::testing::TempDir();
  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  struct Case {
    const char* name;
    const char* value;          // null: unset
    const char* abort_message;  // null: the value is accepted
    const char* warning;        // the accepted run's whole stderr
    std::function<void()> expect;
  };
  const std::vector<Case> cases = {
      {"GEMINI_JOBS", "6", nullptr, "",
       [] { EXPECT_EQ(bench::SweepJobs(), 6); }},
      {"GEMINI_JOBS", "1", nullptr, "",
       [] { EXPECT_EQ(SweepWorkers(8), 1); }},  // runs inline on the caller
      {"GEMINI_JOBS", "", nullptr, "",
       [&] { EXPECT_EQ(SweepWorkers(1 << 20), hardware); }},
      {"GEMINI_JOBS", nullptr, nullptr, "",
       [&] { EXPECT_EQ(SweepWorkers(1 << 20), hardware); }},
      {"GEMINI_JOBS", "0", "GEMINI_JOBS='0'", nullptr, nullptr},
      {"GEMINI_JOBS", "-3", "GEMINI_JOBS='-3'", nullptr, nullptr},
      {"GEMINI_JOBS", "abc", "GEMINI_JOBS='abc'", nullptr, nullptr},
      {"GEMINI_JOBS", "4x", "GEMINI_JOBS='4x'", nullptr, nullptr},
      {"GEMINI_TRACE", dir.c_str(), nullptr, "",
       [&] {
         const trace::TraceConfig on = bench::TraceConfigFromEnv("stem");
         EXPECT_EQ(on.dir, dir);
         EXPECT_EQ(on.stem, "stem");
       }},
      {"GEMINI_TRACE", nullptr, nullptr, "",
       [] { EXPECT_TRUE(bench::TraceConfigFromEnv("stem").dir.empty()); }},
      {"GEMINI_TRACE", "/nonexistent", "GEMINI_TRACE='/nonexistent'",
       nullptr, nullptr},
      {"GEMINI_EXPORT", "/nonexistent", "GEMINI_EXPORT='/nonexistent'",
       nullptr, nullptr},
      {"GEMINI_TLB_MODE", "bogus", "GEMINI_TLB_MODE: unknown mode 'bogus'",
       nullptr, nullptr},
      {"GEMINI_TLB_MODE", "dynamic",
       "GEMINI_TLB_MODE: unknown mode 'dynamic'", nullptr, nullptr},
      {"GEMINI_TLB_MODE", "all", nullptr, "",
       [] {
         EXPECT_EQ(bench::TlbModesFromEnv(),
                   (std::vector<mmu::TlbShareMode>{
                       mmu::TlbShareMode::kPrivate,
                       mmu::TlbShareMode::kShared,
                       mmu::TlbShareMode::kPartitioned}));
       }},
      {"GEMINI_TLB_MODE", "shared,shared",
       "GEMINI_TLB_MODE: mode 'shared' listed twice", nullptr, nullptr},
      {"GEMINI_TLB_MODE", "shared,partitioned,shared",
       "GEMINI_TLB_MODE: mode 'shared' listed twice", nullptr, nullptr},
      {"GEMINI_TLB_MODE", "shared,partitioned", nullptr, "",
       [] {
         EXPECT_EQ(bench::TlbModesFromEnv(),
                   (std::vector<mmu::TlbShareMode>{
                       mmu::TlbShareMode::kShared,
                       mmu::TlbShareMode::kPartitioned}));
       }},
      {"GEMINI_VM_THREADS", "8", nullptr,
       "warning: GEMINI_VM_THREADS is not a knob of these benches "
       "(BENCHMARKS.md); ignored\n", [] {}},
      {"GEMINI_JOB", "4", nullptr,
       "warning: GEMINI_JOB is not a knob of these benches (BENCHMARKS.md); "
       "ignored\n",
       [&] { EXPECT_EQ(SweepWorkers(1 << 20), hardware); }},
  };
  for (const Case& c : cases) {
    const std::string where =
        std::string(c.name) + "=" + (c.value != nullptr ? c.value : "(unset)");
    ScopedEnv env(c.name, c.value);
    if (c.abort_message != nullptr) {
      EXPECT_DEATH(bench::CheckEnvironment(), c.abort_message) << where;
      continue;
    }
    ::testing::internal::CaptureStderr();
    bench::CheckEnvironment();
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), c.warning) << where;
    c.expect();
  }
}

TEST(SweepRunner, SingleJobRunsInlineOnCaller) {
  harness::SweepRunnerOptions options;
  options.jobs = 1;
  options.progress = false;
  harness::SweepRunner runner(options);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  runner.Run(seen.size(), [&](size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : seen) {
    EXPECT_EQ(id, caller);
  }
}

TEST(SweepRunner, JobsCappedAtCellCount) {
  harness::SweepRunnerOptions options;
  options.jobs = 64;
  harness::SweepRunner runner(options);
  EXPECT_EQ(runner.EffectiveJobs(3), 3);
  EXPECT_EQ(runner.EffectiveJobs(100), 64);
}

TEST(SweepRunner, ParallelMapPreservesIndexOrder) {
  harness::SweepRunnerOptions options;
  options.jobs = 8;
  options.progress = false;
  const auto out = harness::ParallelMap(
      200, [](size_t i) { return i * i; }, options);
  ASSERT_EQ(out.size(), 200u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * i);
  }
}

TEST(SweepRunner, ExceptionInOneCellDoesNotDeadlockPool) {
  harness::SweepRunnerOptions options;
  options.jobs = 4;
  options.progress = false;
  harness::SweepRunner runner(options);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      runner.Run(16,
                 [&](size_t i) {
                   if (i == 5) {
                     throw std::runtime_error("cell 5 exploded");
                   }
                   completed.fetch_add(1);
                 }),
      std::runtime_error);
  // Every other cell still ran: the pool drained instead of deadlocking
  // or abandoning queued work.
  EXPECT_EQ(completed.load(), 15);
}

TEST(SweepRunner, FirstExceptionIsRethrownWithMessage) {
  harness::SweepRunnerOptions options;
  options.jobs = 1;  // deterministic completion order: cell 3 throws first
  options.progress = false;
  harness::SweepRunner runner(options);
  try {
    runner.Run(8, [&](size_t i) {
      if (i >= 3) {
        throw std::runtime_error("cell " + std::to_string(i));
      }
    });
    FAIL() << "expected runner.Run to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 3");
  }
}

TEST(RunSweep, RowOrderingIsWorkloadMajorAtAnyJobCount) {
  const auto specs = TinySpecs();
  const auto systems = TinySystems();
  for (const char* jobs : {"1", "4"}) {
    ScopedEnv env("GEMINI_JOBS", jobs);
    const auto sweep = RunTinySweep();
    ASSERT_EQ(sweep.cells.size(), specs.size() * systems.size());
    for (size_t i = 0; i < sweep.cells.size(); ++i) {
      EXPECT_EQ(sweep.cells[i].workload, specs[i / systems.size()].name);
      EXPECT_EQ(sweep.cells[i].system, systems[i % systems.size()]);
      EXPECT_EQ(sweep.cells[i].seed, TinyBed().seed);
    }
    ASSERT_EQ(sweep.workloads.size(), specs.size());
    for (size_t w = 0; w < specs.size(); ++w) {
      EXPECT_EQ(sweep.workloads[w], specs[w].name);
    }
  }
}

TEST(RunSweep, SerialAndParallelResultsAreBitIdentical) {
  bench::SweepResult serial;
  bench::SweepResult parallel;
  {
    ScopedEnv env("GEMINI_JOBS", "1");
    serial = RunTinySweep();
  }
  {
    ScopedEnv env("GEMINI_JOBS", "4");
    parallel = RunTinySweep();
  }
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (size_t i = 0; i < serial.cells.size(); ++i) {
    ExpectSameResult(serial.cells[i].result, parallel.cells[i].result,
                     "cell " + std::to_string(i));
  }
}

TEST(RunSweep, CellResultDoesNotDependOnTheSweepAroundIt) {
  // Each experiment binary runs its sweep once and prints several figures
  // from row/column subsets of it, which is sound only if a cell computes
  // the same result whatever sweep it runs in.  Shore x THP is cell 4 of
  // the tiny sweep and the only cell of a second sweep under another label.
  const bench::SweepResult full = RunTinySweep();
  const workload::WorkloadSpec spec = TinySpecs()[1];
  const harness::SystemKind system = harness::SystemKind::kThp;
  const bench::SweepResult single = bench::RunSweep(
      {spec}, {system}, TinyBed(), harness::RunCleanSlate, "test_sweep_one");
  ASSERT_EQ(single.cells.size(), 1u);
  EXPECT_GT(single.cells[0].result.tlb_misses, 0u);
  ExpectSameResult(full.result(1, 1), single.cells[0].result, spec.name);

  const bench::SweepResult subset = bench::Subset(full, {spec.name}, {system});
  EXPECT_EQ(subset.workloads, single.workloads);
  EXPECT_EQ(subset.systems, single.systems);
  ASSERT_EQ(subset.cells.size(), 1u);
  EXPECT_EQ(subset.cells[0].workload, single.cells[0].workload);
  EXPECT_EQ(subset.cells[0].system, single.cells[0].system);
  EXPECT_EQ(subset.cells[0].seed, single.cells[0].seed);
  ExpectSameResult(subset.cells[0].result, single.cells[0].result,
                   "subset");
}

TEST(RunSweep, SubsetPicksRowsAndColumnsInTheOrderGiven) {
  const bench::SweepResult full = RunTinySweep();
  const bench::SweepResult subset = bench::Subset(
      full, {"Shore", "Canneal"},
      {harness::SystemKind::kGemini, harness::SystemKind::kHostBVmB});
  ASSERT_EQ(subset.cells.size(), 4u);
  // Full columns: Host-B-VM-B 0, THP 1, Gemini 2; rows Canneal 0, Shore 1.
  const size_t from[4][2] = {{1, 2}, {1, 0}, {0, 2}, {0, 0}};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(subset.cells[i].workload, full.workloads[from[i][0]]) << i;
    EXPECT_EQ(subset.cells[i].system, full.systems[from[i][1]]) << i;
    EXPECT_EQ(subset.cells[i].result.busy_cycles,
              full.result(from[i][0], from[i][1]).busy_cycles)
        << i;
  }
}

TEST(PrintNormalizedTable, ZeroBaselineRowPrintsDashes) {
  // Normalized to Gemini, a workload on which Gemini makes no TLB misses
  // has no ratio: its row prints "-" in every column, and the geomean
  // skips it as it always has.
  bench::SweepResult sweep;
  sweep.workloads = {"Busy", "Idle"};
  sweep.systems = {harness::SystemKind::kHostBVmB,
                   harness::SystemKind::kGemini};
  const uint64_t misses[2][2] = {{30, 10}, {7, 0}};
  for (size_t w = 0; w < 2; ++w) {
    for (size_t k = 0; k < 2; ++k) {
      bench::SweepCell cell;
      cell.workload = sweep.workloads[w];
      cell.system = sweep.systems[k];
      cell.result.tlb_misses = misses[w][k];
      sweep.cells.push_back(cell);
    }
  }
  ::testing::internal::CaptureStdout();
  bench::PrintNormalizedTable("Misses", sweep, harness::SystemKind::kGemini,
                              bench::TlbMisses, false);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            "\n== Misses (normalized to Gemini; lower is better) ==\n"
            "workload                   Host-B-VM-B  Gemini\n"
            "----------------------------------------------\n"
            "Busy                       3.00         1.00  \n"
            "Idle                       -            -     \n"
            "geomean (lower is better)  3.00         1.00  \n");
}

TEST(RunSweep, TraceFilesAreNamedByLabelCellWorkloadAndSystem) {
  // GEMINI_TRACE names each cell's two files
  // <label>_cellNN_<workload>_<system>, sanitized, with NN the
  // workload-major cell index, so the set and its bytes do not depend on
  // the job count.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "sweep_trace_names";
  std::set<std::string> expected;
  for (const char* stem :
       {"test_sweep_cell00_canneal_host_b_vm_b",
        "test_sweep_cell01_canneal_thp", "test_sweep_cell02_canneal_gemini",
        "test_sweep_cell03_shore_host_b_vm_b", "test_sweep_cell04_shore_thp",
        "test_sweep_cell05_shore_gemini"}) {
    expected.insert(std::string(stem) + ".trace.json");
    expected.insert(std::string(stem) + ".series.csv");
  }
  std::map<std::string, std::string> serial_bytes;
  for (const char* jobs : {"1", "4"}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ScopedEnv trace_env("GEMINI_TRACE", dir.c_str());
    ScopedEnv export_env("GEMINI_EXPORT", nullptr);
    ScopedEnv jobs_env("GEMINI_JOBS", jobs);
    RunTinySweep();
    std::map<std::string, std::string> bytes;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream content;
      content << in.rdbuf();
      bytes[entry.path().filename().string()] = content.str();
    }
    std::set<std::string> names;
    for (const auto& [name, content] : bytes) {
      names.insert(name);
      EXPECT_FALSE(content.empty()) << name;
    }
    EXPECT_EQ(names, expected) << "GEMINI_JOBS=" << jobs;
    if (serial_bytes.empty()) {
      serial_bytes = bytes;
    } else {
      EXPECT_TRUE(bytes == serial_bytes) << "GEMINI_JOBS=" << jobs;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
