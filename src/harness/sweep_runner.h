// Parallel execution of sweep cells for the figure/table benches.
//
// A sweep cell is one complete, self-contained simulation: it builds its
// own osim::Machine and seeds its own RNGs from the cell's BedOptions, so
// cells share no mutable state and can run concurrently.  The contract the
// benches rely on (see BENCHMARKS.md and DESIGN.md "Determinism &
// concurrency"):
//
//  * Results are keyed by cell index, never by completion order, so a
//    sweep's output is bit-identical at any job count — same seed, same
//    RunResult counters whether GEMINI_JOBS is 1 or 64.
//  * With one job the cells run inline on the calling thread; no worker
//    threads are spawned.
//  * A cell that throws does not deadlock or abandon the pool: the
//    remaining cells still run, and the first exception is rethrown from
//    Run() after every worker has drained.
//  * Progress goes to stderr only; stdout stays reserved for the tables.
#ifndef SRC_HARNESS_SWEEP_RUNNER_H_
#define SRC_HARNESS_SWEEP_RUNNER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace harness {

// Worker count for sweeps: the GEMINI_JOBS environment variable, a positive
// integer; std::thread::hardware_concurrency (at least 1) when it is unset
// or empty.  Any other value aborts (base/env.h).
int SweepJobs();

struct SweepRunnerOptions {
  // Worker threads; <= 0 means SweepJobs().  Capped at the cell count.
  int jobs = 0;
  // Prefix for stderr progress lines, typically the bench name.
  std::string label = "sweep";
  // Optional human-readable name of cell `i` ("Canneal x Gemini") for
  // progress lines; indices are printed when absent.
  std::function<std::string(size_t)> cell_name;
  // Live progress reporting on stderr (one line per completed cell).
  bool progress = true;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepRunnerOptions options = {});

  // Runs cell(i) for every i in [0, count) across the pool and blocks
  // until all cells finished.  Cells must be independent; each writes only
  // state owned by its index.  If any cell threw, the first exception (in
  // completion order) is rethrown after the pool drains.
  void Run(size_t count, const std::function<void(size_t)>& cell);

  // The worker count Run() will use for `count` cells.
  int EffectiveJobs(size_t count) const;

 private:
  SweepRunnerOptions options_;
};

// Runs fn(i) for every i in [0, count) in parallel and returns the results
// in index order.  The result type must be default-constructible.
template <typename Fn>
auto ParallelMap(size_t count, Fn&& fn, SweepRunnerOptions options = {})
    -> std::vector<decltype(fn(size_t{}))> {
  std::vector<decltype(fn(size_t{}))> out(count);
  SweepRunner runner(std::move(options));
  runner.Run(count, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace harness

#endif  // SRC_HARNESS_SWEEP_RUNNER_H_
