// Epoch-barriered parallel multi-VM execution (DESIGN.md §3g).
//
// The executor owns one WorkloadDriver per collocated VM ("lane") and runs
// them in lockstep epochs: within an epoch every running lane executes up
// to its operation quantum through Machine::EpochAccessBatch — clean
// translations only, shared machine state frozen — on a persistent worker
// pool; at the epoch barrier the machine commits the per-VM TLB stages in
// canonical VM-ID order, advances the clock, runs due daemons, and the
// executor drains every suspended lane's remainder (faults, driver events
// like churn and GC sweeps) serially, in lane order.  The schedule — which
// ops run in which epoch, which events fire when — depends only on the
// lane specs and the quantum, never on the worker-thread count, so
// simulation output is byte-identical at any GEMINI_VM_THREADS (the
// determinism tests pin this down across all three GEMINI_TLB_MODEs).
//
// Rack-density lifecycle modelling rides on the same epoch clock:
//   * arrival waves — a lane Begins at its arrival_epoch (boot churn),
//     and tears its VMAs down at Finish when its options say so
//     (shutdown churn);
//   * diurnal load — an optional percent table scales each lane's
//     per-epoch quantum, phase-shifted per lane, so collocated tenants
//     peak at different times.
#ifndef SRC_WORKLOAD_EPOCH_EXECUTOR_H_
#define SRC_WORKLOAD_EPOCH_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "workload/driver.h"
#include "workload/workload.h"

namespace workload {

// $GEMINI_VM_THREADS: worker threads for the epoch-parallel phase
// (including the caller's thread).  Default 1 = fully serial execution of
// the identical epoch schedule.
uint32_t VmThreadsFromEnv();

struct LaneSpec {
  WorkloadSpec spec;
  DriverOptions options;
  // First epoch this lane runs (boot arrival).  Its Begin — VMA mapping
  // and init population — executes serially at that epoch's start.
  uint64_t arrival_epoch = 0;
  // Phase shift into EpochExecutorOptions::load_phases.
  uint64_t phase_offset = 0;
};

struct EpochExecutorOptions {
  // Operations per lane per epoch; 0 means 256, the interleaving grain the
  // serial collocation harness has always used.
  uint64_t quantum = 0;
  // Worker threads; 0 resolves from $GEMINI_VM_THREADS.
  uint32_t threads = 0;
  // Diurnal load: percent-of-quantum per phase slot, e.g. {100, 25} halves
  // time between full and quarter load.  Empty = constant load.
  std::vector<uint32_t> load_phases;
  // Epochs per phase slot.
  uint64_t load_phase_epochs = 64;
};

class EpochExecutor {
 public:
  EpochExecutor(osim::Machine* machine, const EpochExecutorOptions& options);
  ~EpochExecutor();

  // Adds a lane driving `vm_id` (an existing VM of the machine).  Results
  // from Run() are in AddLane order.
  void AddLane(int32_t vm_id, const LaneSpec& spec);

  // Runs every lane to completion and returns their results.
  std::vector<RunResult> Run();

  uint64_t epochs() const { return epoch_; }
  uint32_t threads() const { return threads_; }

  // Where the operations ran: the parallel phase (clean translations on
  // worker threads) vs the serial barrier phase (faults, driver events,
  // suspended remainders).  Host-independent — the split is part of the
  // deterministic schedule — so parallel_ops / (parallel_ops + serial_ops)
  // is the honest Amdahl bound on any machine's wall-clock speedup.
  uint64_t parallel_ops() const { return parallel_ops_; }
  uint64_t serial_ops() const { return serial_ops_; }

 private:
  enum class LaneState : uint8_t { kWaiting, kRunning, kDone };
  struct Lane {
    LaneSpec spec;
    std::unique_ptr<WorkloadDriver> driver;
    LaneState state = LaneState::kWaiting;
    // Per-epoch scratch, written only by the worker stepping this lane.
    uint64_t quantum = 0;
    uint64_t ran = 0;
    bool suspended = false;
    RunResult result;
  };

  uint64_t LaneQuantum(const Lane& lane) const;
  void RunParallelPhase(const std::vector<size_t>& active);
  void StepLane(size_t index);
  void WorkerLoop();
  void DrainItems();

  osim::Machine* machine_;
  EpochExecutorOptions options_;
  uint32_t threads_;
  uint64_t quantum_;
  std::vector<Lane> lanes_;
  uint64_t epoch_ = 0;
  uint64_t parallel_ops_ = 0;
  uint64_t serial_ops_ = 0;

  // Persistent worker pool (threads_ - 1 workers; the caller participates).
  // Protocol: the main thread publishes a generation under mu_ — the
  // active-lane list, next_item_ = 0, remaining_ — only once no worker is
  // draining (active_workers_ == 0), so a slow waker can never claim into
  // a half-reset generation.  Items are claimed by atomic fetch_add;
  // remaining_ counts completed items; the phase ends when remaining_ and
  // active_workers_ are both zero.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;       // workers wait for a new generation
  std::condition_variable done_cv_;  // main waits for phase completion
  uint64_t generation_ = 0;
  bool shutdown_ = false;
  uint32_t active_workers_ = 0;
  size_t remaining_ = 0;
  std::vector<size_t> active_;
  std::atomic<size_t> next_item_{0};
};

}  // namespace workload

#endif  // SRC_WORKLOAD_EPOCH_EXECUTOR_H_
