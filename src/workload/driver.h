// Workload driver: executes a WorkloadSpec against one VM of a machine and
// reports the measurements the paper's figures use (throughput, mean/p99
// latency, TLB misses, well-aligned huge page rate).
//
// Measurement methodology: the first `warmup_fraction` of operations is a
// warm-up excluded from all counters (the paper measures steady state);
// background daemon work is charged into the run's busy time, and for
// latency workloads the daemon work that occurred during a request is added
// to that request's latency (daemons preempt the vCPU they share).
//
// The driver is steppable (Begin / Step / Finish) so the collocated-VM
// experiments (§6.5) can interleave two workloads on one host; Run() is the
// one-shot convenience wrapper.
#ifndef SRC_WORKLOAD_DRIVER_H_
#define SRC_WORKLOAD_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/stats.h"
#include "metrics/alignment_audit.h"
#include "metrics/counters.h"
#include "os/machine.h"
#include "workload/access_pattern.h"
#include "workload/workload.h"

namespace workload {

struct RunResult {
  std::string workload;
  uint64_t ops = 0;
  uint64_t requests = 0;
  base::Cycles busy_cycles = 0;  // access + sync faults + daemon overhead
  double throughput = 0.0;       // ops per 1000 cycles
  double mean_latency = 0.0;     // cycles per request
  double p99_latency = 0.0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  double tlb_miss_rate = 0.0;
  // Measured-phase accesses that took at least one page fault (cold
  // misses): each such access contributes exactly one counted TLB miss,
  // because faulting translate attempts are uncounted and retried.  The
  // fig16 miss-source breakdown classifies misses as cold (this), precise
  // invalidation (stale_hits), or capacity/conflict (the remainder).
  uint64_t faulting_accesses = 0;
  metrics::AlignmentReport alignment;
  metrics::StackSnapshot counters;  // deltas over the measured phase
};

struct DriverOptions {
  uint64_t seed = 7;
  // Fraction of ops excluded from counters as warm-up.  The default
  // measures steady state (PARSEC region-of-interest / TailBench serving
  // phase convention): the initial population of memory and the promotion
  // transient are over before measurement starts.  Set 0 to measure the
  // whole run including transients.
  double warmup_fraction = 0.6;
  // Tear the workload's VMAs down after the run (models process exit; used
  // between phases of the reused-VM experiments).
  bool teardown = false;
};

// The workload's per-access compute charged by each of the driver's three
// touch paths.  Request accesses carry the workload's full think time;
// init-population touches model a tight fill loop (a quarter of it), and
// GC sweep touches a pointer-chasing scan (an eighth).  Centralized so the
// divisors stay consistent across the paths and testable in isolation.
enum class TouchKind { kInitPopulate, kGcSweep, kRequest };
base::Cycles TouchWorkCycles(const WorkloadSpec& spec, TouchKind kind);

class WorkloadDriver {
 public:
  WorkloadDriver(osim::Machine* machine, int32_t vm_id);
  ~WorkloadDriver();

  // One-shot execution.
  RunResult Run(const WorkloadSpec& spec, const DriverOptions& options = {});

  // Stepped execution for interleaving.
  void Begin(const WorkloadSpec& spec, const DriverOptions& options = {});
  // Executes up to `op_budget` operations; returns how many ran (0 once the
  // workload is complete).
  uint64_t Step(uint64_t op_budget);
  bool Done() const;
  RunResult Finish();

  // --- epoch-parallel stepping (workload/epoch_executor.h) ----------------
  //
  // StepEpoch is the worker-thread half of Step: it runs request accesses
  // through Machine::EpochAccessBatch (clean translations only, machine
  // state frozen) and *suspends* — sets `*suspended` and returns early —
  // the moment the lane needs the serial phase: a per-op driver event is
  // due (measurement flip, gradual growth, GC sweep, churn) or an access
  // in the current batch would fault.  ResumeSerial then finishes the
  // interrupted batch and continues with plain Step, on the barrier
  // thread, in canonical lane order.  A lane that never suspends ran
  // entirely in parallel; the op stream, accounting, and latency records
  // are identical either way, so the thread count is unobservable.
  uint64_t StepEpoch(uint64_t op_budget, bool* suspended);
  uint64_t ResumeSerial(uint64_t op_budget);

  // Unmaps every VMA created by the current/last run (workload exit).
  void TearDownAll();

 private:
  // Runs pending per-op events (measurement flip, gradual growth, GC
  // sweep, churn), then a chunk of up to min(op_budget, 64) event-free
  // operations.  Returns how many operations ran (>= 1).
  uint64_t RunOps(uint64_t op_budget);
  // Number of operations starting at op_ before the next per-op event
  // (warmup flip, growth step, GC sweep, churn, latency record boundary).
  uint64_t EventFreeOps() const;
  // The per-op driver events due *at* op_: the measurement flip
  // (re-snapshots the stack), a gradual-growth step (its target moves with
  // op_), a GC sweep and a VMA churn.
  bool MeasurementFlipDue() const;
  bool GrowthDue() const;
  bool GcSweepDue() const;
  bool ChurnDue() const;
  // Whether any of them is due (the serial phase must run it before any
  // more request accesses).
  bool EventPendingAtOp() const;
  // Fills batch_vpns_ with the next request batch, the one RunOps and
  // StepEpoch both issue: at most min(op_budget, 64) accesses, none past
  // the next per-op event.  Returns its size.
  uint64_t NextRequestBatch(uint64_t op_budget);
  // Measured-phase accounting for batch_results_[begin, begin + count).
  void AccountResults(size_t begin, size_t count);
  // Records a latency sample if op_ just landed on a request boundary.
  void MaybeRecordLatency();
  void InitVma(uint64_t start_page, uint64_t pages);
  // Issues pages [start, start + count) in chunks of 64.
  void TouchRange(uint64_t start_page, uint64_t count, TouchKind kind,
                  bool charge_request);

  osim::Machine* machine_;
  int32_t vm_id_;

  // Per-run state (valid between Begin and Finish).
  WorkloadSpec spec_;
  DriverOptions options_;
  std::unique_ptr<AccessStream> stream_;
  std::unique_ptr<base::Rng> churn_rng_;
  std::unique_ptr<base::LatencyRecorder> latencies_;
  std::vector<int32_t> vma_ids_;
  std::vector<uint64_t> vma_starts_;
  uint64_t pages_per_vma_ = 0;
  uint64_t op_ = 0;
  uint64_t warmup_ops_ = 0;
  bool measuring_ = false;
  metrics::StackSnapshot begin_snapshot_;
  base::Cycles access_cycles_ = 0;
  base::Cycles request_cycles_ = 0;
  base::Cycles request_overhead_base_ = 0;
  uint64_t requests_ = 0;
  uint64_t faulting_accesses_ = 0;
  // Scratch buffers reused across batches.
  std::vector<uint64_t> batch_vpns_;
  std::vector<osim::VirtualMachine::AccessResult> batch_results_;
  // A StepEpoch batch that hit a faulting access: vpns stay in
  // batch_vpns_ (the AccessStream cannot rewind), the first pending_next_
  // of them already completed and were accounted; ResumeSerial runs the
  // rest through the serial fault-handling path.
  bool pending_batch_ = false;
  size_t pending_next_ = 0;
};

}  // namespace workload

#endif  // SRC_WORKLOAD_DRIVER_H_
