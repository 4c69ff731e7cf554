// Periodic time-series sampler over the whole stack.
//
// A StackSampler is an osim::PeriodicTask: the machine fires it at exact
// period boundaries of the simulated clock, so sample timestamps are a
// pure function of (workload, system, seed) — independent of how the
// driver batches accesses and of GEMINI_JOBS.  Each firing appends one
// SamplePoint per VM with the quantities the paper's figures are built
// from: huge coverage per layer, FMFI per layer, the booking-timeout
// controller's current effective timeout, booking/bucket occupancy, the
// cumulative TLB miss rate, and the per-order buddy free-list depths.
//
// Counter columns are read through metrics::Snapshot and
// policy::PolicyTelemetry, and the columns a series shares with the
// GEMINI_EXPORT rows are declared once in metrics/counters.h, so a value in
// a series CSV always reconciles with the corresponding export cell.
#ifndef SRC_TRACE_SAMPLER_H_
#define SRC_TRACE_SAMPLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.h"
#include "metrics/counters.h"
#include "os/machine.h"

namespace trace {

// One VM's state at one sample boundary.
struct SamplePoint {
  base::Cycles ts = 0;  // simulated cycles
  int32_t vm_id = 0;
  double guest_coverage = 0.0;  // huge-mapped fraction of mapped guest pages
  double host_coverage = 0.0;   // same for the VM's EPT
  double guest_fmfi = 0.0;      // free memory fragmentation index, huge order
  double host_fmfi = 0.0;       // host buddy (shared across VMs)
  base::Cycles booking_timeout = 0;  // guest controller effective timeout
  uint64_t bookings_active = 0;      // live bookings, both layers
  uint64_t bucket_held = 0;          // regions retained by the huge bucket
  double tlb_miss_rate = 0.0;        // cumulative misses / lookups
  // The VM's cumulative counters at ts (not a phase delta).
  metrics::StackSnapshot snapshot;
  uint64_t guest_free[base::kMaxOrder] = {};  // free blocks per order
  uint64_t host_free[base::kMaxOrder] = {};
};

class StackSampler final : public osim::PeriodicTask {
 public:
  explicit StackSampler(osim::Machine* machine);

  void Run(base::Cycles now) override;

  const std::vector<SamplePoint>& samples() const { return samples_; }

  // Renders all samples as CSV (schema documented in BENCHMARKS.md).
  std::string ToCsv() const;

 private:
  osim::Machine* machine_;
  std::vector<SamplePoint> samples_;
};

}  // namespace trace

#endif  // SRC_TRACE_SAMPLER_H_
