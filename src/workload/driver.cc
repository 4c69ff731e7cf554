#include "workload/driver.h"

#include <algorithm>

#include "base/check.h"

namespace workload {

namespace {

// Accesses per Machine::AccessBatch call.  Machine::AccessBatch is a loop
// over scalar Access, so the chunk size never changes simulation results;
// it only bounds the scratch buffers.
constexpr uint64_t kChunk = 64;

}  // namespace

base::Cycles TouchWorkCycles(const WorkloadSpec& spec, TouchKind kind) {
  switch (kind) {
    case TouchKind::kInitPopulate:
      return spec.work_per_access / 4;
    case TouchKind::kGcSweep:
      return spec.work_per_access / 8;
    case TouchKind::kRequest:
      return spec.work_per_access;
  }
  SIM_CHECK(false);
  return 0;
}

WorkloadDriver::WorkloadDriver(osim::Machine* machine, int32_t vm_id)
    : machine_(machine), vm_id_(vm_id) {
  SIM_CHECK(machine_ != nullptr);
}

WorkloadDriver::~WorkloadDriver() = default;

RunResult WorkloadDriver::Run(const WorkloadSpec& spec,
                              const DriverOptions& options) {
  Begin(spec, options);
  while (Step(spec.ops) > 0) {
  }
  return Finish();
}

void WorkloadDriver::InitVma(uint64_t start_page, uint64_t pages) {
  if (!spec_.init_memory) {
    return;
  }
  // Applications populate their data structures before using them; this is
  // what makes regions dense enough to promote.  The cost counts as part
  // of the run (but not as request latency).
  TouchRange(start_page, pages, TouchKind::kInitPopulate,
             /*charge_request=*/false);
}

void WorkloadDriver::TouchRange(uint64_t start_page, uint64_t count,
                                TouchKind kind, bool charge_request) {
  const base::Cycles work = TouchWorkCycles(spec_, kind);
  for (uint64_t done = 0; done < count;) {
    const uint64_t n = std::min(kChunk, count - done);
    batch_vpns_.clear();
    for (uint64_t i = 0; i < n; ++i) {
      batch_vpns_.push_back(start_page + done + i);
    }
    machine_->AccessBatch(vm_id_, batch_vpns_, work, &batch_results_);
    if (measuring_) {
      for (const osim::VirtualMachine::AccessResult& ar : batch_results_) {
        access_cycles_ += ar.cycles;
        if (charge_request) {
          request_cycles_ += ar.cycles;
        }
        if (ar.faults_taken > 0) {
          ++faulting_accesses_;
        }
      }
    }
    done += n;
  }
}

void WorkloadDriver::Begin(const WorkloadSpec& spec,
                           const DriverOptions& options) {
  SIM_CHECK(spec.vma_count >= 1);
  SIM_CHECK(spec.working_set_pages >= spec.vma_count);
  spec_ = spec;
  options_ = options;

  osim::GuestKernel& guest = machine_->vm(vm_id_).guest();
  pages_per_vma_ = spec_.working_set_pages / spec_.vma_count;
  vma_ids_.clear();
  vma_starts_.clear();

  access_cycles_ = 0;
  request_cycles_ = 0;
  requests_ = 0;
  faulting_accesses_ = 0;
  measuring_ = options.warmup_fraction <= 0.0;
  if (measuring_) {
    begin_snapshot_ = metrics::Snapshot(*machine_, vm_id_);
    request_overhead_base_ = begin_snapshot_.guest_overhead_cycles +
                             begin_snapshot_.host_overhead_cycles;
  }
  auto map_one = [&]() {
    osim::Vma& vma = guest.aspace().MapAnonymous(pages_per_vma_);
    vma_ids_.push_back(vma.id);
    vma_starts_.push_back(vma.start_page);
    InitVma(vma.start_page, vma.pages);
  };
  if (spec_.alloc == AllocPattern::kStaticUpfront) {
    for (uint32_t i = 0; i < spec_.vma_count; ++i) {
      map_one();
    }
  } else {
    map_one();
  }

  stream_ = std::make_unique<AccessStream>(spec_, options_.seed);
  churn_rng_ = std::make_unique<base::Rng>(options_.seed ^ 0xdeadbeefull);
  latencies_ = std::make_unique<base::LatencyRecorder>(16384, options_.seed + 1);
  op_ = 0;
  pending_batch_ = false;
  pending_next_ = 0;
  warmup_ops_ = static_cast<uint64_t>(options_.warmup_fraction *
                                      static_cast<double>(spec_.ops));
}

bool WorkloadDriver::Done() const { return op_ >= spec_.ops; }

uint64_t WorkloadDriver::Step(uint64_t op_budget) {
  uint64_t ran = 0;
  while (ran < op_budget && !Done()) {
    ran += RunOps(op_budget - ran);
  }
  return ran;
}

uint64_t WorkloadDriver::EventFreeOps() const {
  // How many operations from op_ onward run without any per-op event
  // firing (other than the ones the caller just handled for op_ itself).
  // Any cap here is safe: AccessBatch is a loop over scalar Access, so
  // chunk boundaries never change simulation results.
  uint64_t n = spec_.ops - op_;
  if (!measuring_) {
    // The measurement flip at warmup_ops_ re-snapshots counters and must
    // happen between batches.
    n = std::min(n, warmup_ops_ - op_);
  }
  if (spec_.alloc == AllocPattern::kGradual &&
      vma_ids_.size() < spec_.vma_count) {
    return 1;  // the growth target moves with op_; step one op at a time
  }
  if (spec_.gc_sweep_period_ops != 0) {
    n = std::min(n, spec_.gc_sweep_period_ops -
                        op_ % spec_.gc_sweep_period_ops);
  }
  if (spec_.churn_period_ops != 0) {
    n = std::min(n, spec_.churn_period_ops - op_ % spec_.churn_period_ops);
  }
  if (measuring_ && spec_.kind == Kind::kLatency &&
      spec_.accesses_per_request != 0) {
    // A latency record snapshots the stack at the request boundary, so a
    // batch may end exactly there but never cross it.
    n = std::min(n, spec_.accesses_per_request -
                        op_ % spec_.accesses_per_request);
  }
  return std::max<uint64_t>(n, 1);
}

uint64_t WorkloadDriver::RunOps(uint64_t op_budget) {
  osim::GuestKernel& guest = machine_->vm(vm_id_).guest();

  if (!measuring_ && op_ >= warmup_ops_) {
    begin_snapshot_ = metrics::Snapshot(*machine_, vm_id_);
    request_overhead_base_ = begin_snapshot_.guest_overhead_cycles +
                             begin_snapshot_.host_overhead_cycles;
    request_cycles_ = 0;
    measuring_ = true;
  }

  // Gradual growth: reach the full VMA count at 40 % of the run, before
  // the steady-state measurement window opens.
  if (spec_.alloc == AllocPattern::kGradual &&
      vma_ids_.size() < spec_.vma_count) {
    const double frac = std::min(
        1.0, 2.5 * static_cast<double>(op_) / static_cast<double>(spec_.ops));
    const auto desired = static_cast<size_t>(
        1 + frac * static_cast<double>(spec_.vma_count - 1));
    while (vma_ids_.size() < desired) {
      osim::Vma& vma = guest.aspace().MapAnonymous(pages_per_vma_);
      vma_ids_.push_back(vma.id);
      vma_starts_.push_back(vma.start_page);
      InitVma(vma.start_page, vma.pages);
    }
  }

  // GC sweep: a stop-the-world pass over every active page.  Its cycles
  // land on the in-flight request (the pause), like a real collector's.
  if (spec_.gc_sweep_period_ops != 0 && op_ > 0 &&
      op_ % spec_.gc_sweep_period_ops == 0) {
    for (size_t v = 0; v < vma_ids_.size(); ++v) {
      TouchRange(vma_starts_[v], pages_per_vma_, TouchKind::kGcSweep,
                 /*charge_request=*/true);
    }
  }

  // Churn: retire one VMA, allocate a fresh one of the same size.
  if (spec_.churn_period_ops != 0 && op_ > 0 &&
      op_ % spec_.churn_period_ops == 0 && vma_ids_.size() > 1) {
    const size_t victim =
        static_cast<size_t>(churn_rng_->NextBelow(vma_ids_.size()));
    guest.UnmapVma(vma_ids_[victim]);
    osim::Vma& fresh = guest.aspace().MapAnonymous(pages_per_vma_);
    vma_ids_[victim] = fresh.id;
    vma_starts_[victim] = fresh.start_page;
    InitVma(fresh.start_page, fresh.pages);
  }

  // The event-free tail: one batch of request accesses.
  const uint64_t n = std::min({op_budget, EventFreeOps(), kChunk});
  const uint64_t active_pages = pages_per_vma_ * vma_ids_.size();
  batch_vpns_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t page_index = stream_->Next(active_pages);
    const size_t vma_index =
        std::min<size_t>(page_index / pages_per_vma_, vma_ids_.size() - 1);
    batch_vpns_.push_back(vma_starts_[vma_index] +
                          (page_index % pages_per_vma_));
  }
  machine_->AccessBatch(vm_id_, batch_vpns_,
                        TouchWorkCycles(spec_, TouchKind::kRequest),
                        &batch_results_);
  AccountResults(0, batch_results_.size());
  op_ += n;
  MaybeRecordLatency();
  return n;
}

void WorkloadDriver::AccountResults(size_t begin, size_t count) {
  if (!measuring_) {
    return;
  }
  for (size_t i = begin; i < begin + count; ++i) {
    const osim::VirtualMachine::AccessResult& ar = batch_results_[i];
    access_cycles_ += ar.cycles;
    request_cycles_ += ar.cycles;
    if (ar.faults_taken > 0) {
      ++faulting_accesses_;
    }
  }
}

void WorkloadDriver::MaybeRecordLatency() {
  // EventFreeOps never lets a batch cross a request boundary, so a record
  // is due exactly when the batch ended on one.
  if (measuring_ && spec_.kind == Kind::kLatency &&
      spec_.accesses_per_request != 0 &&
      op_ % spec_.accesses_per_request == 0) {
    osim::VirtualMachine& vm = machine_->vm(vm_id_);
    const base::Cycles oh = vm.guest().stats().overhead_cycles +
                            vm.host_slice().stats().overhead_cycles;
    latencies_->Record(static_cast<double>(request_cycles_) +
                       static_cast<double>(oh - request_overhead_base_));
    request_overhead_base_ = oh;
    request_cycles_ = 0;
    ++requests_;
  }
}

bool WorkloadDriver::EventPendingAtOp() const {
  if (!measuring_ && op_ >= warmup_ops_) {
    return true;  // measurement flip: re-snapshots the stack
  }
  if (spec_.alloc == AllocPattern::kGradual &&
      vma_ids_.size() < spec_.vma_count) {
    return true;  // growth target moves with op_; faults to populate
  }
  if (spec_.gc_sweep_period_ops != 0 && op_ > 0 &&
      op_ % spec_.gc_sweep_period_ops == 0) {
    return true;
  }
  if (spec_.churn_period_ops != 0 && op_ > 0 &&
      op_ % spec_.churn_period_ops == 0 && vma_ids_.size() > 1) {
    return true;
  }
  return false;
}

uint64_t WorkloadDriver::StepEpoch(uint64_t op_budget, bool* suspended) {
  SIM_CHECK(!pending_batch_);
  *suspended = false;
  uint64_t ran = 0;
  while (ran < op_budget && !Done()) {
    if (EventPendingAtOp()) {
      *suspended = true;
      return ran;
    }
    // The same batch the serial path would issue (EventFreeOps guarantees
    // no event, including a latency record boundary, lands inside it).
    const uint64_t n = std::min({op_budget - ran, EventFreeOps(), kChunk});
    const uint64_t active_pages = pages_per_vma_ * vma_ids_.size();
    batch_vpns_.clear();
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t page_index = stream_->Next(active_pages);
      const size_t vma_index =
          std::min<size_t>(page_index / pages_per_vma_, vma_ids_.size() - 1);
      batch_vpns_.push_back(vma_starts_[vma_index] +
                            (page_index % pages_per_vma_));
    }
    if (batch_results_.size() < batch_vpns_.size()) {
      batch_results_.resize(batch_vpns_.size());
    }
    const size_t k = machine_->EpochAccessBatch(
        vm_id_, batch_vpns_, TouchWorkCycles(spec_, TouchKind::kRequest),
        &batch_results_);
    AccountResults(0, k);
    op_ += k;
    ran += k;
    if (k < n) {
      // batch_vpns_[k] would fault: park the rest for the serial phase.
      pending_batch_ = true;
      pending_next_ = k;
      *suspended = true;
      return ran;
    }
    MaybeRecordLatency();
  }
  return ran;
}

uint64_t WorkloadDriver::ResumeSerial(uint64_t op_budget) {
  uint64_t ran = 0;
  if (pending_batch_) {
    const size_t rest = batch_vpns_.size() - pending_next_;
    const std::span<const uint64_t> vpns(batch_vpns_.data() + pending_next_,
                                         rest);
    // AccessBatch refills batch_results_ from index 0; the completed prefix
    // was already accounted in StepEpoch.
    machine_->AccessBatch(vm_id_, vpns,
                          TouchWorkCycles(spec_, TouchKind::kRequest),
                          &batch_results_);
    AccountResults(0, rest);
    op_ += rest;
    ran += rest;
    pending_batch_ = false;
    MaybeRecordLatency();
  }
  if (ran < op_budget) {
    ran += Step(op_budget - ran);
  }
  return ran;
}

RunResult WorkloadDriver::Finish() {
  osim::GuestKernel& guest = machine_->vm(vm_id_).guest();
  const metrics::StackSnapshot end = metrics::Snapshot(*machine_, vm_id_);
  const metrics::StackSnapshot delta = end.Delta(begin_snapshot_);

  RunResult result;
  result.workload = spec_.name;
  result.ops = op_ - std::min(op_, warmup_ops_);
  result.requests = requests_;
  result.busy_cycles = access_cycles_ + delta.guest_overhead_cycles +
                       delta.host_overhead_cycles;
  result.throughput = result.busy_cycles == 0
                          ? 0.0
                          : 1000.0 * static_cast<double>(result.ops) /
                                static_cast<double>(result.busy_cycles);
  result.mean_latency = latencies_->Mean();
  result.p99_latency = latencies_->Percentile(0.99);
  result.tlb_hits = delta.tlb_hits;
  result.tlb_misses = delta.tlb_misses;
  result.tlb_miss_rate = metrics::TlbMissRate(delta);
  result.faulting_accesses = faulting_accesses_;
  result.counters = delta;
  result.alignment = metrics::AuditAlignment(
      guest.table(), machine_->vm(vm_id_).host_slice().table());

  if (options_.teardown) {
    TearDownAll();
  }
  return result;
}

void WorkloadDriver::TearDownAll() {
  osim::GuestKernel& guest = machine_->vm(vm_id_).guest();
  for (int32_t id : vma_ids_) {
    guest.UnmapVma(id);
  }
  vma_ids_.clear();
  vma_starts_.clear();
}

}  // namespace workload
