#include "workload/epoch_executor.h"

#include <algorithm>
#include <limits>

#include "base/check.h"
#include "base/env.h"

namespace workload {

uint32_t VmThreadsFromEnv() {
  return static_cast<uint32_t>(
      base::EnvInt("GEMINI_VM_THREADS", 1,
                   std::numeric_limits<uint32_t>::max())
          .value_or(1));
}

EpochExecutor::EpochExecutor(osim::Machine* machine,
                             const EpochExecutorOptions& options)
    : machine_(machine), options_(options) {
  SIM_CHECK(machine_ != nullptr);
  threads_ = options_.threads != 0 ? options_.threads : VmThreadsFromEnv();
  quantum_ = options_.quantum != 0 ? options_.quantum : 256;
  SIM_CHECK(threads_ >= 1);
  for (const uint32_t percent : options_.load_phases) {
    SIM_CHECK(percent > 0);
  }
  workers_.reserve(threads_ > 0 ? threads_ - 1 : 0);
  for (uint32_t i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

EpochExecutor::~EpochExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void EpochExecutor::AddLane(int32_t vm_id, const LaneSpec& spec) {
  Lane lane;
  lane.spec = spec;
  lane.driver = std::make_unique<WorkloadDriver>(machine_, vm_id);
  lanes_.push_back(std::move(lane));
}

uint64_t EpochExecutor::LaneQuantum(const Lane& lane) const {
  if (options_.load_phases.empty()) {
    return quantum_;
  }
  const uint64_t slot =
      (epoch_ / std::max<uint64_t>(options_.load_phase_epochs, 1) +
       lane.spec.phase_offset) %
      options_.load_phases.size();
  return std::max<uint64_t>(1, quantum_ * options_.load_phases[slot] / 100);
}

std::vector<RunResult> EpochExecutor::Run() {
  SIM_CHECK(!lanes_.empty());
  epoch_ = 0;
  std::vector<size_t> active;
  for (;;) {
    // Boot arrivals: Begin maps and populates the lane's VMAs serially.
    bool any_alive = false;
    for (Lane& lane : lanes_) {
      if (lane.state == LaneState::kWaiting &&
          epoch_ >= lane.spec.arrival_epoch) {
        lane.driver->Begin(lane.spec.spec, lane.spec.options);
        lane.state = LaneState::kRunning;
      }
      any_alive |= lane.state != LaneState::kDone;
    }
    if (!any_alive) {
      break;
    }
    active.clear();
    for (size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i].state == LaneState::kRunning) {
        Lane& lane = lanes_[i];
        lane.quantum = LaneQuantum(lane);
        lane.ran = 0;
        lane.suspended = false;
        active.push_back(i);
      }
    }
    if (!active.empty()) {
      machine_->BeginEpoch();
      RunParallelPhase(active);
      machine_->EpochBarrier();
      // Serial phase, canonical lane order: drain suspensions (faults,
      // measurement flips, growth, GC, churn), then retire finished lanes.
      for (const size_t i : active) {
        Lane& lane = lanes_[i];
        parallel_ops_ += lane.ran;
        if (lane.suspended && lane.ran < lane.quantum) {
          serial_ops_ += lane.driver->ResumeSerial(lane.quantum - lane.ran);
        } else if (lane.suspended) {
          // Budget exhausted mid-batch: just complete the parked batch.
          serial_ops_ += lane.driver->ResumeSerial(0);
        }
      }
      for (const size_t i : active) {
        Lane& lane = lanes_[i];
        if (lane.driver->Done()) {
          lane.result = lane.driver->Finish();  // teardown per its options
          lane.state = LaneState::kDone;
        }
      }
    }
    ++epoch_;
  }
  std::vector<RunResult> results;
  results.reserve(lanes_.size());
  for (Lane& lane : lanes_) {
    results.push_back(std::move(lane.result));
  }
  return results;
}

void EpochExecutor::StepLane(size_t index) {
  Lane& lane = lanes_[index];
  lane.ran = lane.driver->StepEpoch(lane.quantum, &lane.suspended);
}

void EpochExecutor::RunParallelPhase(const std::vector<size_t>& active) {
  if (threads_ <= 1 || active.size() <= 1) {
    for (const size_t index : active) {
      StepLane(index);
    }
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    // A straggler from the previous generation may still be inside its
    // (empty) drain; never reset the claim counter under its feet.
    done_cv_.wait(lock, [this] { return active_workers_ == 0; });
    active_ = active;
    next_item_.store(0, std::memory_order_relaxed);
    remaining_ = active.size();
    ++generation_;
  }
  cv_.notify_all();
  DrainItems();  // the main thread is worker 0
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock,
                [this] { return remaining_ == 0 && active_workers_ == 0; });
}

void EpochExecutor::DrainItems() {
  for (;;) {
    const size_t item = next_item_.fetch_add(1, std::memory_order_relaxed);
    if (item >= active_.size()) {
      return;
    }
    StepLane(active_[item]);
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) {
      done_cv_.notify_all();
    }
  }
}

void EpochExecutor::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) {
      return;
    }
    seen = generation_;
    ++active_workers_;
    lock.unlock();
    DrainItems();
    lock.lock();
    if (--active_workers_ == 0) {
      done_cv_.notify_all();
    }
  }
}

}  // namespace workload
