// Host-time spans recorded from the benchmark's own files, around its
// calls into each simulator layer.
//
// A SpanRecorder keeps a stack of open spans on the thread that owns it.
// Closing a span adds its duration to the span's total and to its
// parent's child time, so self time = total - child time.  Every span is
// aggregated per kind; the coarse ones (cells, set-up stages, run phases)
// are also kept as a log that LogJson() renders once, at the end.
//
// TimedPolicy and TimedGeminiRuntime are decorators: they forward every
// virtual of the wrapped policy::HugePagePolicy / Gemini runtime task
// unchanged and open a span around the calls that do work, so a decorated
// bed simulates exactly what an undecorated one does (the self-test pins
// the digests).
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "os/machine.h"
#include "policy/policy.h"

namespace perfbench {

enum class Span : uint8_t {
  kCell,             // one whole cell: set-up, run, teardown
  kSetup,            // testbed construction (parent of the four below)
  kSetupMachine,     // Machine + VM creation
  kSetupFragHost,    // host fragmentation
  kSetupFragGuest,   // guest fragmentation, every VM
  kSetupBoot,        // simulated guest boot, every VM
  kPrefill,          // reused-VM SVM prefill + teardown
  kRun,              // the measured workload (driver or executor)
  kPolicyFault,      // HugePagePolicy::OnFault
  kPolicyTick,       // HugePagePolicy::OnDaemonTick
  kPolicyFreeRegion, // HugePagePolicy::OnFreeRegion
  kPolicyOther,      // the remaining HugePagePolicy hooks
  kGeminiScan,       // GeminiRuntime::Run (MHPS scan)
  kSnapshot,         // metrics::Snapshot calls
  kExport,           // metrics::ToCsv / ToJson calls
  kCount,
};

const char* SpanName(Span span);

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t child_ns = 0;
  int64_t in_run_ns = 0;  // the part of total_ns spent inside a kRun span
  int64_t self_ns() const { return total_ns - child_ns; }
};

class SpanRecorder {
 public:
  SpanRecorder();

  void Begin(Span span);
  // Closes the innermost open span.
  void End();

  using Totals = std::array<SpanTotals, static_cast<size_t>(Span::kCount)>;
  // Aggregates since construction; callers difference two copies to get
  // one pass's share.
  const Totals& totals() const { return totals_; }

  // Tags subsequent log records with the pass and cell they belong to.
  void SetContext(uint32_t pass, uint32_t cell) {
    pass_ = pass;
    cell_ = cell;
  }
  // Renders the coarse-span log plus the current aggregates as JSON.
  std::string LogJson() const;

 private:
  struct Open {
    Span span;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Record {
    Span span;
    uint32_t pass;
    uint32_t cell;
    int64_t start_ns;
    int64_t dur_ns;
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::thread::id owner_;
  int64_t origin_ns_;
  std::vector<Open> stack_;
  int run_depth_ = 0;  // open kRun spans
  Totals totals_{};
  std::vector<Record> log_;
  uint32_t pass_ = 0;
  uint32_t cell_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Span span) : recorder_(recorder) {
    recorder_->Begin(span);
  }
  ~ScopedSpan() { recorder_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

class TimedPolicy final : public policy::HugePagePolicy {
 public:
  TimedPolicy(std::unique_ptr<policy::HugePagePolicy> inner,
              SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  std::string_view name() const override { return inner_->name(); }
  policy::FaultDecision OnFault(policy::KernelOps& kernel,
                                const policy::FaultInfo& info) override {
    ScopedSpan span(recorder_, Span::kPolicyFault);
    return inner_->OnFault(kernel, info);
  }
  void OnDaemonTick(policy::KernelOps& kernel) override {
    ScopedSpan span(recorder_, Span::kPolicyTick);
    inner_->OnDaemonTick(kernel);
  }
  bool OnFreeRegion(policy::KernelOps& kernel, uint64_t region, uint64_t frame,
                    bool contiguous) override {
    ScopedSpan span(recorder_, Span::kPolicyFreeRegion);
    return inner_->OnFreeRegion(kernel, region, frame, contiguous);
  }
  void OnVmaDestroy(int32_t vma_id) override {
    ScopedSpan span(recorder_, Span::kPolicyOther);
    inner_->OnVmaDestroy(vma_id);
  }
  void OnMemoryPressure(policy::KernelOps& kernel) override {
    ScopedSpan span(recorder_, Span::kPolicyOther);
    inner_->OnMemoryPressure(kernel);
  }
  std::vector<uint64_t> RankHugeDemotionVictims(policy::KernelOps& kernel,
                                                size_t max_victims) override {
    ScopedSpan span(recorder_, Span::kPolicyOther);
    return inner_->RankHugeDemotionVictims(kernel, max_victims);
  }
  policy::PolicyTelemetry Telemetry() const override {
    return inner_->Telemetry();
  }

 private:
  std::unique_ptr<policy::HugePagePolicy> inner_;
  SpanRecorder* recorder_;
};

// Wraps the gemini::GeminiRuntime task (its Run() is the MHPS scan).
class TimedGeminiRuntime final : public osim::PeriodicTask {
 public:
  TimedGeminiRuntime(std::unique_ptr<osim::PeriodicTask> inner,
                     SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  void Run(base::Cycles now) override {
    ScopedSpan span(recorder_, Span::kGeminiScan);
    inner_->Run(now);
  }

 private:
  std::unique_ptr<osim::PeriodicTask> inner_;
  SpanRecorder* recorder_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
