#include "spans.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

namespace {

// Spans kept individually in the log; the rest (per-fault, per-tick) are
// far too many and are only aggregated.
bool Logged(Span span) {
  switch (span) {
    case Span::kCell:
    case Span::kSetup:
    case Span::kSetupMachine:
    case Span::kSetupFragHost:
    case Span::kSetupFragGuest:
    case Span::kSetupBoot:
    case Span::kPrefill:
    case Span::kRun:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* SpanName(Span span) {
  switch (span) {
    case Span::kCell:
      return "cell";
    case Span::kSetup:
      return "harness.setup";
    case Span::kSetupMachine:
      return "harness.setup.machine";
    case Span::kSetupFragHost:
      return "harness.setup.frag_host";
    case Span::kSetupFragGuest:
      return "harness.setup.frag_guest";
    case Span::kSetupBoot:
      return "harness.setup.boot";
    case Span::kPrefill:
      return "workload.prefill";
    case Span::kRun:
      return "workload.run";
    case Span::kPolicyFault:
      return "policy.fault";
    case Span::kPolicyTick:
      return "policy.tick";
    case Span::kPolicyFreeRegion:
      return "policy.free_region";
    case Span::kPolicyOther:
      return "policy.other";
    case Span::kGeminiScan:
      return "gemini.mhps";
    case Span::kSnapshot:
      return "metrics.snapshot";
    case Span::kExport:
      return "metrics.export";
    case Span::kCount:
      break;
  }
  return "?";
}

SpanRecorder::SpanRecorder()
    : owner_(std::this_thread::get_id()), origin_ns_(NowNs()) {
  stack_.reserve(16);
}

void SpanRecorder::Begin(Span span) {
  // Policies and periodic tasks only ever run in the serial phases (the
  // epoch executor's workers do clean translations only); a span opened on
  // another thread would race the aggregates.
  if (std::this_thread::get_id() != owner_) {
    std::fprintf(stderr, "span %s opened off the recording thread\n",
                 SpanName(span));
    std::abort();
  }
  if (span == Span::kRun) {
    ++run_depth_;
  }
  stack_.push_back(Open{span, NowNs(), 0});
}

void SpanRecorder::End() {
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - open.start_ns;
  if (open.span == Span::kRun) {
    --run_depth_;
  }
  SpanTotals& t = totals_[static_cast<size_t>(open.span)];
  ++t.count;
  t.total_ns += dur;
  t.child_ns += open.child_ns;
  if (run_depth_ > 0) {
    t.in_run_ns += dur;
  }
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  if (Logged(open.span)) {
    log_.push_back(
        Record{open.span, pass_, cell_, open.start_ns - origin_ns_, dur});
  }
}

std::string SpanRecorder::LogJson() const {
  std::ostringstream out;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < log_.size(); ++i) {
    const Record& r = log_[i];
    out << "  {\"name\": \"" << SpanName(r.span) << "\", \"pass\": " << r.pass
        << ", \"cell\": " << r.cell << ", \"start_ns\": " << r.start_ns
        << ", \"dur_ns\": " << r.dur_ns << '}'
        << (i + 1 < log_.size() ? ",\n" : "\n");
  }
  out << "],\n\"totals\": {\n";
  for (size_t s = 0; s < totals_.size(); ++s) {
    const SpanTotals& t = totals_[s];
    out << "  \"" << SpanName(static_cast<Span>(s)) << "\": {\"count\": "
        << t.count << ", \"total_ns\": " << t.total_ns
        << ", \"self_ns\": " << t.self_ns() << '}'
        << (s + 1 < totals_.size() ? ",\n" : "\n");
  }
  out << "}}\n";
  return out.str();
}

}  // namespace perfbench
