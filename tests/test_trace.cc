// Tests for the trace subsystem: ring semantics, zero-cost disabled path,
// Perfetto JSON validity, sampler boundary determinism, and the
// batching-invariance guarantee (a trace is a pure function of the access
// sequence, not of how the driver chunks simulated time).
#include "trace/tracer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/types.h"
#include "gemini/gemini_policy.h"
#include "os/machine.h"
#include "trace/perfetto.h"
#include "trace/sampler.h"
#include "trace/session.h"

namespace {

using base::kPagesPerHuge;
using trace::Event;
using trace::EventKind;
using trace::Tracer;

TEST(Tracer, DisabledTracerOwnsNoBufferAndIgnoresEmit) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.capacity(), 0u);
  tracer.Emit(EventKind::kBuddySplit, base::Layer::kGuest, 0, 1, 2, 3);
  EXPECT_EQ(tracer.capacity(), 0u);  // still no allocation
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.emitted(), 0u);
}

TEST(Tracer, RecordsEventsWithClockAndFields) {
  Tracer tracer;
  base::Cycles clock = 42;
  tracer.SetClock(&clock);
  tracer.Enable(16);
  tracer.Emit(EventKind::kPromoteMigrate, base::Layer::kHost, 3, 7, 8, 9);
  clock = 43;
  tracer.Emit(EventKind::kDemote, base::Layer::kGuest, 1, 5);
  ASSERT_EQ(tracer.size(), 2u);
  std::vector<Event> events;
  tracer.ForEach([&](const Event& e) { events.push_back(e); });
  EXPECT_EQ(events[0].ts, 42u);
  EXPECT_EQ(events[0].kind, EventKind::kPromoteMigrate);
  EXPECT_EQ(events[0].layer, base::Layer::kHost);
  EXPECT_EQ(events[0].vm_id, 3);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[0].b, 8u);
  EXPECT_EQ(events[0].c, 9u);
  EXPECT_EQ(events[1].ts, 43u);
  EXPECT_EQ(events[1].a, 5u);
  EXPECT_EQ(events[1].c, 0u);
}

TEST(Tracer, RingOverflowDropsOldestAndCountsDrops) {
  Tracer tracer;
  tracer.Enable(8);
  for (uint64_t i = 0; i < 20; ++i) {
    tracer.Emit(EventKind::kDaemonTick, base::Layer::kGuest, 0, i);
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  EXPECT_EQ(tracer.emitted(), 20u);
  // The retained window is the most recent 8 events, oldest first.
  std::vector<uint64_t> seen;
  tracer.ForEach([&](const Event& e) { seen.push_back(e.a); });
  ASSERT_EQ(seen.size(), 8u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 12 + i);
  }
}

TEST(Tracer, ReEnableClearsRingAndCounters) {
  Tracer tracer;
  tracer.Enable(4);
  for (int i = 0; i < 10; ++i) {
    tracer.Emit(EventKind::kDaemonTick, base::Layer::kGuest, 0);
  }
  tracer.Enable(2);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.capacity(), 2u);
}

TEST(Tracer, EveryKindHasAUniqueName) {
  std::set<std::string> names;
  for (int k = 0; k < trace::kEventKindCount; ++k) {
    const char* name = trace::EventName(static_cast<EventKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_NE(std::string(name), "unknown");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

// --- Minimal JSON parser, enough to validate the Perfetto export ---------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool String() {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    SkipWs();
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      return Object();
    }
    if (c == '[') {
      return Array();
    }
    if (c == '"') {
      return String();
    }
    return Number();
  }
  bool Object() {
    if (!Consume('{')) {
      return false;
    }
    SkipWs();
    if (Consume('}')) {
      return true;
    }
    do {
      if (!String() || !Consume(':') || !Value()) {
        return false;
      }
    } while (Consume(','));
    return Consume('}');
  }
  bool Array() {
    if (!Consume('[')) {
      return false;
    }
    SkipWs();
    if (Consume(']')) {
      return true;
    }
    do {
      if (!Value()) {
        return false;
      }
    } while (Consume(','));
    return Consume(']');
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(Perfetto, JsonIsParseableAndCarriesEvents) {
  Tracer tracer;
  base::Cycles clock = 100;
  tracer.SetClock(&clock);
  tracer.Enable(16);
  tracer.Emit(EventKind::kBuddySplit, base::Layer::kGuest, 0, 512, 11, 9);
  tracer.Emit(EventKind::kTimeoutChange, base::Layer::kHost, 1, 44000, 40000);
  const std::string json = trace::PerfettoTraceJson(tracer, nullptr);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"buddy_split\""), std::string::npos);
  EXPECT_NE(json.find("\"booking_timeout_change\""), std::string::npos);
  EXPECT_NE(json.find("\"order_found\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
}

// --- Machine-level tests --------------------------------------------------

osim::MachineConfig SmallConfig() {
  osim::MachineConfig config;
  config.host_frames = 131072;
  config.daemon_period = 50000;
  config.seed = 21;
  return config;
}

// Runs a small Gemini workload with `work` cycles of compute per access,
// delivered either inline with the access or split into `chunks` separate
// AdvanceTime calls; returns the serialized trace + series.
std::string TracedRun(int chunks) {
  osim::Machine machine(SmallConfig());
  machine.tracer().Enable(1 << 16);
  auto sampler = std::make_unique<trace::StackSampler>(&machine);
  trace::StackSampler* sampler_raw = sampler.get();
  machine.AddTask(std::move(sampler), 25000);
  auto& vm = gemini::InstallGeminiVm(machine, 32768);
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(8 * kPagesPerHuge);
  constexpr base::Cycles kWork = 3000;
  for (int round = 0; round < 2; ++round) {
    for (uint64_t p = 0; p < vma.pages; ++p) {
      if (chunks <= 1) {
        machine.Access(0, vma.start_page + p, kWork);
      } else {
        machine.Access(0, vma.start_page + p, 0);
        for (int c = 0; c < chunks; ++c) {
          machine.AdvanceTime(kWork / chunks);
        }
      }
    }
  }
  std::ostringstream out;
  machine.tracer().ForEach([&](const Event& e) {
    out << static_cast<int>(e.kind) << ' ' << e.ts << ' '
        << static_cast<int>(e.layer) << ' ' << e.vm_id << ' ' << e.a << ' '
        << e.b << ' ' << e.c << '\n';
  });
  out << sampler_raw->ToCsv();
  return out.str();
}

TEST(TraceDeterminism, SamplerFiresAtExactPeriodBoundaries) {
  osim::Machine machine(SmallConfig());
  machine.tracer().Enable(1 << 14);
  auto sampler = std::make_unique<trace::StackSampler>(&machine);
  trace::StackSampler* raw = sampler.get();
  machine.AddTask(std::move(sampler), 25000);
  gemini::InstallGeminiVm(machine, 32768);
  // Advance in ragged, boundary-misaligned steps.
  machine.AdvanceTime(37013);
  machine.AdvanceTime(55555);
  machine.AdvanceTime(100001);
  ASSERT_FALSE(raw->samples().empty());
  for (const trace::SamplePoint& p : raw->samples()) {
    EXPECT_EQ(p.ts % 25000, 0u) << "sample not on a period boundary";
  }
}

TEST(TraceDeterminism, DaemonTicksObserveBoundaryTimeNotOvershoot) {
  osim::Machine machine(SmallConfig());
  machine.tracer().Enable(1 << 14);
  gemini::InstallGeminiVm(machine, 32768);
  // Cross the first daemon boundary with a large overshoot: the tick event
  // must be stamped with the boundary, not the overshot clock.
  machine.AdvanceTime(machine.config().daemon_period + 31337);
  bool saw_tick = false;
  machine.tracer().ForEach([&](const Event& e) {
    if (e.kind == EventKind::kDaemonTick) {
      saw_tick = true;
      EXPECT_EQ(e.ts, machine.config().daemon_period);
    }
  });
  EXPECT_TRUE(saw_tick);
}

TEST(TraceDeterminism, TraceInvariantUnderWorkCycleChunking) {
  // Satellite regression: the same access sequence with the same simulated
  // durations must yield byte-identical traces however the durations are
  // delivered (one batched Access vs many AdvanceTime slices).
  const std::string one_chunk = TracedRun(1);
  const std::string three_chunks = TracedRun(3);
  EXPECT_EQ(one_chunk, three_chunks);
  EXPECT_NE(one_chunk.find("booking_timeout_cycles"), std::string::npos);
}

TEST(TraceDeterminism, RepeatedRunsAreByteIdentical) {
  EXPECT_EQ(TracedRun(1), TracedRun(1));
}

// Schema drift guard: every series row must carry exactly as many columns
// as the header names — a SamplePoint field threaded into only one of
// Run()/ToCsv() misaligns every downstream plot silently.
TEST(TraceDeterminism, SamplerCsvHeaderMatchesRowColumnCounts) {
  osim::Machine machine(SmallConfig());
  auto sampler = std::make_unique<trace::StackSampler>(&machine);
  trace::StackSampler* raw = sampler.get();
  machine.AddTask(std::move(sampler), 25000);
  auto& vm = gemini::InstallGeminiVm(machine, 32768);
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(4 * kPagesPerHuge);
  for (uint64_t p = 0; p < vma.pages; ++p) {
    machine.Access(0, vma.start_page + p, 1000);
  }
  ASSERT_FALSE(raw->samples().empty());
  std::istringstream csv(raw->ToCsv());
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_NE(header.find("displaced_by_self"), std::string::npos);
  EXPECT_NE(header.find("lat_p99"), std::string::npos);
  const auto commas = [](const std::string& line) {
    return std::count(line.begin(), line.end(), ',');
  };
  const auto expected = commas(header);
  std::string row;
  size_t rows = 0;
  while (std::getline(csv, row)) {
    EXPECT_EQ(commas(row), expected) << "row " << rows << ": " << row;
    ++rows;
  }
  EXPECT_GT(rows, 0u);
}

TEST(Session, SanitizeFileStemNormalizes) {
  EXPECT_EQ(trace::SanitizeFileStem("Fig. 9 (mean latency)"),
            "fig_9_mean_latency");
  EXPECT_EQ(trace::SanitizeFileStem("Gemini"), "gemini");
  EXPECT_EQ(trace::SanitizeFileStem("###"), "trace");
}

TEST(Session, WriteTraceFilesProducesParseableArtifacts) {
  osim::Machine machine(SmallConfig());
  const trace::TraceConfig config{::testing::TempDir(), "trace_test_cell"};
  trace::StackSampler* sampler = trace::SetupTracing(machine, config);
  ASSERT_NE(sampler, nullptr);
  auto& vm = gemini::InstallGeminiVm(machine, 32768);
  osim::Vma& vma = vm.guest().aspace().MapAnonymous(4 * kPagesPerHuge);
  for (uint64_t p = 0; p < vma.pages; ++p) {
    machine.Access(0, vma.start_page + p, 1000);
  }
  trace::WriteTraceFiles(config, machine, sampler);

  std::ifstream json_in(config.dir + "/" + config.stem + ".trace.json");
  ASSERT_TRUE(json_in.good());
  std::stringstream json;
  json << json_in.rdbuf();
  EXPECT_TRUE(JsonChecker(json.str()).Valid());
  std::ifstream csv_in(config.dir + "/" + config.stem + ".series.csv");
  ASSERT_TRUE(csv_in.good());
  std::string header;
  ASSERT_TRUE(std::getline(csv_in, header));
  EXPECT_EQ(header.rfind("ts_cycles,vm,guest_coverage", 0), 0u);
}

}  // namespace
