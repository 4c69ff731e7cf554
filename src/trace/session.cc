#include "trace/session.h"

#include <cctype>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <memory>

#include "base/env.h"
#include "metrics/export.h"
#include "trace/perfetto.h"

namespace trace {

namespace {

constexpr size_t kRingCapacity = 1 << 18;  // events retained (~9 MiB)

}  // namespace

std::string SanitizeFileStem(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  bool pending_sep = false;
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      if (pending_sep && !out.empty()) {
        out += '_';
      }
      pending_sep = false;
      out += static_cast<char>(std::tolower(u));
    } else {
      pending_sep = true;
    }
  }
  return out.empty() ? "trace" : out;
}

TraceConfig TraceConfigFromEnv(const std::string& stem) {
  TraceConfig config;
  const char* dir = base::EnvValue("GEMINI_TRACE");
  if (dir == nullptr) {
    return config;
  }
  config.enabled = true;
  config.dir = dir;
  config.stem = stem;
  config.sample_period =
      base::EnvInt("GEMINI_TRACE_INTERVAL", 1,
                   std::numeric_limits<base::Cycles>::max())
          .value_or(config.sample_period);
  return config;
}

StackSampler* SetupTracing(osim::Machine& machine, const TraceConfig& config) {
  if (!config.enabled) {
    return nullptr;
  }
  machine.tracer().Enable(kRingCapacity);
  auto sampler = std::make_unique<StackSampler>(&machine);
  StackSampler* raw = sampler.get();
  machine.AddTask(std::move(sampler), config.sample_period);
  return raw;
}

void WriteTraceFiles(const TraceConfig& config, const osim::Machine& machine,
                     const StackSampler* sampler) {
  if (!config.enabled) {
    return;
  }
  const std::string base = config.dir + "/" + config.stem;
  metrics::WriteFile(base + ".trace.json",
                     PerfettoTraceJson(machine.tracer(), sampler));
  if (sampler != nullptr) {
    metrics::WriteFile(base + ".series.csv", sampler->ToCsv());
  }
  std::fprintf(stderr, "[trace] wrote %s.trace.json (+series.csv)\n",
               base.c_str());
}

}  // namespace trace
