// Trace activation for benches and the harness.
//
// A TraceConfig says whether tracing is on and where the artifacts go;
// TraceConfigFromEnv() builds one from the environment contract
// (BENCHMARKS.md):
//
//   GEMINI_TRACE=DIR            enable; write per-cell files under DIR
//   GEMINI_TRACE_INTERVAL=N     sampler period in simulated cycles
//                               (default 1'000'000)
//
// SetupTracing() arms a machine (ring buffer + sampler task);
// WriteTraceFiles() renders <dir>/<stem>.trace.json (Perfetto) and
// <dir>/<stem>.series.csv (time series) when the run ends.  Both are
// no-ops on a disabled config, so the harness calls them unconditionally.
#ifndef SRC_TRACE_SESSION_H_
#define SRC_TRACE_SESSION_H_

#include <string>

#include "os/machine.h"
#include "trace/sampler.h"

namespace trace {

struct TraceConfig {
  bool enabled = false;
  std::string dir;   // output directory (must exist)
  std::string stem;  // file stem, e.g. "fig9_cell03_redis_gemini"
  base::Cycles sample_period = 1'000'000;
};

// Lowercases `s` and maps every non-[a-z0-9] run to one '_', so sweep
// labels, workload names and system names compose into safe file stems.
std::string SanitizeFileStem(const std::string& s);

// Reads GEMINI_TRACE / GEMINI_TRACE_INTERVAL (a positive integer); disabled
// when GEMINI_TRACE is unset or empty.
TraceConfig TraceConfigFromEnv(const std::string& stem);

// Enables the machine's tracer and registers a StackSampler firing every
// config.sample_period cycles.  Returns the sampler (owned by the
// machine), or null if the config is disabled.
StackSampler* SetupTracing(osim::Machine& machine, const TraceConfig& config);

// Writes the two artifacts; no-op when the config is disabled.
void WriteTraceFiles(const TraceConfig& config, const osim::Machine& machine,
                     const StackSampler* sampler);

}  // namespace trace

#endif  // SRC_TRACE_SESSION_H_
