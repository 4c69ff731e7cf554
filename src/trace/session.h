// Trace activation for benches and the harness.
//
// A TraceConfig says where a run's trace artifacts go; tracing is on
// exactly when its dir is set.  The benches build one per cell from
// GEMINI_TRACE (bench/bench_common.h, BENCHMARKS.md "Trace artifacts").
//
// SetupTracing() arms a machine (ring buffer + a sampler task firing every
// million simulated cycles); WriteTraceFiles() renders
// <dir>/<stem>.trace.json (Perfetto) and <dir>/<stem>.series.csv (time
// series) when the run ends.  Both are no-ops on a disabled config, so the
// harness calls them unconditionally.
#ifndef SRC_TRACE_SESSION_H_
#define SRC_TRACE_SESSION_H_

#include <string>

#include "os/machine.h"
#include "trace/sampler.h"

namespace trace {

struct TraceConfig {
  std::string dir;   // output directory (must exist); empty = tracing off
  std::string stem;  // file stem, e.g. "fig9_cell03_redis_gemini"
};

// Lowercases `s` and maps every non-[a-z0-9] run to one '_', so sweep
// labels, workload names and system names compose into safe file stems.
std::string SanitizeFileStem(const std::string& s);

// Enables the machine's tracer and registers a StackSampler.  Returns the
// sampler (owned by the machine), or null if the config is disabled.
StackSampler* SetupTracing(osim::Machine& machine, const TraceConfig& config);

// Writes the two artifacts; no-op when the config is disabled.
void WriteTraceFiles(const TraceConfig& config, const osim::Machine& machine,
                     const StackSampler* sampler);

}  // namespace trace

#endif  // SRC_TRACE_SESSION_H_
