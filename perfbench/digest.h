// Digests of the simulator's deterministic results: the benchmark's
// correctness check.  Host times never enter a digest.
#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstdint>

#include "harness/experiment.h"
#include "workload/driver.h"

namespace perfbench {

// FNV-1a over every simulated field of the result: the scalar results,
// the alignment audit and the measured-phase counter deltas.  Left out:
// the host-side batching tallies (batch_*) and walk-memo replay counts,
// which describe how the host computed the simulation, not what it
// simulated.
uint64_t Digest(const workload::RunResult& r);
// Every VM's RunResult digest plus the interference report, the epoch
// schedule and the machine-final fields; exec_wall_ms is host time and
// is left out.
uint64_t Digest(const harness::CollocatedManyResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
