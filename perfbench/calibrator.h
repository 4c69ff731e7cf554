// Machine-speed calibration for a noisy shared host.
//
// On a shared 4-core x86-64 virtual machine, the same work was seen to run
// up to 1.5x slower from one minute to the next and 2x from one second to
// the next (other tenants share the physical cores and caches; the guest
// sees no steal time and has no hardware counters).  The benchmark
// therefore times a fixed kernel between cells and scales each cell's
// host time by kNominalNs / (the kernel's time around that cell): times
// are reported in seconds of a machine running the kernel at its nominal
// speed.  The kernel is std::set churn over a ~200 KiB tree: dependent
// loads that hit in the core's private caches.  It tracked the
// simulator's slowdowns better than larger trees, a plain pointer chase or
// an ALU loop did (numbers in NOTES.md).  It uses no simulator code and allocates only in its
// constructor, before any simulation (churn relinks extracted nodes), so
// neither the simulator's code nor its heap history moves its speed and
// two commits compare on the same scale.  The raw times are printed beside
// the normalized ones.
#ifndef PERFBENCH_CALIBRATOR_H_
#define PERFBENCH_CALIBRATOR_H_

#include <cstdint>
#include <set>

#include "base/rng.h"

namespace perfbench {

class Calibrator {
 public:
  // Sample()'s host time between cells on a quiet shared 4-core x86-64
  // VM, so normalized times read roughly as host time there.
  static constexpr double kNominalNs = 1.2e6;

  Calibrator();

  // Times the kernel (median of a few short runs); returns host ns.
  double Sample();

 private:
  double RunOnce();

  base::Rng rng_;
  std::set<uint64_t> keys_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATOR_H_
