#include "calibrator.h"

#include <algorithm>
#include <array>
#include <chrono>

namespace perfbench {

namespace {

// Keys live in [0, 2^18); 4096 of them make a ~200 KiB red-black tree.
constexpr uint64_t kKeyMask = (uint64_t{1} << 18) - 1;
constexpr size_t kKeys = size_t{1} << 12;
constexpr int kOpsPerRun = 2000;
constexpr int kRunsPerSample = 3;

}  // namespace

Calibrator::Calibrator() : rng_(0xca1) {
  while (keys_.size() < kKeys) {
    keys_.insert(rng_.Next() & kKeyMask);
  }
}

double Calibrator::RunOnce() {
  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < kOpsPerRun; ++i) {
    // Moves one node to a fresh key: the tree stays at kKeys entries and
    // the heap is never touched after construction.
    auto it = keys_.lower_bound(rng_.Next() & kKeyMask);
    auto node = keys_.extract(it == keys_.end() ? keys_.begin() : it);
    do {
      node.value() = rng_.Next() & kKeyMask;
      node = keys_.insert(std::move(node)).node;  // returned if a duplicate
    } while (!node.empty());
  }
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - begin)
      .count();
}

double Calibrator::Sample() {
  std::array<double, kRunsPerSample> runs;
  for (double& r : runs) {
    r = RunOnce();
  }
  std::nth_element(runs.begin(), runs.begin() + kRunsPerSample / 2,
                   runs.end());
  return runs[kRunsPerSample / 2] * kRunsPerSample;
}

}  // namespace perfbench
