// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component (workload access streams, fragmenter, policy
// sampling) draws from an explicitly seeded Rng so that experiments are
// exactly reproducible run-to-run.  The generator is xoshiro256**, seeded
// via SplitMix64, which is both fast and statistically strong enough for
// workload synthesis.
#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace base {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t Next();

  // Uniform in [0, bound).  bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi).  hi must be > lo.  Only tests draw from it
  // (test_tlb's range-shootdown fuzz); it stays as their draw.
  uint64_t NextRange(uint64_t lo, uint64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Bernoulli trial with probability p.
  bool NextBool(double p);

  // Fisher-Yates shuffle.  Only tests shuffle (test_buddy_allocator's
  // free order); it stays as their shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBelow(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t state_[4];
};

// Samples ranks from a Zipfian distribution over [0, n) with skew theta
// (theta = 0 is uniform; typical key-value skew is 0.99).  Uses the
// Gray et al. rejection-free method with precomputed constants so sampling
// is O(1) per draw.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double theta);

  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2_;
  // 1 + 0.5^theta: Sample draws rank 1 when u * zetan_ is in [1, this).
  double rank1_bound_;
};

}  // namespace base

#endif  // SRC_BASE_RNG_H_
