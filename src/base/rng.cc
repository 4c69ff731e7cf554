#include "base/rng.h"

#include <cmath>

#include "base/check.h"

namespace base {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  SIM_CHECK(bound > 0);
  // Lemire's nearly-divisionless bounded sampling.
  unsigned __int128 m =
      static_cast<unsigned __int128>(Next()) * static_cast<unsigned __int128>(bound);
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      m = static_cast<unsigned __int128>(Next()) * static_cast<unsigned __int128>(bound);
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

uint64_t Rng::NextRange(uint64_t lo, uint64_t hi) {
  SIM_CHECK(hi > lo);
  return lo + NextBelow(hi - lo);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

namespace {

double Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

ZipfSampler::ZipfSampler(uint64_t n, double theta) : n_(n), theta_(theta) {
  SIM_CHECK(n > 0);
  SIM_CHECK(theta >= 0.0 && theta < 1.0);
  zetan_ = Zeta(n, theta);
  zeta2_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2_ / zetan_);
  rank1_bound_ = 1.0 + std::pow(0.5, theta);
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  if (theta_ == 0.0) {
    return rng.NextBelow(n_);
  }
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < rank1_bound_) {
    return 1;
  }
  const double raw =
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
  uint64_t rank = static_cast<uint64_t>(raw);
  if (rank >= n_) {
    rank = n_ - 1;
  }
  return rank;
}

}  // namespace base
