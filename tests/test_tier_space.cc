// vmem::TierSpace: the far tier's per-owner bitmaps, pinned op for op
// against the std::set tier they replaced (tests/reference_tier_space.h).
#include "vmem/tier_space.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <tuple>
#include <vector>

#include "base/rng.h"
#include "reference_tier_space.h"

namespace {

// Owners the fuzzer drives: ids with gaps (3 and 4 are never demoted to)
// plus -1, which only the read-only and erasing calls may see.
constexpr std::array<int32_t, 4> kOwners = {0, 1, 2, 5};
constexpr std::array<int32_t, 8> kProbeOwners = {-1, 0, 1, 2, 3, 4, 5, 6};

// Page bases the fuzzer scatters pages around: guest-physical pages near
// 0, guest VPNs at and above 2^20, and one base far above the rest, so
// every shard's span grows both down and up from its first demotion.
constexpr std::array<uint64_t, 5> kBases = {0, 1ull << 20,
                                            (1ull << 20) + 4000,
                                            (1ull << 20) - 3000, 1ull << 22};

void ExpectSameStats(const vmem::TierStats& a, const vmem::TierStats& b,
                     int step, int32_t owner) {
  EXPECT_EQ(a.demoted_pages, b.demoted_pages)
      << "step " << step << " owner " << owner;
  EXPECT_EQ(a.refaults, b.refaults) << "step " << step << " owner " << owner;
  EXPECT_EQ(a.forgotten, b.forgotten)
      << "step " << step << " owner " << owner;
  EXPECT_EQ(a.rejected, b.rejected) << "step " << step << " owner " << owner;
}

// (op seed, capacity in pages; 0 = unbounded).
class TierDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(TierDifferentialTest, MatchesReferenceOpForOp) {
  const auto [seed, capacity] = GetParam();
  vmem::TierSpace tier(capacity, 2000, 16000);
  reference_tier::TierSpace ref(capacity, 2000, 16000);
  base::Rng rng(seed);
  std::vector<std::tuple<int32_t, uint64_t>> touched;  // pages ever used
  constexpr int kOps = 4000;
  for (int step = 0; step < kOps; ++step) {
    // Alternate fill and drain phases so a bounded tier fills up (and
    // rejects) and an unbounded one empties again.
    const bool fill = (step / 500) % 2 == 0;
    const int32_t owner = kOwners[rng.NextBelow(kOwners.size())];
    uint64_t page = kBases[rng.NextBelow(kBases.size())] + rng.NextBelow(2048);
    if (!touched.empty() && rng.NextBelow(3) == 0) {
      // Re-use a page already seen: idempotent demotions, real refaults.
      std::tie(std::ignore, page) = touched[rng.NextBelow(touched.size())];
    }
    const uint64_t roll = rng.NextBelow(100);
    if (roll < (fill ? 60u : 25u)) {
      ASSERT_EQ(tier.Demote(owner, page), ref.Demote(owner, page))
          << "step " << step;
      touched.emplace_back(owner, page);
    } else if (roll < 85) {
      const int32_t who = rng.NextBelow(8) == 0 ? -1 : owner;
      ASSERT_EQ(tier.Refault(who, page), ref.Refault(who, page))
          << "step " << step;
    } else if (roll < 95) {
      // Ranges from one page to several words, starting anywhere: below,
      // inside and past a shard's span.
      const uint64_t count = 1 + rng.NextBelow(rng.NextBelow(4) == 0 ? 3000
                                                                     : 130);
      const uint64_t lo = page >= 64 ? page - rng.NextBelow(64) : page;
      const int32_t who = rng.NextBelow(8) == 0 ? -1 : owner;
      ASSERT_EQ(tier.Forget(who, lo, count), ref.Forget(who, lo, count))
          << "step " << step;
    } else {
      for (const int32_t who : kProbeOwners) {
        ASSERT_EQ(tier.Contains(who, page), ref.Contains(who, page))
            << "step " << step << " owner " << who;
      }
    }
    ASSERT_EQ(tier.resident_total(), ref.resident_total()) << "step " << step;
    ASSERT_EQ(tier.peak_resident(), ref.peak_resident()) << "step " << step;
    for (const int32_t who : kProbeOwners) {
      ASSERT_EQ(tier.resident(who), ref.resident(who))
          << "step " << step << " owner " << who;
      ExpectSameStats(tier.stats(who), ref.stats(who), step, who);
    }
    ExpectSameStats(tier.totals(), ref.totals(), step, -2);
    if (step % 250 == 249) {
      // Every page either tier ever saw, not just the last op's.
      for (const auto& [who, p] : touched) {
        for (const uint64_t q : {p - 1, p, p + 1}) {
          ASSERT_EQ(tier.Contains(who, q), ref.Contains(who, q))
              << "step " << step << " owner " << who << " page " << q;
        }
      }
    }
  }
  // The run reached the interesting states.
  const vmem::TierStats t = ref.totals();
  EXPECT_GT(t.demoted_pages, 0u);
  EXPECT_GT(t.refaults, 0u);
  EXPECT_GT(t.forgotten, 0u);
  if (capacity != 0) {
    EXPECT_GT(t.rejected, 0u);
    EXPECT_EQ(ref.peak_resident(), capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCapacities, TierDifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0, 300)));

TEST(TierSpace, ForgetClearsWholeWordsAndPartialEdges) {
  vmem::TierSpace tier(0, 1, 1);
  const uint64_t base = 1ull << 20;
  for (uint64_t p = base; p < base + 256; ++p) {
    ASSERT_TRUE(tier.Demote(3, p));
  }
  EXPECT_EQ(tier.resident(3), 256u);
  // [base + 10, base + 200): a partial first word, two whole words and a
  // partial last word.
  EXPECT_EQ(tier.Forget(3, base + 10, 190), 190u);
  EXPECT_EQ(tier.resident(3), 66u);
  EXPECT_TRUE(tier.Contains(3, base + 9));
  EXPECT_FALSE(tier.Contains(3, base + 10));
  EXPECT_FALSE(tier.Contains(3, base + 199));
  EXPECT_TRUE(tier.Contains(3, base + 200));
  // Ranges wholly outside the span drop nothing.
  EXPECT_EQ(tier.Forget(3, 0, 1000), 0u);
  EXPECT_EQ(tier.Forget(3, base + 100000, 1000), 0u);
  // Owners below 3 exist as empty shards; unknown owners read as empty.
  EXPECT_EQ(tier.resident(0), 0u);
  EXPECT_EQ(tier.resident(-1), 0u);
  EXPECT_FALSE(tier.Refault(7, base + 9));
  EXPECT_EQ(tier.totals().forgotten, 190u);
}

}  // namespace
