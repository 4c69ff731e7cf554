// Misaligned Huge Page Promoter (MHPP), paper §4/§5 (kgeminid).
//
// The promoter is Gemini's background pass.  It differs from a vanilla
// khugepaged in two ways:
//  * Priority: base pages mapped under type-2 misaligned huge pages at the
//    other layer are promoted *first*, because promoting them converts an
//    existing (so far useless) huge page into a well-aligned one — double
//    value per promotion.
//  * Huge preallocation: when a region placed by EMA is almost complete
//    (>= 256 of 512 pages present) and memory is not fragmented
//    (FMFI <= 0.5), the promoter pre-allocates the missing base pages at
//    their EMA targets and promotes the region in place, ahead of the
//    booking timeout (paper §4.2, "Huge preallocation").
#ifndef SRC_GEMINI_PROMOTER_H_
#define SRC_GEMINI_PROMOTER_H_

#include <cstdint>
#include <vector>

#include "gemini/channel.h"
#include "policy/policy.h"

namespace gemini {

struct PromoterOptions {
  uint32_t promotions_per_tick = 16;
  // Utilization bar for ordinary (non-priority) regions, Ingens-like.
  uint32_t normal_min_present = 460;
  // Huge preallocation gate (paper: 256 pages, FMFI <= 0.5).
  uint32_t prealloc_min_present = 256;
  double prealloc_max_fmfi = 0.5;
};

struct PromoterStats {
  uint64_t in_place = 0;
  uint64_t preallocated = 0;
  uint64_t priority_migrations = 0;
  uint64_t normal_migrations = 0;
};

class Promoter {
 public:
  explicit Promoter(const PromoterOptions& options = {})
      : options_(options) {}

  // One background pass over the guest process table.  `channel` supplies
  // the misaligned-host-huge regions to prioritize.
  void RunGuestTick(policy::KernelOps& kernel, const GeminiChannel& channel);

  // One background pass over the EPT.  `channel` supplies the
  // guest-huge-misaligned regions to prioritize.
  void RunHostTick(policy::KernelOps& kernel, const GeminiChannel& channel);

  const PromoterStats& stats() const { return stats_; }

 private:
  // If the region's present pages already sit contiguously at a
  // huge-aligned anchor and the missing frames are free, allocate + map the
  // missing pages and promote in place.  Returns true on success.
  bool TryPreallocatePromote(policy::KernelOps& kernel, uint64_t region);

  PromoterOptions options_;
  PromoterStats stats_;
  std::vector<uint32_t> missing_;  // scratch for TryPreallocatePromote
};

}  // namespace gemini

#endif  // SRC_GEMINI_PROMOTER_H_
