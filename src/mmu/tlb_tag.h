// Packed identity of one TLB translation, shared by Tlb's way tags and the
// utility monitor's displaced records and shadow stacks:
//
//   key << (kVmidBits + 2) | vmid << 2 | is_huge << 1 | valid
//
// The key is the VPN of a 4 KiB entry or the huge-region number of a 2 MiB
// entry.  Every packed tag has the valid bit set, so zero (an empty way or
// record slot) never matches one.
#ifndef SRC_MMU_TLB_TAG_H_
#define SRC_MMU_TLB_TAG_H_

#include <cstdint>

#include "base/types.h"

namespace mmu::tlb_tag {

// VMID tag width: collocation experiments run a handful of VMs, so a byte
// of tag is generous.  Keys keep 54 bits — far beyond the simulated
// address spaces.
inline constexpr uint32_t kVmidBits = 8;
inline constexpr uint16_t kMaxVms = 1u << kVmidBits;

constexpr uint64_t Pack(uint64_t key, base::PageSize size, uint16_t vmid) {
  return (key << (kVmidBits + 2)) | (static_cast<uint64_t>(vmid) << 2) |
         (size == base::PageSize::kHuge ? 2ull : 0ull) | 1ull;
}
constexpr uint64_t Key(uint64_t tag) { return tag >> (kVmidBits + 2); }
constexpr uint16_t Vmid(uint64_t tag) {
  return static_cast<uint16_t>((tag >> 2) & (kMaxVms - 1));
}
constexpr bool IsHuge(uint64_t tag) { return (tag & 2) != 0; }
constexpr bool Valid(uint64_t tag) { return (tag & 1) != 0; }
// A valid tag of `vmid`'s.
constexpr bool Owned(uint64_t tag, uint16_t vmid) {
  return Valid(tag) && Vmid(tag) == vmid;
}

// True iff the pages `tag` translates overlap [vpn, end).  An empty range
// overlaps nothing, not even a huge entry that covers `vpn`.
constexpr bool Overlaps(uint64_t tag, uint64_t vpn, uint64_t end) {
  const uint64_t lo = IsHuge(tag) ? Key(tag) << base::kHugeOrder : Key(tag);
  const uint64_t hi = lo + (IsHuge(tag) ? base::kPagesPerHuge : 1);
  return vpn < end && lo < end && hi > vpn;
}

}  // namespace mmu::tlb_tag

#endif  // SRC_MMU_TLB_TAG_H_
