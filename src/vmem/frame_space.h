// Per-frame metadata for a simulated physical address space (host physical
// frames, or guest physical frames inside one VM).
//
// The buddy allocator decides *which* frames are free; FrameSpace records
// *why* a frame is held: which owner (VM id / process id / the fragmenter /
// a Gemini booking) and for what purpose.  The alignment auditor and the
// misaligned-huge-page scanner read these tags.
#ifndef SRC_VMEM_FRAME_SPACE_H_
#define SRC_VMEM_FRAME_SPACE_H_

#include <cstdint>
#include <vector>

#include "base/check.h"
#include "base/types.h"

namespace vmem {

inline constexpr uint64_t kInvalidFrame = ~0ull;
inline constexpr int32_t kNoOwner = -1;

enum class FrameUse : uint8_t {
  kFree = 0,
  kAnonymous,    // regular data page
  kPageTable,    // simulated page-table backing
  kPinned,       // fragmenter / kernel pinned
  kBooked,       // reserved by Gemini huge booking
  kBucketed,     // held in the Gemini huge bucket
};

struct FrameInfo {
  int32_t owner = kNoOwner;
  FrameUse use = FrameUse::kFree;
};

class FrameSpace {
 public:
  explicit FrameSpace(uint64_t frame_count) : frames_(frame_count) {}

  uint64_t frame_count() const { return frames_.size(); }

  const FrameInfo& info(uint64_t frame) const {
    SIM_CHECK(frame < frames_.size());
    return frames_[frame];
  }

  void SetUse(uint64_t frame, uint64_t count, int32_t owner, FrameUse use) {
    SIM_CHECK(frame + count <= frames_.size());
    for (uint64_t i = 0; i < count; ++i) {
      frames_[frame + i].owner = owner;
      frames_[frame + i].use = use;
    }
  }

  void ClearUse(uint64_t frame, uint64_t count) {
    SetUse(frame, count, kNoOwner, FrameUse::kFree);
  }

  // Number of frames currently tagged with `use`.  A full scan that no
  // simulated path runs; it stays as the tests' frame-accounting probe
  // (test_booking, test_bucket, test_kernels, test_fragmenter).
  uint64_t CountUse(FrameUse use) const {
    uint64_t n = 0;
    for (const auto& f : frames_) {
      if (f.use == use) {
        ++n;
      }
    }
    return n;
  }

 private:
  std::vector<FrameInfo> frames_;
};

}  // namespace vmem

#endif  // SRC_VMEM_FRAME_SPACE_H_
